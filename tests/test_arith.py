import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bicrit.arith
from bicrit.arith import (
    DETERMINISTIC_PRIME_BOUND,
    INFINITY,
    ExtVal,
    factor,
    is_prime,
    val_p,
)
from bicrit.errors import DomainError, ResourceBudgetError
from util import trial_factor

SMALL_PRIMES = [p for p in range(2, 101) if is_prime(p)]


def trial_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# psi_12: the least composite that passes Miller-Rabin to the 12 prime bases
# up to 37; the bound, psi_13, is the least that also passes base 41
PSI12 = 318665857834031151167461


class TestPrimalityBound:
    def test_psi12_is_composite(self):
        assert PSI12 == 399165290221 * 798330580441
        assert not is_prime(PSI12)
        assert factor(PSI12) == ((399165290221, 1), (798330580441, 1))

    def test_bound_is_the_first_pseudoprime_to_all_bases(self):
        # which is why a witness at or past it is labelled "probable"
        assert DETERMINISTIC_PRIME_BOUND == 1287836182261 * 2575672364521
        assert is_prime(DETERMINISTIC_PRIME_BOUND)


class TestFactor:
    def test_small(self):
        assert factor(26) == ((2, 1), (13, 1))
        assert factor(25) == ((5, 2),)

    def test_cube_times_two(self):
        assert factor(453962) == ((2, 1), (61, 3))

    def test_domain(self):
        with pytest.raises(DomainError):
            factor(1)
        with pytest.raises(DomainError):
            factor(-6)

    def test_recompose_range(self):
        for n in range(2, 2000):
            f = factor(n)
            assert prod(p**e for p, e in f) == n
            primes = [p for p, _ in f]
            assert primes == sorted(set(primes))
            assert all(is_prime(p) for p in primes)

    def test_large_semiprime(self):
        n = 1_000_003 * 1_000_033  # both prime, beyond the trial bound
        assert factor(n) == ((1_000_003, 1), (1_000_033, 1))

    def test_rho_budget_names_the_cofactor(self, monkeypatch):
        # two ~60-bit primes: rho would need about 2^30 steps
        p, q = 576460752303435851, 1152921504606945751
        monkeypatch.setattr(bicrit.arith, "RHO_STEP_LIMIT", 2**16)
        with pytest.raises(ResourceBudgetError, match=f"the cofactor {p * q} "):
            factor(12 * p * q)

    def test_rho_budget_is_shared_by_the_cofactors(self, monkeypatch):
        # splitting off one of these 32-bit primes takes 2^16 - 2 counted
        # steps: one split fits the budget, the three splits of a product
        # of four do not
        primes = [4294967311, 4294967357, 4294967371, 4294967377]
        assert all(is_prime(p) for p in primes)
        monkeypatch.setattr(bicrit.arith, "RHO_STEP_LIMIT", 2**17)
        assert factor(primes[0] * primes[1]) == ((primes[0], 1), (primes[1], 1))
        n = primes[0] * primes[1] * primes[2] * primes[3]
        with pytest.raises(ResourceBudgetError):
            factor(n)


def _timed(fn, *args):
    started = time.perf_counter()
    fn(*args)
    return time.perf_counter() - started


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


# primes past the trial-division table, which Brent's rho splits off
MEDIUM_PRIMES = st.integers(1 << 10, 999_983).map(next_prime)
MEDIUM_POWERS = st.builds(pow, MEDIUM_PRIMES, st.integers(1, 4))
LARGE_PRIMES = st.integers(1 << 39, 1 << 61).map(next_prime)


class TestFactorOracle:
    # factor against trial division by every odd number up to 10**6

    @settings(max_examples=60, deadline=None)
    @given(MEDIUM_POWERS)
    @example(1031**2)
    @example(999_983**4)
    def test_prime_powers(self, n):
        # Brent's rho must split p^e into its prime, never return n itself
        assert factor(n) == trial_factor(n)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(MEDIUM_POWERS, min_size=1, max_size=3), LARGE_PRIMES)
    def test_products_with_a_large_prime(self, powers, large):
        # one large prime: two would leave rho a 2^20- to 2^30-step split
        n = large
        for m in powers:
            n *= m
        assert factor(n) == trial_factor(n)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, (1 << 64) - 1))
    def test_random_below_2_64(self, n):
        assert factor(n) == trial_factor(n)

    def test_mersenne_61_without_trial_division_to_a_million(self):
        n = 2**61 - 1
        best = min(_timed(factor, n) for _ in range(3))
        assert factor(n) == ((n, 1),)
        assert best < 0.01


class TestIsPrime:
    def test_examples(self):
        assert is_prime(13)
        assert not is_prime(27)
        assert is_prime(90793) == trial_is_prime(90793)

    def test_agrees_with_trial_division(self):
        for n in range(-3, 5000):
            assert is_prime(n) == trial_is_prime(n)

    def test_agrees_with_factor(self):
        for n in range(2, 1500):
            assert is_prime(n) == (factor(n) == ((n, 1),))


class TestValP:
    def test_examples(self):
        assert val_p(25, 5) == ExtVal(2)
        assert val_p(0, 7) == INFINITY
        assert val_p(Fraction(6, 5), 5) == ExtVal(-1)

    def test_not_prime(self):
        with pytest.raises(DomainError):
            val_p(10, 6)

    @given(
        x=st.fractions(min_value=-200, max_value=200, max_denominator=60),
        y=st.fractions(min_value=-200, max_value=200, max_denominator=60),
        p=st.sampled_from(SMALL_PRIMES),
    )
    @settings(max_examples=300)
    def test_mult_and_ultrametric(self, x, y, p):
        vx, vy = val_p(x, p), val_p(y, p)
        assert val_p(x * y, p) == vx + vy
        vsum = val_p(x + y, p)
        m = min(vx, vy)
        assert vsum >= m
        if vx != vy:
            assert vsum == m


class TestExtVal:
    def test_order(self):
        assert INFINITY > ExtVal(10**9)
        assert ExtVal(Fraction(1, 2)) < ExtVal(1)
        assert sorted([INFINITY, ExtVal(3), ExtVal(-1)])[-1] is INFINITY

    def test_arith(self):
        assert INFINITY + 5 == INFINITY
        assert ExtVal(2) + ExtVal(Fraction(1, 2)) == ExtVal(Fraction(5, 2))
        assert 3 * ExtVal(-2) == ExtVal(-6)
        assert 4 * INFINITY == INFINITY
        assert ExtVal(5) - ExtVal(2) == ExtVal(3)

    def test_infinity_guards(self):
        with pytest.raises(DomainError):
            INFINITY.finite
        with pytest.raises(DomainError):
            0 * INFINITY
        with pytest.raises(DomainError):
            ExtVal(1) - INFINITY

    def test_parse(self):
        assert ExtVal.parse("inf") == INFINITY
        assert ExtVal.parse("-3/2") == ExtVal(Fraction(-3, 2))
