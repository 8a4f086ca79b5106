import copy
import operator
import pickle
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
    factor,
    is_prime,
    val_p,
)
from bicrit.errors import DomainError, ResourceBudgetError
from util import EXT_INFINITY, ExtVal, trial_factor

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
        assert val_p(25, 5) == 2 and type(val_p(25, 5)) is Fraction
        assert val_p(0, 7) is INFINITY
        assert val_p(Fraction(6, 5), 5) == Fraction(-1)

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


class TestStrip:
    """The one strip-p-and-count loop, against the largest j with p^j | n."""

    @given(
        n=st.integers(-(10**30), 10**30).filter(bool),
        p=st.sampled_from((2, 3, 5, 7, 13)),
        j=st.integers(0, 30),
    )
    @example(n=1, p=2, j=0)
    @example(n=-1, p=13, j=30)
    @settings(max_examples=300)
    def test_matches_the_largest_power_dividing(self, n, p, j):
        n *= p**j
        e, rest = bicrit.arith._strip(n, p)
        assert e == max(i for i in range(n.bit_length() + 1) if n % p**i == 0)
        assert p**e * rest == n
        assert rest % p != 0


# a valuation: an int, a Fraction or INFINITY
VALUATIONS = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.just(INFINITY),
)


def _oracle(v):
    """The ExtVal twin of a valuation."""
    return EXT_INFINITY if v is INFINITY else ExtVal(v)


def _outcome(op, *args):
    """op(*args), or DomainError when it raises one."""
    try:
        return op(*args)
    except DomainError:
        return DomainError


def _agree(got, want):
    """A plain valuation (or a bool, or DomainError) got is the oracle's want."""
    if isinstance(want, ExtVal):
        assert (got is INFINITY) == want.is_infinite
        assert got is INFINITY or type(got) in (int, Fraction) and got == want.finite
        assert str(got) == str(want) and hash(got) == hash(want)
    else:
        assert got is want


class TestInfinity:
    def test_order(self):
        assert INFINITY > 10**9 and 10**9 < INFINITY
        assert Fraction(1, 2) < 1
        assert sorted([INFINITY, 3, Fraction(-1)])[-1] is INFINITY
        assert INFINITY >= INFINITY and not INFINITY > INFINITY
        assert INFINITY != 10**9 and INFINITY != "inf"

    def test_arith(self):
        assert INFINITY + 5 is INFINITY and Fraction(1, 2) + INFINITY is INFINITY
        assert INFINITY - Fraction(7, 3) is INFINITY
        assert 4 * INFINITY is INFINITY and INFINITY * 4 is INFINITY

    def test_infinity_guards(self):
        for bad in (
            lambda: 0 * INFINITY,
            lambda: INFINITY * -2,
            lambda: 1 - INFINITY,
            lambda: Fraction(1, 3) - INFINITY,
            lambda: INFINITY - INFINITY,
        ):
            with pytest.raises(DomainError):
                bad()

    def test_non_numbers_are_type_errors(self):
        for other in ("1", 1.5, None, [1]):
            for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.add):
                with pytest.raises(TypeError):
                    op(INFINITY, other)
                with pytest.raises(TypeError):
                    op(other, INFINITY)
        with pytest.raises(TypeError):
            Fraction(1, 2) * INFINITY

    def test_one_object(self):
        assert str(INFINITY) == "inf" and repr(INFINITY) == "INFINITY"
        assert pickle.loads(pickle.dumps(INFINITY)) is INFINITY
        assert copy.deepcopy(INFINITY) is INFINITY

    @given(x=VALUATIONS, y=VALUATIONS, m=st.integers(-3, 6))
    @settings(max_examples=400)
    def test_binary_operations_match_the_extval_oracle(self, x, y, m):
        ox, oy = _oracle(x), _oracle(y)
        for op in (operator.add, operator.sub, operator.lt, operator.le, operator.eq):
            _agree(_outcome(op, x, y), _outcome(op, ox, oy))
        _agree(_outcome(operator.mul, m, x), _outcome(operator.mul, m, ox))
        if m > 0:
            _agree(x * m, m * ox)

    @given(xs=st.lists(VALUATIONS, min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_min_sorted_and_str_match_the_extval_oracle(self, xs):
        oxs = [_oracle(x) for x in xs]
        _agree(min(xs), min(oxs))
        for got, want in zip(sorted(xs), sorted(oxs)):
            _agree(got, want)
        assert [str(x) for x in xs] == [str(o) for o in oxs]
