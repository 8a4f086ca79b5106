from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bicrit.arith
from bicrit.arith import ExtVal, INFINITY, factor, is_prime, val_p
from bicrit.errors import DomainError, ResourceBudgetError

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


class TestFactor:
    def test_small(self):
        assert factor(26).factors == ((2, 1), (13, 1))
        assert factor(25).factors == ((5, 2),)

    def test_cube_times_two(self):
        f = factor(453962)
        assert f.factors == ((2, 1), (61, 3))
        assert f.recompose() == 453962

    def test_domain(self):
        with pytest.raises(DomainError):
            factor(1)
        with pytest.raises(DomainError):
            factor(-6)

    def test_recompose_range(self):
        for n in range(2, 2000):
            f = factor(n)
            assert f.recompose() == n
            assert list(f.primes()) == sorted(f.primes())
            assert all(is_prime(p) for p in f.primes())

    def test_large_semiprime(self):
        n = 1_000_003 * 1_000_033  # both prime, beyond the trial bound
        assert factor(n).factors == ((1_000_003, 1), (1_000_033, 1))

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
        assert factor(primes[0] * primes[1]).primes() == tuple(primes[:2])
        n = primes[0] * primes[1] * primes[2] * primes[3]
        with pytest.raises(ResourceBudgetError):
            factor(n)


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
            assert is_prime(n) == (factor(n).factors == ((n, 1),))


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
