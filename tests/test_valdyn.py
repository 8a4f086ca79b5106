import random
from fractions import Fraction

import pytest

import bicrit.errors
from bicrit.arith import INFINITY
from bicrit.errors import DomainError, ResourceBudgetError
from bicrit.valdyn import (
    CaseTag,
    ValParams,
    check_shift_valuations,
    classify_case,
    divergence_certificate,
    image_val,
    orbit_val,
    shift_remainder,
)
from util import (
    ALL_CASES,
    exact_orbit_valuations,
    rational_with_val,
    sample_case_valuations,
)

# (d, k, p, r, e) pools with verified IDF witnesses
POOL = [(3, 1, 3, 0, 1), (5, 1, 5, 0, 1), (5, 2, 5, 0, 1), (8, 2, 3, 2, 1)]


def params(d, k, r, e, va, vb):
    return ValParams(d, k, r, e, va, vb)


class TestValParams:
    def test_rejects_non_witness(self):
        with pytest.raises(DomainError):
            params(27, 3, 2, 2, -1, -1)  # 2 divides v_5(25)
        with pytest.raises(DomainError):
            params(5, 1, 1, 1, -1, -1)  # r = 1 never allowed
        with pytest.raises(DomainError):
            params(5, 1, 0, 2, -1, -1)  # no prime with v_p(5) = 2

    def test_rejects_alpha_zero(self):
        # v_alpha = inf is alpha = 0, no degree-d map; v_beta = inf (c = 0) is one
        for vb in (-1, 2, INFINITY):
            with pytest.raises(DomainError, match="alpha = 0"):
                ValParams(5, 1, 0, 1, INFINITY, vb)
        assert ValParams(5, 1, 0, 1, 2, INFINITY).v_beta == INFINITY

    def test_valuations_are_plain_rationals(self):
        as_ints = params(5, 1, 0, 1, -1, -1)
        as_fractions = params(5, 1, 0, 1, Fraction(-1), Fraction(-1))
        assert as_ints == as_fractions
        assert orbit_val(0, as_ints, 3) == orbit_val(0, as_fractions, 3)
        for bad in (-1.0, "-1", None):
            with pytest.raises(DomainError, match="not a valuation"):
                ValParams(5, 1, 0, 1, -1, bad)
            with pytest.raises(DomainError, match="not a valuation"):
                image_val(bad, as_ints)


class TestImageVal:
    def test_negative_input(self):
        t = image_val(-1, params(5, 1, 0, 1, -1, -1))
        assert t.value == -6 and t.exact

    def test_infinite_input_gives_beta(self):
        t = image_val(INFINITY, params(5, 1, 0, 1, -1, -1))
        assert t.value == -1 and t.exact
        t = image_val(INFINITY, params(5, 1, 0, 1, 2, 3))
        assert t.value == 3 and t.exact

    def test_zero_input(self):
        t = image_val(0, params(5, 1, 0, 1, -1, 0))
        assert t.value == -1 and t.exact

    def test_tie_is_inexact(self):
        t = image_val(0, params(5, 1, 0, 1, 0, 0))
        assert t.value == 0 and not t.exact


class TestOrbitVal:
    def test_diverging_orbit(self):
        seq = orbit_val(0, params(5, 1, 0, 1, -1, -1), 4)
        assert [t.value for t in seq] == [-1, -6, -31, -156]
        assert all(t.exact for t in seq)
        assert all(seq[i].value > seq[i + 1].value for i in range(3))

    def test_orbit_of_one(self):
        seq = orbit_val(1, params(5, 1, 0, 1, -1, 0), 3)
        assert [t.value for t in seq] == [-1, -6, -31]
        assert all(t.exact for t in seq)

    def test_integral_stays_nonnegative(self):
        seq = orbit_val(0, params(5, 1, 0, 1, 0, 0), 5)
        assert all(t.value >= 0 for t in seq)

    def test_bit_budget(self, monkeypatch):
        # -1, -6, -31, -156 take 1 + 3 + 5 + 8 bits, and a bit more each for
        # the denominator 1: 21 in all; INFINITY takes none
        diverging = params(5, 1, 0, 1, -1, -1)
        monkeypatch.setattr(bicrit.errors, "EXACT_BIT_BUDGET", 21)
        assert len(orbit_val(0, diverging, 4)) == 4
        with pytest.raises(ResourceBudgetError):
            orbit_val(0, diverging, 5)
        monkeypatch.setattr(bicrit.errors, "EXACT_BIT_BUDGET", 0)
        assert {t.value for t in orbit_val(0, params(5, 1, 0, 1, -1, INFINITY), 5)} == {INFINITY}


class TestClassify:
    def test_examples(self):
        assert classify_case(params(5, 1, 0, 1, -1, -1)) is CaseTag.CASE1
        assert classify_case(params(5, 1, 0, 1, 2, -1)) is CaseTag.CASE4I
        assert classify_case(params(5, 1, 0, 1, 0, 3)) is CaseTag.INTEGRAL
        assert classify_case(params(5, 1, 0, 1, -2, 0)) is CaseTag.CASE2
        assert classify_case(params(5, 1, 0, 1, 0, -2)) is CaseTag.CASE3
        assert classify_case(params(5, 1, 0, 1, 10, -1)) is CaseTag.CASE4II
        assert classify_case(params(5, 1, 0, 1, 4, -1)) is CaseTag.CASE4III

    def test_total(self):
        rng = random.Random(3)
        for _ in range(200):
            va = rng.randrange(-5, 6)
            vb = rng.randrange(-5, 6)
            tag = classify_case(params(5, 2, 0, 1, va, vb))
            assert tag in ALL_CASES


class TestDivergenceCertificate:
    def test_case1(self):
        cert = divergence_certificate(params(5, 1, 0, 1, -1, -1))
        assert cert.kind == "diverging"
        assert [t.value for t in cert.steps[:3]] == [-1, -6, -31]
        assert cert.step_decrement == Fraction(-5)

    def test_case4ii_constant(self):
        cert = divergence_certificate(params(5, 1, 0, 1, 10, -1))
        assert cert.kind == "constant"
        assert all(t.value == -1 and t.exact for t in cert.steps)

    def test_case4iii_inconclusive(self):
        cert = divergence_certificate(params(3, 1, 0, 1, 2, -1))
        assert cert.kind == "inconclusive"

    def test_integral_rejected(self):
        with pytest.raises(DomainError):
            divergence_certificate(params(5, 1, 0, 1, 0, 0))

    def test_monotone_divergence_all_cases(self):
        rng = random.Random(17)
        for d, k, p, r, e in POOL:
            for case in (CaseTag.CASE1, CaseTag.CASE2, CaseTag.CASE3, CaseTag.CASE4I):
                for _ in range(5):
                    va, vb = sample_case_valuations(rng, d, k, r, e, case)
                    cert = divergence_certificate(params(d, k, r, e, va, vb))
                    assert cert.kind == "diverging"
                    vals = [t.value for t in cert.steps]
                    assert all(x > y for x, y in zip(vals, vals[1:]))


class TestSoundnessAgainstRationals:
    def test_tropical_matches_exact_orbit(self):
        # quick slice; the >= 100 pair / 8 iteration load runs in acceptance
        rng = random.Random(20240)
        d, k, p, r, e = POOL[0]
        for case in ALL_CASES:
            for _ in range(3):
                va, vb = sample_case_valuations(rng, d, k, r, e, case)
                alpha = rational_with_val(rng, p, va)
                beta = rational_with_val(rng, p, vb)
                for start in (0, 1):
                    trop = orbit_val(start, params(d, k, r, e, va, vb), 6)
                    exact = exact_orbit_valuations(d, k, p, alpha, beta, start, 6)
                    for t, v in zip(trop, exact):
                        if t.exact:
                            assert v == t.value
                        else:
                            assert v >= t.value

    def test_never_equal_terms(self):
        # for v_x < 0, the two alpha-terms of the minimum can never tie
        for d, k, p, r, e in POOL:
            for va in range(-3, 4):
                for vx in range(-4, 0):
                    t1 = va + e + d * vx
                    t2 = va + (d - r) * vx
                    assert t1 != t2


class TestShiftRemainder:
    def test_h0_is_y(self):
        sd = shift_remainder(3, 1, 0)
        from bicrit.polyring import SparsePoly

        assert sd.h == SparsePoly.variable(2, 1)
        assert sd.identity_ok

    def test_h1_expansion(self):
        alpha = Fraction(3)
        sd = shift_remainder(3, 1, 1, alpha, Fraction(1))
        from bicrit.polyring import SparsePoly

        # alpha * (-2((X+Y)^3 - X^3) + 3((X+Y)^2 - X^2))
        expected = SparsePoly(
            2,
            {
                (2, 1): -6 * alpha,
                (1, 2): -6 * alpha,
                (0, 3): -2 * alpha,
                (1, 1): 6 * alpha,
                (0, 2): 3 * alpha,
            },
        )
        assert sd.h == expected
        assert sd.identity_ok

    def test_identity_small_cases(self):
        # the full n <= 3 matrix for both (d, k) runs in the acceptance suite
        for d, k, n in ((3, 1, 2), (3, 1, 3), (5, 2, 2)):
            sd = shift_remainder(d, k, n, Fraction(2, 3), Fraction(-1, 2))
            assert sd.identity_ok

    def test_valuation_bounds_case4iii(self):
        rng = random.Random(7)
        # (3,1): v_alpha = -2 v_beta puts the minimum at v_beta exactly
        p = 3
        for _ in range(10):
            vb = -rng.randrange(1, 3)
            va = -2 * vb
            alpha = rational_with_val(rng, p, va)
            beta = rational_with_val(rng, p, vb)
            x = rational_with_val(rng, p, vb + rng.randrange(0, 3))
            y = rational_with_val(rng, p, va + rng.randrange(0, 3))
            res = check_shift_valuations(3, 1, 2, p, alpha, beta, x, y)
            assert res["h_bound_ok"] and res["orbit_bound_ok"]

    def test_valuation_hypotheses_enforced(self):
        with pytest.raises(DomainError):
            check_shift_valuations(
                3, 1, 1, 3, Fraction(9), Fraction(3), Fraction(1), Fraction(9)
            )  # v(beta) not negative
