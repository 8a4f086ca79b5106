from fractions import Fraction
from math import factorial

import pytest

from bicrit.arith import val_p
from bicrit.belyi import (
    belyi_coeffs,
    canonical_k,
    conjugate_params,
    ncritical_form,
)
from bicrit.errors import DomainError, ResourceBudgetError
from bicrit.idf import find_idf_prime
from bicrit.polyring import QQ, SparsePoly, UniPoly
from util import factorial_belyi_coeffs


def derivative_identity_holds(b):
    z = UniPoly((0, 1))
    lhs = b.polynomial().derivative()
    rhs = (b.d * b.coeffs[0]) * z ** (b.d - b.k - 1) * (z - 1) ** b.k
    return lhs == rhs


class TestBelyiCoeffs:
    def test_examples(self):
        assert belyi_coeffs(3, 1).coeffs == (-2, 3)
        assert belyi_coeffs(4, 2).coeffs == (3, -8, 6)
        assert belyi_coeffs(5, 2).coeffs == (6, -15, 10)

    def test_binomial_form_matches_factorial_formula(self):
        for d in range(3, 61):
            for k in range(1, d - 1):
                coeffs = belyi_coeffs(d, k).coeffs
                assert all(type(b) is int for b in coeffs)
                assert coeffs == factorial_belyi_coeffs(d, k)

    def test_range_errors(self):
        with pytest.raises(DomainError):
            belyi_coeffs(3, 2)
        with pytest.raises(DomainError):
            belyi_coeffs(5, 0)
        with pytest.raises(DomainError):
            belyi_coeffs(2, 1)

    def test_normalization_and_derivative(self):
        for d in range(3, 16):
            for k in range(1, (d - 1) // 2 + 1):
                b = belyi_coeffs(d, k)
                poly = b.polynomial()
                assert poly.evaluate(0) == 0
                assert poly.evaluate(1) == 1
                assert derivative_identity_holds(b)

    def test_denominator_structure(self):
        # b_i * (k-i)! i! is +-prod_{j != i, j <= k} (d - j): the factorial
        # quotients are integers
        for d in range(3, 20):
            for k in range(1, d - 1):
                for i, b in enumerate(belyi_coeffs(d, k).coeffs):
                    prod = factorial(d) // factorial(d - k - 1) // (d - i)
                    assert b * factorial(k - i) * factorial(i) == (-1) ** (k - i) * prod

    def test_idf_coefficient_valuations(self):
        # v_p(b_i) = e away from the witness index, 0 at it
        for d, k in [(3, 1), (5, 1), (5, 2), (8, 2), (11, 3), (16, 1), (51, 3)]:
            w = find_idf_prime(d, k)
            assert w is not None
            b = belyi_coeffs(d, k)
            for i, c in enumerate(b.coeffs):
                expected = 0 if i == w.r else w.e
                assert val_p(c, w.p).finite == expected


class TestCanonicalK:
    def test_examples(self):
        assert canonical_k(10, 8) == 1
        assert canonical_k(5, 2) == 2
        assert canonical_k(27, 24) == 2

    def test_range(self):
        for d in range(3, 30):
            for k in range(1, d - 1):
                ck = canonical_k(d, k)
                assert 1 <= ck <= (d - 1) // 2
                assert ck in (k, d - 1 - k)

    def test_errors(self):
        with pytest.raises(DomainError):
            canonical_k(5, 4)


class TestConjugateParams:
    def test_examples(self):
        assert conjugate_params(1, 0, 3, 1) == (Fraction(1), Fraction(0), 1)
        assert conjugate_params(2, 3, 5, 1) == (Fraction(2), Fraction(-4), 3)

    def test_involution(self):
        for a, c, d, k in [(2, 3, 5, 1), (1, 0, 3, 1), (Fraction(1, 2), Fraction(7, 3), 9, 4)]:
            a1, c1, k1 = conjugate_params(a, c, d, k)
            assert conjugate_params(a1, c1, d, k1) == (Fraction(a), Fraction(c), k)

    def test_degenerate(self):
        with pytest.raises(DomainError):
            conjugate_params(0, 1, 4, 1)


class TestNCriticalForm:
    def test_quartic_example(self):
        form = ncritical_form(4, (1, 1))
        gamma = UniPoly((0, 1))
        assert form.symbolic
        assert form.coeff(4) == UniPoly((6,))
        assert form.coeff(3) == UniPoly((-8,)) - 8 * gamma
        assert form.coeff(2) == 12 * gamma

    def test_degree10_profile_7_1(self):
        form = ncritical_form(10, (7, 1))
        # every coefficient is divisible by 7, so the family is constant mod 7
        for _z_exp, gpoly in form.coeffs:
            for c in gpoly.coeffs:
                assert val_p(c, 7) >= 1

    def test_single_block_matches_bicritical(self):
        # with one block the form is (-1)^k * k! times the two-critical form
        for d in range(3, 13):
            for k in range(1, (d - 1) // 2 + 1):
                form = ncritical_form(d, (k,))
                scale = Fraction((-1) ** k * factorial(k))
                b = belyi_coeffs(d, k)
                expected = {d - i: scale * c for i, c in enumerate(b.coeffs)}
                assert dict(form.coeffs) == expected

    def test_numeric_gamma_derivative_factorization(self):
        for d, profile, gammas in [
            (5, (1, 1), (Fraction(2),)),
            (6, (2, 1), (Fraction(-1, 2),)),
            (7, (1, 1, 1), (Fraction(2), Fraction(3))),
        ]:
            form = ncritical_form(d, profile, gammas)
            total = sum(profile)
            z = UniPoly((0, 1))
            rhs = UniPoly((Fraction(factorial(d), factorial(d - total - 1)),))
            rhs = rhs * z ** (d - total - 1) * (z - 1) ** profile[0]
            for g, k_i in zip(gammas, profile[1:]):
                rhs = rhs * (z - g) ** k_i
            assert form.polynomial().derivative() == rhs

    def test_symbolic_derivative_factorization(self):
        # d/dz g(z, gamma) = 24 z (z - 1)(z - gamma) for the quartic family
        form = ncritical_form(4, (1, 1))
        P = SparsePoly(  # vars (z, gamma)
            QQ,
            2,
            {(e, j): c for e, cpoly in form.coeffs for j, c in enumerate(cpoly.coeffs)},
        )
        z = SparsePoly.variable(QQ, 2, 0)
        g = SparsePoly.variable(QQ, 2, 1)
        one = SparsePoly.constant(QQ, 2, Fraction(1))
        assert P.partial(0) == 24 * z * (z - one) * (z - g)

    def test_validation(self):
        with pytest.raises(DomainError):
            ncritical_form(4, (0, 1))
        with pytest.raises(DomainError):
            ncritical_form(4, (2, 1))  # sum exceeds d - 2
        with pytest.raises(DomainError):
            ncritical_form(6, (1, 1), (Fraction(1),))  # gamma collides with 1
        with pytest.raises(DomainError):
            ncritical_form(8, (1, 1, 1))  # symbolic only for three critical points


class TestStep:
    def test_one_application(self):
        b = belyi_coeffs(3, 1)
        a = SparsePoly.variable(QQ, 2, 0)
        c = SparsePoly.variable(QQ, 2, 1)
        one = SparsePoly.constant(QQ, 2, Fraction(1))
        assert b.step(a, c, one, 10) == a + c  # B(1) = 1
        z = a + c
        assert b.step(a, c, z, 100) == a * (-2 * z**3 + 3 * z**2) + c
        # scalar parameters, as in the shift decomposition
        assert b.step(Fraction(2), Fraction(-1), one, 10) == one

    def test_budget(self):
        b = belyi_coeffs(3, 1)
        a = SparsePoly.variable(QQ, 2, 0)
        c = SparsePoly.variable(QQ, 2, 1)
        with pytest.raises(ResourceBudgetError):
            b.step(a, c, a + c, 3)
