import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicrit.arith import ExtVal, INFINITY, val_p
from bicrit.errors import DomainError
from bicrit.pcf import critical_orbit_poly
from bicrit.polyring import (
    GF,
    QQ,
    FieldElem,
    SparsePoly,
    UniPoly,
    _bareiss_zx,
    _zx_exact_div,
    bivariate_resultant,
    newton_polygon,
)
from util import (
    exact_div,
    fraction_bivariate_resultant,
    poly_divmod,
    prs_resultant,
    reduce_coeff,
    reduce_poly,
    resultant,
)


def qpoly(*coeffs):
    return UniPoly(coeffs)


def sp(terms):
    return SparsePoly(QQ, 2, terms)


def rationals(nonzero=False):
    values = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return values.filter(bool) if nonzero else values


@st.composite
def two_var_polys(draw, max_x=3, max_y=3, max_terms=6):
    """A nonzero 2-variable polynomial over QQ with small rational coefficients."""
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, max_x), st.integers(0, max_y)),
            rationals(nonzero=True),
            min_size=1,
            max_size=max_terms,
        )
    )
    return sp(terms)


class TestRingOps:
    def test_derivative(self):
        f = qpoly(0, 0, 3, -2)  # 3z^2 - 2z^3
        assert f.derivative() == qpoly(0, 6, -6)

    def test_pow_zero(self):
        f = qpoly(2, 5, 1)
        assert f**0 == qpoly(1)

    def test_mixed_domains_rejected(self):
        with pytest.raises(DomainError):
            SparsePoly(QQ, 2, {(1, 0): 1}) + SparsePoly(GF(3), 2, {(1, 0): 1})
        with pytest.raises(DomainError):
            qpoly(1, 1) + GF(3).one

    def test_rational_coefficients_only(self):
        # UniPoly is Q[x]: ints become Fractions, field elements are refused
        assert all(type(c) is Fraction for c in qpoly(1, 0, 2).coeffs)
        with pytest.raises(DomainError):
            UniPoly([GF(5).one])

    def test_divmod_exact(self):
        f = qpoly(-1, 0, 0, 0, 1)  # x^4 - 1
        g = qpoly(-1, 0, 1)  # x^2 - 1
        q, r = poly_divmod(f, g)
        assert r.is_zero and q == qpoly(1, 0, 1)
        assert exact_div(f, g) == q
        with pytest.raises(DomainError):
            exact_div(qpoly(1, 1), qpoly(0, 1))

    def test_evaluate(self):
        f = qpoly(1, -2, 3)
        assert f.evaluate(Fraction(1, 2)) == Fraction(3, 4)


class TestResultant:
    def test_shared_root(self):
        assert resultant(qpoly(-1, 0, 1), qpoly(-1, 1)) == 0

    def test_two_linears(self):
        r = resultant(qpoly(-2, 1), qpoly(-3, 1))
        assert abs(r) == 1
        assert r == Fraction(-1)  # value of x - 3 at x = 2

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            resultant(qpoly(), qpoly(1, 1))

    def test_swap_sign_and_multiplicativity(self):
        rng = random.Random(7)
        for _ in range(40):
            f = qpoly(*[rng.randrange(-5, 6) for _ in range(rng.randrange(2, 5))])
            g = qpoly(*[rng.randrange(-5, 6) for _ in range(rng.randrange(2, 5))])
            h = qpoly(*[rng.randrange(-5, 6) for _ in range(rng.randrange(2, 4))])
            if f.is_zero or g.is_zero or h.is_zero or (g * h).is_zero:
                continue
            sign = -1 if (f.degree * g.degree) % 2 else 1
            assert resultant(f, g) == sign * resultant(g, f)
            assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)

    def test_matches_euclidean_oracle(self):
        rng = random.Random(11)
        for _ in range(60):
            f = qpoly(*[rng.randrange(-4, 5) for _ in range(rng.randrange(2, 6))])
            g = qpoly(*[rng.randrange(-4, 5) for _ in range(rng.randrange(2, 6))])
            if f.is_zero or g.is_zero:
                continue
            assert resultant(f, g) == prs_resultant(f, g)


class TestBivariateResultant:
    def test_direct_elimination(self):
        c_poly = SparsePoly(QQ, 2, {(0, 1): 1})
        g = SparsePoly(QQ, 2, {(1, 0): 1, (0, 1): 1, (0, 0): -1})
        r_in_a = bivariate_resultant(c_poly, g, eliminate=1)
        assert r_in_a in (qpoly(-1, 1), qpoly(1, -1))
        r_in_c = bivariate_resultant(c_poly, g, eliminate=0)
        assert r_in_c in (qpoly(0, 1), qpoly(0, -1))

    def test_specialization_commutes(self):
        # Res_c(F, G)(a0) = Res_c(F(a0, .), G(a0, .)) when no degree drop
        rng = random.Random(23)
        for _ in range(25):
            F = SparsePoly(
                QQ,
                2,
                {
                    (rng.randrange(3), rng.randrange(3)): rng.randrange(-4, 5)
                    for _ in range(4)
                },
            )
            G = SparsePoly(
                QQ,
                2,
                {
                    (rng.randrange(3), rng.randrange(3)): rng.randrange(-4, 5)
                    for _ in range(4)
                },
            )
            if not F or not G or F.degree(1) < 1 or G.degree(1) < 1:
                continue
            R = bivariate_resultant(F, G, eliminate=1)
            for a0 in (Fraction(2), Fraction(-1), Fraction(3, 2)):
                fc = _specialize_a(F, a0)
                gc = _specialize_a(G, a0)
                if fc.degree != F.degree(1) or gc.degree != G.degree(1):
                    continue  # leading coefficient vanished; convention differs
                assert R.evaluate(a0) == resultant(fc, gc)

    @settings(max_examples=150, deadline=None)
    @given(F=two_var_polys(), G=two_var_polys(), eliminate=st.sampled_from((0, 1)))
    def test_matches_fraction_oracle(self, F, G, eliminate):
        # non-integer coefficients exercise the lam/mu rescaling
        assert bivariate_resultant(F, G, eliminate) == fraction_bivariate_resultant(
            F, G, eliminate
        )

    @settings(max_examples=60, deadline=None)
    @given(
        lead=rationals(nonzero=True),
        mid=rationals(),
        tail=two_var_polys(max_x=0),
        scale=two_var_polys(max_x=0),
    )
    def test_zero_pivot_swaps_rows(self, lead, mid, tail, scale):
        # F = lead*x^2 + mid*x + tail(y), G = scale(y) * (x + mid/lead),
        # x the first variable: the second pivot,
        # (scale*mid/lead) * lead - scale * mid, is zero
        F = sp({(2, 0): lead, (1, 0): mid}) + tail
        G = scale * sp({(1, 0): 1, (0, 0): mid / lead})
        assert bivariate_resultant(F, G, 0) == fraction_bivariate_resultant(F, G, 0)

    @settings(max_examples=150, deadline=None)
    @given(
        F=two_var_polys(max_x=4, max_terms=3),
        G=two_var_polys(max_x=4, max_terms=3),
        eliminate=st.sampled_from((0, 1)),
    )
    def test_sparse_inputs_match_fraction_oracle(self, F, G, eliminate):
        # few terms leave zeros on the diagonal, so rows that elimination
        # skipped are swapped into the pivot position
        assert bivariate_resultant(F, G, eliminate) == fraction_bivariate_resultant(
            F, G, eliminate
        )

    def test_row_swap_example(self):
        # Res_x(x^2 + x + y, x + 1) = F(-1) = y, reached through a row swap
        F = sp({(2, 0): 1, (1, 0): 1, (0, 1): 1})
        G = sp({(1, 0): 1, (0, 0): 1})
        assert bivariate_resultant(F, G, 0) == qpoly(0, 1)
        mat = [[[1], [1], [0, 1]], [[1], [1], []], [[], [1], [1]]]
        assert _bareiss_zx(mat) == [0, 1]

    @settings(max_examples=60, deadline=None)
    @given(F=two_var_polys(max_x=0), G=two_var_polys())
    def test_constant_in_eliminated_variable(self, F, G):
        # Res_x(F, G) = F^(deg_x G) when F does not involve x
        R = bivariate_resultant(F, G, 0)
        assert R == _specialize_a(F, Fraction(0)) ** G.degree(0)
        assert R == fraction_bivariate_resultant(F, G, 0)

    def test_inexact_division_raises(self):
        # in Z[x], x + 1 is not a multiple of 2x, 2x + 3 leaves 2 over 2x + 1,
        # a nonzero constant is no multiple of 2x + 1, and x / 2x = 1/2
        with pytest.raises(DomainError):
            _zx_exact_div([1, 1], [0, 2])
        with pytest.raises(DomainError):
            _zx_exact_div([3, 2], [1, 2])
        with pytest.raises(DomainError):
            _zx_exact_div([5], [1, 2])
        with pytest.raises(DomainError):
            _zx_exact_div([0, 1], [0, 2])
        assert _zx_exact_div([-1, 0, 1], [1, 1]) == [-1, 1]

    def test_rejects_other_rings(self):
        F5 = GF(5)
        F = SparsePoly(F5, 2, {(1, 0): 1})
        with pytest.raises(DomainError):
            bivariate_resultant(F, F, 0)


def _specialize_a(P, a0):
    coeffs = {}
    for (i, j), c in P.terms.items():
        coeffs[j] = coeffs.get(j, Fraction(0)) + c * a0**i
    n = max(coeffs) + 1
    dense = [Fraction(0)] * n
    for j, c in coeffs.items():
        dense[j] = c
    return UniPoly(dense)


class TestNewtonPolygon:
    def test_eisenstein(self):
        np_ = newton_polygon(qpoly(-5, 0, 1), 5)
        assert [(s.slope, s.length) for s in np_.segments] == [(Fraction(-1, 2), 2)]
        assert np_.root_valuations() == [(ExtVal(Fraction(1, 2)), 2)]

    def test_two_slopes(self):
        np_ = newton_polygon(qpoly(125, 5, 1), 5)
        assert [(s.slope, s.length) for s in np_.segments] == [
            (Fraction(-2), 1),
            (Fraction(-1), 1),
        ]
        assert np_.root_valuations() == [(ExtVal(1), 1), (ExtVal(2), 1)]

    def test_unit_coefficients(self):
        np_ = newton_polygon(qpoly(-1, -1, -1, 2), 3)
        assert [(s.slope, s.length) for s in np_.segments] == [(Fraction(0), 3)]

    def test_vanishing_at_zero(self):
        np_ = newton_polygon(qpoly(0, 0, 5, 1), 5)
        assert np_.vanishing_order == 2
        assert (INFINITY, 2) in np_.root_valuations()

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            newton_polygon(qpoly(), 5)

    def test_constant_multiple_keeps_slopes(self):
        rng = random.Random(5)
        for _ in range(30):
            f = qpoly(*[rng.randrange(-9, 10) for _ in range(rng.randrange(2, 6))])
            if f.is_zero:
                continue
            for p in (2, 3, 5):
                scaled = f * Fraction(rng.choice([2, 3, 5, 7]), rng.choice([1, 2, 9]))
                a = [(s.slope, s.length) for s in newton_polygon(f, p).segments]
                b = [(s.slope, s.length) for s in newton_polygon(scaled, p).segments]
                assert a == b

    def test_rational_roots_match_slopes(self):
        # products of (x - root) with known valuations, degree <= 4
        rng = random.Random(9)
        for p in (2, 3, 5):
            for _ in range(20):
                roots = []
                for _ in range(rng.randrange(1, 5)):
                    v = rng.randrange(-2, 3)
                    u = rng.choice([1, 2, 3, 4, 6, 7])
                    while u % p == 0:
                        u += 1
                    roots.append(Fraction(u) * Fraction(p) ** v)
                f = qpoly(1)
                for r in roots:
                    f = f * qpoly(-r, 1)
                expected = sorted(
                    val_p(r, p).finite for r in roots
                )
                got = []
                for v, mult in newton_polygon(f, p).root_valuations():
                    got.extend([v.finite] * mult)
                assert sorted(got) == expected


class TestFiniteFields:
    def test_prime_field(self):
        F3 = GF(3)
        assert F3.order == 3
        assert (F3.elem(2) + F3.elem(2)) == F3.elem(1)
        assert F3.elem(2).inverse() == F3.elem(2)

    def test_gf9(self):
        F9 = GF(3, 2)
        assert F9.modulus == (1, 0, 1)  # x^2 + 1, smallest irreducible
        els = list(F9.elements())
        assert len(els) == 9
        assert all(x**8 == F9.one for x in els if x)

    def test_gf25_frobenius(self):
        F25 = GF(5, 2)
        assert F25.modulus == (1, 1, 1)
        fixed = [x for x in F25.elements() if x**5 == x]
        assert len(fixed) == 5
        assert all(x.coeffs[1] == 0 for x in fixed)

    def test_field_axioms_sampled(self):
        for field in (GF(2, 3), GF(3, 2), GF(7)):
            els = list(field.elements())
            for x in els:
                assert x + (-x) == field.zero
                if x:
                    assert x * x.inverse() == field.one
            a, b, c = els[1], els[-1], els[len(els) // 2]
            assert a * (b + c) == a * b + a * c

    def test_embedding(self):
        x = GF(3).elem(2)
        with pytest.raises(DomainError):
            GF(5).coerce(x)

    def test_coerce_takes_ints_and_own_elements(self):
        F7 = GF(7)
        x = F7.elem(3)
        assert F7.coerce(10) == x and F7.coerce(x) is x
        with pytest.raises(DomainError):
            F7.coerce(Fraction(1, 2))
        with pytest.raises(DomainError):
            F7.coerce(Fraction(4))

    def test_no_lifting_into_the_field(self):
        F7 = GF(7)
        x = F7.elem(3)
        for other in (1, Fraction(1, 2), GF(5).elem(3), GF(7, 2).one):
            with pytest.raises(TypeError):
                x + other
            with pytest.raises(TypeError):
                other + x
            with pytest.raises(TypeError):
                x - other
            with pytest.raises(TypeError):
                other * x
            with pytest.raises(TypeError):
                x / other
            with pytest.raises(TypeError):
                x == other
        assert x * F7.elem(5) == F7.one and x != F7.one


class TestSparsePoly:
    def test_reduction_commutes_with_evaluation(self):
        rng = random.Random(31)
        F3 = GF(3)
        for _ in range(30):
            P = SparsePoly(
                QQ,
                2,
                {
                    (rng.randrange(3), rng.randrange(3)): Fraction(
                        rng.randrange(-6, 7), rng.choice([1, 2, 4, 5])
                    )
                    for _ in range(5)
                },
            )
            a = Fraction(rng.randrange(-8, 9))
            c = Fraction(rng.randrange(-8, 9))
            lhs = reduce_poly(P, F3).evaluate((reduce_coeff(a, F3), reduce_coeff(c, F3)))
            rhs = reduce_coeff(P.evaluate((a, c)), F3)
            assert lhs == rhs

    def test_evaluate_raises_only_the_exponents_that_occur(self, monkeypatch):
        # F_7 of (d, k) = (3, 1) over GF(9) has 7 terms with c-exponents up
        # to 729; a table of every power took about 1,100 products a point
        F9 = GF(3, 2)
        F = critical_orbit_poly(3, 1, 0, 7, ring=F9).poly
        assert F.num_terms == 7
        point = (F9.elem((1, 2)), F9.elem((2, 1)))
        expected = F9.zero
        for exps, t in F.terms.items():
            for v, e in zip(point, exps):
                for _ in range(e):
                    t = t * v
            expected = expected + t
        calls = 0
        mul = FieldElem.__mul__

        def counting_mul(self, other):
            nonlocal calls
            calls += 1
            return mul(self, other)

        monkeypatch.setattr(FieldElem, "__mul__", counting_mul)
        assert F.evaluate(point) == expected
        assert calls <= 150

    def test_partial_derivative(self):
        P = SparsePoly(QQ, 2, {(2, 1): 3, (0, 2): -1})
        assert P.partial(0) == SparsePoly(QQ, 2, {(1, 1): 6})
        assert P.partial(1) == SparsePoly(QQ, 2, {(2, 0): 3, (0, 1): -2})

    def test_mul_matches_generic(self):
        rng = random.Random(13)
        F5 = GF(5)
        for _ in range(20):
            terms_a = {
                (rng.randrange(3), rng.randrange(3)): rng.randrange(-9, 10)
                for _ in range(4)
            }
            terms_b = {
                (rng.randrange(3), rng.randrange(3)): rng.randrange(-9, 10)
                for _ in range(4)
            }
            A, B = SparsePoly(QQ, 2, terms_a), SparsePoly(QQ, 2, terms_b)
            prod_q = reduce_poly(A * B, F5)
            prod_f = reduce_poly(A, F5) * reduce_poly(B, F5)
            assert prod_q == prod_f
