import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bicrit.polyring
from bicrit.arith import INFINITY, is_prime, val_p
from bicrit.belyi import belyi_coeffs
from bicrit.errors import DomainError
from bicrit.pcf import critical_orbit_poly
from bicrit.polyring import (
    GF,
    FieldElem,
    SparsePoly,
    UniPoly,
    _bareiss_zx,
    _fq_divmod,
    _fq_gcd,
    _fq_mul,
    _fq_pack,
    _fq_powmod,
    _zx_divmod,
    _zx_exact_div,
    _zx_mul_sub,
    _zx_pow,
    bivariate_resultant,
    common_roots,
    frobenius_orbits,
    newton_polygon,
    resultant_mod,
)
from util import (
    dict_mul,
    exact_div,
    fraction_bivariate_resultant,
    fx_divmod,
    fx_mul,
    poly_divmod,
    power_inverse,
    prs_resultant,
    reduce_coeff,
    reduce_poly,
    resultant,
    trimmed,
)


def qpoly(*coeffs):
    return UniPoly(coeffs)


def sp(terms, p=None):
    return SparsePoly(2, terms, p)


def rationals(nonzero=False):
    values = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return values.filter(bool) if nonzero else values


@st.composite
def two_var_polys(draw, max_x=3, max_y=3, max_terms=6):
    """A nonzero 2-variable polynomial over Q with small rational coefficients."""
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, max_x), st.integers(0, max_y)),
            rationals(nonzero=True),
            min_size=1,
            max_size=max_terms,
        )
    )
    return sp(terms)


@st.composite
def reducible_polys(draw, p, max_terms=6):
    """A 2-variable polynomial over Q whose denominators are prime to p."""
    coeffs = st.builds(
        Fraction, st.integers(-9, 9), st.sampled_from([q for q in range(1, 7) if q % p])
    )
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=max_terms
        )
    )
    return sp(terms)


class TestRingOps:
    def test_pow_zero(self):
        f = qpoly(2, 5, 1)
        assert f**0 == qpoly(1)

    def test_mixed_domains_rejected(self):
        with pytest.raises(DomainError):
            sp({(1, 0): 1}) + sp({(1, 0): 1}, p=3)
        with pytest.raises(DomainError):
            sp({(1, 0): 1}, p=3) * sp({(1, 0): 1}, p=5)
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


def int_polys(lo, hi, size, nonzero=False):
    """Trimmed int coefficient lists, lowest degree first: up to ``size``
    coefficients, or for ``nonzero`` up to ``size`` below a nonzero top."""
    low = st.lists(st.integers(lo, hi), max_size=size)
    if not nonzero:
        return low.map(trimmed)
    return st.builds(lambda a, top: a + [top], low, st.integers(lo, hi).filter(bool))


def _mod_p(f, p):
    """A UniPoly over Q with denominators prime to p, as a trimmed int
    list mod p."""
    return trimmed(reduce_coeff(c, GF(p)).coeffs[0] for c in f.coeffs)


class TestIntListKernel:
    """The int-list kernel of Z[x] and GF(p)[x] against UniPoly over Q."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=st.sampled_from((2, 3, 5, 7)))
    def test_divmod_mod_p_is_reduction(self, data, p):
        t = data.draw(int_polys(0, p - 1, 12))
        d = data.draw(int_polys(0, p - 1, 5, nonzero=True))
        q, r = poly_divmod(UniPoly(t), UniPoly(d))
        assert _zx_divmod(t, d, p) == (_mod_p(q, p), _mod_p(r, p))

    @settings(max_examples=150, deadline=None)
    @given(t=int_polys(-20, 20, 8), d=int_polys(-3, 3, 4, nonzero=True))
    def test_divmod_over_z_divides_exactly_or_raises(self, t, d):
        q, r = poly_divmod(UniPoly(t), UniPoly(d))
        if all(c.denominator == 1 for c in q.coeffs):
            assert _zx_divmod(t, d) == (list(map(int, q.coeffs)), list(map(int, r.coeffs)))
        else:
            with pytest.raises(DomainError):
                _zx_divmod(t, d)
        if r or any(c.denominator != 1 for c in q.coeffs):
            with pytest.raises(DomainError):
                _zx_exact_div(t, d)
        else:
            assert _zx_exact_div(t, d) == list(map(int, q.coeffs))

    @settings(max_examples=100, deadline=None)
    @given(q=int_polys(-9, 9, 6), d=int_polys(-9, 9, 4, nonzero=True))
    def test_exact_division_over_z(self, q, d):
        t = _zx_mul_sub(q, d, [], [])
        before = list(t)
        assert _zx_divmod(t, d) == (q, [])
        assert _zx_exact_div(t, d) == q
        assert t == before  # the dividend is not consumed

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=st.sampled_from((2, 3, 5, 7)), k=st.integers(0, 12))
    def test_pow_mod_is_repeated_product(self, data, p, k):
        a = data.draw(int_polys(0, p - 1, 5))
        f = data.draw(int_polys(0, p - 1, 4, nonzero=True).filter(lambda f: len(f) > 1))
        want = [1]
        for _ in range(k):
            want = _mod_p(poly_divmod(UniPoly(want) * UniPoly(a), UniPoly(f))[1], p)
        assert _fq_powmod(a, k, f, GF(p)) == want
        assert _zx_pow(a, k, p) == _mod_p(UniPoly(a) ** k, p)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=st.sampled_from((2, 3, 5, 7)))
    def test_gcd_is_monic_and_divides_both(self, data, p):
        common = data.draw(int_polys(0, p - 1, 3))
        a = _zx_mul_sub(data.draw(int_polys(0, p - 1, 5)), common, [], [], p)
        b = _zx_mul_sub(data.draw(int_polys(0, p - 1, 5)), common, [], [], p)
        g = _fq_gcd(a, b, GF(p))
        if not a and not b:
            assert g == []
            return
        assert g[-1] == 1
        qa, ra = _zx_divmod(a, g, p)
        qb, rb = _zx_divmod(b, g, p)
        assert ra == rb == []
        assert _fq_gcd(qa, qb, GF(p)) == [1]  # nothing more in common
        if common:
            assert _zx_divmod(g, common, p)[1] == []

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), pe=st.sampled_from(((2, 6), (3, 4), (5, 3), (7, 2))))
    def test_field_product_is_schoolbook_mod_the_modulus(self, data, pe):
        p, e = pe
        field = GF(p, e)
        x, y = (data.draw(st.lists(st.integers(0, p - 1), min_size=e, max_size=e))
                for _ in range(2))
        prod = [0] * (2 * e - 1)
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                prod[i + j] += u * v
        mod = field.modulus  # monic, degree e
        for top in range(2 * e - 2, e - 1, -1):
            c = prod[top]
            for i, m in enumerate(mod):
                prod[top - e + i] -= c * m
        want = tuple(c % p for c in prod[:e])
        assert (field.elem(x) * field.elem(y)).coeffs == want

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        p=st.sampled_from((2, 3, 5, 7, 11, 13)),
        e=st.integers(1, 4),
    )
    def test_inverse_is_the_power_q_minus_2(self, data, p, e):
        field = GF(p, e)
        x = field.elem(data.draw(st.lists(st.integers(0, p - 1), min_size=e, max_size=e)))
        assume(x)
        assert x.inverse() == power_inverse(x)
        assert x * x.inverse() == field.one

    def test_zero_has_no_inverse(self):
        for field in (GF(5), GF(2, 3), GF(13, 4)):
            with pytest.raises(DomainError):
                field.zero.inverse()


class TestBivariateResultant:
    def test_direct_elimination(self):
        c_poly = sp({(0, 1): 1})
        g = sp({(1, 0): 1, (0, 1): 1, (0, 0): -1})
        r_in_a = bivariate_resultant(c_poly, g, eliminate=1)
        assert r_in_a in (qpoly(-1, 1), qpoly(1, -1))
        r_in_c = bivariate_resultant(c_poly, g, eliminate=0)
        assert r_in_c in (qpoly(0, 1), qpoly(0, -1))

    def test_specialization_commutes(self):
        # Res_c(F, G)(a0) = Res_c(F(a0, .), G(a0, .)) when no degree drop
        rng = random.Random(23)
        for _ in range(25):
            F = sp(
                {
                    (rng.randrange(3), rng.randrange(3)): rng.randrange(-4, 5)
                    for _ in range(4)
                }
            )
            G = sp(
                {
                    (rng.randrange(3), rng.randrange(3)): rng.randrange(-4, 5)
                    for _ in range(4)
                }
            )
            if not F or not G or F.degree(1) < 1 or G.degree(1) < 1:
                continue
            R = bivariate_resultant(F, G, eliminate=1)
            for a0 in (Fraction(2), Fraction(-1), Fraction(3, 2)):
                fc = _specialize_a(F, a0)
                gc = _specialize_a(G, a0)
                if fc.degree != F.degree(1) or gc.degree != G.degree(1):
                    continue  # leading coefficient vanished; convention differs
                assert sum(c * a0**i for i, c in enumerate(R.coeffs)) == resultant(fc, gc)

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
        F = sp({(1, 0): 1}, p=5)
        with pytest.raises(DomainError):
            bivariate_resultant(F, F, 0)
        with pytest.raises(DomainError):
            resultant_mod(sp({(1, 0): 1}), sp({(1, 0): 1}), 0)
        with pytest.raises(DomainError):
            resultant_mod(F, sp({(1, 0): 1}, p=7), 0)

    @settings(max_examples=100, deadline=None)
    @given(
        F=two_var_polys(max_x=4),
        g1=two_var_polys(max_x=0),
        g0=two_var_polys(max_x=0),
        eliminate=st.sampled_from((0, 1)),
        linear_first=st.booleans(),
    )
    def test_linear_substitution_matches_fraction_oracle(self, F, g1, g0, eliminate, linear_first):
        # G = g1*x + g0 is substituted into F, on either side; the sign of
        # Res(G, F) = (-1)^(deg F) Res(F, G) reaches the reports
        x = sp({(1, 0) if eliminate == 0 else (0, 1): 1})
        if eliminate == 1:
            g1, g0 = _swap_vars(g1), _swap_vars(g0)
        G = g1 * x + g0
        pair = (G, F) if linear_first else (F, G)
        assert bivariate_resultant(*pair, eliminate) == fraction_bivariate_resultant(
            *pair, eliminate
        )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=st.sampled_from((2, 3, 5, 7)), eliminate=st.sampled_from((0, 1)))
    def test_mod_p_is_reduction(self, data, p, eliminate):
        # the Sylvester determinant commutes with reduction mod p when the
        # degrees in the eliminated variable survive it; linear inputs take
        # the substitution route, the others Bareiss over GF(p)[y]
        F = data.draw(reducible_polys(p))
        G = data.draw(reducible_polys(p))
        Fp, Gp = reduce_poly(F, p), reduce_poly(G, p)
        assume(Fp and Gp)
        assume(Fp.degree(eliminate) == F.degree(eliminate))
        assume(Gp.degree(eliminate) == G.degree(eliminate))
        want = [reduce_coeff(c, GF(p)).coeffs[0] for c in
                fraction_bivariate_resultant(F, G, eliminate).coeffs]
        while want and not want[-1]:
            want.pop()
        assert resultant_mod(Fp, Gp, eliminate) == want


def _swap_vars(P):
    return SparsePoly(2, {(j, i): c for (i, j), c in P.terms.items()}, P.p)


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
        assert np_.root_valuations() == [(Fraction(1, 2), 2)]

    def test_two_slopes(self):
        np_ = newton_polygon(qpoly(125, 5, 1), 5)
        assert [(s.slope, s.length) for s in np_.segments] == [
            (Fraction(-2), 1),
            (Fraction(-1), 1),
        ]
        assert np_.root_valuations() == [(1, 1), (2, 1)]

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

    def test_composite_p_rejected(self):
        for p in (1, 4, 6, 25):
            with pytest.raises(DomainError, match="not prime"):
                newton_polygon(qpoly(125, 5, 1), p)
        with pytest.raises(DomainError, match="zero polynomial"):
            newton_polygon(qpoly(), 6)

    def test_p_is_tested_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bicrit.polyring, "is_prime", lambda n: calls.append(n) or is_prime(n))
        f = qpoly(*[Fraction(i + 1, 3) for i in range(12)])
        points = newton_polygon(f, 3).points
        assert calls == [3]
        assert points == tuple((i, val_p(c, 3)) for i, c in enumerate(f.coeffs))

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
                    val_p(r, p) for r in roots
                )
                got = []
                for v, mult in newton_polygon(f, p).root_valuations():
                    got.extend([v] * mult)
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

    def test_orbits_partition_the_nonzero_elements(self):
        # GF(2^6)*: orbits of sizes 1, 2, 3, 3 and nine of size 6
        field = GF(2, 6)
        orbits = list(field.orbits())
        assert sorted(size for _, size in orbits) == [1, 2, 3, 3] + [6] * 9
        members = [(x ** (2**i)).coeffs for x, size in orbits for i in range(size)]
        assert sorted(members) == [x.coeffs for x in field.elements() if x]
        assert [x.coeffs for x, _ in orbits] == sorted(x.coeffs for x, _ in orbits)

    def test_scale_is_the_product_with_the_integer(self):
        F9 = GF(3, 2)
        for x in F9.elements():
            for c in range(-5, 10):
                assert x.scale(c) == F9.elem(c) * x

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
                x == other
        assert x * F7.elem(5) == F7.one and x != F7.one


def unpack(a, field):
    """A packed int list as a FieldElem list; asserts the canonical form:
    reduced slots, zeros above each coefficient's e digits, trimmed."""
    e, w = field.e, 2 * field.e - 1
    assert all(0 <= v < field.p for v in a) and (not a or a[-1])
    assert not any(a[i] for s in range(0, len(a), w) for i in range(s + e, min(s + w, len(a))))
    return [field.elem(a[s : s + e]) for s in range(0, len(a), w)]


def fx_gcd(a, b):
    """The monic gcd of two FieldElem lists by Euclid on the oracle division."""
    while b:
        a, b = b, fx_divmod(a, b)[1]
    return [c * a[-1].inverse() for c in a] if a else a


PACKED_FIELDS = ((2, 4), (3, 3), (5, 2), (7, 1))


def field_polys(field, max_size, nonzero=False):
    """Trimmed FieldElem lists over ``field``, nonzero if asked."""
    digits = st.lists(st.integers(0, field.p - 1), min_size=field.e, max_size=field.e)
    polys = st.lists(digits.map(field.elem), max_size=max_size).map(trimmed)
    return polys.filter(bool) if nonzero else polys


class TestPackedFieldPolys:
    """The packed GF(q)[x] kernel against FieldElem lists (tests/util.py)."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), pe=st.sampled_from(PACKED_FIELDS))
    def test_product(self, data, pe):
        field = GF(*pe)
        a, b = (data.draw(field_polys(field, 6)) for _ in range(2))  # zero operands too
        got = unpack(_fq_mul(_fq_pack(a, field), _fq_pack(b, field), field), field)
        assert got == fx_mul(a, b, field)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), pe=st.sampled_from(PACKED_FIELDS))
    def test_divmod(self, data, pe):
        field = GF(*pe)
        a = data.draw(field_polys(field, 9))
        b = data.draw(field_polys(field, 5, nonzero=True))
        monic = [c * b[-1].inverse() for c in b]
        for d in (b, monic, b[-1:], monic[-1:]):  # non-monic, monic and constant divisors
            q, r = _fq_divmod(_fq_pack(a, field), _fq_pack(d, field), field)
            assert (unpack(q, field), unpack(r, field)) == fx_divmod(a, d)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), pe=st.sampled_from(PACKED_FIELDS))
    def test_monic_gcd(self, data, pe):
        field = GF(*pe)
        common = data.draw(field_polys(field, 3))
        a, b = (fx_mul(data.draw(field_polys(field, 4)), common, field) for _ in range(2))
        g = unpack(_fq_gcd(_fq_pack(a, field), _fq_pack(b, field), field), field)
        assert g == fx_gcd(a, b)
        assert not g or g[-1] == field.one

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), pe=st.sampled_from(PACKED_FIELDS))
    def test_sparse_operands(self, data, pe):
        """A few nonzero coefficients up to degree 40, as the orbit scan of a
        Frobenius-sparse shape gives: zero coefficients cost no division
        step, and the results still match the oracle."""
        field = GF(*pe)
        digits = st.lists(st.integers(0, field.p - 1), min_size=field.e, max_size=field.e)

        def sparse(size):
            terms = data.draw(st.dictionaries(st.integers(0, size), digits.map(field.elem), max_size=4))
            return trimmed(terms.get(i, field.zero) for i in range(size + 1))

        a, b = sparse(40), sparse(20)
        assume(b)
        monic = [c * b[-1].inverse() for c in b]
        for d in (b, monic):
            q, r = _fq_divmod(_fq_pack(a, field), _fq_pack(d, field), field)
            assert (unpack(q, field), unpack(r, field)) == fx_divmod(a, d)
        assert unpack(_fq_gcd(_fq_pack(a, field), _fq_pack(b, field), field), field) == fx_gcd(a, b)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), pe=st.sampled_from(PACKED_FIELDS), n=st.integers(0, 9))
    def test_power_mod_f(self, data, pe, n):
        field = GF(*pe)
        a = data.draw(field_polys(field, 5))
        f = data.draw(field_polys(field, 4).filter(lambda f: len(f) > 1))  # any leading coefficient
        want = [field.one]
        for _ in range(n):
            want = fx_divmod(fx_mul(want, a, field), f)[1]
        assert unpack(_fq_powmod(_fq_pack(a, field), n, _fq_pack(f, field), field), field) == want

    def test_zero_polynomial_has_every_root(self):
        F9 = GF(3, 2)
        x2_plus_1 = [F9.one, F9.zero, F9.one]
        for zero in ([], [F9.zero, F9.zero]):
            assert sorted(r.coeffs for r in common_roots(zero, x2_plus_1, F9)) == sorted(
                r.coeffs for r in common_roots(x2_plus_1, x2_plus_1, F9)
            )
            assert common_roots(x2_plus_1, zero, F9) == common_roots(x2_plus_1, x2_plus_1, F9)
            assert common_roots(zero, [], F9) == []


def _poly_value(coeffs, x, field):
    acc = field.zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class TestRootFinding:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        pe=st.sampled_from(((2, 1), (2, 3), (2, 6), (3, 1), (3, 2), (3, 4), (5, 2), (7, 1))),
    )
    def test_frobenius_orbits_hold_every_root_once(self, data, pe):
        p, e = pe
        field = GF(p, e)
        f = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=14))
        while f and not f[-1]:
            f.pop()
        assume(len(f) > 1)
        orbits = frobenius_orbits(f, field)
        got = []
        for alpha, size in orbits:
            assert e % size == 0
            images = [alpha ** (p**i) for i in range(size)]
            assert alpha ** (p**size) == alpha and len(set(images)) == size
            got += images
        lifted = [field.elem(c) for c in f]
        want = [x for x in field.elements() if not _poly_value(lifted, x, field)]
        assert sorted(x.coeffs for x in got) == [x.coeffs for x in want]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), pe=st.sampled_from(((2, 1), (2, 4), (3, 1), (3, 3), (5, 2), (13, 1))))
    def test_common_roots_match_enumeration(self, data, pe):
        field = GF(*pe)
        elements = list(field.elements())
        draw = st.lists(st.sampled_from(elements), max_size=5)
        shared, f_only, g_only = data.draw(draw), data.draw(draw), data.draw(draw)

        def product_of(roots, extra):
            out = [field.one]
            for r in roots:
                out = [field.zero] + out  # times x
                for i in range(len(out) - 1):
                    out[i] = out[i] - r * out[i + 1]
            return [c * extra for c in out]

        # a quadratic with no root in the field, a factor of f and g alike
        quad = next(
            [b, a, field.one] for a in elements for b in elements
            if all(_poly_value([b, a, field.one], x, field) for x in elements)
        )
        extra = data.draw(st.sampled_from(elements[1:]))
        f = product_of(shared + f_only + shared, extra)  # repeated roots
        g = product_of(shared + g_only, field.one)
        got = common_roots(fx_mul(f, quad, field), fx_mul(g, quad, field), field)
        want = [x for x in elements
                if not _poly_value(f, x, field) and not _poly_value(g, x, field)]
        assert sorted(x.coeffs for x in got) == [x.coeffs for x in want]

    def test_no_common_root(self):
        F9 = GF(3, 2)
        x2_plus_1 = [F9.one, F9.zero, F9.one]  # its roots are in GF(9), not GF(3)
        F3 = GF(3)
        assert common_roots([F3.one, F3.zero, F3.one], [F3.one, F3.zero, F3.one], F3) == []
        assert len(common_roots(x2_plus_1, x2_plus_1, F9)) == 2
        assert common_roots(x2_plus_1, [F9.one], F9) == []


class TestSparsePoly:
    def test_reduction_commutes_with_evaluation(self):
        rng = random.Random(31)
        F3 = GF(3)
        for _ in range(30):
            P = sp(
                {
                    (rng.randrange(3), rng.randrange(3)): Fraction(
                        rng.randrange(-6, 7), rng.choice([1, 2, 4, 5])
                    )
                    for _ in range(5)
                }
            )
            a = Fraction(rng.randrange(-8, 9))
            c = Fraction(rng.randrange(-8, 9))
            lhs = reduce_poly(P, 3).evaluate((reduce_coeff(a, F3), reduce_coeff(c, F3)))
            value = sum(coeff * a**i * c**j for (i, j), coeff in P.terms.items())
            assert lhs == reduce_coeff(value, F3)

    def test_evaluate_raises_only_the_exponents_that_occur(self, monkeypatch):
        # F_7 of (d, k) = (3, 1) mod 3 has 7 terms with c-exponents up to
        # 729; a table of every power took about 1,100 products a point
        F9 = GF(3, 2)
        F = critical_orbit_poly(3, 1, 0, 7, p=3).poly
        assert F.num_terms == 7
        point = (F9.elem((1, 2)), F9.elem((2, 1)))
        expected = F9.zero
        for exps, c in F.terms.items():
            t = F9.elem(c)
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

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        p=st.sampled_from((2, 3, 5, 7)),
        n=st.integers(0, 4),
        var=st.sampled_from((0, 1)),
    )
    def test_arithmetic_over_gfp_is_reduction(self, data, p, n, var):
        F, G = data.draw(reducible_polys(p)), data.draw(reducible_polys(p))
        Fp, Gp = reduce_poly(F, p), reduce_poly(G, p)
        assert all(0 < c < p and type(c) is int for c in Fp.terms.values())
        assert Fp + Gp == reduce_poly(F + G, p)
        assert Fp - Gp == reduce_poly(F - G, p)
        assert -Fp == reduce_poly(-F, p)
        assert Fp * Gp == reduce_poly(F * G, p)
        assert Fp**n == reduce_poly(F**n, p)
        assert Fp.partial(var) == reduce_poly(F.partial(var), p)

    def test_refusals(self):
        F3 = GF(3)
        for bad in (Fraction(1, 2), Fraction(4), F3.one, 0.5):
            with pytest.raises(DomainError):
                sp({(0, 0): bad}, p=3)
        for bad in (F3.one, 0.5, "1"):
            with pytest.raises(DomainError):
                sp({(0, 0): bad})
        for bad_p in (1, 9, 91):
            with pytest.raises(DomainError, match="not prime"):
                SparsePoly.variable(2, 0, p=bad_p)
        x3 = SparsePoly.variable(2, 0, p=3)
        with pytest.raises(DomainError):
            x3 * F3.one  # a field element is no coefficient
        with pytest.raises(DomainError):
            x3 + SparsePoly.variable(2, 0)
        F25 = GF(5, 2)
        with pytest.raises(DomainError):
            x3.evaluate((F25.one, F25.one))
        with pytest.raises(DomainError):
            x3.evaluate((F3.one, GF(3, 2).one))
        with pytest.raises(DomainError):
            SparsePoly.variable(2, 0).evaluate((F3.one, F3.one))
        assert x3.evaluate((F3.elem(2), F3.one)) == F3.elem(2)

    def test_partial_derivative(self):
        P = sp({(2, 1): 3, (0, 2): -1})
        assert P.partial(0) == sp({(1, 1): 6})
        assert P.partial(1) == sp({(2, 0): 3, (0, 1): -2})

    def test_mul_matches_generic(self):
        rng = random.Random(13)
        for _ in range(20):
            terms_a = {
                (rng.randrange(3), rng.randrange(3)): rng.randrange(-9, 10)
                for _ in range(4)
            }
            terms_b = {
                (rng.randrange(3), rng.randrange(3)): rng.randrange(-9, 10)
                for _ in range(4)
            }
            A, B = sp(terms_a), sp(terms_b)
            prod_q = reduce_poly(A * B, 5)
            prod_f = reduce_poly(A, 5) * reduce_poly(B, 5)
            assert prod_q == prod_f



def coefficients(p):
    """Coefficients over GF(p), or over Q: small, machine-word and wide
    ints of either sign, and Fractions, some with numerators past 2^100."""
    if p is not None:
        return st.integers(0, p - 1)
    return st.one_of(
        st.integers(-9, 9),
        st.integers(-(2**70), 2**70),
        st.builds(mul, st.sampled_from((-1, 1)), st.integers(2**100, 2**140)),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        st.builds(Fraction, st.integers(-(2**110), 2**110), st.integers(1, 30)),
    )


@st.composite
def sparse_polys(draw, nvars, p, max_terms=8):
    """A polynomial in nvars variables, zero, one term or a few, with
    exponents below 4 or spread up to 40."""
    top = draw(st.sampled_from((3, 40)))
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, top)] * nvars), coefficients(p), max_size=max_terms
        )
    )
    return SparsePoly(nvars, terms, p)


FIELDS = (None, 2, 3, 5, 7, 11, 13)


class TestSparseProduct:
    """The packed-integer product against the dict convolution of
    ``util.dict_mul``."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), nvars=st.integers(1, 4), p=st.sampled_from(FIELDS))
    def test_matches_the_dict_convolution(self, data, nvars, p):
        P = data.draw(sparse_polys(nvars, p))
        Q = data.draw(sparse_polys(nvars, p))
        expected = dict_mul(P, Q)
        assert P * Q == expected
        assert Q * P == expected
        if p is not None or all(type(c) is int for c in [*P.terms.values(), *Q.terms.values()]):
            # no denominator is left: the coefficients stay ints
            assert all(type(c) is int for c in (P * Q).terms.values())

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), nvars=st.integers(1, 4), p=st.sampled_from(FIELDS))
    def test_one_term_constant_and_zero_operands(self, data, nvars, p):
        P = data.draw(sparse_polys(nvars, p))
        exps = data.draw(st.tuples(*[st.integers(0, 6)] * nvars))
        c = data.draw(coefficients(p).filter(bool))
        for other in (
            SparsePoly(nvars, {exps: c}, p),
            SparsePoly.constant(nvars, c, p),
            SparsePoly(nvars, p=p),
        ):
            assert P * other == dict_mul(P, other)
            assert other * P == dict_mul(other, P)
        assert P * c == c * P == dict_mul(P, SparsePoly.constant(nvars, c, p))
        assert (P * 0).terms == {}

    def test_no_variables(self):
        assert SparsePoly(0, {(): 6}) * SparsePoly(0, {(): Fraction(1, 4)}) == SparsePoly(
            0, {(): Fraction(3, 2)}
        )
        assert (SparsePoly(0, {(): 3}, 5) * SparsePoly(0, {(): 4}, 5)).terms == {(): 2}

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=st.sampled_from(FIELDS), var=st.sampled_from((0, 1)))
    def test_rows_that_cancel_inside(self, data, p, var):
        # P(a, c) * P with one variable negated: every term odd in it cancels
        a, c = SparsePoly.variable(2, 0, p), SparsePoly.variable(2, 1, p)
        assert (a + c) * (a - c) == a * a - c * c
        assert ((a + c) * (a - c)).terms.keys() == {(2, 0), (0, 2)}
        P = data.draw(sparse_polys(2, p))
        sign = {e: -1 if e[var] % 2 else 1 for e in P.terms}
        Q = SparsePoly(2, {e: sign[e] * v for e, v in P.terms.items()}, p)
        assert P * Q == dict_mul(P, Q)
        assert all(e[var] % 2 == 0 for e in (P * Q).terms)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), nvars=st.integers(1, 3), p=st.sampled_from(FIELDS[1:]))
    def test_terms_that_vanish_mod_p(self, data, nvars, p):
        # the Frobenius: (sum of c * m)^p = sum of c * m^p over GF(p)
        xs = [SparsePoly.variable(nvars, v, p) for v in range(nvars)]
        powers = {tuple(p * (v == w) for w in range(nvars)): 1 for v in range(nvars)}
        assert sum(xs[1:], xs[0]) ** p == SparsePoly(nvars, powers, p)
        P = data.draw(sparse_polys(nvars, p, max_terms=4))
        frobenius = SparsePoly(nvars, {tuple(p * x for x in e): v for e, v in P.terms.items()}, p)
        assert P**p == frobenius

    @pytest.mark.parametrize("bits", (12, 40))
    def test_coefficients_at_the_slot_bound(self, bits):
        # one row of 255 terms of 2^bits - 1 a side: the middle coefficient
        # takes all 32 or 88 bits of its magnitude, so its slot needs one more
        # for the sign
        top = 2**bits - 1
        P = SparsePoly(2, {(0, i): top for i in range(255)})
        for Q in (P, -P):
            product = P * Q
            assert product == dict_mul(P, Q)
            assert abs(product.terms[0, 254]) == 255 * top**2

    def test_long_rows_of_wide_coefficients(self):
        # one dense row of 300 slots a side, coefficients of up to 200 bits,
        # or residues mod a 61-bit prime, whose slots are wider than a word
        rng = random.Random(7)
        for p, lo, hi in ((None, -(2**200), 2**200), (13, 0, 13), (2**61 - 1, 0, 2**61 - 1)):
            P, Q = (
                SparsePoly(2, {(0, i): rng.randrange(lo, hi) for i in range(n)}, p)
                for n in (300, 250)
            )
            assert P * Q == dict_mul(P, Q)


def left_to_right(base, n, one, times):
    """base^n as ((one * base) * base) * ..., one product at a time."""
    out = one
    for _ in range(n):
        out = times(out, base)
    return out


class TestPower:
    """Square-and-multiply, through each caller of ``_power``, against the
    left-to-right repeated product, at n = 0, at n = 1 and at a drawn n."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), p=st.sampled_from((2, 3, 5, 7)), n=st.integers(2, 12))
    def test_int_lists_mod_p(self, data, p, n):
        a = data.draw(int_polys(0, p - 1, 5))
        f = data.draw(int_polys(0, p - 1, 4, nonzero=True).filter(lambda f: len(f) > 1))

        def times(x, y):
            return _zx_mul_sub(x, y, [], [], p)

        def times_mod_f(x, y):
            return _zx_divmod(times(x, y), f, p)[1]

        for k in (0, 1, n):
            assert _zx_pow(a, k, p) == left_to_right(a, k, [1], times)
            assert _fq_powmod(a, k, f, GF(p)) == left_to_right(a, k, [1], times_mod_f)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), pe=st.sampled_from(((2, 3), (3, 2), (5, 1))), n=st.integers(2, 12))
    def test_packed_lists_mod_a_polynomial(self, data, pe, n):
        p, e = pe
        field = GF(p, e)
        elems = st.lists(st.integers(0, p - 1), min_size=e, max_size=e).map(field.elem)
        a = _fq_pack(trimmed(data.draw(st.lists(elems, max_size=4))), field)
        f = _fq_pack(data.draw(st.lists(elems, min_size=1, max_size=3)) + [field.one], field)

        def times(x, y):
            return _fq_divmod(_fq_mul(x, y, field), f, field)[1]

        for k in (0, 1, n):
            assert _fq_powmod(a, k, f, field) == left_to_right(a, k, [1], times)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), pe=st.sampled_from(((2, 4), (3, 2), (7, 1))), n=st.integers(2, 40))
    def test_field_elements(self, data, pe, n):
        p, e = pe
        field = GF(p, e)
        x = field.elem(data.draw(st.lists(st.integers(0, p - 1), min_size=e, max_size=e)))
        for k in (0, 1, n):
            assert x**k == left_to_right(x, k, field.one, mul)

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.lists(rationals(), max_size=4), n=st.integers(2, 6))
    def test_unipoly(self, coeffs, n):
        f = UniPoly(coeffs)
        for k in (0, 1, n):
            assert f**k == left_to_right(f, k, UniPoly((1,)), mul)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), p=st.sampled_from((None, 2, 3, 5)), n=st.integers(2, 5))
    def test_sparse_polys(self, data, p, n):
        if p is None:
            P = data.draw(two_var_polys(max_terms=4))
        else:
            P = reduce_poly(data.draw(reducible_polys(p, max_terms=4)), p)
        for k in (0, 1, n):
            assert P**k == left_to_right(P, k, SparsePoly.constant(2, 1, p), mul)

    def test_sparse_products_use_the_class_mul_at_call_time(self, monkeypatch):
        # perfbench/spans.py counts products by rebinding SparsePoly.__mul__ and __rmul__
        z = sp({(1, 0): 1, (0, 1): Fraction(1, 2), (0, 0): 3})
        B = belyi_coeffs(5, 2)
        want_power, want_belyi = z**5, B.eval_sparse(z)
        calls = 0
        plain = SparsePoly.__dict__["__mul__"]

        def counting(self, other):
            nonlocal calls
            calls += 1
            return plain(self, other)

        monkeypatch.setattr(SparsePoly, "__mul__", counting)
        monkeypatch.setattr(SparsePoly, "__rmul__", counting)
        assert z**5 == want_power
        assert calls == 4  # 1 * z, z^2, z^4, z * z^4
        calls = 0
        assert B.eval_sparse(z) == want_belyi
        assert calls == 6  # b_0 * z, one more Horner step, z^3 in three, their product
