import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bicrit.pcf
from bicrit.errors import DomainError, ResourceBudgetError, UnsupportedParametersError
from bicrit.idf import IdfWitness, find_idf_prime
from bicrit.pcf import (
    SolveModResult,
    critical_orbit_poly,
    integrality_certificate,
    jacobian,
    ncrit_counterexamples,
    reduce_map,
    solve_mod,
    transversality_check,
)
from bicrit.polyring import GF, QQ, SparsePoly, UniPoly
from util import dual_orbit_solutions, reduce_poly, reduced_values

A, C = 0, 1


def sp(terms):
    return SparsePoly(QQ, 2, terms)


class TestCriticalOrbitPoly:
    def test_first_iterates(self):
        assert critical_orbit_poly(3, 1, 0, 1).poly == sp({(0, 1): 1})
        assert critical_orbit_poly(3, 1, 1, 1).poly == sp(
            {(1, 0): 1, (0, 1): 1, (0, 0): -1}
        )
        assert critical_orbit_poly(3, 1, 0, 2).poly == sp(
            {(1, 3): -2, (1, 2): 3, (0, 1): 1}
        )

    def test_budget(self):
        with pytest.raises(ResourceBudgetError):
            critical_orbit_poly(10, 1, 0, 6, budget=100)

    def test_validation(self):
        with pytest.raises(DomainError):
            critical_orbit_poly(3, 1, 2, 1)
        with pytest.raises(DomainError):
            critical_orbit_poly(3, 1, 0, 0)

    @settings(max_examples=30, deadline=None)
    @given(
        dk=st.sampled_from([(3, 1), (4, 1), (5, 1), (5, 2), (6, 2)]),
        n=st.integers(1, 3),
        m=st.integers(1, 3),
        p=st.sampled_from([2, 3, 5, 7]),
        e=st.integers(1, 2),
    )
    def test_field_build_is_reduction(self, dk, n, m, p, e):
        # building over GF(p^e) equals reducing the rational build, p > k
        d, k = dk
        assume(p > k and d ** (max(n, m) - 1) <= 25)
        field = GF(p, e)
        F = critical_orbit_poly(d, k, 0, n)
        G = critical_orbit_poly(d, k, 1, m)
        Fbar = critical_orbit_poly(d, k, 0, n, ring=field)
        Gbar = critical_orbit_poly(d, k, 1, m, ring=field)
        assert Fbar.poly == reduce_poly(F.poly, field)
        assert Gbar.poly == reduce_poly(G.poly, field)
        assert jacobian(Fbar.poly, Gbar.poly) == reduce_poly(
            jacobian(F.poly, G.poly), field
        )


CERT_CASES = [
    (3, 1, 1, 1),
    (3, 1, 2, 1),
    (3, 1, 1, 2),
    (4, 1, 1, 1),
    (5, 1, 1, 1),
    (5, 2, 1, 1),
    (5, 1, 2, 1),
]


class TestIntegralityCertificate:
    def test_simplest_case(self):
        cert = integrality_certificate(3, 1, 1, 1)
        assert cert.verdict == "PASS"
        assert cert.res_a in (UniPoly((-1, 1)), UniPoly((1, -1)))
        assert cert.res_c in (UniPoly((0, 1)), UniPoly((0, -1)))
        # c = 0 shows up as a root of valuation INFINITY, which passes >= 0
        vals = cert.polygon_c.root_valuations()
        assert any(v.is_infinite for v, _ in vals)

    def test_period_two_polynomials(self):
        cert = integrality_certificate(3, 1, 2, 1)
        assert cert.verdict == "PASS"
        # resultants match direct elimination via c = 1 - a resp. the 2x2 det
        z = UniPoly((0, 1))
        expected_a = (
            (z - UniPoly((1,)))
            * (2 * z**3 - z**2 - z - UniPoly((1,)))
        ).primitive_part()
        assert cert.res_a in (expected_a, -expected_a)
        expected_c = (
            z * (2 * z**3 - 5 * z**2 + 3 * z + UniPoly((1,)))
        ).primitive_part()
        assert cert.res_c in (expected_c, -expected_c)
        got = sorted(
            (str(v), m) for v, m in cert.polygon_c.root_valuations()
        )
        assert got == [("0", 3), ("inf", 1)]

    @pytest.mark.parametrize("case", CERT_CASES)
    def test_pass_cases(self, case):
        cert = integrality_certificate(*case)
        assert cert.verdict == "PASS"
        assert cert.polygon_a.all_valuations_zero()
        assert cert.polygon_c.all_valuations_nonnegative()
        # verdict is recomputable from the stored polygons
        assert cert.a_valuations_all_zero == cert.polygon_a.all_valuations_zero()
        assert cert.c_valuations_nonnegative == cert.polygon_c.all_valuations_nonnegative()

    def test_unsupported_pair(self):
        with pytest.raises(UnsupportedParametersError):
            integrality_certificate(27, 3, 1, 1)

    def test_budget(self):
        # d^(n-1) * d^(m-1) against the monomial budget
        with pytest.raises(ResourceBudgetError):
            integrality_certificate(3, 1, 3, 3, budget=80)
        # (9, 3, 2, 3) passes that, but its resultants would run for minutes
        start = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match="predicted elimination work"):
            integrality_certificate(9, 3, 2, 3)
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("case", [(3, 1, 3, 3), (4, 1, 3, 2)])
    def test_answers_within_seconds(self, case):
        # n + m = 6 was refused outright; (4, 1, 3, 2) took over 10 s
        start = time.perf_counter()
        cert = integrality_certificate(*case)
        assert time.perf_counter() - start < 5
        assert cert.verdict == "PASS"


class TestReduceMap:
    def test_examples(self):
        s, t = reduce_map(3, 1, find_idf_prime(3, 1))
        assert s == GF(3).elem(1) and t == 1
        s, t = reduce_map(5, 1, find_idf_prime(5, 1))
        assert s == GF(5).elem(1) and t == 1
        s, t = reduce_map(8, 2, find_idf_prime(8, 2))
        assert s == GF(3).elem(1) and t == 2

    def test_nontrivial_s(self):
        # (11, 3): witness p = 11, r = 0; s = b_0 mod 11
        w = find_idf_prime(11, 3)
        s, t = reduce_map(11, 3, w)
        assert t * w.p == 11 - w.r
        assert s  # nonzero

    def test_bad_witness(self):
        with pytest.raises(DomainError):
            reduce_map(3, 1, IdfWitness(5, 0, 1))


class TestJacobian:
    def test_hand_example(self):
        F = sp({(0, 1): 1})  # c
        G = sp({(1, 0): 1, (0, 1): 1, (0, 0): -1})  # a + c - 1
        assert jacobian(F, G) == sp({(0, 0): -1})

    def test_equal_inputs(self):
        F = critical_orbit_poly(3, 1, 0, 2).poly
        assert not jacobian(F, F)

    def test_mod3_reduction(self):
        F3 = GF(3)
        F = critical_orbit_poly(3, 1, 0, 2, ring=F3).poly
        G = critical_orbit_poly(3, 1, 1, 1, ring=F3).poly
        assert jacobian(F, G) == SparsePoly(F3, 2, {(0, 3): 1, (0, 0): -1})  # c^3 - 1


class TestSolveMod:
    def test_period_one(self):
        w = find_idf_prime(3, 1)
        res = solve_mod(3, 1, 1, 1, w, 1)
        F3 = GF(3)
        assert [(s.alpha, s.beta, s.jacobian_value) for s in res.solutions] == [
            (F3.elem(1), F3.elem(0), F3.elem(2))
        ]

    def test_period_two(self):
        w = find_idf_prime(3, 1)
        res = solve_mod(3, 1, 2, 1, w, 1)
        F3 = GF(3)
        got = [(s.alpha, s.beta) for s in res.solutions]
        assert got == [(F3.elem(1), F3.elem(0)), (F3.elem(2), F3.elem(2))]
        assert [s.jacobian_value for s in res.solutions] == [F3.elem(2), F3.elem(1)]

    def test_extension_contains_base_solutions(self):
        w = find_idf_prime(3, 1)
        base = solve_mod(3, 1, 1, 1, w, 1)
        ext = solve_mod(3, 1, 1, 1, w, 2)
        F9 = GF(3, 2)
        lifted = {
            (F9.elem(s.alpha.coeffs), F9.elem(s.beta.coeffs)) for s in base.solutions
        }
        got = {(s.alpha, s.beta) for s in ext.solutions}
        assert lifted <= got
        assert all(s.jacobian_value for s in ext.solutions)

    def test_budget(self):
        w = find_idf_prime(3, 1)
        with pytest.raises(ResourceBudgetError):
            solve_mod(3, 1, 1, 1, w, 9, budget=100)


class TestTransversality:
    def test_examples(self):
        rep = transversality_check(3, 1, 1, 1, e_max=2)
        assert rep.verdict == "PASS"
        assert set(rep.signs) == {-1}

        rep = transversality_check(3, 1, 2, 1, e_max=1)
        assert rep.verdict == "PASS"
        assert rep.signs == (-1, -1)

        rep = transversality_check(4, 1, 1, 1, e_max=1)
        assert rep.verdict == "PASS"
        assert len(rep.signs) == 1  # GF(2): +1 and -1 coincide
        F2 = GF(2)
        (sol,) = rep.per_field[0].solutions
        assert (sol.alpha, sol.beta, sol.jacobian_value) == (
            F2.elem(1),
            F2.elem(0),
            F2.elem(1),
        )

    def test_unit_identity_all_cases(self):
        for case in CERT_CASES:
            rep = transversality_check(*case, e_max=2)
            assert rep.verdict == "PASS"
            assert all(s in (1, -1) for s in rep.signs)

    def test_unsupported(self):
        with pytest.raises(UnsupportedParametersError):
            transversality_check(27, 3, 1, 1)

    def test_no_solution_is_not_a_pass(self, monkeypatch):
        # with no finite solution in any field, no Jacobian was checked
        def no_solutions(d, k, n, m, witness, e=1, budget=1_000_000):
            return SolveModResult(GF(witness.p, e), (), 0)

        monkeypatch.setattr(bicrit.pcf, "solve_mod", no_solutions)
        with pytest.raises(DomainError, match=r"over GF\(2\), GF\(2\^2\)"):
            transversality_check(4, 1, 1, 1, e_max=2)

    def test_deep_orbit_matches_pointwise_iteration(self):
        # F_7 over QQ overflows the monomial budget; mod 3 it has 7 terms
        start = time.perf_counter()
        rep = transversality_check(3, 1, 7, 1, e_max=2)
        assert time.perf_counter() - start < 5
        assert rep.verdict == "PASS"
        for res in rep.per_field:
            got = [(s.alpha, s.beta, s.jacobian_value) for s in res.solutions]
            assert got and got == dual_orbit_solutions(3, 1, 7, 1, res.field)


class TestReductionStructure:
    def test_orbit_reduction_commutes_with_monomial_orbit(self):
        # f^n(0) built over GF(p) equals iterating the monomial a*s*z^(t*p) + c
        for d, k in ((3, 1), (5, 1), (5, 2), (8, 2)):
            w = find_idf_prime(d, k)
            field = GF(w.p)
            s, t = reduce_map(d, k, w)
            a = SparsePoly.variable(field, 2, A)
            c = SparsePoly.variable(field, 2, C)
            for which in (0, 1):
                z = SparsePoly.constant(field, 2, field.elem(which))
                for n in range(1, 4):
                    z = a * s * z ** (t * w.p) + c
                    # which = 1 already carries the -1 of G_n = f^n(1) - 1
                    full = critical_orbit_poly(d, k, which, n, ring=field).poly
                    expected = (
                        z - SparsePoly.constant(field, 2, field.one)
                        if which == 1
                        else z
                    )
                    assert full == expected

    def test_derivative_collapse(self):
        # d/da fbar^n(0) = s * (fbar^(n-1)(0))^(t p), d/dc fbar^n(0) = 1
        for d, k in ((3, 1), (5, 2)):
            w = find_idf_prime(d, k)
            field = GF(w.p)
            s, t = reduce_map(d, k, w)
            one = SparsePoly.constant(field, 2, field.one)
            for n in range(1, 4):
                fn = critical_orbit_poly(d, k, 0, n, ring=field).poly
                prev = (
                    critical_orbit_poly(d, k, 0, n - 1, ring=field).poly
                    if n > 1
                    else SparsePoly.constant(field, 2, field.zero)
                )
                assert fn.partial(A) == s * prev ** (t * w.p)
                assert fn.partial(C) == one

    def test_resultant_roots_reduce_into_solution_set(self):
        # rational roots of the stripped resultants land in the mod-p solutions
        cert = integrality_certificate(3, 1, 2, 1)
        w = cert.witness
        field = GF(w.p)
        res = solve_mod(3, 1, 2, 1, w, 1)
        alphas = {s.alpha for s in res.solutions}
        betas = {s.beta for s in res.solutions}
        for res, coords in ((cert.res_a, alphas), (cert.res_c, betas)):
            for x, value in reduced_values(res, field):
                if not value:
                    assert x in coords or x == field.zero

    def test_unit_ideal_consequence(self):
        # when both certificates pass, (F, G, J) has no common root with alpha != 0
        for case in ((3, 1, 1, 1), (3, 1, 2, 1), (5, 2, 1, 1)):
            cert = integrality_certificate(*case)
            rep = transversality_check(*case, e_max=2)
            assert cert.verdict == "PASS" and rep.verdict == "PASS"
            for res in rep.per_field:
                for sol in res.solutions:
                    assert sol.jacobian_value


class TestNCritCounterexamples:
    def test_report(self):
        rep = ncrit_counterexamples()
        assert rep.verdict == "CONFIRMED"
        assert rep.degree10_constant_mod7
        assert rep.degree4_coeffs_match
        assert rep.jacobian_identically_zero
        assert len(rep.periods_checked) == 8
