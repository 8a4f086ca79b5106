import hashlib
import json
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bicrit.pcf
import bicrit.polyring
from bicrit.arith import INFINITY
from bicrit.belyi import belyi_coeffs
from bicrit.cli import main
from bicrit.errors import DomainError, ResourceBudgetError, UnsupportedParametersError
from bicrit.idf import IdfWitness, find_idf_prime
from bicrit.pcf import (
    FiniteSolution,
    SolveModResult,
    critical_orbit_poly,
    integrality_certificate,
    jacobian,
    ncrit_counterexamples,
    reduce_map,
    solve_mod,
    transversality_check,
)
from bicrit.polyring import GF, SparsePoly, UniPoly, resultant_mod
from util import dual_orbit_solutions, reduce_poly, reduced_values

A, C = 0, 1


def sp(terms, p=None):
    return SparsePoly(2, terms, p)


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
    )
    def test_field_build_is_reduction(self, dk, n, m, p):
        # building over GF(p) equals reducing the rational build, p > k
        d, k = dk
        assume(p > k and d ** (max(n, m) - 1) <= 25)
        F = critical_orbit_poly(d, k, 0, n)
        G = critical_orbit_poly(d, k, 1, m)
        Fbar = critical_orbit_poly(d, k, 0, n, p=p)
        Gbar = critical_orbit_poly(d, k, 1, m, p=p)
        assert Fbar.poly == reduce_poly(F.poly, p)
        assert Gbar.poly == reduce_poly(G.poly, p)
        assert jacobian(Fbar.poly, Gbar.poly) == reduce_poly(jacobian(F.poly, G.poly), p)


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
        assert any(v is INFINITY for v, _ in vals)

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

    @pytest.mark.parametrize("case", [(3, 1, 3, 3), (4, 1, 3, 2), (9, 1, 4, 1)])
    def test_answers_within_seconds(self, case):
        # n + m = 6 was refused outright; (4, 1, 3, 2) took over 10 s;
        # (9, 1, 4, 1), linear in a and in c, was refused on predicted
        # Bareiss work and took 12.5 s past the limit
        start = time.perf_counter()
        cert = integrality_certificate(*case)
        assert time.perf_counter() - start < 5
        assert cert.verdict == "PASS"


class TestReduceMap:
    def test_examples(self):
        assert reduce_map(3, 1, find_idf_prime(3, 1)) == (1, 1)
        assert reduce_map(5, 1, find_idf_prime(5, 1)) == (1, 1)
        assert reduce_map(8, 2, find_idf_prime(8, 2)) == (1, 2)

    def test_nontrivial_s(self):
        # (11, 3): witness p = 11, r = 0; s = b_0 mod 11
        w = find_idf_prime(11, 3)
        s, t = reduce_map(11, 3, w)
        assert t * w.p == 11 - w.r
        assert 0 < s < w.p and s == belyi_coeffs(11, 3).coeffs[w.r] % w.p

    def test_bad_witness(self):
        with pytest.raises(DomainError):
            reduce_map(3, 1, IdfWitness(5, 0, 1))

    def test_composite_witness(self):
        # no reduction "mod 4": 4 divides d = 8 once, but it is no prime
        with pytest.raises(DomainError):
            reduce_map(8, 1, IdfWitness(4, 0, 1))
        with pytest.raises(DomainError):
            solve_mod(8, 1, 1, 1, IdfWitness(4, 0, 1))


class TestJacobian:
    def test_hand_example(self):
        F = sp({(0, 1): 1})  # c
        G = sp({(1, 0): 1, (0, 1): 1, (0, 0): -1})  # a + c - 1
        assert jacobian(F, G) == sp({(0, 0): -1})

    def test_equal_inputs(self):
        F = critical_orbit_poly(3, 1, 0, 2).poly
        assert not jacobian(F, F)

    def test_mod3_reduction(self):
        F = critical_orbit_poly(3, 1, 0, 2, p=3).poly
        G = critical_orbit_poly(3, 1, 1, 1, p=3).poly
        assert jacobian(F, G) == sp({(0, 3): 1, (0, 0): -1}, p=3)  # c^3 - 1


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

    def test_orbit_monomials_are_capped(self):
        # F_7 has degree 3^6 = 729 in c: over a budget of 100, under 729
        w = find_idf_prime(3, 1)
        with pytest.raises(ResourceBudgetError, match="exceeds the budget 100"):
            solve_mod(3, 1, 7, 1, w, 1, budget=100)
        assert solve_mod(3, 1, 7, 1, w, 1, budget=729).solutions

    @settings(max_examples=30, deadline=None)
    @given(
        dk=st.sampled_from([(3, 1), (4, 1), (5, 1), (5, 2), (6, 1), (7, 2), (8, 2), (9, 2)]),
        n=st.integers(1, 3),
        m=st.integers(1, 3),
        e=st.integers(1, 6),
    )
    def test_matches_pointwise_iteration(self, dk, n, m, e):
        # the common roots found by elimination, against f iterated on every
        # point of GF(p^e)^2 with dual numbers
        d, k = dk
        w = find_idf_prime(d, k)
        assume(w.p ** (2 * e) <= 10_000)
        res = solve_mod(d, k, n, m, w, e)
        got = [(s.alpha, s.beta, s.jacobian_value) for s in res.solutions]
        assert got == dual_orbit_solutions(d, k, n, m, res.field)

    @pytest.mark.parametrize(
        "case, e",
        [((7, 2, 2, 2), 2), ((9, 2, 2, 2), 4), ((4, 1, 2, 2), 6), ((6, 1, 2, 2), 6),
         ((8, 1, 2, 2), 6)],
    )
    def test_shared_alpha_shapes_match_pointwise_iteration(self, case, e):
        # several beta above one alpha: (9,2,2,2) has 90 solutions over
        # GF(3^4) on 10 values of alpha, (7,2,2,2) 56 over GF(7^2) on 8
        w = find_idf_prime(*case[:2])
        res = solve_mod(*case, w, e)
        got = [(s.alpha, s.beta, s.jacobian_value) for s in res.solutions]
        assert got == dual_orbit_solutions(*case, res.field)
        assert len({s.alpha for s in res.solutions}) < len(got)

    @pytest.mark.parametrize(
        "case, e", [((3, 1, 3, 2), 3), ((9, 2, 2, 2), 4), ((6, 1, 2, 2), 6), ((13, 6, 1, 1), 2)]
    )
    def test_orbit_scan_agrees_with_elimination(self, monkeypatch, case, e):
        # each route forced in turn: the roots of R against one alpha of
        # every Frobenius orbit of GF(p^e)*
        w = find_idf_prime(*case[:2])
        monkeypatch.setattr(bicrit.pcf, "_field_work", lambda *args: (0, True))
        eliminated = solve_mod(*case, w, e)
        monkeypatch.setattr(bicrit.pcf, "_field_work", lambda *args: (0, False))
        monkeypatch.setattr(bicrit.pcf, "resultant_mod", None)
        assert solve_mod(*case, w, e) == eliminated

    @pytest.mark.parametrize("case", [(8, 2, 3, 3), (6, 1, 3, 3)])
    def test_dense_resultant_is_scanned_in_small_fields(self, case):
        # N = d - r is not a power of p, so R = Res_c(F, G) is a dense
        # Bareiss elimination of degree 1800 (89 s and 277 s at e = 1),
        # against a handful of gcds over GF(p)
        d, k, n, m = case
        w = find_idf_prime(d, k)
        assert not bicrit.pcf._field_work(d, w, n, m, 1)[1]
        start = time.perf_counter()
        res = solve_mod(*case, w, 1)
        assert time.perf_counter() - start < 1
        got = [(s.alpha, s.beta, s.jacobian_value) for s in res.solutions]
        assert got and got == dual_orbit_solutions(*case, res.field)

    @pytest.mark.parametrize(
        "case, fields, eliminates",
        [
            # scan 0.2-2.4 s up to GF(3^6); elimination over 120 s
            ((8, 2, 3, 3), range(1, 7), False),
            # N = 9: R costs 2.3-2.6 s, the scan 0.003-0.1 s up to GF(3^5)
            ((9, 2, 3, 3), range(1, 6), False),
            # over GF(7^4) elimination 0.43 s, the scan 0.80 s
            ((7, 2, 3, 3), [4], True),
            # over GF(5^4) elimination 0.06 s, the scan 0.15 s
            ((5, 1, 3, 3), [4], True),
        ],
    )
    def test_route_follows_measured_crossover(self, case, fields, eliminates):
        d, k, n, m = case
        w = find_idf_prime(d, k)
        assert [bicrit.pcf._field_work(d, w, n, m, e)[1] for e in fields] == [eliminates] * len(
            fields
        )

    def test_alpha_zero_is_never_a_solution(self):
        # f_{0,c} is the constant c, so F_n(0, c) = c and G_m(0, c) = c - 1
        # for every n, m >= 1: excluded_alpha_zero is 0 by construction
        for d in range(3, 10):
            for k in range(1, (d - 1) // 2 + 1):
                w = find_idf_prime(d, k)
                if w is None:
                    continue
                for n in (1, 2, 3):
                    for which, want in ((0, {(0, 1): 1}), (1, {(0, 1): 1, (0, 0): -1})):
                        poly = critical_orbit_poly(d, k, which, n, p=w.p).poly
                        at_zero = {e: c for e, c in poly.terms.items() if e[A] == 0}
                        assert SparsePoly(2, at_zero, w.p) == sp(want, w.p), (d, k, which, n)

    def test_shared_component_is_a_usage_error(self, monkeypatch):
        # R = Res_c(F, G) identically 0 mod p: no real input is known to do
        # this, so critical_orbit_poly is replaced by curves sharing c - a
        real = bicrit.pcf.critical_orbit_poly

        def sharing(d, k, which, n, budget=10_000, p=None):
            orbit = real(d, k, which, n, budget, p)
            common = sp({(0, 1): 1, (1, 0): -1}, p)
            return type(orbit)(d, k, which, n, orbit.poly * common)

        monkeypatch.setattr(bicrit.pcf, "critical_orbit_poly", sharing)
        with pytest.raises(DomainError, match="share a component"):
            solve_mod(3, 1, 2, 1, find_idf_prime(3, 1), 1)


class TestAdditiveClosedForm:
    # N = d - r is a power of p on all of these shapes (r = 3 for (8, 3), r = 2
    # for (9, 3)), so at n = m solve_mod takes the closed form

    ADDITIVE = [(3, 1), (4, 1), (5, 1), (7, 2), (8, 1), (9, 2), (8, 3), (9, 3), (13, 6)]

    @pytest.mark.parametrize("p", (2, 3, 5, 7, 13))
    def test_is_power(self, p):
        # the test that picks the closed form: x = p^j, j >= 0
        assert not bicrit.pcf._is_power(0, p)
        assert bicrit.pcf._is_power(1, p)
        for j in range(6):
            assert bicrit.pcf._is_power(p**j, p)
            assert not any(bicrit.pcf._is_power(p**j * q, p) for q in (-1, p + 1, 11))

    @settings(max_examples=20, deadline=None)
    @given(dk=st.sampled_from(ADDITIVE), n=st.integers(1, 2), e=st.integers(1, 4))
    def test_matches_general_route_and_pointwise_iteration(self, dk, n, e):
        d, k = dk
        w = find_idf_prime(d, k)
        assume(w.p ** (2 * e) <= 10_000)
        res = solve_mod(d, k, n, n, w, e)
        F = critical_orbit_poly(d, k, 0, n, p=w.p).poly
        G = critical_orbit_poly(d, k, 1, n, p=w.p).poly
        J = jacobian(F, G)
        for eliminate in (True, False):
            points = bicrit.pcf._general_points(F, G, n, n, res.field, eliminate)
            points.sort(key=lambda pt: (pt[0].coeffs, pt[1].coeffs))
            sols = tuple(FiniteSolution(a, c, J.evaluate((a, c))) for a, c in points)
            assert res == SolveModResult(res.field, sols, 0)
        got = [(s.alpha, s.beta, s.jacobian_value) for s in res.solutions]
        assert got == dual_orbit_solutions(d, k, n, n, res.field)

    def test_no_resultant_and_no_root_split(self, monkeypatch):
        def general_route(*args, **kwargs):
            raise AssertionError("the general route was taken")

        for name in ("_field_work", "resultant_mod", "common_roots"):
            monkeypatch.setattr(bicrit.pcf, name, general_route)
        for case, e in (((7, 2, 3, 3), 3), ((9, 3, 2, 2), 2), ((4, 1, 2, 2), 6)):
            assert solve_mod(*case, find_idf_prime(*case[:2]), e).solutions

    @pytest.mark.parametrize(
        "case, e, count", [((7, 2, 2, 2), 2, 56), ((9, 2, 2, 2), 4, 90), ((7, 2, 3, 3), 3, 2793)]
    )
    def test_points_and_unit_in_closed_form(self, case, e, count):
        # M = (N^n - 1)/(N - 1) values of alpha, each under N^(n-1) betas when
        # GF(p^e) holds all of them; alpha * J = -M = -1 mod p at every point
        d, k, n, _ = case
        w = find_idf_prime(d, k)
        N = d - w.r
        res = solve_mod(*case, w, e)
        assert len(res.solutions) == (N**n - 1) // (N - 1) * N ** (n - 1) == count
        minus_one = -res.field.one
        assert all(s.alpha * s.jacobian_value == minus_one for s in res.solutions)

    @pytest.mark.parametrize(
        "which, extra",
        [
            ((1,), {(1, 1): 1}),  # G - F is no longer (a*s)^M - 1
            ((0, 1), {(1, 1): 1}),  # F's coefficient of c is 1 + a
            ((0, 1), {(0, 2): 1}),  # F is no p-polynomial in c
        ],
    )
    def test_tampered_locus_is_refused(self, monkeypatch, which, extra):
        real = bicrit.pcf.critical_orbit_poly

        def tampered(d, k, w, n, budget=10_000, p=None):
            orbit = real(d, k, w, n, budget, p)
            poly = orbit.poly + sp(extra, p) if w in which else orbit.poly
            return type(orbit)(d, k, w, n, poly)

        monkeypatch.setattr(bicrit.pcf, "critical_orbit_poly", tampered)
        with pytest.raises(ArithmeticError, match="not additive"):
            solve_mod(7, 2, 2, 2, find_idf_prime(7, 2), 2)


class TestPredictedWork:
    def test_prices_are_pinned(self):
        # refusals and their messages quote these numbers, so both prices
        # are pinned, by digest, on every (d, k) with d <= 9, n, m <= 3 and
        # e <= 3: 144 elimination prices over Q and 432 (work, eliminates)
        # pairs over GF(p^e)
        shapes = [(d, k) for d in range(3, 10) for k in range(1, (d - 1) // 2 + 1)]
        periods = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
        polys = {
            (d, k, which, n): critical_orbit_poly(d, k, which, n).poly
            for d, k in shapes for which in (0, 1) for n in (1, 2, 3)
        }
        elimination = [
            bicrit.pcf._elimination_work(polys[d, k, 0, n], polys[d, k, 1, m])
            for d, k in shapes for n, m in periods
        ]
        field = [
            list(bicrit.pcf._field_work(d, find_idf_prime(d, k), n, m, e))
            for d, k in shapes for n, m in periods for e in (1, 2, 3)
        ]
        assert elimination[:5] == [2, 16, 130, 16, 4050]
        assert field[:3] == [[64, True], [1926, True], [14588, True]]
        digest = hashlib.sha256(json.dumps(elimination).encode()).hexdigest()
        assert digest == "aed16bde4e64b3ee959210a1794f3bef7df356c1fb542296c04d5a8dc282d1d4"
        digest = hashlib.sha256(json.dumps(field).encode()).hexdigest()
        assert digest == "ef78029b7a49a23a20c9ec854f80213170d029e4f00c714119d5cc1a85ffdfb2"


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

    def test_large_emax_refused_before_any_field(self, monkeypatch):
        def no_field(*args, **kwargs):
            raise AssertionError("a field was built")

        monkeypatch.setattr(bicrit.pcf, "solve_mod", no_field)
        monkeypatch.setattr(bicrit.pcf, "GF", no_field)
        start = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match="predicted field work"):
            transversality_check(3, 1, 2, 1, e_max=1000)
        assert time.perf_counter() - start < 1

    def test_speed_and_reach(self):
        # enumeration took 0.8-1.1 s on (5,1,2,1) up to GF(5^3), and could
        # not reach GF(2^11): 2^22 points for that field alone
        start = time.perf_counter()
        assert transversality_check(5, 1, 2, 1, e_max=3).verdict == "PASS"
        assert time.perf_counter() - start < 0.5
        start = time.perf_counter()
        rep = transversality_check(6, 1, 2, 2, e_max=11)
        assert time.perf_counter() - start < 5
        assert rep.verdict == "PASS"
        F = critical_orbit_poly(6, 1, 0, 2, p=2).poly
        G = critical_orbit_poly(6, 1, 1, 2, p=2).poly
        for res in rep.per_field:
            points = [(s.alpha, s.beta) for s in res.solutions]
            assert len(set(points)) == len(points)
            for point in points:
                assert not F.evaluate(point) and not G.evaluate(point)

    def test_no_solution_is_not_a_pass(self, monkeypatch):
        # with no finite solution in any field, no Jacobian was checked
        def no_solutions(d, k, n, m, witness, e=1, budget=1_000_000):
            return SolveModResult(GF(witness.p, e), (), 0)

        monkeypatch.setattr(bicrit.pcf, "solve_mod", no_solutions)
        with pytest.raises(DomainError, match=r"over GF\(2\), GF\(2\^2\)"):
            transversality_check(4, 1, 1, 1, e_max=2)

    @pytest.mark.parametrize("jacobian", [0, 2])
    def test_bad_jacobian_is_a_fail(self, capsys, monkeypatch, jacobian):
        # over GF(5), for the witness of (5, 1): alpha * J = 1 at the first
        # solution, then J = 0 or alpha * J = 2, where the check stops
        field = GF(5)
        good = FiniteSolution(field.one, field.elem(3), field.one)
        bad = FiniteSolution(field.one, field.elem(4), field.elem(jacobian))
        res = SolveModResult(field, (good, bad), 0)
        monkeypatch.setattr(bicrit.pcf, "solve_mod", lambda *args: res)
        rep = transversality_check(5, 1, 1, 1)
        assert (rep.verdict, rep.failure, rep.signs, rep.per_field) == ("FAIL", bad, (1,), (res,))
        code = main(["pcf", "transversality", "--d", "5", "--k", "1", "--n", "1", "--m", "1"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["verdict"] == "FAIL"
        assert report["result"]["failure"] == {
            "alpha": ["1"], "beta": ["4"], "jacobian": [str(jacobian)]
        }
        assert report["result"]["alpha_jacobian_signs"] == ["1"]
        assert report["result"]["per_field"] == [{
            "field": "GF(5)",
            "excluded_alpha_zero": "0",
            "solutions": [
                {"alpha": ["1"], "beta": ["3"], "jacobian": ["1"]},
                {"alpha": ["1"], "beta": ["4"], "jacobian": [str(jacobian)]},
            ],
        }]

    def test_deep_orbit_skips_zero_rows(self, monkeypatch):
        # F_7 mod 3 has 7 nonzero rows in c among 730: the substitution
        # takes two products per nonzero row and a few per power of g0 or g1
        products = []
        real = bicrit.polyring._zx_mul_sub

        def counted(*args):
            products.append(1)
            return real(*args)

        monkeypatch.setattr(bicrit.polyring, "_zx_mul_sub", counted)
        F = critical_orbit_poly(3, 1, 0, 7, p=3).poly
        G = critical_orbit_poly(3, 1, 1, 1, p=3).poly
        assert len(resultant_mod(F, G, C)) == 1094
        assert len(products) < 200  # two per row: 1458
        monkeypatch.undo()
        timings = []
        for _ in range(3):
            start = time.perf_counter()
            transversality_check(3, 1, 7, 1, e_max=2)
            timings.append(time.perf_counter() - start)
        assert min(timings) < 0.1

    def test_deep_orbit_matches_pointwise_iteration(self):
        # F_7 over Q overflows the monomial budget; mod 3 it has 7 terms
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
            s, t = reduce_map(d, k, w)
            a = SparsePoly.variable(2, A, w.p)
            c = SparsePoly.variable(2, C, w.p)
            for which in (0, 1):
                z = SparsePoly.constant(2, which, w.p)
                for n in range(1, 4):
                    z = a * s * z ** (t * w.p) + c
                    # which = 1 already carries the -1 of G_n = f^n(1) - 1
                    full = critical_orbit_poly(d, k, which, n, p=w.p).poly
                    assert full == z - which

    def test_derivative_collapse(self):
        # d/da fbar^n(0) = s * (fbar^(n-1)(0))^(t p), d/dc fbar^n(0) = 1
        for d, k in ((3, 1), (5, 2)):
            w = find_idf_prime(d, k)
            s, t = reduce_map(d, k, w)
            one = SparsePoly.constant(2, 1, w.p)
            for n in range(1, 4):
                fn = critical_orbit_poly(d, k, 0, n, p=w.p).poly
                prev = (
                    critical_orbit_poly(d, k, 0, n - 1, p=w.p).poly
                    if n > 1
                    else SparsePoly(2, p=w.p)
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
