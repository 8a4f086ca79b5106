"""Acceptance suite: one test per release criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion with its runtime.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from bicrit.arith import val_p
from bicrit.cli import main as cli_main
from bicrit.belyi import belyi_coeffs
from bicrit.idf import find_idf_prime, mordell_candidates, scan_exceptions
from bicrit.pcf import (
    integrality_certificate,
    ncrit_counterexamples,
    transversality_check,
)
from bicrit.polyring import UniPoly
from bicrit.valdyn import (
    CaseTag,
    ValParams,
    check_shift_valuations,
    classify_case,
    divergence_certificate,
    orbit_val,
    shift_remainder,
)
from util import (
    ALL_CASES,
    derivative_identity_holds,
    exact_orbit_valuations,
    rational_with_val,
    sample_case_valuations,
)


@contextmanager
def criterion(num, desc):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc} ({time.perf_counter() - t0:.1f}s)")


def test_01_belyi_invariants():
    with criterion(1, "normal-form identities for d in [3,40], all canonical k"):
        pairs = 0
        for d in range(3, 41):
            for k in range(1, (d - 1) // 2 + 1):
                b = belyi_coeffs(d, k)
                assert b.evaluate(0) == 0
                assert b.evaluate(1) == 1
                assert derivative_identity_holds(b)
                pairs += 1
        assert pairs >= 370


def test_02_idf_exception_scan(capsys):
    with criterion(2, "IDF exceptions over d <= 10^5 are exactly {27} at k = 3"):
        for k in range(1, 11):
            exceptions = scan_exceptions(2 * k + 2, 10**5, k)
            if k == 3:
                assert exceptions == [27], f"k=3 gave {exceptions}"
            else:
                assert exceptions == [], f"k={k} gave {exceptions}"
        # the same answer through the CLI surface
        code = cli_main(
            ["idf", "scan", "--k", "3", "--dmax", "100000", "--jobs", "4"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["result"]["exceptions"] == ["27"]


def test_03_mordell_table(capsys):
    with criterion(3, "bounded Mordell sieve reproduces the six-tuple table"):
        cands = mordell_candidates(1000)
        assert [(m.x, m.y, m.b, m.c) for m in cands] == [
            (2, 3, 1, 1),
            (2, 5, 1, 3),
            (2, 7, 1, 6),
            (2, 17, 1, 36),
            (23, 78, 2, 1),
            (61, 389, 3, 2),
        ]
        assert [m.d for m in cands] == [11, 27, 51, 291, 12170, 453965]
        code = cli_main(["idf", "mordell", "--xmax", "1000", "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines == [
            "x,y,b,c,d",
            "2,3,1,1,11",
            "2,5,1,3,27",
            "2,7,1,6,51",
            "2,17,1,36,291",
            "23,78,2,1,12170",
            "61,389,3,2,453965",
        ]


def test_04_coefficient_valuation_pattern():
    with criterion(4, "coefficient valuations are e off the witness index, 0 at it"):
        rng = random.Random(404)
        sampled = 0
        while sampled < 50:
            d = rng.randrange(3, 200)
            k = rng.randrange(1, min(6, (d - 1) // 2) + 1)
            w = find_idf_prime(d, k)
            if w is None:
                continue
            b = belyi_coeffs(d, k)
            for i, c in enumerate(b.coeffs):
                assert val_p(c, w.p) == (0 if i == w.r else w.e)
            sampled += 1


def test_05_valuation_dynamics_soundness():
    with criterion(5, "tropical orbit bounds sound against >= 100 exact orbits"):
        rng = random.Random(505)
        pairs = 0

        def check(d, k, p, r, e, case, steps, lo, hi):
            nonlocal pairs
            for _attempt in range(100_000):
                va = rng.randrange(lo, hi)
                vb = rng.randrange(lo, hi)
                params = ValParams(d, k, r, e, va, vb)
                if classify_case(params) is case:
                    break
            else:
                raise AssertionError(f"no {case} sample in range for ({d}, {k})")
            alpha = rational_with_val(rng, p, va)
            beta = rational_with_val(rng, p, vb)
            for start in (0, 1):
                trop = orbit_val(start, params, steps)
                exact = exact_orbit_valuations(d, k, p, alpha, beta, start, steps)
                for t, v in zip(trop, exact):
                    if t.exact:
                        assert v == t.value, (d, k, case, va, vb, start)
                    else:
                        assert v >= t.value, (d, k, case, va, vb, start)
            if case in (CaseTag.CASE1, CaseTag.CASE2, CaseTag.CASE3, CaseTag.CASE4I):
                cert = divergence_certificate(params)
                assert cert.kind == "diverging"
                vals = [t.value for t in cert.steps]
                assert all(x > y for x, y in zip(vals, vals[1:]))
            pairs += 1

        # main battery: 105 pairs at 8 iterations on (3, 1)
        for case in ALL_CASES:
            for _ in range(15):
                check(3, 1, 3, 0, 1, case, steps=8, lo=-4, hi=7)
        assert pairs >= 100
        # extra pools, shorter windows (degree-5 and -8 orbits grow fast)
        for d, k, p, r, e in ((5, 1, 5, 0, 1), (5, 2, 5, 0, 1), (8, 2, 3, 2, 1)):
            for case in ALL_CASES:
                check(d, k, p, r, e, case, steps=5, lo=-2, hi=8)


CERT_CASES = [
    (3, 1, 1, 1),
    (3, 1, 2, 1),
    (3, 1, 1, 2),
    (4, 1, 1, 1),
    (5, 1, 1, 1),
    (5, 2, 1, 1),
    (5, 1, 2, 1),
]


def test_06_integrality_certificates():
    with criterion(6, "integrality certificates PASS on all seven locus cases"):
        for case in CERT_CASES:
            cert = integrality_certificate(*case)
            assert cert.verdict == "PASS", (case, cert.verdict)
            assert cert.polygon_a.all_valuations_zero()
            assert all(
                seg.slope == 0 for seg in cert.polygon_a.segments
            )
            assert cert.polygon_c.all_valuations_nonnegative()


def test_07_transversality(capsys):
    with criterion(7, "transversality PASSes with alpha*J = +-1 up to GF(p^2)"):
        for case in CERT_CASES:
            rep = transversality_check(*case, e_max=2)
            assert rep.verdict == "PASS", case
            assert all(res.solutions for res in rep.per_field), case
            for res in rep.per_field:
                one = res.field.one
                for sol in res.solutions:
                    assert sol.jacobian_value
                    assert sol.alpha * sol.jacobian_value in (one, -one)
            d, k, n, m = case
            code = cli_main(
                ["pcf", "transversality", "--d", str(d), "--k", str(k),
                 "--n", str(n), "--m", str(m), "--emax", "2"]
            )
            report = json.loads(capsys.readouterr().out)
            assert code == 0 and report["verdict"] == "PASS"


def test_08_ncritical_counterexamples():
    with criterion(8, "n-critical counterexamples confirmed exactly"):
        rep = ncrit_counterexamples()
        assert rep.degree10_constant_mod7
        assert rep.degree4_coeffs_match
        assert rep.jacobian_identically_zero
        # the quartic family is exactly a(6z^4 - 8(1+g)z^3 + 12g z^2) + c
        from bicrit.belyi import ncritical_form

        form = ncritical_form(4, (1, 1))
        gamma = UniPoly((0, 1))
        assert dict(form.coeffs) == {
            4: UniPoly((6,)),
            3: UniPoly((-8,)) - 8 * gamma,
            2: 12 * gamma,
        }


def test_09_shift_identity_and_bounds():
    with criterion(9, "shift identity exact for n <= 3 and bounds on 20 samples"):
        for d, k in ((3, 1), (5, 2)):
            for n in range(4):
                sd = shift_remainder(d, k, n, Fraction(1), Fraction(1))
                assert sd.identity_ok, (d, k, n)
        # rational specialization variety on the cheap pair
        sd = shift_remainder(3, 1, 3, Fraction(2, 3), Fraction(-1, 2))
        assert sd.identity_ok

        rng = random.Random(909)
        checked = 0
        while checked < 20:
            d, k, p, factor_ = rng.choice(((3, 1, 3, 2), (5, 2, 5, 4)))
            vb = -rng.randrange(1, 3)
            va = factor_ * -vb  # places the three-term minimum exactly at v(beta)
            alpha = rational_with_val(rng, p, va)
            beta = rational_with_val(rng, p, vb)
            x = rational_with_val(rng, p, vb + rng.randrange(0, 3))
            y = rational_with_val(rng, p, va + rng.randrange(0, 3))
            res = check_shift_valuations(d, k, rng.randrange(1, 4), p, alpha, beta, x, y)
            assert res["h_bound_ok"] and res["orbit_bound_ok"]
            checked += 1
