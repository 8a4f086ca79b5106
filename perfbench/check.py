"""Output checkers, one per case kind, and the corruptions that test them.

``check(case, exit_code, stdout)`` recomputes what the report claims by
the independent routes in :mod:`oracle` and raises :class:`CheckError` on
the first disagreement.  It returns the size of the work the case did,
read from the verified output, so that every timing can be shown next to
it.  ``corrupt(case, stdout)`` changes one reported value the way a wrong
program would; the run requires ``check`` to reject the result.
"""

from __future__ import annotations

import json
import random
from array import array
from fractions import Fraction
from math import gcd, isqrt

import oracle
from oracle import BIG_P


class CheckError(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _report(stdout: bytes, command: str) -> dict:
    try:
        rep = json.loads(stdout)
    except ValueError as ex:
        raise CheckError(f"unparsable report: {ex}") from None
    _expect(rep.get("schema") == "bicrit.report/1", "schema")
    _expect(rep.get("command") == command, "command")
    return rep


def _witness_json(w) -> dict | None:
    return None if w is None else {"p": str(w[0]), "r": str(w[1]), "e": str(w[2])}


def _bits(x: Fraction) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


# ---------------------------------------------------------------------------
# integrality and locus
# ---------------------------------------------------------------------------


def _random_points(case, count: int):
    rng = random.Random(" ".join(case.argv))
    return [rng.randrange(2, BIG_P) for _ in range(count)]


def _res_in_a(d, k, n, m, a0):
    """Res_c(F_n, G_m) at a = a0, or None where a leading coefficient drops."""
    f, g = oracle.locus_in_c(d, k, n, m, a0, BIG_P)
    if (len(f) - 1, len(g) - 1) != (d ** (n - 1), d ** (m - 1)):
        return None
    return oracle.resultant_mod(f, g, BIG_P)


def _res_in_c(d, k, n, m, c0):
    """Res_a(F_n, G_m) at c = c0, or None where a leading coefficient drops."""
    f, g = oracle.locus_in_a(d, k, n, m, c0, BIG_P)
    if (len(f) - 1, len(g) - 1) != ((d ** (n - 1) - 1) // (d - 1), (d**m - 1) // (d - 1)):
        return None
    return oracle.resultant_mod(f, g, BIG_P)


def _check_integrality(case, code, out) -> dict:
    d, k, n, m = (case.params[x] for x in "dknm")
    res = (rep := _report(out, "pcf integrality"))["result"]
    w = oracle.idf_witness(d, k)
    _expect(res["witness"] == _witness_json(w), "IDF witness")
    p = w[0]
    ra = [Fraction(c) for c in res["res_a"]["coefficients"]]
    rc = [Fraction(c) for c in res["res_c"]["coefficients"]]
    j = int(res["stripped_a_power"])
    cont_a = Fraction(res["stripped_a_content"])
    cont_c = Fraction(res["stripped_c_content"])
    verdict = rep["verdict"]
    if verdict == "DEGENERATE":
        for a0 in _random_points(case, 2):
            _expect(_res_in_a(d, k, n, m, a0) in (0, None), "degenerate Res_c is not 0")
        _expect(code == 1, "exit code")
        return {"resultant_degree": 0, "coeff_bits": 0}
    for poly, name in ((ra, "res_a"), (rc, "res_c")):
        _expect(poly and poly[-1] != 0, f"{name} is not trimmed")
        _expect(all(c.denominator == 1 for c in poly), f"{name} is not integral")
        g = 0
        for c in poly:
            g = gcd(g, c.numerator)
        _expect(g == 1, f"{name} is not primitive")
    _expect(ra[0] != 0, "res_a still divisible by a")
    _expect(cont_a > 0 and cont_c > 0, "content sign")
    # Res_c(F, G)(a0) = cont_a * a0^j * res_a(a0) and Res_a(F, G)(c0) = cont_c * res_c(c0)
    checked = 0
    for a0, c0 in zip(_random_points(case, 8), _random_points(case, 9)[1:]):
        want_a = _res_in_a(d, k, n, m, a0)
        want_c = _res_in_c(d, k, n, m, c0)
        if want_a is None or want_c is None:
            continue
        got_a = oracle.mod_frac(cont_a, BIG_P) * pow(a0, j, BIG_P) * oracle.eval_mod(ra, a0, BIG_P)
        got_c = oracle.mod_frac(cont_c, BIG_P) * oracle.eval_mod(rc, c0, BIG_P)
        _expect(got_a % BIG_P == want_a, "Res_c(F, G) differs at a random point")
        _expect(got_c % BIG_P == want_c, "Res_a(F, G) differs at a random point")
        checked += 1
        if checked == 2:
            break
    _expect(checked == 2, "no usable random points")
    poly_a = oracle.newton_polygon(ra, p)
    poly_c = oracle.newton_polygon(rc, p)
    _expect(res["newton_polygon_a"] == poly_a, "Newton polygon of res_a")
    _expect(res["newton_polygon_c"] == poly_c, "Newton polygon of res_c")
    all_zero = all(v["valuation"] == "0" for v in poly_a["root_valuations"])
    nonneg = all(
        v["valuation"] == "inf" or Fraction(v["valuation"]) >= 0
        for v in poly_c["root_valuations"]
    )
    _expect(res["a_valuations_all_zero"] is all_zero, "a_valuations_all_zero")
    _expect(res["c_valuations_nonnegative"] is nonneg, "c_valuations_nonnegative")
    ok = all_zero and nonneg
    _expect(verdict == ("PASS" if ok else "FAIL"), "verdict")
    _expect(code == (0 if ok else 1), "exit code")
    return {
        "resultant_degree": len(ra) - 1 + j + len(rc) - 1,
        "coeff_bits": max(_bits(c) for c in ra + rc + [cont_a, cont_c]),
    }


def _orbit_value(d, k, a0, c0, start, steps):
    bmod = [oracle.mod_frac(b, BIG_P) for b in oracle.belyi(d, k)]
    z = start
    for _ in range(steps):
        acc = 0
        for b in bmod:
            acc = (acc * z + b) % BIG_P
        z = (a0 * acc * pow(z, d - k, BIG_P) + c0) % BIG_P
    return z


def _sparse_at(poly: dict, a0: int, c0: int) -> int:
    acc = 0
    for exps, coeff in poly.items():
        ea, ec = map(int, exps.split(","))
        acc += oracle.mod_frac(Fraction(coeff), BIG_P) * pow(a0, ea, BIG_P) * pow(c0, ec, BIG_P)
    return acc % BIG_P


def _check_locus(case, code, out) -> dict:
    d, k, n, m = (case.params[x] for x in "dknm")
    res = _report(out, "pcf locus")["result"]
    points = _random_points(case, 4)
    for a0, c0 in zip(points[::2], points[1::2]):
        want_f = _orbit_value(d, k, a0, c0, 0, n)
        want_g = (_orbit_value(d, k, a0, c0, 1, m) - 1) % BIG_P
        _expect(_sparse_at(res["F"], a0, c0) == want_f, "F_n differs at a random point")
        _expect(_sparse_at(res["G"], a0, c0) == want_g, "G_m differs at a random point")
    _expect(code == 0, "exit code")
    return {"monomials": len(res["F"]) + len(res["G"])}


# ---------------------------------------------------------------------------
# transversality
# ---------------------------------------------------------------------------


def _check_transversality(case, code, out) -> dict:
    d, k, n, m, emax = (case.params[x] for x in ("d", "k", "n", "m", "emax"))
    res = (rep := _report(out, "pcf transversality"))["result"]
    w = oracle.idf_witness(d, k)
    _expect(res["witness"] == _witness_json(w), "IDF witness")
    p = w[0]
    bmod = [oracle.mod_frac(b, p) for b in oracle.belyi(d, k)]
    signs: list[int] = []
    units_ok = True
    base_solutions: list[tuple] = []
    total = 0
    for e, fres in enumerate(res["per_field"], start=1):
        field = oracle.Field(p, e)
        _expect(fres["field"] == (f"GF({p})" if e == 1 else f"GF({p}^{e})"), "field name")
        sols = [
            tuple(tuple(int(x) for x in s[key]) for key in ("alpha", "beta", "jacobian"))
            for s in fres["solutions"]
        ]
        _expect(all(len(v) == e and all(0 <= x < p for x in v) for s in sols for v in s), "element shape")
        if e == 1:
            # the whole GF(p)^2 plane, enumerated independently
            own, excluded = [], 0
            for alpha in range(p):
                for beta in range(p):
                    f, g, jac = oracle.locus_point(field, bmod, d, n, m, (alpha,), (beta,))
                    if any(f) or any(g):
                        continue
                    if alpha == 0:
                        excluded += 1
                    else:
                        own.append(((alpha,), (beta,), jac))
            _expect(sols == own, "GF(p) solutions differ from enumeration")
            _expect(int(fres["excluded_alpha_zero"]) == excluded, "alpha = 0 count")
            base_solutions = [(a, b) for a, b, _ in sols]
        else:
            pairs = [(a, b) for a, b, _ in sols]
            _expect(pairs == sorted(set(pairs)), "solutions not in field order")
            for alpha, beta, jac in sols:
                _expect(any(alpha), "alpha = 0 reported as a solution")
                f, g, own_jac = oracle.locus_point(field, bmod, d, n, m, alpha, beta)
                _expect(not any(f) and not any(g), "reported point is not a root")
                _expect(own_jac == jac, "Jacobian value")
            found = set(pairs)
            frob = {(field.pow(a, p), field.pow(b, p)) for a, b in pairs}
            _expect(frob == found, "solutions not closed under Frobenius")
            pad = (0,) * (e - 1)
            _expect(all((a + pad, b + pad) in found for a, b in base_solutions), "GF(p) solutions missing")
        for alpha, _beta, jac in sols:
            unit = field.mul(alpha, jac)
            if unit == field.one:
                signs.append(1)
            elif unit == field.neg(field.one):
                signs.append(-1)
            else:
                units_ok = False
        total += len(sols)
    if units_ok:
        _expect(len(res["per_field"]) == emax, "missing fields")
        _expect([int(s) for s in res["alpha_jacobian_signs"]] == signs, "alpha*J signs")
        _expect(rep["verdict"] == "PASS" and res["failure"] is None and code == 0, "verdict")
    else:
        _expect(rep["verdict"] == "FAIL" and code == 1, "verdict")
    return {
        "field_points": sum(p ** (2 * e) for e in range(1, emax + 1)),
        "solutions": total,
    }


# ---------------------------------------------------------------------------
# idf scan and mordell
# ---------------------------------------------------------------------------


def _spf_table(n: int) -> array:
    """Smallest prime factor of every composite <= n; 0 marks primes."""
    spf = array("I", bytes(4 * (n + 1)))
    root = isqrt(n)
    sieve = bytearray([1]) * (root + 1)
    primes = []
    for i in range(2, root + 1):
        if sieve[i]:
            primes.append(i)
            sieve[i * i :: i] = bytes(len(range(i * i, root + 1, i)))
    for q in reversed(primes):  # smaller primes overwrite larger ones
        spf[q * q :: q] = array("I", [q]) * len(range(q * q, n + 1, q))
    return spf


def _check_scan(case, code, out) -> dict:
    k, dmax = case.params["k"], case.params["dmax"]
    dmin = 2 * k + 2
    lines = out.decode("ascii").split("\r\n")
    _expect(lines[0] == "d,k,has_idf,p,r,e" and lines[-1] == "", "CSV header or ending")
    rows = lines[1:-1]
    _expect(len(rows) == dmax - dmin + 1, "row count")
    spf = _spf_table(dmax)

    def factors(x: int) -> dict[int, int]:
        out_: dict[int, int] = {}
        while x > 1:
            q = spf[x] or x
            out_[q] = out_.get(q, 0) + 1
            x //= q
        return out_

    small = [q for q in (2, 3, 5, 7) if q <= k]
    ks = str(k)
    exceptions = 0
    for d, row in enumerate(rows, start=dmin):
        ds, kk, has, ps, rs, es = row.split(",")
        _expect(ds == str(d) and kk == ks, f"row {d}: d or k column")
        rough = d
        for q in small:
            while rough % q == 0:
                rough //= q
        if rough > 1:
            # r = 0 decides: the smallest prime factor above k, to its full power
            p = spf[rough] or rough
            e = oracle.valuation(d, p)
            _expect((has, ps, rs, es) == ("true", str(p), "0", str(e)), f"row {d}: witness")
            continue
        w = oracle.idf_witness(d, k, factors)
        if w is None:
            exceptions += 1
            _expect((has, ps, rs, es) == ("false", "", "", ""), f"row {d}: exception")
        else:
            _expect((has, ps, rs, es) == ("true", *map(str, w)), f"row {d}: witness")
    _expect(code == 0, "exit code")
    return {"degrees": len(rows), "exceptions": exceptions}


_MORDELL_B = (1, 2, 3, 6)
_MORDELL_C = (1, 2, 3, 4, 6, 9, 12, 18, 36)


def _check_mordell(case, code, out) -> dict:
    xmax = case.params["xmax"]
    want = []
    for x in range(2, xmax + 1):
        for c in _MORDELL_C:
            rhs = c * x**3 + 1
            if rhs < 5:
                continue
            for b in _MORDELL_B:
                y2, rem = divmod(rhs, b)
                y = isqrt(y2)
                if not rem and y * y == y2:
                    want.append((c * x**3 + 3, b, c, x, y))
    want.sort()
    lines = ["x,y,b,c,d"] + [f"{x},{y},{b},{c},{d}" for d, b, c, x, y in want]
    expected = "".join(line + "\r\n" for line in lines) if want else ""
    _expect(out.decode("ascii") == expected, "Mordell table")
    _expect(code == 0, "exit code")
    return {"mordell_x": xmax - 1}


# ---------------------------------------------------------------------------
# idf find and idf conjecture
# ---------------------------------------------------------------------------


def _check_find(case, code, out) -> dict:
    d, k, cmd, known = (case.params[x] for x in ("d", "k", "command", "known"))
    rep = _report(out, f"idf {cmd}")
    res = rep["result"]
    _expect(res.get("d" if cmd == "find" else "n") == str(d) and res["k"] == str(k), "echoed inputs")
    w = oracle.idf_witness(d, k, lambda x: known.get(x) or oracle.factor(x))
    _expect(res["witness"] == _witness_json(w), "witness differs from full factorization")
    if w is not None:
        _expect(oracle.witness_holds(d, k, *w), "witness fails the IDF conditions")
    _expect(rep["verdict"] == ("NONE" if w is None else "FOUND") and code == 0, "verdict")
    factored = oracle.numbers_factored(d, k, None if w is None else w[1])
    return {"bits_factored": sum(x.bit_length() for x in factored)}


CHECKERS = {
    "integrality": _check_integrality,
    "locus": _check_locus,
    "transversality": _check_transversality,
    "scan": _check_scan,
    "mordell": _check_mordell,
    "find": _check_find,
}


def check(case, code: int, stdout: bytes) -> dict:
    """Verify one case's output; returns its work counters."""
    try:
        return CHECKERS[case.kind](case, code, stdout)
    except (KeyError, ValueError, TypeError, IndexError) as ex:
        raise CheckError(f"malformed report: {ex!r}") from None


# ---------------------------------------------------------------------------
# corruptions for the self-test
# ---------------------------------------------------------------------------


def corrupt(case, stdout: bytes) -> tuple[str, bytes] | None:
    """(what was changed, the changed output), or None if nothing applies."""
    if case.kind == "scan":
        lines = stdout.decode("ascii").split("\r\n")
        for i, line in enumerate(lines[1:-1], start=1):
            cells = line.split(",")
            if cells[2] == "true":
                cells[3] = str(int(cells[3]) + 2)
                lines[i] = ",".join(cells)
                return f"witness p of d = {cells[0]}", "\r\n".join(lines).encode("ascii")
        return None
    if case.kind not in ("integrality", "transversality", "find"):
        return None
    rep = json.loads(stdout)
    res = rep["result"]
    if case.kind == "integrality":
        coeffs = res["res_a"]["coefficients"]
        i = len(coeffs) // 2
        coeffs[i] = str(Fraction(coeffs[i]) + 1)
        what = f"res_a coefficient of a^{i}"
    elif case.kind == "transversality":
        fields = [f for f in res["per_field"] if f["solutions"]]
        if not fields:
            return None
        fields[0]["solutions"].pop(0)
        res["alpha_jacobian_signs"].pop(0)
        what = f"first solution over {fields[0]['field']}"
    else:
        if res["witness"] is None:
            return None
        res["witness"]["p"] = str(int(res["witness"]["p"]) + 2)
        what = "witness p"
    return what, json.dumps(rep, sort_keys=True, indent=2).encode()
