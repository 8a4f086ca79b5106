"""Command-line surface with machine-readable, reproducible reports.

Every run prints one JSON report (or CSV for the flat scan tables) to
stdout; progress notes go to stderr.  All numeric payloads are exact:
integers as decimal strings, rationals as "num/den" strings.  Re-running
the ``command`` + ``inputs`` block of any JSON report reproduces the
report byte for byte apart from the ``timings`` field.

Exit codes: 0 success / mathematical PASS, 1 mathematical FAIL (a
certificate check failed) or DEGENERATE (a resultant vanished), 2 usage
or resource errors, including a malformed flag value and a stdout closed
before the report was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

from . import __version__
from .arith import DETERMINISTIC_PRIME_BOUND, ExtVal
from .errors import DomainError, ResourceBudgetError

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2

# the names the handlers of each command group use from the module of the
# same name, bound here only when one of those handlers runs, so that an
# idf command loads neither pcf, polyring, belyi nor valdyn
_IMPORTS = {
    "belyi": ("belyi_coeffs", "ncritical_form"),
    "idf": ("conjecture_check", "find_idf_prime", "mordell_candidates", "scan_witnesses"),
    "valdyn": ("ValParams", "classify_case", "divergence_certificate", "orbit_val"),
    "pcf": (
        "DEFAULT_MONOMIAL_BUDGET",
        "critical_orbit_poly",
        "integrality_certificate",
        "ncrit_counterexamples",
        "transversality_check",
    ),
}


def _bind(group: str) -> None:
    """``from .group import *_IMPORTS[group]``, except that a name bound
    already stays as it is: a tracer may have rebound it to a wrapper.
    ``__import__``, unlike ``importlib.import_module``, shows in ``python
    -X importtime``."""
    names = _IMPORTS[group]
    module = __import__(f"{__package__}.{group}", fromlist=names)
    for name in names:
        globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    # a handler's name read from outside before any handler ran
    for group, names in _IMPORTS.items():
        if name in names:
            _bind(group)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# exact serialization
# ---------------------------------------------------------------------------


def _exact(obj):
    """The JSON form of a report value: integers and rationals as strings."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, Fraction, ExtVal)):
        return str(obj)
    if hasattr(obj, "_fields"):  # a record, before the tuple it may be
        return {name: _exact(getattr(obj, name)) for name in obj._fields}
    if isinstance(obj, (list, tuple)):
        return [_exact(x) for x in obj]
    if isinstance(obj, dict):
        return {_exact(k): _exact(v) for k, v in obj.items()}
    # an element of GF(p^e) exists only once polyring is loaded
    polyring = sys.modules.get(f"{__package__}.polyring")
    if polyring is not None and isinstance(obj, polyring.FieldElem):
        return [str(c) for c in obj.coeffs]
    raise TypeError(f"no exact serialization for {type(obj).__name__}")


def _parse(flag: str, text: str, convert):
    """convert(text); a malformed flag value is a usage error, not a FAIL."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError) as ex:
        raise DomainError(f"--{flag}: cannot read {text!r} ({ex})") from ex


class _Table(NamedTuple):
    """A flat table: CSV rows, or a list of row objects at ``key`` of a
    JSON report's result.  A row is a pair (lead, tag) of its first cell
    and a tag whose ``cells(tag)`` are the other cells: rows with equal
    tags share the text of those cells.  ``rows`` is emptied as it is
    written."""

    key: str
    header: tuple[str, ...]
    rows: list[tuple]
    cells: Callable[[object], tuple]


# rows per write: the text of a table is never held whole, and the rows
# written are freed as the cached text of their tags grows
_CHUNK = 1 << 12

# a placeholder string value: json writes it as "\u0000", which no other
# string of a report holds
_HOLE = "\0"


def _write_rows(table: _Table, around, sep: str, opening: str, closing: str, empty: str):
    """The table's rows between ``opening`` and ``closing`` with ``sep``
    between them, written _CHUNK rows at a time; ``empty`` alone for no
    rows.  ``around(cells)`` gives the text before and after a row's lead
    cell, once per distinct tag."""

    class Parts(dict):
        def __missing__(self, tag):
            parts = self[tag] = around(tuple(map(str, table.cells(tag))))
            return parts

    parts = Parts()
    rows = table.rows
    write = sys.stdout.write
    if not rows:
        write(empty)
        return
    write(opening)
    at = ""
    while rows:
        chunk = rows[:_CHUNK]
        del rows[:_CHUNK]
        write(at)
        write(sep.join([f"{h}{lead}{t}" for lead, tag in chunk for h, t in (parts[tag],)]))
        at = sep
    write(closing)


def _write_csv(table: _Table) -> None:
    """The table, header first; nothing at all for an empty table.  No
    cell needs quoting: they are integers, true, false or empty."""
    header = ",".join(table.header) + "\r\n"
    _write_rows(table, lambda cells: ("", "," + ",".join(cells) + "\r\n"), "", header, "", "")


def _write_json(report, table: _Table) -> None:
    """The report with the table's row objects at ``result[table.key]``,
    byte for byte as ``json.dump(sort_keys=True, indent=2)`` writes it."""
    quote = json.encoder.encode_basestring_ascii  # how json.dump writes a str
    hole = quote(_HOLE)[1:-1]  # the lead cell's text goes inside its quotes

    def around(cells):
        # a row object sits at depth 3 of the report, its fields at depth 4
        fields = sorted(zip(table.header, (_HOLE, *cells)))
        text = "".join(f"\n        {quote(k)}: {quote(v)}," for k, v in fields)
        return f"      {{{text[:-1]}\n      }}".split(hole)

    report["result"][table.key] = _HOLE
    before, after = json.dumps(report, sort_keys=True, indent=2).split(quote(_HOLE))
    sys.stdout.write(before)
    _write_rows(table, around, ",\n", "[\n", "\n    ]", "[]")
    sys.stdout.write(after)


# ---------------------------------------------------------------------------
# handlers: each returns (payload, verdict, _Table or None)
# ---------------------------------------------------------------------------


def _h_belyi_coeffs(ns):
    b = belyi_coeffs(ns.d, ns.k)
    z = b.polynomial()
    payload = {
        "d": b.d,
        "k": b.k,
        "b": b.coeffs,
        "polynomial": {"variable": "z", "coefficients": z.coeffs, "text": z.render("z")},
    }
    return payload, "OK", None


def _h_belyi_ncrit(ns):
    profile = _parse(
        "profile", ns.profile, lambda s: [int(t) for t in s.split(",") if t.strip()]
    )
    if ns.gamma is None or ns.gamma.strip().lower() in ("sym", "symbolic"):
        gammas = None
    else:
        gammas = _parse(
            "gamma", ns.gamma, lambda s: [Fraction(t) for t in s.split(",") if t.strip()]
        )
    form = ncritical_form(ns.d, profile, gammas)
    payload = {
        "d": form.d,
        "profile": form.profile,
        "symbolic": form.symbolic,
        "gammas": form.gammas,
        "coefficients_by_z_power": {
            e: {"gamma_poly": c.coeffs} if form.symbolic else c for e, c in form.coeffs
        },
    }
    return payload, "OK", None


def _found(payload, w):
    """A search result; a witness p at or past the bound where Miller-Rabin
    is deterministic is labelled a probable prime."""
    payload["witness"] = w
    if w is not None and w.p >= DETERMINISTIC_PRIME_BOUND:
        payload["witness_primality"] = "probable"
    return payload, ("FOUND" if w else "NONE"), None


def _h_idf_find(ns):
    return _found({"d": ns.d, "k": ns.k}, find_idf_prime(ns.d, ns.k))


def _h_idf_conjecture(ns):
    return _found({"n": ns.n, "k": ns.k}, conjecture_check(ns.n, ns.k))


def _h_idf_scan(ns):
    if ns.dmin is None:
        ns.dmin = 2 * ns.k + 2  # echoed in the inputs block for exact re-runs
    print(f"scanning k={ns.k}, d in [{ns.dmin}, {ns.dmax}]", file=sys.stderr)
    k = ns.k
    witnesses = scan_witnesses(ns.dmin, ns.dmax, k)

    def cells(w):
        return (k, "false", "", "", "") if w is None else (k, "true", w.p, w.r, w.e)

    payload = {
        "dmin": ns.dmin,
        "dmax": ns.dmax,
        "k": k,
        "exceptions": [d for d, w in witnesses if w is None],
        "range_note": "certifies only the scanned range; larger d are not decided",
    }
    table = _Table("rows", ("d", "k", "has_idf", "p", "r", "e"), witnesses, cells)
    return payload, "OK", table


def _h_idf_mordell(ns):
    rows = [(m.x, m) for m in mordell_candidates(ns.xmax)]
    table = _Table("candidates", ("x", "y", "b", "c", "d"), rows, lambda m: (m.y, m.b, m.c, m.d))
    return {"xmax": ns.xmax}, "OK", table


def _val_params(ns) -> ValParams:
    v_alpha = _parse("valpha", ns.valpha, ExtVal.parse)
    v_beta = _parse("vbeta", ns.vbeta, ExtVal.parse)
    return ValParams(ns.d, ns.k, ns.r, ns.e, v_alpha, v_beta)


def _h_valdyn_orbit(ns):
    params = _val_params(ns)
    steps = orbit_val(ns.start, params, ns.steps)
    case = classify_case(params)
    cert = None
    if case.value != "INTEGRAL":
        cert = divergence_certificate(params)._asdict()
        del cert["case"]  # reported once, at the top
    payload = {
        "case": case.value,
        "orbit": [
            {"step": i + 1, "value": t.value, "exact": t.exact}
            for i, t in enumerate(steps)
        ],
        "certificate": cert,
    }
    return payload, case.value, None


def _h_valdyn_classify(ns):
    case = classify_case(_val_params(ns))
    return {"case": case.value}, case.value, None


def _budget(ns) -> int:
    """--budget, DEFAULT_MONOMIAL_BUDGET when not given (echoed in the
    inputs block for exact re-runs)."""
    if ns.budget is None:
        ns.budget = DEFAULT_MONOMIAL_BUDGET
    return ns.budget


def _h_pcf_locus(ns):
    payload = {"d": ns.d, "k": ns.k, "n": ns.n, "m": ns.m}
    for name, which, period in (("F", 0, ns.n), ("G", 1, ns.m)):
        poly = critical_orbit_poly(ns.d, ns.k, which, period, _budget(ns)).poly
        payload[name] = {",".join(map(str, e)): c for e, c in poly.terms.items()}
    return payload, "OK", None


def _h_pcf_integrality(ns):
    cert = integrality_certificate(ns.d, ns.k, ns.n, ns.m, _budget(ns))
    payload = {
        "d": ns.d,
        "k": ns.k,
        "n": ns.n,
        "m": ns.m,
        "witness": cert.witness,
        "stripped_a_power": cert.stripped_a_power,
        "stripped_a_content": cert.stripped_a_content,
        "stripped_c_content": cert.stripped_c_content,
        "a_valuations_all_zero": cert.a_valuations_all_zero,
        "c_valuations_nonnegative": cert.c_valuations_nonnegative,
    }
    for var, res, np in (
        ("a", cert.res_a, cert.polygon_a),
        ("c", cert.res_c, cert.polygon_c),
    ):
        payload[f"res_{var}"] = {
            "variable": var,
            "coefficients": res.coeffs,
            "text": res.render(var),
        }
        payload[f"newton_polygon_{var}"] = None if np is None else {
            "p": np.p,
            "vanishing_order": np.vanishing_order,
            "segments": np.segments,
            "root_valuations": [
                {"valuation": v, "multiplicity": mult} for v, mult in np.root_valuations()
            ],
        }
    return payload, cert.verdict, None


def _h_pcf_transversality(ns):
    rep = transversality_check(ns.d, ns.k, ns.n, ns.m, e_max=ns.emax, budget=_budget(ns))

    def solution(s):
        return {"alpha": s.alpha, "beta": s.beta, "jacobian": s.jacobian_value}

    payload = {
        "d": ns.d,
        "k": ns.k,
        "n": ns.n,
        "m": ns.m,
        "e_max": ns.emax,
        "witness": rep.witness,
        "per_field": [
            {
                "field": repr(res.field),
                "excluded_alpha_zero": res.excluded_alpha_zero,
                "solutions": [solution(s) for s in res.solutions],
            }
            for res in rep.per_field
        ],
        "alpha_jacobian_signs": rep.signs,
        "failure": None if rep.failure is None else solution(rep.failure),
    }
    return payload, rep.verdict, None


def _h_pcf_counterexamples(ns):
    rep = ncrit_counterexamples()
    payload = {
        "degree10_profile_7_1_constant_mod_7": rep.degree10_constant_mod7,
        "degree4_profile_1_1_coefficients_match": rep.degree4_coeffs_match,
        "reduced_quartic_mod_3": rep.reduced_quartic,
        "jacobian_identically_zero_mod_3": rep.jacobian_identically_zero,
        "periods_checked": [",".join(map(str, trip)) for trip in rep.periods_checked],
    }
    return payload, rep.verdict, None


# ---------------------------------------------------------------------------
# command table: argparse options and the report's inputs block
# ---------------------------------------------------------------------------

_INT = {"type": int, "required": True}
_VALUATION = {"required": True, "help": "a valuation: rational or 'inf'"}
_LOCUS = {"d": _INT, "k": _INT, "n": _INT, "m": _INT}
_VALDYN = {
    "d": _INT, "k": _INT, "r": _INT, "e": _INT, "valpha": _VALUATION, "vbeta": _VALUATION
}
_MONOMIALS = {
    "type": int,
    "help": "cap on the monomials of the orbit polynomials F_n and G_m",
}

GROUPS = {
    "belyi": "critical-point normal forms",
    "idf": "index-divisor-free prime search",
    "valdyn": "min-plus valuation dynamics",
    "pcf": "locus and transversality certificates",
}

# (group, command, handler, help, {option: add_argument keywords})
COMMANDS = [
    ("belyi", "coeffs", _h_belyi_coeffs, "normal-form coefficients",
     {"d": _INT, "k": _INT}),
    ("belyi", "ncrit", _h_belyi_ncrit, "n-critical normal form", {
        "d": _INT,
        "profile": {"required": True, "help": "comma-separated k_0,..,k_{n-2}"},
        "gamma": {"help": "'sym' for a symbolic gamma, or comma-separated rationals"},
    }),
    ("idf", "find", _h_idf_find, "smallest IDF witness", {"d": _INT, "k": _INT}),
    ("idf", "scan", _h_idf_scan, "scan a degree range", {
        "dmin": {"type": int, "help": "default: 2k + 2"},
        "dmax": {"type": int, "default": 10**5},
        "k": _INT,
        # kept only to be echoed in the inputs block: perfbench/workloads.py
        # passes it, and the reports that carry it must still re-run
        "jobs": {"type": int, "default": 1, "help": "no effect: a scan runs in one process"},
    }),
    ("idf", "mordell", _h_idf_mordell, "bounded Mordell sieve", {"xmax": _INT}),
    ("idf", "conjecture", _h_idf_conjecture, "witness over n(n-1)...(n-k)",
     {"n": _INT, "k": _INT}),
    ("valdyn", "orbit", _h_valdyn_orbit, "orbit valuation bounds", {
        **_VALDYN,
        "start": {"type": int, "choices": (0, 1), "required": True},
        "steps": {"type": int, "default": 8},
    }),
    ("valdyn", "classify", _h_valdyn_classify, "parameter case tag", _VALDYN),
    ("pcf", "locus", _h_pcf_locus, "F_n and G_m", {**_LOCUS, "budget": _MONOMIALS}),
    ("pcf", "integrality", _h_pcf_integrality, "Newton-polygon certificate",
     {**_LOCUS, "budget": _MONOMIALS}),
    ("pcf", "transversality", _h_pcf_transversality, "Jacobian mod p", {
        **_LOCUS,
        "emax": {"type": int, "default": 1, "help": "largest extension degree"},
        "budget": _MONOMIALS,
    }),
    ("pcf", "counterexamples", _h_pcf_counterexamples, "n-critical failure checks", {}),
]
# the commands whose handlers return a table, the only ones with CSV output
_TABLES = {("idf", "scan"), ("idf", "mordell")}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bicrit",
        description="Exact certificates for bicritical PCF polynomial dynamics.",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="group", required=True)
    groups = {
        name: sub.add_parser(name, help=text).add_subparsers(dest="cmd", required=True)
        for name, text in GROUPS.items()
    }
    for group, cmd, handler, text, options in COMMANDS:
        p = groups[group].add_parser(cmd, help=text)
        p.add_argument(
            "--format", choices=("json", "csv"), default="json", help="output format"
        )
        for name, keywords in options.items():
            p.add_argument(f"--{name}", **keywords)
        p.set_defaults(handler=handler, inputs=tuple(options))
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as ex:
        return EXIT_USAGE if ex.code not in (0, None) else EXIT_OK
    if ns.format == "csv" and (ns.group, ns.cmd) not in _TABLES:
        print("error: csv output is available for scan tables only", file=sys.stderr)
        return EXIT_USAGE

    _bind(ns.group)
    started = time.perf_counter()
    try:
        payload, verdict, table = ns.handler(ns)
    except (DomainError, ResourceBudgetError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    code = EXIT_MATH_FAIL if verdict in ("FAIL", "DEGENERATE") else EXIT_OK
    elapsed_us = int((time.perf_counter() - started) * 1_000_000)

    try:
        if ns.format == "csv":
            _write_csv(table)
            return code
        report = {
            "schema": "bicrit.report/1",
            "tool_version": __version__,
            "command": f"{ns.group} {ns.cmd}",
            "inputs": {
                name: "" if getattr(ns, name) is None else getattr(ns, name)
                for name in ns.inputs
            },
            "verdict": verdict,
            "result": payload,
            "timings": {"elapsed_us": elapsed_us},
        }
        if table is None:
            json.dump(_exact(report), sys.stdout, sort_keys=True, indent=2)
        else:
            _write_json(_exact(report), table)
        sys.stdout.write("\n")
    except BrokenPipeError:
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return EXIT_USAGE
    return code


def entry() -> None:
    # stdout through a buffered writer of its own: unbuffered (PYTHONUNBUFFERED),
    # the text layer drops the rest of a write cut short by a reader that closed
    # the pipe, and the run would exit 0 with the report truncated
    sys.stdout = open(sys.stdout.fileno(), "w", closefd=False)
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: drop what is still buffered instead of letting
        # the interpreter's own flush at exit fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    entry()
