"""In-process tracing of bicrit's layers from outside the package.

:meth:`Tracer.installed` rebinds the public functions of the measured
layers where their callers look them up (``bicrit.pcf.bivariate_resultant``,
``bicrit.idf.factor``, ``SparsePoly.__mul__``, ...) to wrappers that
record one span per call: name, start, end, parent span and case id.
Spans stay in memory until the run ends.  A few wrappers also add
deterministic counters computed from the call's arguments and result,
so that every time sits next to the size of the work it covers.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from collections import defaultdict
from time import perf_counter

import bicrit.arith
import bicrit.belyi
import bicrit.cli
import bicrit.idf
import bicrit.pcf
import bicrit.polyring
from bicrit.polyring import SparsePoly


def _coeff_bits(poly) -> int:
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


def _count_scan(counts, args, kwargs, result):
    counts["idf.scan.degrees"] += len(result)
    counts["idf.scan.exceptions"] += sum(w is None for _, w in result)


def _count_factor(counts, args, kwargs, result):
    counts["arith.factor.max_bits"] = max(counts["arith.factor.max_bits"], args[0].bit_length())


def _count_orbit(counts, args, kwargs, result):
    counts["pcf.orbit_monomials"] += result.poly.num_terms


def _count_mul(counts, args, kwargs, result):
    self, other = args
    counts["polyring.sparse_mul.term_pairs"] += len(self.terms) * (
        len(other.terms) if isinstance(other, SparsePoly) else 1
    )


def _count_resultant(counts, args, kwargs, result):
    F, G = args[:2]
    eliminate = kwargs["eliminate"] if "eliminate" in kwargs else args[2]
    counts["polyring.sylvester_dim"] += F.degree(eliminate) + G.degree(eliminate)
    counts["polyring.resultant_degree"] += max(result.degree, 0)
    counts["polyring.resultant_coeff_bits"] = max(
        counts["polyring.resultant_coeff_bits"], _coeff_bits(result)
    )


def _count_solve(counts, args, kwargs, result):
    witness, e = args[4], args[5] if len(args) > 5 else kwargs.get("e", 1)
    counts["pcf.solve_mod.points"] += witness.p ** (2 * e)
    counts["pcf.solve_mod.solutions"] += len(result.solutions)
    counts["pcf.solve_mod.roots"] += len(result.solutions) + result.excluded_alpha_zero


# (span name, owners whose attribute is rebound, attribute, counter)
LAYERS = [
    ("idf.scan_witnesses", [bicrit.cli], "scan_witnesses", _count_scan),
    ("idf.find_idf_prime", [bicrit.cli, bicrit.idf, bicrit.pcf], "find_idf_prime", None),
    ("arith.factor", [bicrit.idf, bicrit.polyring], "factor", _count_factor),
    ("arith.is_prime", [bicrit.arith, bicrit.idf, bicrit.polyring], "is_prime", None),
    ("pcf.critical_orbit_poly", [bicrit.cli, bicrit.pcf], "critical_orbit_poly", _count_orbit),
    ("belyi.eval_sparse", [bicrit.belyi.BelyiPoly], "eval_sparse", None),
    ("polyring.sparse_mul", [SparsePoly], "__mul__", _count_mul),
    ("polyring.sparse_mul", [SparsePoly], "__rmul__", _count_mul),
    ("polyring.bivariate_resultant", [bicrit.pcf], "bivariate_resultant", _count_resultant),
    ("polyring.newton_polygon", [bicrit.pcf], "newton_polygon", None),
    ("pcf.solve_mod", [bicrit.pcf], "solve_mod", _count_solve),
    ("polyring.evaluate", [SparsePoly], "evaluate", None),
    ("pcf.jacobian", [bicrit.pcf], "jacobian", None),
]
SPAN_NAMES = ["cli", *dict.fromkeys(name for name, *_ in LAYERS)]
COUNTERS = [
    "idf.scan.degrees",
    "idf.scan.exceptions",
    "arith.factor.max_bits",
    "pcf.orbit_monomials",
    "polyring.sparse_mul.term_pairs",
    "polyring.sylvester_dim",
    "polyring.resultant_degree",
    "polyring.resultant_coeff_bits",
    "pcf.solve_mod.points",
    "pcf.solve_mod.solutions",
    "pcf.solve_mod.roots",
]


class Tracer:
    """Spans as [name, start, end, parent index, case id] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.case = None
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else None, self.case]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every layer entry point to a tracing wrapper, then restore."""
        saved = []
        for name, owners, attr, counter in LAYERS:
            for owner in owners:
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, counter))
        try:
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def run_cli(self, case_id, argv: list[str]) -> tuple[int, bytes, float]:
        """bicrit.cli.main(argv) with stdout captured: (exit code, stdout, wall s)."""
        self.case = case_id
        out, err = io.StringIO(), io.StringIO()
        main = self.wrap("cli", bicrit.cli.main)
        start = perf_counter()
        with self.installed(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        wall = perf_counter() - start
        self.case = None
        return code, out.getvalue().encode(), wall

    def layer_totals(self) -> dict[str, float]:
        """Busy time, self time and call count of every span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _case in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _case) in enumerate(self.spans):
            totals[f"{name}.s"] += end - start
            totals[f"{name}.self_s"] += end - start - child_time[i]
            totals[f"{name}.calls"] += 1
        return totals

    def write(self, path) -> None:
        """The spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, case in self.spans:
                row = {"name": name, "case": case, "parent": parent,
                       "start": round(start - t0, 7), "end": round(end - t0, 7)}
                fh.write(json.dumps(row) + "\n")
