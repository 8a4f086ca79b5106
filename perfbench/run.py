#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the bicrit command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the CLI is imported from ``src/``.  One
closed-loop client runs the workload's seeded round of cases one at a
time, each as ``python -m bicrit.cli ...`` in a fresh process, in whole
rounds until S seconds of case time have been measured.  Each case is
timed together with a fixed reference job (reference.py) run just before
it, and case times are reported as multiples of the reference's time.
Every output is verified by an independent route (check.py) outside the
timed region, and one verified output per kind is corrupted to prove
that the checker rejects it.

--trace 0 prints the end-to-end metrics.  --trace 1 instead runs the first
round again in process with every layer wrapped (spans.py), after each
case's untraced subprocess run, and prints the per-layer metrics; its
spans are written to perfbench/out/.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

CASE_TIMEOUT_S = 60
# one `bicrit --version` per two seconds of case time, so that set-up time
# is a median over the whole run rather than over one noisy second
SETUP_EVERY_S = 2.0
IMPORT_REPEATS = 5
# the one field of a report that differs between runs of the same case
_TIMINGS = re.compile(rb'"elapsed_us": "\d+"')

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import bicrit.cli; "
    "print(time.perf_counter() - t); print(bicrit.cli.__file__)"
)


class SetupError(Exception):
    pass


def run_python(args: list[str], env: dict):
    """(exit code or None on timeout, stdout, wall seconds) of one interpreter run."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _err = proc.communicate(timeout=CASE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, b"", time.perf_counter() - start
    return proc.returncode, out, time.perf_counter() - start


def run_cli(argv: list[str], env: dict):
    return run_python(["-m", "bicrit.cli", *argv], env)


def import_probe(env: dict) -> float:
    """Seconds to import bicrit.cli in a fresh interpreter, from this checkout."""
    code, out, _ = run_python(["-c", _IMPORT_PROBE], env)
    lines = out.decode().split()
    if code != 0 or len(lines) != 2 or not lines[1].startswith(str(SRC)):
        raise SetupError(f"bicrit does not import from {SRC}")
    return float(lines[0])


def setup_wall(env: dict) -> float:
    """Wall time of `bicrit --version`: interpreter start, import, parser."""
    code, out, wall = run_cli(["--version"], env)
    if code != 0 or not out.strip():
        raise SetupError("`bicrit --version` failed")
    return wall


def reference_wall(env: dict) -> float:
    """Wall time of the fixed reference job (reference.py) in a fresh interpreter."""
    code, _out, wall = run_python([str(HERE / "reference.py")], env)
    if code != 0:
        raise SetupError("the reference job failed")
    return wall


def verify(case, code, out):
    """(problem or None, work counters) for one case's output."""
    if code is None:
        return f"timed out after {CASE_TIMEOUT_S} s", {}
    try:
        return None, check.check(case, code, out)
    except check.CheckError as ex:
        return str(ex), {}


def keep_sample(samples: dict, case, code, out) -> None:
    """Keep the first verified output of each kind that can be corrupted."""
    if case.kind not in samples and check.corrupt(case, out):
        samples[case.kind] = (case, code, out)


def self_test(samples: dict) -> tuple[bool, list[str]]:
    """Corrupt one verified output per kind; the checker must reject each."""
    notes = []
    caught = bool(samples)
    for case, code, out in samples.values():
        what, bad = check.corrupt(case, out)
        problem, _ = verify(case, code, bad)
        caught &= problem is not None
        verdict = "PASSED the checker" if problem is None else f"rejected ({problem})"
        notes.append(f"corrupted {what} of `{' '.join(case.argv)}`: {verdict}")
    return caught, notes or ["no output to corrupt"]


# A shared host's speed drifts by 20-30% over seconds to minutes, and a
# whole run can fall in a fast or a slow stretch.  So every case is timed
# together with the reference job run just before it, and its time is
# reported as a multiple of the reference's (unit "ref").  The run repeats
# the seed's round in whole rounds, so every run pools the same mix of
# cases.  The tail is a fixed percentile rather than "the highest with ten
# samples beyond it", which would move with the number of rounds a run
# completes; with at least three rounds of twenty, twelve or more samples
# lie beyond p80.
TAIL_PERCENTILE = 80
MIN_ROUNDS = 3


def tail(walls: list[float]) -> tuple[float, int]:
    """(nearest-rank TAIL_PERCENTILE of walls, number of samples beyond it)."""
    srt = sorted(walls)
    i = math.ceil(TAIL_PERCENTILE / 100 * len(srt)) - 1
    return srt[i], len(srt) - 1 - i


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _work_line(works: list[dict]) -> str:
    """Work counters summed over cases; coefficient size is a maximum."""
    total: dict[str, int] = defaultdict(int)
    for w in works:
        for key, val in w.items():
            total[key] = max(total[key], val) if key == "coeff_bits" else total[key] + val
    return " ".join(f"{k}={v}" for k, v in sorted(total.items()))


def print_by_kind(cases, ratios, walls, works) -> None:
    """Median time and verified work of each kind of case in the round."""
    kinds = defaultdict(list)
    for i, case in enumerate(cases):
        kinds[case.kind].append(i)
    for kind, slots in sorted(kinds.items()):
        ratio = statistics.median(ratios[i] for i in slots)
        wall = statistics.median(walls[i] for i in slots)
        print(f"    {kind:15s} n={len(slots):<4d} p50 {ratio:7.3f} ref {wall:.4f} s  "
              f"{_work_line([works[i] for i in slots])}")


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def timed_run(ns, env: dict) -> dict:
    rng = random.Random(ns.seed)
    cases = workloads.draw_round(ns.workload, rng)
    setup_wall(env)  # fills the bytecode cache
    setups = []
    walls = defaultdict(list)  # slot -> wall time of each of its runs
    ratios = defaultdict(list)  # slot -> each wall time / the reference's before it
    refs = []
    works = {}  # slot -> work counters of its verified output
    verdicts = {}  # (slot, exit code, output digest) -> problem, work
    samples = {}
    attempted = failed = 0
    measured = 0.0
    rounds = 0
    while measured < ns.seconds or rounds < MIN_ROUNDS:
        order = list(range(len(cases)))
        if rounds:
            rng.shuffle(order)
        for i in order:
            case = cases[i]
            if measured >= len(setups) * SETUP_EVERY_S:
                setups.append(setup_wall(env))
            ref = reference_wall(env)
            code, out, wall = run_cli(case.argv, env)
            measured += wall
            refs.append(ref)
            walls[i].append(wall)
            ratios[i].append(wall / ref)
            # the same output of the same case gets the same verdict; only
            # the reported elapsed time may differ between runs
            key = (i, code, hashlib.sha256(_TIMINGS.sub(b"", out)).digest())
            if key not in verdicts:
                verdicts[key] = verify(case, code, out)
            problem, work = verdicts[key]
            attempted += 1
            if problem is None:
                works.setdefault(i, work)
                keep_sample(samples, case, code, out)
            else:
                failed += 1
                print(f"FAILED `{' '.join(case.argv)}`: {problem}")
        rounds += 1
    caught, notes = self_test(samples)

    n = len(cases)
    setup_s = statistics.median(setups)
    every_ref = [r for i in range(n) for r in ratios[i]]
    every_s = [w for i in range(n) for w in walls[i]]
    p50 = statistics.median(every_ref)
    tail_ref, beyond = tail(every_ref)
    cases_per_ref = (attempted - failed) / sum(every_ref)
    slot_ref = [statistics.median(ratios[i]) for i in range(n)]
    slot_s = [statistics.median(walls[i]) for i in range(n)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    scans = [i for i, case in enumerate(cases) if case.kind == "scan"]
    degrees = sum(works.get(i, {}).get("degrees", 0) for i in scans)
    degrees_per_s = (f"{degrees * rounds / sum(sum(walls[i]) for i in scans):.1f} 1/s" if scans
                     else "n/a (no idf scan cases)")

    print(f"perfbench {ns.workload} seed={ns.seed}: {n} slots x {rounds} rounds = {attempted} cases, "
          f"{measured:.1f} s measured, one closed-loop client")
    print(f"  reference job  {statistics.median(refs):.4f} s     median of {len(refs)}, "
          f"one before each case; 1 ref = its time")
    print(f"  setup_s        {setup_s:.4f} s     median of {len(setups)} `bicrit --version`")
    print(f"  case_p50_ref   {p50:.4f} ref   ({statistics.median(every_s):.4f} s) n={attempted}")
    print(f"  case_tail_ref  {tail_ref:.4f} ref   ({tail(every_s)[0]:.4f} s) "
          f"p{TAIL_PERCENTILE}, {beyond} of {attempted} beyond")
    print(f"  cases_per_ref  {cases_per_ref:.4f} 1/ref ({(attempted - failed) / measured:.4f} 1/s)")
    print(f"  degrees_per_s  {degrees_per_s}")
    print(f"  fail_frac      {failed / attempted:.4f}      {failed}/{attempted}")
    print(f"  peak_rss_mb    {peak_rss_mb:.1f} MB")
    print("  by kind of case, with the work its verified outputs represent:")
    print_by_kind(cases, slot_ref, slot_s, [works.get(i, {}) for i in range(n)])
    print("  by slot, cheapest first: median ref, median s, every ratio")
    for i in sorted(range(n), key=slot_ref.__getitem__):
        every = " ".join(f"{r:.3f}" for r in ratios[i])
        print(f"    {slot_ref[i]:7.3f} ref {slot_s[i]:.4f} s  [{every}]  {' '.join(cases[i].argv)}")
    for note in notes:
        print(f"  self-test      {note}")
    return {
        "correct": failed == 0 and caught,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": _metric(setup_s, "s"),
            "case_p50_ref": _metric(p50, "ref"),
            "case_tail_ref": _metric(tail_ref, "ref"),
            "cases_per_ref": _metric(cases_per_ref, "1/ref"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        },
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    import spans

    out = [("cli.import_s", "s", "lower"), ("cli.out_bytes", "bytes", "lower")]
    for name in spans.SPAN_NAMES:
        out += [(f"{name}.s", "s", "lower"), (f"{name}.self_s", "s", "lower"),
                (f"{name}.calls", "count", "lower")]
    for name in spans.COUNTERS:
        unit = "bits" if name.endswith("bits") else "count"
        out.append((name, unit, "higher" if name.startswith("idf.scan") else "lower"))
    out += [("pcf.solve_mod.hit_ratio", "ratio", "higher"),
            ("trace.case_gap_s", "s", "lower"), ("trace.spans", "count", "lower")]
    return out



def traced_run(ns, env: dict) -> dict:
    sys.path.insert(0, str(SRC))
    import spans

    if not spans.bicrit.__file__.startswith(str(SRC)):
        raise SetupError(f"bicrit does not import from {SRC}")
    import_s = statistics.median(import_probe(env) for _ in range(IMPORT_REPEATS))
    cases = workloads.draw_round(ns.workload, random.Random(ns.seed))
    untraced = defaultdict(list)
    traced = defaultdict(list)
    layer_times = defaultdict(list)
    first = None
    samples = {}
    attempted = failed = 0
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < ns.seconds:
        tracer = spans.Tracer()
        out_bytes = 0
        for i, case in enumerate(cases):
            code, out, wall = run_cli(case.argv, env)
            problem, _ = verify(case, code, out)
            tcode, tout, twall = tracer.run_cli(i, case.argv)
            if problem is None and (tcode, _TIMINGS.sub(b"", tout)) != (code, _TIMINGS.sub(b"", out)):
                problem = "traced report differs from the untraced one"
            if problem is None:
                keep_sample(samples, case, code, out)
            else:
                print(f"FAILED `{' '.join(case.argv)}`: {problem}")
            attempted += 1
            failed += problem is not None
            untraced[i].append(wall)
            traced[i].append(twall)
            out_bytes += len(tout)
        for key, val in tracer.layer_totals().items():
            layer_times[key].append(val)
        if first is None:
            first = tracer
            first_out_bytes = out_bytes
    caught, notes = self_test(samples)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{ns.workload}-seed{ns.seed}.jsonl"
    first.write(spans_path)
    counts = first.counts
    gaps = [statistics.median(untraced[i]) - statistics.median(traced[i]) for i in untraced]
    values = {
        "cli.import_s": import_s,
        "cli.out_bytes": first_out_bytes,
        "pcf.solve_mod.hit_ratio": (
            counts["pcf.solve_mod.roots"] / counts["pcf.solve_mod.points"]
            if counts["pcf.solve_mod.points"] else 0.0
        ),
        "trace.case_gap_s": statistics.median(gaps),
        "trace.spans": len(first.spans),
    }
    first_totals = first.layer_totals()
    for name in spans.SPAN_NAMES:
        for suffix in ("s", "self_s"):
            key = f"{name}.{suffix}"
            values[key] = statistics.median(layer_times[key]) if key in layer_times else 0.0
        values[f"{name}.calls"] = int(first_totals.get(f"{name}.calls", 0))
    for name in spans.COUNTERS:
        values[name] = counts[name]

    reps = len(untraced[0])
    print(f"perfbench {ns.workload} seed={ns.seed} traced: {len(cases)} cases x {reps} repeats; "
          f"spans in {spans_path.relative_to(ROOT)}")
    metrics = {}
    for name, unit, _better in per_layer_metrics():
        metrics[name] = _metric(values[name], unit)
        print(f"  {name:34s} {values[name]:.6g} {unit}")
    for note in notes:
        print(f"  self-test      {note}")
    return {"correct": failed == 0 and caught, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (SRC / "bicrit" / "cli.py").is_file():
        print(f"perfbench: no bicrit sources at {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # let the CLI cache its bytecode under src/, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        import_probe(env)
        if ns.trace:
            result = traced_run(ns, env)
        else:
            result = timed_run(ns, env)
    except SetupError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
