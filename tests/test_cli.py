import contextlib
import io
import json
import os
import subprocess
import sys
import time
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bicrit
import bicrit.arith
import bicrit.cli
import bicrit.idf
import bicrit.pcf
import bicrit.polyring
from bicrit.arith import DETERMINISTIC_PRIME_BOUND
from bicrit.cli import COMMANDS, GROUPS, main
from bicrit.idf import SCAN_DMAX_LIMIT
from bicrit.valdyn import CaseTag
from util import SCAN_HEADER, csv_table, dual_orbit_solutions, loop_mordell, scan_rows

# two ~60-bit primes: Brent's rho would need about 2^30 steps to split P * Q
P, Q = 576460752303435851, 1152921504606945751
# the least composite passing Miller-Rabin to the 12 prime bases up to 37
PSI12 = 318665857834031151167461


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def rebuild_argv(report):
    argv = report["command"].split()
    for key, value in sorted(report["inputs"].items()):
        if value != "":
            argv += [f"--{key}", value]
    return argv


ORBIT = "valdyn orbit --d 5 --k 1 --r 0 --e 1 --valpha -1 --vbeta -1 --start 0"
CLASSIFY = "valdyn classify --d 5 --k 1 --r 0 --e 1 --valpha -1 --vbeta -1"
INTEGRALITY = "pcf integrality --d 3 --k 1 --n 2 --m 1"
TRANSVERSALITY = "pcf transversality --d 3 --k 1 --n 2 --m 1"

# (argv, library call to change or None, change, verdict, exit code)
VERDICTS = [
    ("belyi coeffs --d 5 --k 2", None, None, "OK", 0),
    ("belyi ncrit --d 4 --profile 1,1", None, None, "OK", 0),
    ("idf find --d 8 --k 2", None, None, "FOUND", 0),
    ("idf find --d 27 --k 3", None, None, "NONE", 0),
    ("idf conjecture --n 9 --k 2", None, None, "FOUND", 0),
    ("idf conjecture --n 27 --k 3", None, None, "NONE", 0),
    ("idf scan --k 3 --dmax 100", None, None, "OK", 0),
    ("idf mordell --xmax 100", None, None, "OK", 0),
    ("pcf locus --d 3 --k 1 --n 2 --m 1", None, None, "OK", 0),
    *[
        (INTEGRALITY, "integrality_certificate",
         lambda cert, v=verdict: cert._replace(verdict=v), verdict, code)
        for verdict, code in (("PASS", 0), ("FAIL", 1), ("DEGENERATE", 1))
    ],
    (TRANSVERSALITY, None, None, "PASS", 0),
    (TRANSVERSALITY, "transversality_check", lambda rep: rep._replace(verdict="FAIL"),
     "FAIL", 1),
    ("pcf counterexamples", None, None, "CONFIRMED", 0),
    ("pcf counterexamples", "ncrit_counterexamples",
     lambda rep: rep._replace(jacobian_identically_zero=False), "FAIL", 1),
    *[
        (argv, "classify_case", lambda case, tag=tag: tag, tag.value, 0)
        for argv in (ORBIT, CLASSIFY)
        for tag in CaseTag
    ],
]


class TestExitCodes:
    def test_find_none_is_success(self, capsys):
        code, rep = run_json(capsys, "idf", "find", "--d", "27", "--k", "3")
        assert code == 0
        assert rep["verdict"] == "NONE"
        assert rep["result"]["witness"] is None

    def test_find_witness(self, capsys):
        code, rep = run_json(capsys, "idf", "find", "--d", "8", "--k", "2")
        assert code == 0
        assert rep["result"]["witness"] == {"p": "3", "r": "2", "e": "1"}

    def test_witness_passing_twelve_bases_is_factored(self, capsys):
        code, rep = run_json(capsys, "idf", "find", "--d", str(PSI12), "--k", "1")
        assert code == 0
        assert rep["result"]["witness"] == {"p": "399165290221", "r": "0", "e": "1"}
        assert "witness_primality" not in rep["result"]

    def test_witness_past_the_deterministic_bound_is_probable(self, capsys):
        bound = str(DETERMINISTIC_PRIME_BOUND)
        for command, flag in (("find", "--d"), ("conjecture", "--n")):
            code, rep = run_json(capsys, "idf", command, flag, bound, "--k", "1")
            assert code == 0
            assert rep["result"]["witness"]["p"] == bound
            assert rep["result"]["witness_primality"] == "probable"

    def test_transversality_pass(self, capsys):
        code, rep = run_json(
            capsys,
            "pcf", "transversality",
            "--d", "3", "--k", "1", "--n", "1", "--m", "1", "--emax", "2",
        )
        assert code == 0
        assert rep["verdict"] == "PASS"
        assert rep["result"]["alpha_jacobian_signs"] == ["-1", "-1"]

    @pytest.mark.parametrize("argv, name, change, verdict, expected", VERDICTS)
    def test_every_verdict_has_its_exit_code(
        self, capsys, monkeypatch, argv, name, change, verdict, expected
    ):
        # FAIL and DEGENERATE exit 1, every other verdict 0; ``change``
        # turns the result of the library call ``name`` into one with the
        # verdict wanted
        if name is not None:
            real = getattr(bicrit.cli, name)
            monkeypatch.setattr(
                bicrit.cli, name, lambda *args, **kwargs: change(real(*args, **kwargs))
            )
        code, rep = run_json(capsys, *argv.split())
        assert (rep["verdict"], code) == (verdict, expected)

    def test_usage_error(self, capsys):
        assert main(["idf", "find", "--d", "8"]) == 2
        assert main(["idf", "bogus"]) == 2
        assert main(["idf", "find", "--d", "6", "--k", "3"]) == 2  # domain error

    def test_unsupported_pair_is_usage_error(self, capsys):
        assert main(
            ["pcf", "integrality", "--d", "27", "--k", "3", "--n", "1", "--m", "1"]
        ) == 2

    def test_malformed_valuation_is_usage_error(self, capsys):
        assert main(
            ["valdyn", "classify", "--d", "5", "--k", "1", "--r", "0", "--e", "1",
             "--valpha", "abc", "--vbeta", "-1"]
        ) == 2
        assert "--valpha" in capsys.readouterr().err

    def test_malformed_profile_is_usage_error(self, capsys):
        assert main(["belyi", "ncrit", "--d", "4", "--profile", "1,x"]) == 2
        assert "--profile" in capsys.readouterr().err

    def test_zero_denominator_gamma_is_usage_error(self, capsys):
        assert main(
            ["belyi", "ncrit", "--d", "4", "--profile", "1,1", "--gamma", "1/0"]
        ) == 2
        assert "--gamma" in capsys.readouterr().err

    def test_no_extension_degree_is_usage_error(self, capsys):
        # --emax 0 checks no field at all, so it must not read as PASS
        assert main(
            ["pcf", "transversality", "--d", "3", "--k", "1", "--n", "2", "--m", "1",
             "--emax", "0"]
        ) == 2
        assert capsys.readouterr().out == ""

    def test_transversality_without_solutions_is_usage_error(self, capsys, monkeypatch):
        def no_solutions(d, k, n, m, witness, e=1, budget=1_000_000):
            return bicrit.pcf.SolveModResult(bicrit.polyring.GF(witness.p, e), (), 0)

        monkeypatch.setattr(bicrit.pcf, "solve_mod", no_solutions)
        assert main(
            ["pcf", "transversality", "--d", "3", "--k", "1", "--n", "2", "--m", "1",
             "--emax", "2"]
        ) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "GF(3), GF(3^2)" in err

    def test_transversality_large_emax_refused_at_once(self, capsys):
        # the modulus of GF(3^1000) alone would take hours to find
        start = time.perf_counter()
        argv = "pcf transversality --d 3 --k 1 --n 2 --m 1 --emax 1000"
        assert main(argv.split()) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "predicted field work 1.00e+19" in err
        assert f"limit {bicrit.pcf.FIELD_WORK_LIMIT:.0e}" in err

    def test_transversality_budget_is_the_monomial_cap(self, capsys):
        # exited 2 when --budget capped the p^(2e) points: 3^12 > 100000
        start = time.perf_counter()
        code, rep = run_json(
            capsys, *"pcf transversality --d 3 --k 1 --n 2 --m 1 --emax 6 --budget 100000".split()
        )
        assert time.perf_counter() - start < 1
        assert code == 0 and rep["verdict"] == "PASS"
        assert rep["inputs"]["budget"] == "100000"
        for e, res in enumerate(rep["result"]["per_field"][:4], 1):
            field = bicrit.polyring.GF(3, e)
            want = dual_orbit_solutions(3, 1, 2, 1, field)
            got = [[s["alpha"], s["beta"], s["jacobian"]] for s in res["solutions"]]
            assert got == [[[str(c) for c in x.coeffs] for x in sol] for sol in want]
            assert res["excluded_alpha_zero"] == "0"
        assert main("pcf transversality --d 3 --k 1 --n 7 --m 1 --budget 100".split()) == 2
        assert "exceeds the budget 100" in capsys.readouterr().err

    def test_integrality_refuses_predicted_elimination_work(self, capsys):
        # passes the monomial budget, but the resultants would run for minutes
        start = time.perf_counter()
        code = main(["pcf", "integrality", "--d", "9", "--k", "3", "--n", "2", "--m", "3"])
        assert code == 2
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert "predicted elimination work 6.56e+08" in err
        assert f"limit {bicrit.pcf.ELIMINATION_WORK_LIMIT:.0e}" in err

    def test_orbit_budget_refuses_before_multiplying(self, capsys):
        # F_6 would need ~1.7e8 term pairs before the old after-step check
        start = time.perf_counter()
        code = main(["pcf", "locus", "--d", "4", "--k", "1", "--n", "6", "--m", "1"])
        assert code == 2
        assert time.perf_counter() - start < 5
        assert "has at least" in capsys.readouterr().err

    def test_unfactorable_degree_is_usage_error(self, capsys):
        # the factoring budget, not a hang: refused after about 5 s
        start = time.perf_counter()
        assert main(["idf", "find", "--d", str(P * Q), "--k", "1"]) == 2
        assert time.perf_counter() - start < 60
        assert f"the cofactor {P * Q} " in capsys.readouterr().err

    def test_unfactorable_conjecture_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(bicrit.arith, "RHO_STEP_LIMIT", 2**16)
        assert main(["idf", "conjecture", "--n", str(P * Q), "--k", "2"]) == 2
        assert "Brent's rho" in capsys.readouterr().err

    def test_scan_past_the_limit_is_usage_error(self, capsys):
        start = time.perf_counter()
        assert main(["idf", "scan", "--k", "3", "--dmax", str(10**12)]) == 2
        assert time.perf_counter() - start < 1
        assert f"the limit is {SCAN_DMAX_LIMIT}" in capsys.readouterr().err

    def test_mordell_past_the_limit_is_usage_error(self, capsys, monkeypatch):
        # a bytearray of 10^15 bytes would end in a MemoryError, exit 1
        assert main(["idf", "mordell", "--xmax", str(10**15)]) == 2
        assert f"the limit is {bicrit.idf.MORDELL_XMAX_LIMIT}" in capsys.readouterr().err
        monkeypatch.setattr(bicrit.idf, "MORDELL_XMAX_LIMIT", 1000)
        assert main(["idf", "mordell", "--xmax", "1001", "--format", "csv"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "the limit is 1000" in err
        assert main(["idf", "mordell", "--xmax", "1000", "--format", "csv"]) == 0

    def test_csv_only_for_tables(self, capsys):
        assert main(
            ["pcf", "integrality", "--d", "3", "--k", "1", "--n", "1", "--m", "1",
             "--format", "csv"]
        ) == 2

    def test_csv_refused_before_the_handler_runs(self, capsys, monkeypatch):
        calls = []

        def stand_in(ns):
            calls.append(ns)
            return {}, "PASS", None

        commands = [
            (group, cmd, stand_in if (group, cmd) == ("pcf", "integrality") else handler, *rest)
            for group, cmd, handler, *rest in COMMANDS
        ]
        monkeypatch.setattr(bicrit.cli, "COMMANDS", commands)
        argv = ["pcf", "integrality", "--d", "3", "--k", "1", "--n", "3", "--m", "3"]
        assert main([*argv, "--format", "csv"]) == 2
        assert calls == []
        out, err = capsys.readouterr()
        assert out == "" and "csv output is available for scan tables only" in err
        assert main(argv) == 0 and len(calls) == 1


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    def test_closed_stdout_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(["idf", "find", "--d", "27", "--k", "3"]) == 2
        assert main(["idf", "mordell", "--xmax", "100", "--format", "csv"]) == 2
        assert "stdout was closed" in capsys.readouterr().err

    def test_reader_closes_pipe_early(self):
        src = os.path.dirname(os.path.dirname(bicrit.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "bicrit.cli", "idf", "scan", "--k", "3",
             "--dmax", "20000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert b"Traceback" not in err

    def test_reader_closes_unbuffered_csv_pipe_early(self):
        # unbuffered, a short write of the one-piece CSV table must not pass
        src = os.path.dirname(os.path.dirname(bicrit.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "bicrit.cli", "idf", "scan", "--k", "3",
             "--dmax", "20000", "--format", "csv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1"),
        )
        proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert b"stdout was closed" in err


class TestReports:
    def test_schema_fields(self, capsys):
        _, rep = run_json(capsys, "belyi", "coeffs", "--d", "5", "--k", "2")
        assert rep["schema"] == "bicrit.report/1"
        assert rep["command"] == "belyi coeffs"
        assert rep["result"]["b"] == ["6", "-15", "10"]
        assert set(rep) == {
            "schema", "tool_version", "command", "inputs", "verdict",
            "result", "timings",
        }

    def test_exact_strings_only(self, capsys):
        _, rep = run_json(
            capsys, "pcf", "integrality", "--d", "3", "--k", "1", "--n", "2", "--m", "1"
        )

        def no_floats(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    no_floats(v)
            elif isinstance(node, list):
                for v in node:
                    no_floats(v)

        no_floats(rep)

    def test_round_trip(self, capsys):
        for argv in (
            ["idf", "find", "--d", "51", "--k", "3"],
            ["idf", "mordell", "--xmax", "100"],
            ["belyi", "coeffs", "--d", "6", "--k", "2"],
            ["pcf", "transversality", "--d", "3", "--k", "1", "--n", "2",
             "--m", "1", "--emax", "1"],
            ["valdyn", "orbit", "--d", "5", "--k", "1", "--r", "0", "--e", "1",
             "--valpha", "-1", "--vbeta", "-1", "--start", "0", "--steps", "4"],
        ):
            code1, rep1 = run_json(capsys, *argv)
            code2, rep2 = run_json(capsys, *rebuild_argv(rep1))
            rep1.pop("timings")
            rep2.pop("timings")
            assert code1 == code2
            assert rep1 == rep2

    def test_orbit_payload(self, capsys):
        _, rep = run_json(
            capsys,
            "valdyn", "orbit", "--d", "5", "--k", "1", "--r", "0", "--e", "1",
            "--valpha", "-1", "--vbeta", "-1", "--start", "0", "--steps", "4",
        )
        assert rep["verdict"] == "CASE1"
        assert [e["value"] for e in rep["result"]["orbit"]] == [
            "-1", "-6", "-31", "-156"
        ]
        assert rep["result"]["certificate"]["kind"] == "diverging"

    def test_counterexamples(self, capsys):
        code, rep = run_json(capsys, "pcf", "counterexamples")
        assert code == 0
        assert rep["verdict"] == "CONFIRMED"


class TestCsv:
    def test_mordell_table(self, capsys):
        code, out = run(capsys, "idf", "mordell", "--xmax", "100", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,b,c,d"
        assert lines[1] == "2,3,1,1,11"
        assert len(lines) == 7

    def test_csv_json_same_data(self, capsys):
        _, out_csv = run(
            capsys, "idf", "scan", "--dmin", "7", "--dmax", "40", "--k", "3",
            "--format", "csv",
        )
        _, rep = run_json(
            capsys, "idf", "scan", "--dmin", "7", "--dmax", "40", "--k", "3"
        )
        header, *rows = out_csv.strip().splitlines()
        keys = header.split(",")
        from_csv = [dict(zip(keys, row.split(","))) for row in rows]
        assert from_csv == rep["result"]["rows"]

    def test_empty_table_prints_nothing(self, capsys):
        # every degree below 2k + 1 is skipped
        code, out = run(
            capsys, "idf", "scan", "--dmin", "2", "--dmax", "6", "--k", "3", "--format", "csv"
        )
        assert code == 0 and out == ""

    def test_scan_marks_exception(self, capsys):
        _, rep = run_json(
            capsys, "idf", "scan", "--dmin", "26", "--dmax", "28", "--k", "3"
        )
        assert rep["result"]["exceptions"] == ["27"]
        by_d = {row["d"]: row for row in rep["result"]["rows"]}
        assert by_d["27"]["has_idf"] == "false"
        assert by_d["26"]["has_idf"] == "true"


def stdout_of(*argv):
    """(exit code, stdout) of main(argv), without pytest's capture fixtures."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def check_table(argv, key, header, rows):
    """The CSV and JSON forms of a table command against csv.writer and
    json.dump of the oracle's rows."""
    code, out = stdout_of(*argv, "--format", "csv")
    assert code == 0 and out == csv_table(header, rows)
    code, out = stdout_of(*argv)
    report = json.loads(out)
    report["result"][key] = [dict(zip(header, row)) for row in rows]
    assert code == 0 and out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    return report


class TestTableOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(1, 12),
        d_min=st.integers(0, 3000),
        length=st.integers(-2, 1500),
        jobs=st.sampled_from((1, 2)),
        segment=st.sampled_from((64, 1000, bicrit.idf.SEGMENT)),
    )
    @example(k=3, d_min=2, length=4, jobs=1, segment=bicrit.idf.SEGMENT)  # no valid degree
    @example(k=3, d_min=20, length=10, jobs=2, segment=bicrit.idf.SEGMENT)  # d = 27
    # two segments of the real length
    @example(k=2, d_min=0, length=bicrit.idf.SEGMENT + 500, jobs=2, segment=bicrit.idf.SEGMENT)
    def test_scan(self, k, d_min, length, jobs, segment):
        d_max = d_min + length
        rows = scan_rows(d_min, d_max, k)
        argv = ["idf", "scan", "--k", str(k), "--dmin", str(d_min), "--dmax", str(d_max),
                "--jobs", str(jobs)]
        with patch.object(bicrit.idf, "SEGMENT", segment):
            report = check_table(argv, "rows", SCAN_HEADER, rows)
        assert report["result"]["exceptions"] == [row[0] for row in rows if row[2] == "false"]

    @pytest.mark.parametrize("x_max", [1, 2, 100, 1000])
    def test_mordell(self, x_max):
        rows = [tuple(map(str, (m.x, m.y, m.b, m.c, m.d))) for m in loop_mordell(x_max)]
        argv = ["idf", "mordell", "--xmax", str(x_max)]
        check_table(argv, "candidates", ("x", "y", "b", "c", "d"), rows)


class TestHelp:
    # structural checks: argparse's wording and layout vary between versions
    def help_text(self, capsys, *argv):
        code, out = run(capsys, *argv, "--help")
        assert code == 0
        return out

    def test_top_help_lists_every_group(self, capsys):
        out = self.help_text(capsys)
        assert "--version" in out
        for group, text in GROUPS.items():
            assert group in out and text in out

    def test_group_help_lists_its_commands(self, capsys):
        for group in GROUPS:
            out = self.help_text(capsys, group)
            for owner, cmd, _handler, text, _options in COMMANDS:
                if owner == group:
                    assert cmd in out and text in out

    def test_command_help_lists_every_option(self, capsys):
        for group, cmd, _handler, _text, options in COMMANDS:
            out = self.help_text(capsys, group, cmd)
            assert f"bicrit {group} {cmd}" in out
            for name in ("format", *options):
                assert f"--{name}" in out


def fresh_modules(statement):
    """The modules a fresh interpreter has loaded after ``statement``."""
    # -S: no site hooks, whose imports are not bicrit's
    src = os.path.dirname(os.path.dirname(bicrit.__file__))
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import json, sys; {statement}; print(json.dumps(list(sys.modules)))"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
        check=True,
    ).stdout
    return set(json.loads(out))


def test_cli_does_not_import_dataclasses():
    modules = fresh_modules("import bicrit.cli; bicrit.cli.build_parser()")
    assert "bicrit.cli" in modules and "dataclasses" not in modules


def test_idf_loads_no_other_layer():
    modules = fresh_modules("import bicrit.idf")
    assert "bicrit.idf" in modules
    unused = {"bicrit.pcf", "bicrit.polyring", "bicrit.belyi", "bicrit.valdyn", "random"}
    assert not modules & unused


def cli_imports(*argv):
    """The stdout of a fresh CLI process run on argv, which must exit 0,
    and every module it imports, as -X importtime lists them."""
    src = os.path.dirname(os.path.dirname(bicrit.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "bicrit.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.stdout, loaded


def test_idf_command_loads_no_other_layer():
    out, loaded = cli_imports("idf", "find", "--d", "27", "--k", "3")
    assert '"verdict": "NONE"' in out
    assert "bicrit.idf" in loaded
    assert not loaded & {"bicrit.pcf", "bicrit.polyring", "bicrit.belyi", "bicrit.valdyn"}


def test_scan_starts_no_process():
    # two sieve segments, and two jobs asked for: the scan still runs in
    # the one process
    assert bicrit.idf.SEGMENT < 131172 - 7 < 2 * bicrit.idf.SEGMENT
    out, loaded = cli_imports("idf", "scan", "--k", "3", "--dmax", "131172", "--jobs", "2")
    assert '"exceptions": [\n      "27"\n    ]' in out
    assert "bicrit.idf" in loaded
    assert not {name.split(".")[0] for name in loaded} & {"concurrent", "multiprocessing"}


def test_rebound_handler_names_reach_the_handlers(capsys, monkeypatch):
    # perfbench/spans.py reads these names from bicrit.cli and rebinds them
    calls = []
    for name in ("find_idf_prime", "scan_witnesses", "critical_orbit_poly"):
        fn = getattr(bicrit.cli, name)
        assert callable(fn)

        def counted(*args, fn=fn, name=name, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(bicrit.cli, name, counted)
    assert main(["idf", "find", "--d", "27", "--k", "3"]) == 0
    assert main(["idf", "scan", "--k", "3", "--dmax", "100"]) == 0
    assert main(["pcf", "locus", "--d", "3", "--k", "1", "--n", "2", "--m", "1"]) == 0
    capsys.readouterr()
    assert calls == ["find_idf_prime", "scan_witnesses", *["critical_orbit_poly"] * 2]
    with pytest.raises(AttributeError):
        bicrit.cli.no_such_name
