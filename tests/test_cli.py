import io
import json
import os
import subprocess
import sys
import time

import bicrit
import bicrit.arith
import bicrit.pcf
from bicrit.cli import main
from bicrit.idf import SCAN_DMAX_LIMIT

# two ~60-bit primes: Brent's rho would need about 2^30 steps to split P * Q
P, Q = 576460752303435851, 1152921504606945751


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

    def test_transversality_pass(self, capsys):
        code, rep = run_json(
            capsys,
            "pcf", "transversality",
            "--d", "3", "--k", "1", "--n", "1", "--m", "1", "--emax", "2",
        )
        assert code == 0
        assert rep["verdict"] == "PASS"
        assert rep["result"]["alpha_jacobian_signs"] == ["-1", "-1"]

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
            return bicrit.pcf.SolveModResult(bicrit.GF(witness.p, e), (), 0)

        monkeypatch.setattr(bicrit.pcf, "solve_mod", no_solutions)
        assert main(
            ["pcf", "transversality", "--d", "3", "--k", "1", "--n", "2", "--m", "1",
             "--emax", "2"]
        ) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "GF(3), GF(3^2)" in err

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

    def test_csv_only_for_tables(self, capsys):
        assert main(
            ["pcf", "integrality", "--d", "3", "--k", "1", "--n", "1", "--m", "1",
             "--format", "csv"]
        ) == 2


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
