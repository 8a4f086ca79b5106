"""The benchmark's in-process tracer still finds every layer it wraps.

``perfbench/spans.py`` rebinds named attributes of bicrit modules and
classes; a rename inside ``src/`` would otherwise break ``--trace 1``
only when the benchmark runs.
"""

import importlib.util
import inspect
import pathlib
from collections import defaultdict

import bicrit.idf
import bicrit.pcf
from bicrit.polyring import UniPoly

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves():
    spans = load_spans()
    for name, owners, attr, _counter in spans.LAYERS:
        for owner in owners:
            if isinstance(owner, type):
                fn = owner.__dict__.get(attr)
            else:
                fn = getattr(owner, attr, None)
            assert callable(fn), f"{name}: {owner.__name__}.{attr} is gone"


def test_solve_mod_arguments_where_the_counter_reads_them():
    # the solve_mod counter reads the witness and e from args[4] and args[5]
    params = list(inspect.signature(bicrit.pcf.solve_mod).parameters)
    assert params[4:6] == ["witness", "e"]


def test_resultant_has_what_the_counter_reads():
    # _count_resultant reads the result's .degree and each coefficient's
    # .numerator and .denominator
    spans = load_spans()
    F = bicrit.pcf.critical_orbit_poly(3, 1, 0, 2).poly
    G = bicrit.pcf.critical_orbit_poly(3, 1, 1, 1).poly
    R = bicrit.pcf.bivariate_resultant(F, G, eliminate=1)
    assert isinstance(R, UniPoly)
    assert R.degree == 4
    assert all(isinstance(c.numerator, int) and c.denominator > 0 for c in R.coeffs)
    counts = defaultdict(int)
    spans._count_resultant(counts, (F, G), {"eliminate": 1}, R)
    assert counts["polyring.sylvester_dim"] == F.degree(1) + G.degree(1)
    assert counts["polyring.resultant_degree"] == 4
    assert counts["polyring.resultant_coeff_bits"] > 0


def test_scan_has_what_the_counter_reads():
    # _count_scan reads len(result) and, for each (d, witness) pair,
    # whether the witness is None
    spans = load_spans()
    result = bicrit.idf.scan_witnesses(7, 2000, 3)
    counts = defaultdict(int)
    spans._count_scan(counts, (7, 2000, 3), {}, result)
    assert counts["idf.scan.degrees"] == 2000 - 7 + 1
    assert counts["idf.scan.exceptions"] == 1  # d = 27
    assert [d for d, w in result if w is None] == [27]


def test_tracer_records_a_span_in_every_hooked_layer():
    # the wrappers reach the layers through the CLI, as a traced round runs them
    tracer = load_spans().Tracer()
    for case, argv in enumerate((
        ["idf", "find", "--d", "27", "--k", "3"],
        ["idf", "scan", "--k", "3", "--dmax", "2000"],
        ["pcf", "locus", "--d", "3", "--k", "1", "--n", "2", "--m", "1"],
    )):
        code, out, _wall = tracer.run_cli(case, argv)
        assert code == 0 and out
    totals = tracer.layer_totals()
    layers = ("idf.find_idf_prime", "idf.scan_witnesses", "pcf.critical_orbit_poly",
              "polyring.sparse_mul")
    for name in layers:
        assert totals[f"{name}.calls"] >= 1, name
