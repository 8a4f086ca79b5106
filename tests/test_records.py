"""The public report records behave as immutable value objects: field repr,
no assignment, equal records hash equally, pickle round trips, and the
CLI serializes each as a dict of its fields."""

import inspect
import pickle
from fractions import Fraction

import pytest

import bicrit
from bicrit.arith import factor
from bicrit.belyi import belyi_coeffs, ncritical_form
from bicrit.cli import _exact
from bicrit.errors import DomainError
from bicrit.idf import IdfWitness, find_idf_prime, is_idf_prime, mordell_candidates
from bicrit.pcf import (
    critical_orbit_poly,
    integrality_certificate,
    ncrit_counterexamples,
    transversality_check,
)
from bicrit.polyring import UniPoly, newton_polygon
from bicrit.valdyn import ValParams, divergence_certificate, image_val, shift_remainder


def _params():
    return ValParams(5, 1, 0, 1, -1, -1)


# one or more instances of every public record, each built afresh per call
RECORDS = {
    "BelyiPoly": lambda: belyi_coeffs(5, 2),
    "NCriticalForm": lambda: ncritical_form(5, [1, 1], [Fraction(1, 2)]),
    "NCriticalForm/symbolic": lambda: ncritical_form(5, [1, 1]),
    "IdfWitness": lambda: find_idf_prime(8, 2),
    "IdfRejection": lambda: is_idf_prime(4, 8, 1),
    "MordellCandidate": lambda: mordell_candidates(30)[0],
    "CriticalOrbitPoly": lambda: critical_orbit_poly(3, 1, 0, 2),
    "IntegralityCertificate": lambda: integrality_certificate(3, 1, 2, 1),
    "TransversalityReport": lambda: transversality_check(3, 1, 2, 1),
    "SolveModResult": lambda: transversality_check(3, 1, 2, 1).per_field[0],
    "FiniteSolution": lambda: transversality_check(3, 1, 2, 1).per_field[0].solutions[0],
    "NCritCounterexampleReport": ncrit_counterexamples,
    "NewtonPolygon": lambda: newton_polygon(UniPoly([4, 0, 1]), 2),
    "Segment": lambda: newton_polygon(UniPoly([4, 0, 1]), 2).segments[0],
    "TropVal": lambda: image_val(-1, _params()),
    "ValParams": _params,
    "DivergenceCertificate": lambda: divergence_certificate(_params()),
    "ShiftDecomposition": lambda: shift_remainder(3, 1, 1),
}
# records holding a SparsePoly, which is mutable and so unhashable
UNHASHABLE = {"CriticalOrbitPoly", "ShiftDecomposition"}
# records whose every field the CLI can serialize
SERIALIZABLE = {
    "BelyiPoly", "NCriticalForm", "IdfWitness", "IdfRejection",
    "MordellCandidate", "FiniteSolution", "NCritCounterexampleReport",
    "NewtonPolygon", "Segment", "TropVal", "ValParams",
}


def fields(record):
    return list(inspect.signature(type(record)).parameters)


def test_every_public_record_is_covered():
    modules = (bicrit.arith, bicrit.belyi, bicrit.idf, bicrit.pcf, bicrit.polyring, bicrit.valdyn)
    public = {
        name
        for module in modules
        for name in module.__all__
        if hasattr(getattr(module, name), "_fields")
    }
    assert public == {key.split("/")[0] for key in RECORDS}
    assert len(public) == 17


@pytest.mark.parametrize("key", sorted(RECORDS))
def test_repr_names_every_field(key):
    record = RECORDS[key]()
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields(record))
    assert repr(record) == f"{type(record).__name__}({shown})"


@pytest.mark.parametrize("key", sorted(RECORDS))
def test_no_assignment(key):
    record = RECORDS[key]()
    with pytest.raises(AttributeError):
        setattr(record, fields(record)[0], 0)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("key", sorted(RECORDS))
def test_equal_records_hash_equally(key):
    a, b = RECORDS[key](), RECORDS[key]()
    assert a is not b and a == b
    if key in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("key", sorted(RECORDS))
def test_pickle_round_trip(key):
    record = RECORDS[key]()
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record


@pytest.mark.parametrize("key", sorted(SERIALIZABLE))
def test_exact_is_a_field_dict(key):
    record = RECORDS[key]()
    exact = _exact(record)
    assert list(exact) == fields(record)
    assert exact == {name: _exact(getattr(record, name)) for name in fields(record)}


def test_exact_nests_records():
    exact = _exact({"witness": IdfWitness(3, 2, 1), "polygon": RECORDS["NewtonPolygon"]()})
    assert exact["witness"] == {"p": "3", "r": "2", "e": "1"}
    assert exact["polygon"]["segments"] == [{"slope": "-1", "length": "2"}]
    assert _exact(factor(12)) == [["2", "2"], ["3", "1"]]


def test_factorization_iterates_its_factors():
    # factor returns the (p, e) pairs themselves, with no n beside them
    f = factor(360)
    assert f == ((2, 3), (3, 2), (5, 1))
    assert (3, 2) in f and 360 not in f


def test_holds_for_compares_witness_records():
    w = IdfWitness(4, 0, 1)
    assert not w.holds_for(8, 1)  # 4 is not prime
    assert is_idf_prime(4, 8, 1) != w
    assert IdfWitness(3, 0, 2).holds_for(18, 1)


@pytest.mark.parametrize(
    "d, k, r, e, v_alpha, v_beta",
    [
        (2, 1, 0, 1, Fraction(-1), Fraction(-1)),  # d < 3
        (5, 0, 0, 1, Fraction(-1), Fraction(-1)),  # k < 1
        (5, 3, 0, 1, Fraction(-1), Fraction(-1)),  # k > (d - 1) // 2
        (5, 1, 1, 1, Fraction(-1), Fraction(-1)),  # r = 1
        (8, 2, 3, 1, Fraction(-1), Fraction(-1)),  # r > k
        (5, 1, 0, 0, Fraction(-1), Fraction(-1)),  # e < 1
        (27, 3, 2, 2, Fraction(-1), Fraction(-1)),  # r divides e
        (5, 1, 0, 2, Fraction(-1), Fraction(-1)),  # no prime with v_p(5) = 2
        (5, 1, 0, 1, "-1", Fraction(-1)),  # a str is not a valuation
        (5, 1, 0, 1, Fraction(-1), -1.0),  # a float is not a valuation
    ],
)
def test_valparams_refuses_invalid_input(d, k, r, e, v_alpha, v_beta):
    with pytest.raises(DomainError):
        ValParams(d, k, r, e, v_alpha, v_beta)
    with pytest.raises(DomainError):
        ValParams(d=d, k=k, r=r, e=e, v_alpha=v_alpha, v_beta=v_beta)
    with pytest.raises(DomainError):
        _params()._replace(d=d, k=k, r=r, e=e, v_alpha=v_alpha, v_beta=v_beta)
