"""Exact-arithmetic certificates for bicritical polynomial dynamics.

Subpackages cover: arbitrary-precision scalars and p-adic valuations
(:mod:`bicrit.arith`), polynomial rings, resultants and Newton polygons
(:mod:`bicrit.polyring`), critical-point normal forms (:mod:`bicrit.belyi`),
index-divisor-free prime search (:mod:`bicrit.idf`), min-plus valuation
dynamics (:mod:`bicrit.valdyn`), and locus / transversality certificates
(:mod:`bicrit.pcf`).  The command line lives in :mod:`bicrit.cli`.
"""

from .arith import ExtVal, Factorization, INFINITY, factor, is_prime, val_p
from .belyi import (
    BelyiPoly,
    NCriticalForm,
    belyi_coeffs,
    canonical_k,
    conjugate_params,
    ncritical_form,
)
from .errors import DomainError, ResourceBudgetError, UnsupportedParametersError
from .idf import (
    IdfRejection,
    IdfWitness,
    MordellCandidate,
    conjecture_check,
    find_idf_prime,
    is_idf_prime,
    mordell_candidates,
    scan_exceptions,
    scan_witnesses,
)
from .pcf import (
    CriticalOrbitPoly,
    FiniteSolution,
    IntegralityCertificate,
    SolveModResult,
    TransversalityReport,
    critical_orbit_poly,
    integrality_certificate,
    jacobian,
    ncrit_counterexamples,
    reduce_map,
    solve_mod,
    transversality_check,
)
from .polyring import (
    GF,
    FieldElem,
    NewtonPolygon,
    SparsePoly,
    UniPoly,
    bivariate_resultant,
    newton_polygon,
)
from .valdyn import (
    CaseTag,
    DivergenceCertificate,
    ShiftDecomposition,
    TropVal,
    ValParams,
    check_shift_valuations,
    classify_case,
    divergence_certificate,
    image_val,
    orbit_val,
    shift_remainder,
)

__version__ = "0.1.0"
