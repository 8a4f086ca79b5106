"""Critical-orbit loci, p-adic integrality certificates, and transversality.

For the family f_{a,c}(z) = a*B(z) + c with marked critical points 0 and 1,
the locus of maps whose critical orbits are periodic of periods (n, m) is
cut out by

    F_n(a, c) = f^n(0)        G_m(a, c) = f^m(1) - 1.

Eliminating either variable with a resultant yields univariate polynomials
whose p-adic Newton polygons read off the valuations of all solution
coordinates at once: the certificate PASSes when every root valuation of
Res_a(F, G) (a polynomial in c) is >= 0 and every root valuation of
Res_c(F, G) (a polynomial in a) is exactly 0.  Factors a^j of the latter
are stripped and logged first: a = 0 is not a degree-d map, and solutions
with a = 0 mod p are excluded separately.

Transversality is certified modulo an IDF prime p, where B collapses to
the monomial s*z^(t*p) with s in GF(p).  So the reduced locus and its
Jacobian lie in GF(p)[a, c]: they are built over GF(p), the same for every
e, and evaluated at the points of GF(p^e)^2.  Every common root
(alpha, beta) must make the Jacobian

    J = F_a * G_c - G_a * F_c

nonzero; the sharper identity alpha * J(alpha, beta) = +-1 is asserted and
the observed sign recorded (the sign flips with the determinant's row
order, so only the unit property is orientation-free).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .arith import val_p
from .belyi import belyi_coeffs, ncritical_form
from .errors import DomainError, ResourceBudgetError, UnsupportedParametersError
from .idf import IdfWitness, find_idf_prime
from .polyring import (
    GF,
    FieldElem,
    NewtonPolygon,
    SparsePoly,
    UniPoly,
    bivariate_resultant,
    newton_polygon,
)

__all__ = [
    "CriticalOrbitPoly",
    "DEFAULT_MONOMIAL_BUDGET",
    "ELIMINATION_WORK_LIMIT",
    "FiniteSolution",
    "IntegralityCertificate",
    "NCritCounterexampleReport",
    "SolveModResult",
    "TransversalityReport",
    "critical_orbit_poly",
    "integrality_certificate",
    "jacobian",
    "ncrit_counterexamples",
    "reduce_map",
    "solve_mod",
    "transversality_check",
]

DEFAULT_MONOMIAL_BUDGET = 10_000
# integrality_certificate refuses resultants whose _elimination_work exceeds
# this: up to about a minute of Bareiss elimination over Z[x]
ELIMINATION_WORK_LIMIT = 3 * 10**8

_A, _C = 0, 1


@dataclass(frozen=True)
class CriticalOrbitPoly:
    d: int
    k: int
    which: int  # 0 or 1: which critical point
    n: int
    poly: SparsePoly  # in (a, c), over Q or GF(p)


def critical_orbit_poly(
    d: int, k: int, which: int, n: int, budget: int = DEFAULT_MONOMIAL_BUDGET,
    p: int | None = None,
) -> CriticalOrbitPoly:
    """F_n (which = 0) or G_n = f^n(1) - 1 (which = 1) as an exact (a, c) polynomial.

    Over Q, or over GF(p) for a prime ``p`` > k, where it is the rational
    one reduced mod p.
    """
    if which not in (0, 1):
        raise DomainError("which must be 0 or 1")
    if n < 1:
        raise DomainError("period must be >= 1")
    belyi = belyi_coeffs(d, k)
    if d ** (n - 1) > budget:
        raise ResourceBudgetError(
            f"degree d^(n-1) = {d ** (n - 1)} exceeds the budget {budget}"
        )
    a = SparsePoly.variable(2, _A, p)
    c = SparsePoly.variable(2, _C, p)
    z = SparsePoly.constant(2, which, p)
    for _ in range(n):
        z = belyi.step(a, c, z, budget)
    return CriticalOrbitPoly(d, k, which, n, z - which)


def _elimination_work(F: SparsePoly, G: SparsePoly) -> int:
    """Predicted cost of the two resultants of F and G, from degrees alone.

    Eliminating x, the Sylvester matrix has dimension N = deg_x F + deg_x G,
    each Bareiss step updates about s = min(deg_x F, deg_x G) rows, and the
    entries grow to degree D = deg_x F * deg_y G + deg_x G * deg_y F (the
    Bezout bound on the resultant's degree).  s * N * D^2 of the larger
    elimination tracks measured run times to within a small factor.
    """
    work = 0
    for x in (_A, _C):
        y = 1 - x
        s = min(F.degree(x), G.degree(x))
        size = F.degree(x) + G.degree(x)
        deg = F.degree(x) * G.degree(y) + G.degree(x) * F.degree(y)
        work = max(work, s * size * deg**2)
    return work


@dataclass(frozen=True)
class IntegralityCertificate:
    """Newton-polygon evidence that locus solutions are p-adically integral.

    res_a is Res_c(F_n, G_m) in a with a^j factors and content stripped and
    logged; res_c is Res_a(F_n, G_m) in c with only content stripped.  The
    verdict is recomputable from the stored polygons.
    """

    d: int
    k: int
    n: int
    m: int
    witness: IdfWitness
    res_a: UniPoly
    res_c: UniPoly
    stripped_a_power: int
    stripped_a_content: Fraction
    stripped_c_content: Fraction
    polygon_a: NewtonPolygon | None
    polygon_c: NewtonPolygon | None
    a_valuations_all_zero: bool
    c_valuations_nonnegative: bool
    verdict: str  # "PASS" | "FAIL" | "DEGENERATE"


def integrality_certificate(
    d: int, k: int, n: int, m: int, budget: int = DEFAULT_MONOMIAL_BUDGET
) -> IntegralityCertificate:
    witness = find_idf_prime(d, k)
    if witness is None:
        raise UnsupportedParametersError(f"no IDF prime exists for ({d}, {k})")
    if d ** (n - 1) * d ** (m - 1) > budget:
        raise ResourceBudgetError(
            f"resultant for (n, m) = ({n}, {m}) at degree {d} exceeds the budget"
        )
    F = critical_orbit_poly(d, k, 0, n, budget).poly
    G = critical_orbit_poly(d, k, 1, m, budget).poly
    work = _elimination_work(F, G)
    if work > ELIMINATION_WORK_LIMIT:
        raise ResourceBudgetError(
            f"resultants for (d, k, n, m) = ({d}, {k}, {n}, {m}): predicted "
            f"elimination work {work:.2e} exceeds the limit {ELIMINATION_WORK_LIMIT:.0e}"
        )
    r_a = bivariate_resultant(F, G, eliminate=_C)
    r_c = bivariate_resultant(F, G, eliminate=_A)
    if r_a.is_zero or r_c.is_zero:
        zero_q = UniPoly()
        return IntegralityCertificate(
            d, k, n, m, witness, zero_q, zero_q, 0, Fraction(0), Fraction(0),
            None, None, False, False, "DEGENERATE",
        )
    j = r_a.trailing_zeros()
    r_a = r_a.shifted_down(j)
    cont_a = r_a.content()
    r_a = r_a.primitive_part()
    cont_c = r_c.content()
    r_c = r_c.primitive_part()
    p = witness.p
    np_a = newton_polygon(r_a, p)
    np_c = newton_polygon(r_c, p)
    ok_a = np_a.all_valuations_zero()
    ok_c = np_c.all_valuations_nonnegative()
    return IntegralityCertificate(
        d, k, n, m, witness, r_a, r_c, j, cont_a, cont_c,
        np_a, np_c, ok_a, ok_c, "PASS" if ok_a and ok_c else "FAIL",
    )


def reduce_map(d: int, k: int, witness: IdfWitness) -> tuple[int, int]:
    """Reduction data of B modulo the IDF prime: B == s*z^(t*p) mod p.

    Returns (s, t) with s in [1, p) the residue of the index-r coefficient
    and t*p = d - r; verifies that every other coefficient reduces to 0.
    """
    if not witness.holds_for(d, k):
        raise DomainError(f"{witness} is not an IDF witness for ({d}, {k})")
    p, r = witness.p, witness.r
    belyi = belyi_coeffs(d, k)
    s = belyi.coeffs[r] % p
    if not s:
        raise DomainError("index-r coefficient vanished mod p; invalid witness")
    for i, b in enumerate(belyi.coeffs):
        if i != r and b % p:
            raise DomainError(
                f"coefficient b_{i} = {b} is a unit mod {p}; reduction is not a monomial"
            )
    return s, (d - r) // p


def jacobian(F: SparsePoly, G: SparsePoly) -> SparsePoly:
    """F_a * G_c - G_a * F_c for two-variable polynomials."""
    return F.partial(_A) * G.partial(_C) - G.partial(_A) * F.partial(_C)


@dataclass(frozen=True)
class FiniteSolution:
    alpha: FieldElem
    beta: FieldElem
    jacobian_value: FieldElem


@dataclass(frozen=True)
class SolveModResult:
    field: GF
    solutions: tuple[FiniteSolution, ...]
    excluded_alpha_zero: int


def _check_enumeration(p: int, e: int, budget: int) -> None:
    if p ** (2 * e) > budget:
        raise ResourceBudgetError(f"GF({p}^{e})^2 enumeration exceeds the budget")


def solve_mod(
    d: int,
    k: int,
    n: int,
    m: int,
    witness: IdfWitness,
    e: int = 1,
    budget: int = 1_000_000,
) -> SolveModResult:
    """All common roots of the reduced locus over GF(p^e), with Jacobian values.

    F_n, G_m and J are built over GF(p), where they lie, and evaluated at
    every point of GF(p^e)^2.  Roots with alpha = 0 are excluded (a = 0 mod
    p is not a degree-d map and is ruled out for true solutions) but counted.
    """
    if not witness.holds_for(d, k):
        raise DomainError(f"{witness} is not an IDF witness for ({d}, {k})")
    p = witness.p
    _check_enumeration(p, e, budget)
    field = GF(p, e)
    Fbar = critical_orbit_poly(d, k, 0, n, p=p).poly
    Gbar = critical_orbit_poly(d, k, 1, m, p=p).poly
    Jbar = jacobian(Fbar, Gbar)
    sols = []
    excluded = 0
    for alpha in field.elements():
        for beta in field.elements():
            if Fbar.evaluate((alpha, beta)):
                continue
            if Gbar.evaluate((alpha, beta)):
                continue
            if not alpha:
                excluded += 1
                continue
            jv = Jbar.evaluate((alpha, beta))
            sols.append(FiniteSolution(alpha, beta, jv))
    return SolveModResult(field, tuple(sols), excluded)


@dataclass(frozen=True)
class TransversalityReport:
    d: int
    k: int
    n: int
    m: int
    witness: IdfWitness
    e_max: int
    verdict: str  # "PASS" | "FAIL"
    per_field: tuple[SolveModResult, ...]
    signs: tuple[int, ...]  # sign of alpha * J at each solution, field order
    failure: FiniteSolution | None


def transversality_check(
    d: int, k: int, n: int, m: int, e_max: int = 1, budget: int = 1_000_000
) -> TransversalityReport:
    """PASS iff J is nonzero at every finite solution over GF(p^e), e <= e_max,
    and there is at least one; with none, DomainError (nothing was checked).
    The largest field is held to ``budget`` before any field is enumerated.

    Also asserts alpha * J(alpha, beta) = +-1 in every case, recording the
    observed sign (+1 and -1 coincide when p = 2).
    """
    if e_max < 1:
        raise DomainError(f"e_max must be >= 1, got {e_max}: no field would be checked")
    witness = find_idf_prime(d, k)
    if witness is None:
        raise UnsupportedParametersError(f"no IDF prime exists for ({d}, {k})")
    _check_enumeration(witness.p, e_max, budget)
    results = []
    signs: list[int] = []
    for e in range(1, e_max + 1):
        res = solve_mod(d, k, n, m, witness, e, budget)
        results.append(res)
        one = res.field.one
        for sol in res.solutions:
            if not sol.jacobian_value:
                return TransversalityReport(
                    d, k, n, m, witness, e_max, "FAIL",
                    tuple(results), tuple(signs), sol,
                )
            unit = sol.alpha * sol.jacobian_value
            if unit == one:
                signs.append(1)
            elif unit == -one:
                signs.append(-1)
            else:
                return TransversalityReport(
                    d, k, n, m, witness, e_max, "FAIL",
                    tuple(results), tuple(signs), sol,
                )
    if not signs:
        fields = ", ".join(repr(res.field) for res in results)
        raise DomainError(
            f"no finite solution with alpha != 0 over {fields}: no Jacobian was checked"
        )
    return TransversalityReport(
        d, k, n, m, witness, e_max, "PASS", tuple(results), tuple(signs), None
    )


# ---------------------------------------------------------------------------
# why the method stops at two critical points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NCritCounterexampleReport:
    """Both failure modes of the n-critical extension, checked exactly.

    * The degree-10 profile-[7, 1] form has every z-coefficient divisible
      by 7, so a*g + c collapses to the constant c mod 7 and no orbit
      information survives reduction.
    * The degree-4 profile-[1, 1] form reduces mod 3 to a(1+gamma)z^3 + c,
      and the 3x3 matrix of (a, c, gamma)-derivatives of the three
      critical-orbit values has determinant identically zero, because the
      a-row and the gamma-row are proportional.
    """

    degree10_constant_mod7: bool
    degree4_coeffs_match: bool
    reduced_quartic: str
    jacobian_identically_zero: bool
    periods_checked: tuple[tuple[int, int, int], ...]

    @property
    def verdict(self) -> str:
        ok = (
            self.degree10_constant_mod7
            and self.degree4_coeffs_match
            and self.jacobian_identically_zero
        )
        return "CONFIRMED" if ok else "FAIL"


def _det3(mat) -> SparsePoly:
    (a, b, c), (d_, e, f), (g, h, i) = mat
    return a * (e * i - f * h) - b * (d_ * i - f * g) + c * (d_ * h - e * g)


def ncrit_counterexamples() -> NCritCounterexampleReport:
    # degree 10, profile [7, 1]: all z-coefficients lie in 7Z[gamma]
    form10 = ncritical_form(10, (7, 1))
    const_mod7 = all(
        all(val_p(coeff, 7) >= 1 for coeff in gpoly.coeffs)
        for _z_exp, gpoly in form10.coeffs
    )

    # degree 4, profile [1, 1]: pin the exact coefficients first
    form4 = ncritical_form(4, (1, 1))
    gamma = UniPoly((0, 1))
    expected = {
        4: UniPoly((6,)),
        3: UniPoly((-8,)) - 8 * gamma,
        2: 12 * gamma,
    }
    got = {e: c for e, c in form4.coeffs}
    coeffs_match = got == expected

    # reduce mod 3 and run the three critical orbits symbolically
    a, c, g = (SparsePoly.variable(3, i, p=3) for i in range(3))
    lead = a * (1 + g)

    def orbit(z: SparsePoly, steps: int) -> SparsePoly:
        for _ in range(steps):
            z = lead * z**3 + c
        return z

    starts = (SparsePoly(3, p=3), SparsePoly.constant(3, 1, p=3), g)
    periods = tuple(product((1, 2), repeat=3))
    jac_zero = True
    for trip in periods:
        values = [orbit(s, steps) for s, steps in zip(starts, trip)]
        if _det3([[v.partial(i) for v in values] for i in range(3)]):
            jac_zero = False
            break
    return NCritCounterexampleReport(
        const_mod7, coeffs_match, "a*(1 + g)*z^3 + c", jac_zero, periods
    )
