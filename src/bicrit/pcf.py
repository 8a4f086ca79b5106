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
the monomial s*z^N with s in GF(p) and N = d - r = t*p.  So the reduced
locus and its Jacobian lie in GF(p)[a, c]: they are built over GF(p), the
same for every e.  When N is a power of p and n = m, the common roots over
GF(p^e) have a closed form (:func:`_additive_points`); otherwise they come
from elimination: the roots of Res_c(F, G) over GF(p) that lie in GF(p^e),
then the common roots in c above each of them.  Every common root
(alpha, beta) must make the Jacobian

    J = F_a * G_c - G_a * F_c

nonzero; the sharper identity alpha * J(alpha, beta) = +-1 is asserted and
the observed sign recorded (the sign flips with the determinant's row
order, so only the unit property is orientation-free).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .arith import _strip, val_p
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
    common_roots,
    frobenius_orbits,
    newton_polygon,
    resultant_mod,
)

__all__ = [
    "CriticalOrbitPoly",
    "DEFAULT_MONOMIAL_BUDGET",
    "ELIMINATION_WORK_LIMIT",
    "FIELD_WORK_LIMIT",
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
# transversality_check refuses an e_max whose _field_work, summed over the
# fields, exceeds this: up to about half a minute
FIELD_WORK_LIMIT = 10**9
# the price of one step of a GF(p^e) product in steps on int lists, fitted
# with the other constants of _field_work to both routes of solve_mod forced
# in turn (BENCH_7.json route_calibration), when GF(p^e)[x] still ran on
# lists of FieldElem.  On the packed GF(q)[x] kernel the median of those
# shapes is about 8, and the per-shape ratio spreads over three orders of
# magnitude, so no one constant fits them.  It stays 30, as
# test_prices_are_pinned pins it and the prices decide which --emax values
# are refused; ROADMAP item 4 deletes it with the orbit-scan route.
_FIELD_STEP = 30

_A, _C = 0, 1


class CriticalOrbitPoly(NamedTuple):
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


def _resultant_work(s: int, size: int, deg: int) -> int:
    """Predicted cost of a resultant eliminating x, from degrees alone.

    The Sylvester matrix has dimension ``size`` = deg_x F + deg_x G, each
    Bareiss step updates about s = min(deg_x F, deg_x G) rows, and the
    entries grow to degree ``deg``, the Bezout bound on the resultant's
    degree: s * size * deg^2 tracks measured run times to within a small
    factor.  With s = 1 the linear polynomial is substituted into the other
    one: size Horner steps on polynomials of degree up to deg.
    """
    return size * deg if s == 1 else s * size * deg**2


def _elimination_work(F: SparsePoly, G: SparsePoly) -> int:
    """Predicted cost of the two resultants of F and G over Z: the larger
    _resultant_work, with deg = deg_x F * deg_y G + deg_x G * deg_y F."""
    work = 0
    for x in (_A, _C):
        y = 1 - x
        s = min(F.degree(x), G.degree(x))
        size = F.degree(x) + G.degree(x)
        deg = F.degree(x) * G.degree(y) + G.degree(x) * F.degree(y)
        work = max(work, _resultant_work(s, size, deg))
    return work


class IntegralityCertificate(NamedTuple):
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


def _is_power(x: int, p: int) -> bool:
    """Whether x = p^j for some j >= 0."""
    return x != 0 and _strip(x, p)[1] == 1


def _field_work(d: int, witness: IdfWitness, n: int, m: int, e: int) -> tuple[int, bool]:
    """Predicted cost of solve_mod over GF(p^e), from degrees alone, and
    whether eliminating is cheaper than scanning the Frobenius orbits.

    Mod p the orbit step is a*s*z^N + c with N = d - r, so deg_c F_n =
    N^(n-1) and deg_a F_n = 1 + N + ... + N^(n-2), and G_m has one more
    power of N in a; D, the Bezout bound on deg R, follows.  Both routes are
    priced in steps on int lists, each step about 30 ns:

    * eliminating: R = Res_c(F, G) over GF(p), then a^(p^e) mod R, e log p
      products of degree-D polynomials.  R costs _resultant_work, except
      S^2*D, with S = deg_c F + deg_c G the Sylvester dimension, when
      neither side is linear in c and N is a power of p (then F and G are
      sums of a few p-th powers and the Bareiss entries stay sparse).
    * scanning: one alpha of each of the p^e / e Frobenius orbits of
      GF(p^e)*, each a gcd of F(alpha, c) and G(alpha, c) over GF(p^e)
      (deg_c F * deg_c G products), setting a = alpha (S) and x^(p^e) mod
      the gcd (e log p), each product in GF(p^e) priced at _FIELD_STEP * e^2.

    Both build the smallest irreducible modulus (about e Rabin tests of e
    log p products of degree-e polynomials) and split off roots of degree-e
    factors over GF(p^e): e^5 log p in all.  The constants are fitted to the
    measured times of both routes, forced in turn, on the reduced shapes with
    d <= 13 and n, m <= 4 (Python 3.11 on a 2-vCPU x86-64 VM).  Neither price
    counts the work that grows with the number of solutions (splitting the
    common roots off, a Jacobian at each), which both routes share.  Returns
    the cheaper route's work.

    The prices hold for every shape, but when N is a power of p and n = m
    solve_mod takes neither route: it finds the points in closed form and
    does not read the route flag.
    """
    p = witness.p
    N = d - witness.r
    fc, fa = N ** (n - 1), sum(N**i for i in range(n - 1))
    gc, ga = N ** (m - 1), sum(N**i for i in range(m))
    D = fc * ga + gc * fa
    s, size = min(fc, gc), fc + gc
    resultant = size * size * D if s > 1 and _is_power(N, p) else _resultant_work(s, size, D)
    bits = p.bit_length()
    eliminate = resultant + bits * e * D**2
    scan = _FIELD_STEP * p**e // e * e**2 * (fc * gc + 30 * size + 100 * e * bits)
    return _FIELD_STEP * bits * e**5 + min(eliminate, scan), eliminate <= scan


class FiniteSolution(NamedTuple):
    alpha: FieldElem
    beta: FieldElem
    jacobian_value: FieldElem


class SolveModResult(NamedTuple):
    field: GF
    solutions: tuple[FiniteSolution, ...]
    excluded_alpha_zero: int


def _orbit_points(alphas, roots_above, p: int) -> list[tuple[FieldElem, FieldElem]]:
    """Every point (alpha, beta) from one alpha of each Frobenius orbit,
    given as (alpha, orbit size), and the betas that ``roots_above(alpha)``
    returns: the rest are their images under (alpha, beta) -> (alpha^p,
    beta^p), which fix the loci, as these lie in GF(p)[a, c]."""
    points = []
    for alpha, size in alphas:
        betas = roots_above(alpha)
        for _ in range(size):
            points += [(alpha, beta) for beta in betas]
            alpha, betas = alpha**p, [beta**p for beta in betas]
    return points


def _general_points(
    Fbar: SparsePoly, Gbar: SparsePoly, n: int, m: int, field: GF, eliminate: bool
) -> list[tuple[FieldElem, FieldElem]]:
    """The common roots of F_n and G_m over ``field`` with alpha != 0,
    unsorted, by elimination or by the orbit scan.

    The leading coefficients of F and G in c are monomials in a, so for
    alpha != 0, R(alpha) = 0 for R = Res_c(F, G) over GF(p) exactly when
    F(alpha, c) and G(alpha, c) have a common root.  With ``eliminate``,
    one root alpha of each irreducible factor of R whose degree divides e
    is taken; without, one alpha of every Frobenius orbit of GF(p^e)*.
    Above each, the common roots beta in GF(p^e) of F(alpha, c) and
    G(alpha, c).
    """
    if eliminate:
        R = resultant_mod(Fbar, Gbar, eliminate=_C)
        if not R:
            raise DomainError(
                f"Res_c(F_{n}, G_{m}) vanishes mod {field.p}: the reduced curves share a component"
            )
        while not R[0]:  # a^j: alpha = 0 is no solution
            R = R[1:]
        alphas = frobenius_orbits(R, field)
    else:
        alphas = field.orbits()

    def roots_above(alpha):
        return common_roots(Fbar.specialize(_A, alpha), Gbar.specialize(_A, alpha), field)

    return _orbit_points(alphas, roots_above, field.p)


def _additive_points(
    Fbar: SparsePoly, Gbar: SparsePoly, field: GF, s: int, N: int, n: int
) -> list[tuple[FieldElem, FieldElem]]:
    """The common roots of F_n and G_n over ``field``, unsorted, when the
    reduced map a*s*z^N + c has N a power of p: then it is additive in z,
    and f^j(z) = F_j + (a*s)^M_j * z^(N^j) with M_j = (N^j - 1)/(N - 1).

    So G_n - F_n = (a*s)^M - 1 with M = M_n, and F_n is a p-polynomial in c
    (every power of c is a power of p) whose coefficient of c is 1 (Ore 1933,
    "On a special class of polynomials").  Both facts are checked on Fbar
    and Gbar; if either fails, ArithmeticError, and no point is returned.
    The points are then {alpha : (alpha*s)^M = 1} x ker L_alpha, where
    L_alpha = F_n(alpha, .) is GF(p)-linear on GF(p^e): the alpha are the
    roots of (s*a)^M - 1, one for each Frobenius orbit, and the betas the
    kernel of the e x e matrix of L_alpha over GF(p), enumerated.
    """
    p, e = field.p, field.e
    M = (N**n - 1) // (N - 1)
    unit = SparsePoly(2, {(M, 0): pow(s, M, p), (0, 0): -1}, p)
    if Gbar - Fbar != unit or any(
        not _is_power(exps[_C], p) or (exps[_C] == 1 and (exps, c) != ((0, 1), 1))
        for exps, c in Fbar.terms.items()
    ):
        raise ArithmeticError(
            f"the reduced locus over GF({p}) is not additive: G - F is not "
            f"(a*{s})^{M} - 1, or F is no p-polynomial in c with c-coefficient 1"
        )
    # L(x^j) = sum_i mu_i * (x^j)^(p^i) on GF(p^e), where mu_i sums the
    # coefficients of the c^(p^k) with k = i mod e, as x^(p^e) = x there
    frob = {p**k: k % e for k in range(Fbar.degree(_C).bit_length())}
    basis = [field.elem((0,) * j + (1,)) for j in range(e)]
    conj = [basis]  # conj[i][j] = (x^j)^(p^i)
    while len(conj) < e:
        conj.append([b**p for b in conj[-1]])

    def kernel(alpha):
        mu = [field.zero] * e
        for q, coeff in enumerate(Fbar.specialize(_A, alpha)):
            if coeff:
                mu[frob[q]] = mu[frob[q]] + coeff
        # Gaussian elimination on the columns L(x^j), each with the
        # combination of basis vectors it stands for: a column reduced to 0
        # leaves a kernel vector
        pivots, vectors = [], []
        for j in range(e):
            col = sum((mu[i] * conj[i][j] for i in range(e)), field.zero)
            v, comb = list(col.coeffs), [int(i == j) for i in range(e)]
            for pos, w, wc in pivots:
                if v[pos]:
                    f = v[pos]
                    v = [(x - f * y) % p for x, y in zip(v, w)]
                    comb = [(x - f * y) % p for x, y in zip(comb, wc)]
            pos = next((i for i, x in enumerate(v) if x), None)
            if pos is None:
                vectors.append(comb)
            else:
                inv = pow(v[pos], -1, p)
                pivots.append((pos, [x * inv % p for x in v], [x * inv % p for x in comb]))
        betas = [(0,) * e]
        for w in vectors:
            betas = [tuple((x + t * y) % p for x, y in zip(u, w)) for u in betas for t in range(p)]
        return [field.elem(b) for b in betas]

    roots = [-1 % p] + [0] * (M - 1) + [pow(s, M, p)]  # (s*a)^M - 1
    return _orbit_points(frobenius_orbits(roots, field), kernel, p)


def solve_mod(
    d: int,
    k: int,
    n: int,
    m: int,
    witness: IdfWitness,
    e: int = 1,
    budget: int = DEFAULT_MONOMIAL_BUDGET,
) -> SolveModResult:
    """All common roots of the reduced locus over GF(p^e), with Jacobian
    values, sorted by (alpha, beta) coefficient tuples.

    F_n, G_m (each under the monomial ``budget``) and J are built over
    GF(p), where they lie.  Mod p the map is a*s*z^N + c with N = d - r.
    When N is a power of p and n = m, the points come in closed form
    (:func:`_additive_points`): no resultant is formed and no root split
    off above an alpha.  Every other shape takes :func:`_general_points`,
    by elimination, or, where _field_work predicts that scanning costs less
    (a small field against a dense R of high degree, as for (8, 2, 3, 3),
    where deg R reaches 1800), by trying one alpha of every Frobenius orbit
    of GF(p^e)*.  J is evaluated at every point.  No root has alpha = 0,
    where F = c and G = c - 1, so ``excluded_alpha_zero`` is 0.
    """
    s, t = reduce_map(d, k, witness)
    p = witness.p
    Fbar = critical_orbit_poly(d, k, 0, n, budget, p).poly
    Gbar = critical_orbit_poly(d, k, 1, m, budget, p).poly
    Jbar = jacobian(Fbar, Gbar)
    field = GF(p, e)
    if n == m and _is_power(t * p, p):
        points = _additive_points(Fbar, Gbar, field, s, t * p, n)
    else:
        eliminate = _field_work(d, witness, n, m, e)[1]
        points = _general_points(Fbar, Gbar, n, m, field, eliminate)
    points.sort(key=lambda pt: (pt[0].coeffs, pt[1].coeffs))
    sols = (FiniteSolution(a, c, Jbar.evaluate((a, c))) for a, c in points)
    return SolveModResult(field, tuple(sols), 0)


class TransversalityReport(NamedTuple):
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
    d: int, k: int, n: int, m: int, e_max: int = 1, budget: int = DEFAULT_MONOMIAL_BUDGET
) -> TransversalityReport:
    """PASS iff J is nonzero at every finite solution over GF(p^e), e <= e_max,
    and there is at least one; with none, DomainError (nothing was checked).
    ``budget`` caps the monomials of F_n and G_m.  An e_max whose predicted
    field work exceeds FIELD_WORK_LIMIT is refused before any field is built.

    Also asserts alpha * J(alpha, beta) = +-1 in every case, recording the
    observed sign (+1 and -1 coincide when p = 2).
    """
    if e_max < 1:
        raise DomainError(f"e_max must be >= 1, got {e_max}: no field would be checked")
    witness = find_idf_prime(d, k)
    if witness is None:
        raise UnsupportedParametersError(f"no IDF prime exists for ({d}, {k})")
    work = sum(_field_work(d, witness, n, m, e)[0] for e in range(1, e_max + 1))
    if work > FIELD_WORK_LIMIT:
        raise ResourceBudgetError(
            f"GF({witness.p}^e) for e <= {e_max}: predicted field work {work:.2e} "
            f"exceeds the limit {FIELD_WORK_LIMIT:.0e}"
        )
    results = []
    signs: list[int] = []
    for e in range(1, e_max + 1):
        res = solve_mod(d, k, n, m, witness, e, budget)
        results.append(res)
        one = res.field.one
        for sol in res.solutions:
            # J = 0 fails here too: 0 is neither 1 nor -1 in any field
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


class NCritCounterexampleReport(NamedTuple):
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
