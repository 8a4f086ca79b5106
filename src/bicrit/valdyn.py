"""Min-plus simulation of p-adic valuation recurrences at an IDF prime.

For f(z) = a*B(z) + c and an IDF witness (p, r, e) of (d, k), the
coefficient valuations of B are e everywhere except 0 at index r, so the
valuation of an image v_p(f(x)) is bounded below by a three-term minimum
that depends only on sign(v_p(x)):

    v_x = 0:          min { v_a + e,               v_a,               v_b }
    v_x < 0:          min { v_a + e + d*v_x,       v_a + (d-r)*v_x,   v_b }
    v_x > 0 (or oo):  min { v_a + e + (d-k)*v_x,   v_a + (d-r)*v_x,   v_b }

with equality exactly when the minimum is achieved by a unique term.  For
v_x < 0 the first two terms can never tie: a tie would force e = -r*v_x,
impossible since r does not divide e.  Iterating the bound from v(0) = oo
or v(1) = 0 classifies (v_a, v_b) into divergence, constancy, or the one
inconclusive regime that needs the shift decomposition

    f^n(X + Y) = f^n(X) + h_n(X, Y),

whose remainder h_n keeps valuation >= v_a whenever v(x) >= v_b and
v(y) >= v_a.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .arith import INFINITY, _valuation, factor, val_p
from .belyi import belyi_coeffs
from .errors import DomainError, ResourceBudgetError, spend_bits
from .idf import IdfWitness, is_idf_prime
from .polyring import SparsePoly

__all__ = [
    "CaseTag",
    "DivergenceCertificate",
    "ShiftDecomposition",
    "TropVal",
    "ValParams",
    "check_shift_valuations",
    "classify_case",
    "divergence_certificate",
    "image_val",
    "orbit_val",
    "shift_remainder",
]


class CaseTag(Enum):
    CASE1 = "CASE1"  # v_a < 0, v_b < 0
    CASE2 = "CASE2"  # v_a < 0 <= v_b
    CASE3 = "CASE3"  # v_b < 0, v_a = 0
    CASE4I = "CASE4I"  # v_b < 0 < v_a, min{...} < v_b
    CASE4II = "CASE4II"  # v_b < 0 < v_a, min{...} > v_b
    CASE4III = "CASE4III"  # v_b < 0 < v_a, min{...} = v_b
    INTEGRAL = "INTEGRAL"  # v_a >= 0, v_b >= 0


class TropVal(NamedTuple):
    """A valuation bound; exact means the governing minimum was unique."""

    value: Fraction  # or an int, or INFINITY
    exact: bool


def _require_valuations(*values) -> None:
    for v in values:
        if not _valuation(v):
            raise DomainError(f"{v!r} is not a valuation: an int, a Fraction or INFINITY")


class _ValFields(NamedTuple):
    d: int
    k: int
    r: int
    e: int
    v_alpha: Fraction  # or an int; v_beta may be INFINITY too
    v_beta: Fraction


class ValParams(_ValFields):
    """IDF data (d, k, r, e) together with parameter valuations.

    Validity requires a finite v_alpha and a prime p with IdfWitness(p, r,
    e) holding for (d, k); the constructor raises DomainError otherwise.
    """

    __slots__ = ()
    # the inherited _make, and so _replace, would skip the checks in __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, d: int, k: int, r: int, e: int, v_alpha: Fraction, v_beta: Fraction):
        _require_valuations(v_alpha, v_beta)
        if v_alpha is INFINITY:
            raise DomainError("v_alpha = inf, i.e. alpha = 0, does not define a degree-d map")
        # a bound on r, so that d - r >= 2 is factored and no larger
        if not 0 <= r <= k < d - 1:
            raise DomainError(f"invalid index r = {r} for (d, k) = ({d}, {k})")
        if not any(IdfWitness(p, r, e).holds_for(d, k) for p, _ in factor(d - r)):
            raise DomainError(f"no prime p makes (p, {r}, {e}) an IDF witness for ({d}, {k})")
        return super().__new__(cls, d, k, r, e, v_alpha, v_beta)


def image_val(v_x: Fraction, params: ValParams) -> TropVal:
    """Valuation bound for v_p(f(x)) from v_p(x), with an exactness flag."""
    _require_valuations(v_x)
    d, k, r, e = params.d, params.k, params.r, params.e
    va, vb = params.v_alpha, params.v_beta
    if v_x == 0:
        terms = [va + e, va, vb]
    elif v_x < 0:
        t1 = va + e + d * v_x
        t2 = va + (d - r) * v_x
        if t1 == t2:
            raise DomainError(
                "first two minimum terms coincide; (r, e) is not IDF data"
            )
        terms = [t1, t2, vb]
    else:
        terms = [va + e + (d - k) * v_x, va + (d - r) * v_x, vb]
    m = min(terms)
    # a minimum of INFINITY is exact: every summand vanishes identically
    return TropVal(m, m is INFINITY or terms.count(m) == 1)


def orbit_val(start: int, params: ValParams, n_steps: int) -> list[TropVal]:
    """Iterated image_val seeded at v(0) = INFINITY or v(1) = 0.

    Once a step is inexact, every later entry is flagged inexact as well:
    the three-term bound is monotone in v_x, so the values remain valid
    lower bounds, but equalities can no longer be claimed.  A divergent
    orbit's values grow like d^step: past EXACT_BIT_BUDGET bits in all,
    ResourceBudgetError.
    """
    if start not in (0, 1):
        raise DomainError("orbit starts at the critical point 0 or 1")
    if n_steps < 1:
        raise DomainError("need at least one step")
    v = INFINITY if start == 0 else 0
    out: list[TropVal] = []
    exact_so_far = True
    spent = 0
    for _ in range(n_steps):
        step = image_val(v, params)
        if step.value is not INFINITY:
            spent = spend_bits(spent, step.value)
        exact_so_far = exact_so_far and step.exact
        out.append(TropVal(step.value, exact_so_far))
        v = step.value
    return out


def classify_case(params: ValParams) -> CaseTag:
    va, vb = params.v_alpha, params.v_beta
    if va >= 0 and vb >= 0:
        return CaseTag.INTEGRAL
    if va < 0:
        return CaseTag.CASE1 if vb < 0 else CaseTag.CASE2
    if va == 0:
        return CaseTag.CASE3
    # v_b < 0 < v_a
    d, r, e = params.d, params.r, params.e
    m = min(va + e + d * vb, va + (d - r) * vb)
    if m < vb:
        return CaseTag.CASE4I
    if m > vb:
        return CaseTag.CASE4II
    return CaseTag.CASE4III


class DivergenceCertificate(NamedTuple):
    """Outcome of the orbit-valuation analysis for one parameter class.

    kind "diverging": the listed steps are exact and strictly decreasing,
    and every later step decreases by at least ``step_decrement`` (the
    minimum is over terms of slope > 1 in v, so decrements only grow).
    kind "constant": every step equals v_beta exactly.
    kind "inconclusive": no conclusion from the min-plus recurrence alone.
    """

    case: CaseTag
    kind: str
    start: int
    steps: tuple[TropVal, ...]
    step_decrement: Fraction | None = None


def divergence_certificate(params: ValParams) -> DivergenceCertificate:
    case = classify_case(params)
    if case is CaseTag.INTEGRAL:
        raise DomainError("integral parameters admit no divergence certificate")
    if case is CaseTag.CASE4III:
        return DivergenceCertificate(case, "inconclusive", 0, ())
    start = 0 if case in (CaseTag.CASE1, CaseTag.CASE4I, CaseTag.CASE4II) else 1
    steps = tuple(orbit_val(start, params, 3))
    if case is CaseTag.CASE4II:
        ok = all(s.exact and s.value == params.v_beta for s in steps)
        if ok:
            return DivergenceCertificate(case, "constant", start, steps)
        return DivergenceCertificate(case, "inconclusive", start, steps)
    decreasing = all(
        steps[i].value > steps[i + 1].value for i in range(len(steps) - 1)
    )
    if all(s.exact for s in steps) and decreasing:
        dec = steps[1].value - steps[0].value
        return DivergenceCertificate(case, "diverging", start, steps, dec)
    return DivergenceCertificate(case, "inconclusive", start, steps)


# ---------------------------------------------------------------------------
# shift decomposition f^n(X + Y) = f^n(X) + h_n(X, Y)
# ---------------------------------------------------------------------------

_X, _Y = 0, 1
_TERM_GUARD = 200_000


class ShiftDecomposition(NamedTuple):
    d: int
    k: int
    n: int
    alpha: Fraction
    beta: Fraction
    h: SparsePoly  # h_n(X, Y)
    fn_x: SparsePoly  # f^n(X)
    identity_ok: bool


def shift_remainder(
    d: int, k: int, n: int, alpha: Fraction = Fraction(1), beta: Fraction = Fraction(1)
) -> ShiftDecomposition:
    """Build h_n from its recursion and verify the shift identity exactly.

    h_0 = Y, and

      h_n = alpha * sum_{j=d-k}^{d} b_j * sum_{i=1}^{j} C(j, i)
                  * f^{n-1}(X)^(j-i) * h_{n-1}^i,

    where b_j is the coefficient of z^j.  The identity
    f^n(X+Y) = f^n(X) + h_n(X,Y) is then checked against an independent
    iteration of f on X + Y.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    B = belyi_coeffs(d, k)

    X = SparsePoly.variable(2, _X)
    Y = SparsePoly.variable(2, _Y)

    fx = X
    fxy = X + Y
    h = Y
    for _ in range(n):
        # powers of the current f^(m)(X) and h_m needed by the recursion
        fpow = [SparsePoly.constant(2, 1)]
        for _i in range(d):
            fpow.append(fpow[-1] * fx)
        hpow = [SparsePoly.constant(2, 1)]
        for _i in range(d):
            hpow.append(hpow[-1] * h)
            if hpow[-1].num_terms > _TERM_GUARD:
                raise ResourceBudgetError("shift decomposition exceeded the term budget")
        new_h = SparsePoly(2)
        for j, b in zip(range(d, -1, -1), B.coeffs):  # b is the coefficient of z^j
            inner = SparsePoly(2)
            for i in range(1, j + 1):
                inner = inner + comb(j, i) * (fpow[j - i] * hpow[i])
            new_h = new_h + b * inner
        h = new_h * alpha
        fx = B.step(alpha, beta, fx, _TERM_GUARD)
        fxy = B.step(alpha, beta, fxy, _TERM_GUARD)

    identity_ok = fxy == fx + h
    return ShiftDecomposition(d, k, n, alpha, beta, h, fx, identity_ok)


def check_shift_valuations(
    d: int,
    k: int,
    n: int,
    p: int,
    alpha: Fraction,
    beta: Fraction,
    x: Fraction,
    y: Fraction,
) -> dict:
    """Valuation bounds of the shift decomposition on one rational specialization.

    Requires v_p(beta) < 0 < v_p(alpha) with the three-term minimum equal
    to v_p(beta), v_p(x) >= v_p(beta) and v_p(y) >= v_p(alpha); returns
    the observed valuations of h_n(x, y) and f^n(x) and whether they meet
    the bounds v_p(alpha) and v_p(beta).
    """
    alpha, beta, x, y = map(Fraction, (alpha, beta, x, y))
    va, vb = val_p(alpha, p), val_p(beta, p)
    w = is_idf_prime(p, d, k)
    if not isinstance(w, IdfWitness):
        raise DomainError(f"{p} is not an IDF prime for ({d}, {k}): {w.reason}")
    r, e = w.r, w.e
    if not (vb < 0 < va):
        raise DomainError("hypotheses need v(beta) < 0 < v(alpha)")
    m = min(va + e + d * vb, va + (d - r) * vb)
    if m != vb:
        raise DomainError("three-term minimum must equal v(beta)")
    if val_p(x, p) < vb or val_p(y, p) < va:
        raise DomainError("specialization violates the valuation hypotheses")

    B = belyi_coeffs(d, k)

    def f(t: Fraction) -> Fraction:
        return alpha * B.evaluate(t) + beta

    fx = x
    fxy = x + y
    for _ in range(n):
        fx = f(fx)
        fxy = f(fxy)
    h_val = val_p(fxy - fx, p)
    f_val = val_p(fx, p)
    return {
        "v_h": h_val,
        "v_fn": f_val,
        "h_bound_ok": h_val >= va,
        "orbit_bound_ok": f_val >= vb,
    }
