"""Shared test oracles, independent of the implementation paths they check."""

import csv
import io
from fractions import Fraction
from math import factorial, isqrt

from bicrit.arith import INFINITY, RHO_STEP_LIMIT, _brent, is_prime
from bicrit.belyi import belyi_coeffs
from bicrit.errors import DomainError, ResourceBudgetError
from bicrit.idf import MORDELL_B_SET, MORDELL_C_SET, MordellCandidate
from bicrit.polyring import SparsePoly, UniPoly
from bicrit.valdyn import CaseTag, ValParams, classify_case


def factorial_belyi_coeffs(d, k):
    """b_0..b_k of the normal form from the factorial formula, as Fractions:
    b_i = (-1)^(k-i) / ((k-i)! i!) * prod_{j != i, j <= k} (d - j)."""
    out = []
    for i in range(k + 1):
        prod_term = 1
        for j in range(k + 1):
            if j != i:
                prod_term *= d - j
        sign = -1 if (k - i) % 2 else 1
        out.append(Fraction(sign * prod_term, factorial(k - i) * factorial(i)))
    return tuple(out)


def z_derivative(coeffs):
    """d/dz of the polynomial sum of c * z^e over {e: c}, as a UniPoly."""
    return UniPoly(e * coeffs.get(e, 0) for e in range(1, max(coeffs) + 1))


def derivative_identity_holds(b):
    """B'(z) = d * b_0 * z^(d-k-1) * (z - 1)^k for the BelyiPoly b."""
    z = UniPoly((0, 1))
    rhs = (b.d * b.coeffs[0]) * z ** (b.d - b.k - 1) * (z - 1) ** b.k
    return z_derivative(dict(enumerate(b.polynomial().coeffs))) == rhs


def reduce_coeff(x, field):
    """A rational reduced into GF(p^e) with integer arithmetic alone."""
    x = Fraction(x)
    p = field.p
    return field.elem(x.numerator * pow(x.denominator, -1, p) % p)


def reduce_poly(P, p):
    """A SparsePoly over Q reduced mod p coefficient by coefficient."""
    return SparsePoly(
        P.nvars,
        {e: c.numerator * pow(c.denominator, -1, p) for e, c in P.terms.items()},
        p,
    )


def power_inverse(x):
    """1/x for a nonzero x of GF(q) as x^(q-2), in the group of order q - 1."""
    return x ** (x.field.order - 2)


def reduced_values(f, field):
    """(x, value) of a UniPoly over Q reduced into ``field``, for every x
    in the order of ``field.elements()``."""
    coeffs = [reduce_coeff(c, field) for c in f.coeffs]
    out = []
    for x in field.elements():
        acc = field.zero
        for c in reversed(coeffs):
            acc = acc * x + c
        out.append((x, acc))
    return out


def dual_orbit_solutions(d, k, n, m, field):
    """(alpha, beta, J) at every common root of F_n and G_m over ``field``
    with alpha != 0, in the order of ``field.elements()``.

    No polynomial in (a, c) is formed: f = alpha*B(z) + beta is iterated
    on each point, and at the roots of F_n again with dual numbers
    (z, dz/da, dz/dc), from which J = F_a * G_c - G_a * F_c is read off.
    """
    dense = [field.zero] * (d + 1)
    for i, b in enumerate(belyi_coeffs(d, k).coeffs):
        dense[d - i] = field.elem(b)

    def value(alpha, beta, steps):
        z = field.zero
        for _ in range(steps):
            val = field.zero
            for coeff in reversed(dense):  # Horner for B(z)
                val = val * z + coeff
            z = alpha * val + beta
        return z

    def orbit(alpha, beta, start, steps):
        z, za, zc = field.elem(start), field.zero, field.zero
        for _ in range(steps):
            val = der = field.zero
            for coeff in reversed(dense):  # Horner for B(z) and B'(z)
                der = der * z + val
                val = val * z + coeff
            z, za, zc = (
                alpha * val + beta,
                val + alpha * der * za,
                alpha * der * zc + field.one,
            )
        return z, za, zc

    out = []
    for alpha in field.elements():
        if not alpha:
            continue
        for beta in field.elements():
            if value(alpha, beta, n):
                continue
            F, F_a, F_c = orbit(alpha, beta, 0, n)
            G, G_a, G_c = orbit(alpha, beta, 1, m)
            if not F and G == field.one:
                out.append((alpha, beta, F_a * G_c - G_a * F_c))
    return out


def poly_divmod(f, g):
    """(quotient, remainder) of UniPolys over Q, by long division."""
    if g.is_zero:
        raise DomainError("polynomial division by zero")
    rem = list(f.coeffs)
    dq = len(rem) - len(g.coeffs)
    if dq < 0:
        return UniPoly(), f
    quo = [Fraction(0)] * (dq + 1)
    gb = g.coeffs
    while len(rem) >= len(gb):
        c = rem[-1] / gb[-1]
        shift = len(rem) - len(gb)
        quo[shift] = c
        for i, b in enumerate(gb):
            rem[shift + i] = rem[shift + i] - c * b
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            break
    return UniPoly(quo), UniPoly(rem)


def exact_div(f, g):
    q, r = poly_divmod(f, g)
    if not r.is_zero:
        raise DomainError("inexact polynomial division")
    return q


def sylvester_rows(f_coeffs, g_coeffs, zero):
    """Sylvester matrix with f-rows above g-rows (coefficients low-first)."""
    m = len(f_coeffs) - 1
    n = len(g_coeffs) - 1
    rows = []
    for shifts, coeffs in ((n, f_coeffs), (m, g_coeffs)):
        for i in range(shifts):
            row = [zero] * (m + n)
            for j, c in enumerate(reversed(coeffs)):
                row[i + j] = c
            rows.append(row)
    return rows


def bareiss_det(mat, div, is_zero, zero):
    """Determinant by fraction-free (Bareiss) elimination in any integral
    domain; ``div`` performs the (always exact) division by the last pivot."""
    n = len(mat)
    sign = 1
    prev = None
    for r in range(n - 1):
        if is_zero(mat[r][r]):
            for i in range(r + 1, n):
                if not is_zero(mat[i][r]):
                    mat[r], mat[i] = mat[i], mat[r]
                    sign = -sign
                    break
            else:
                return zero
        pivot = mat[r][r]
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                t = mat[i][j] * pivot - mat[i][r] * mat[r][j]
                mat[i][j] = t if prev is None else div(t, prev)
            mat[i][r] = zero
        prev = pivot
    det = mat[n - 1][n - 1]
    return -det if sign < 0 else det


def resultant(f, g):
    """Res(f, g) of UniPolys over Q: the Sylvester determinant, f-rows
    above g-rows, by Bareiss elimination on Fractions."""
    if f.is_zero or g.is_zero:
        raise DomainError("resultant of the zero polynomial")
    if f.degree + g.degree == 0:
        return Fraction(1)
    mat = sylvester_rows(list(f.coeffs), list(g.coeffs), Fraction(0))
    return bareiss_det(mat, lambda a, b: a / b, lambda x: not x, Fraction(0))


def coeff_unipolys(F, eliminate):
    """F as a list of UniPolys in the kept variable, indexed by the power
    of the eliminated one."""
    keep = 1 - eliminate
    buckets = [dict() for _ in range(F.degree(eliminate) + 1)]
    for exps, c in F.terms.items():
        buckets[exps[eliminate]][exps[keep]] = c
    out = []
    for bucket in buckets:
        coeffs = [Fraction(0)] * (max(bucket, default=-1) + 1)
        for e, c in bucket.items():
            coeffs[e] = c
        out.append(UniPoly(coeffs))
    return out


def fraction_bivariate_resultant(F, G, eliminate):
    """Res of two 2-variable polynomials over Q: Bareiss over UniPoly
    entries, dividing by the last pivot with polynomial long division."""
    fc = coeff_unipolys(F, eliminate)
    gc = coeff_unipolys(G, eliminate)
    if len(fc) + len(gc) == 2:
        return UniPoly((1,))
    zero = UniPoly()
    mat = sylvester_rows(fc, gc, zero)
    return bareiss_det(mat, exact_div, lambda u: u.is_zero, zero)


def prs_resultant(f, g):
    """Resultant by the Euclidean remainder recursion (independent of the
    Sylvester/Bareiss route), pinned to the f-rows-above-g-rows sign."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of zero polynomial")

    def rec(a, b):
        da, db = a.degree, b.degree
        if db == 0:
            return b.coeffs[0] ** da
        if da < db:
            swapped = rec(b, a)
            return swapped if (da * db) % 2 == 0 else -swapped
        q, r = poly_divmod(a, b)
        if r.is_zero:
            return Fraction(0)
        sign = 1 if (da * db) % 2 == 0 else -1
        return sign * (b.coeffs[-1] ** (da - r.degree)) * rec(b, r)

    return rec(f, g)


def spf_sieve(limit):
    """Smallest-prime-factor table for 0..limit."""
    spf = list(range(limit + 1))
    for i in range(2, isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def spf_witness(d, k, spf):
    """(p, r, e) of the smallest-(r, p) IDF witness for (d, k), or None,
    by walking the factorization of each d - r down a smallest-prime-factor
    table that covers d."""
    for r in (0, *range(2, k + 1)):
        m = d - r
        if m < 2:
            continue
        while m > 1:
            p = spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if p > k and (r == 0 or e % r != 0):
                return (p, r, e)
    return None


def trial_factor(n):
    """The (p, e) pairs of n >= 2, by trial division by 2 and every odd
    number up to 10**6, then Brent's rho on the cofactor under the same
    shared step budget as factor."""
    counts = {}
    m = n
    d = 2
    while d <= 10**6 and d * d <= m:
        while m % d == 0:
            counts[d] = counts.get(d, 0) + 1
            m //= d
        d = 3 if d == 2 else d + 2
    budget = RHO_STEP_LIMIT
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()
        if is_prime(v):
            counts[v] = counts.get(v, 0) + 1
            continue
        g, steps = _brent(v, budget)
        if g is None:
            raise ResourceBudgetError(f"factoring {n}: the cofactor {v} is left unsplit")
        budget -= steps
        stack += [g, v // g]
    return tuple(sorted(counts.items()))


def loop_mordell(x_max):
    """B*Y^2 = C*X^3 + 1 over 2 <= X <= x_max, by a divisibility and an
    exact square test for every (X, B, C), sorted by (d, B, C)."""
    out = []
    for x in range(2, x_max + 1):
        for c in MORDELL_C_SET:
            rhs = c * x**3 + 1
            for b in MORDELL_B_SET:
                if rhs % b == 0:
                    y = isqrt(rhs // b)
                    if b * y * y == rhs:
                        out.append(MordellCandidate(x, y, b, c))
    out.sort(key=lambda m: (m.d, m.b, m.c))
    return out


SCAN_HEADER = ("d", "k", "has_idf", "p", "r", "e")


def csv_table(header, rows):
    """A table as csv.writer writes it, header first; "" for no rows."""
    if not rows:
        return ""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


class ExtVal:
    """The oracle of bicrit.arith's valuations (plain rationals and
    INFINITY): a rational valuation value, or +infinity (the valuation of
    0), wrapped in one class that re-implements Fraction's arithmetic.

    Totally ordered with INFINITY maximal.  Addition absorbs INFINITY;
    positive integer scaling preserves it.
    """

    __slots__ = ("_v",)

    def __init__(self, value: "int | Fraction | ExtVal" = 0):
        if isinstance(value, ExtVal):
            self._v = value._v
        elif isinstance(value, (int, Fraction)):
            self._v = Fraction(value)
        else:
            raise DomainError(f"cannot build ExtVal from {value!r}")

    @property
    def is_infinite(self) -> bool:
        return self._v is None

    @property
    def finite(self) -> Fraction:
        if self._v is None:
            raise DomainError("INFINITY has no finite value")
        return self._v

    def __add__(self, other):
        other = ExtVal(other)
        if self._v is None or other._v is None:
            return EXT_INFINITY
        return ExtVal(self._v + other._v)

    __radd__ = __add__

    def __sub__(self, other):
        other = ExtVal(other)
        if other._v is None:
            raise DomainError("cannot subtract INFINITY")
        if self._v is None:
            return EXT_INFINITY
        return ExtVal(self._v - other._v)

    def __rmul__(self, m: int):
        if not isinstance(m, int):
            return NotImplemented
        if self._v is None:
            if m <= 0:
                raise DomainError("only positive multiples of INFINITY are defined")
            return EXT_INFINITY
        return ExtVal(m * self._v)

    def _cmp_key(self):
        # (0, value) for finite, (1, 0) for infinity: sorts INFINITY last
        return (1, Fraction(0)) if self._v is None else (0, self._v)

    def __eq__(self, other):
        try:
            other = ExtVal(other)
        except DomainError:
            return NotImplemented
        return self._v == other._v

    def __lt__(self, other):
        return self._cmp_key() < ExtVal(other)._cmp_key()

    def __le__(self, other):
        return self._cmp_key() <= ExtVal(other)._cmp_key()

    def __gt__(self, other):
        return self._cmp_key() > ExtVal(other)._cmp_key()

    def __ge__(self, other):
        return self._cmp_key() >= ExtVal(other)._cmp_key()

    def __hash__(self):
        return hash(self._v)

    def __repr__(self):
        return "ExtVal(INFINITY)" if self._v is None else f"ExtVal({self._v})"

    def __str__(self):
        return "inf" if self._v is None else str(self._v)

    @staticmethod
    def parse(text: str) -> "ExtVal":
        text = text.strip()
        if text.lower() in ("inf", "infinity", "+inf"):
            return EXT_INFINITY
        return ExtVal(Fraction(text))


EXT_INFINITY = ExtVal.__new__(ExtVal)
EXT_INFINITY._v = None


def _int_val_fast(n, p):
    """Exact exponent of p in n != 0, stripping p^(2^j) chunks."""
    e = 0
    ladder = [(p, 1)]
    while True:
        pk, kk = ladder[-1]
        q, r = divmod(n, pk)
        if r == 0:
            n = q
            e += kk
            ladder.append((pk * pk, 2 * kk))
        else:
            break
    for pk, kk in reversed(ladder[:-1]):
        q, r = divmod(n, pk)
        if r == 0:
            n = q
            e += kk
    return e


def exact_orbit_valuations(d, k, p, alpha, beta, start, n):
    """v_p of the first n orbit values of the critical point, by exact
    integer iteration on unnormalized numerator/denominator pairs (no gcd
    reduction, so divergent orbits stay tractable)."""
    from math import lcm

    B = factorial_belyi_coeffs(d, k)
    scale = 1
    for c in B:
        scale = lcm(scale, c.denominator)
    bi = [int(c * scale) for c in B]  # B = sum bi z^(d-i) / scale
    an, ad = alpha.numerator, alpha.denominator
    bn, bd = beta.numerator, beta.denominator
    xn, xd = start, 1
    out = []
    for _ in range(n):
        # B(xn/xd) = P / (scale * xd^d), P = sum_i bi * xn^(d-i) * xd^i
        xd_pows = [1]
        for _i in range(k):
            xd_pows.append(xd_pows[-1] * xd)
        xn_pows = [xn ** (d - k)]
        for _i in range(k):
            xn_pows.append(xn_pows[-1] * xn)
        P = sum(
            bi[i] * xn_pows[k - i] * xd_pows[i] for i in range(k + 1)
        )
        den_b = scale * xd_pows[k] * xd ** (d - k)
        xn = an * P * bd + bn * ad * den_b
        xd = ad * den_b * bd
        if xn == 0:
            out.append(INFINITY)
        else:
            out.append(_int_val_fast(xn, p) - _int_val_fast(xd, p))
    return out


def rational_with_val(rng, p, v):
    """A random rational with v_p exactly v (unit times p^v)."""
    while True:
        u = rng.randrange(1, 40)
        if u % p:
            break
    while True:
        w = rng.randrange(1, 40)
        if w % p:
            break
    sign = rng.choice((1, -1))
    return Fraction(sign * u, w) * Fraction(p) ** v


def sample_case_valuations(rng, d, k, r, e, case):
    """Integer (v_alpha, v_beta) classified as the requested CaseTag."""
    for _ in range(10_000):
        va = rng.randrange(-4, 7)
        vb = rng.randrange(-4, 7)
        params = ValParams(d, k, r, e, va, vb)
        if classify_case(params) is case:
            return va, vb
    raise AssertionError(f"no sample found for {case} at (d,k)=({d},{k})")


ALL_CASES = (
    CaseTag.CASE1,
    CaseTag.CASE2,
    CaseTag.CASE3,
    CaseTag.CASE4I,
    CaseTag.CASE4II,
    CaseTag.CASE4III,
    CaseTag.INTEGRAL,
)


def dict_mul(P, Q):
    """P * Q for two SparsePolys over one domain by the term-by-term dict
    convolution, every coefficient product summed exactly and reduced by
    the SparsePoly constructor."""
    acc = {}
    for ea, va in P.terms.items():
        for eb, vb in Q.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            acc[key] = acc.get(key, 0) + va * vb
    return SparsePoly(P.nvars, acc, P.p)


def trimmed(a):
    """The items of a as a list, without its trailing zeros."""
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def fx_mul(a, b, field):
    """The product of two polynomials over GF(p^e) given as FieldElem lists
    (lowest degree first), one FieldElem product at a time; trimmed."""
    out = [field.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] = out[j] + x * y
    return trimmed(out)


def fx_divmod(a, b):
    """(quotient, remainder) of FieldElem lists by long division, for a
    trimmed a and a trimmed, nonzero b; both trimmed."""
    inv = b[-1].inverse()
    rem = list(a)
    quo = [inv.field.zero] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        c = rem[-1] * inv
        shift = len(rem) - len(b)
        quo[shift] = c
        for i, y in enumerate(b, shift):
            rem[i] = rem[i] - c * y
        rem = trimmed(rem)
    return trimmed(quo), rem
