"""Shared test oracles, independent of the implementation paths they check."""

from fractions import Fraction
from math import factorial

from bicrit.arith import ExtVal
from bicrit.belyi import belyi_coeffs
from bicrit.errors import DomainError
from bicrit.polyring import QQ, SparsePoly, UniPoly
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


def reduce_coeff(x, field):
    """A rational reduced into GF(p^e) with integer arithmetic alone."""
    x = Fraction(x)
    p = field.p
    return field.elem(x.numerator * pow(x.denominator, -1, p) % p)


def reduce_poly(P, field):
    """A SparsePoly over QQ reduced coefficient by coefficient."""
    return SparsePoly(
        field, P.nvars, {e: reduce_coeff(c, field) for e, c in P.terms.items()}
    )


def reduced_values(f, field):
    """(x, value) of a UniPoly over QQ reduced into ``field``, for every x
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
    on each point with dual numbers (z, dz/da, dz/dc), and
    J = F_a * G_c - G_a * F_c is read off the derivatives.
    """
    dense = [field.zero] * (d + 1)
    for i, b in enumerate(belyi_coeffs(d, k).coeffs):
        dense[d - i] = field.elem(b)

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
        for beta in field.elements():
            F, F_a, F_c = orbit(alpha, beta, 0, n)
            G, G_a, G_c = orbit(alpha, beta, 1, m)
            if not F and G == field.one and alpha:
                out.append((alpha, beta, F_a * G_c - G_a * F_c))
    return out


def poly_divmod(f, g):
    """(quotient, remainder) of UniPolys over QQ, by long division."""
    if g.is_zero:
        raise DomainError("polynomial division by zero")
    rem = list(f.coeffs)
    dq = len(rem) - len(g.coeffs)
    if dq < 0:
        return UniPoly(), f
    quo = [QQ.zero] * (dq + 1)
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
    """Res(f, g) of UniPolys over QQ: the Sylvester determinant, f-rows
    above g-rows, by Bareiss elimination on Fractions."""
    if f.is_zero or g.is_zero:
        raise DomainError("resultant of the zero polynomial")
    if f.degree + g.degree == 0:
        return QQ.one
    mat = sylvester_rows(list(f.coeffs), list(g.coeffs), QQ.zero)
    return bareiss_det(mat, lambda a, b: a / b, lambda x: not x, QQ.zero)


def coeff_unipolys(F, eliminate):
    """F as a list of UniPolys in the kept variable, indexed by the power
    of the eliminated one."""
    keep = 1 - eliminate
    buckets = [dict() for _ in range(F.degree(eliminate) + 1)]
    for exps, c in F.terms.items():
        buckets[exps[eliminate]][exps[keep]] = c
    out = []
    for bucket in buckets:
        coeffs = [QQ.zero] * (max(bucket, default=-1) + 1)
        for e, c in bucket.items():
            coeffs[e] = c
        out.append(UniPoly(coeffs))
    return out


def fraction_bivariate_resultant(F, G, eliminate):
    """Res of two 2-variable polynomials over QQ: Bareiss over UniPoly
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
            return QQ.zero
        sign = 1 if (da * db) % 2 == 0 else -1
        return sign * (b.coeffs[-1] ** (da - r.degree)) * rec(b, r)

    return rec(f, g)


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

    from bicrit.arith import INFINITY

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
            out.append(ExtVal(_int_val_fast(xn, p) - _int_val_fast(xd, p)))
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
        params = ValParams(d, k, r, e, ExtVal(va), ExtVal(vb))
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
