"""Exact polynomial arithmetic over Q and over finite fields.

Provides

* ``QQ`` and :class:`GF` coefficient rings with a uniform ``coerce`` /
  ``zero`` / ``one`` protocol; ``GF.coerce`` takes ints and elements of
  its own field only.  Extension fields GF(p^e) are represented as
  residues modulo a fixed irreducible modulus: the lexicographically
  smallest monic irreducible of degree e, coefficients compared
  low-degree-first as integers in [0, p).  That makes every certificate
  reproducible bit for bit.  A :class:`FieldElem` computes with elements
  of its own field only.  GF(p)[x] is the int-list ``_gfp_*`` helpers.
* :class:`UniPoly`, dense univariate polynomials over QQ (lowest degree
  first): resultants, their content and their Newton polygons.
* :class:`SparsePoly`, sparse polynomials in a fixed number of variables
  over QQ or GF(p^e), the one type with a choice of ring, used with two
  variables for the (a, c) parameter plane and with three for the
  (a, c, gamma) counterexample checks.
* Bivariate resultants over QQ as Sylvester determinants: denominators
  are cleared once, and fraction-free (Bareiss) elimination runs over
  Z[x] on int coefficient lists, where every division is exact.
* p-adic Newton polygons with a root-valuation readout: a hull segment of
  slope -s and horizontal length L certifies exactly L roots of valuation
  s; vanishing at 0 is reported as roots of valuation INFINITY.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .arith import ExtVal, INFINITY, factor, is_prime, val_p
from .errors import DomainError

__all__ = [
    "GF",
    "FieldElem",
    "NewtonPolygon",
    "QQ",
    "Segment",
    "SparsePoly",
    "UniPoly",
    "bivariate_resultant",
    "newton_polygon",
]


# ---------------------------------------------------------------------------
# coefficient rings
# ---------------------------------------------------------------------------


class RationalField:
    """The rationals as a coefficient ring (singleton ``QQ``)."""

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise DomainError(f"cannot coerce {x!r} into QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


# -- GF(p)[x] helpers on plain int lists (lowest degree first, trimmed) -----


def _gfp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gfp_sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _gfp_trim(out)


def _gfp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _gfp_trim(out)


def _gfp_divmod(a, b, p):
    if not b:
        raise DomainError("polynomial division by zero")
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1] * inv_lead % p
        shift = len(a) - len(b)
        q[shift] = c
        for i, cb in enumerate(b):
            a[shift + i] = (a[shift + i] - c * cb) % p
        _gfp_trim(a)
        if not a:
            break
    return _gfp_trim(q), a


def _gfp_gcd(a, b, p):
    while b:
        _, a = _gfp_divmod(a, b, p)
        a, b = b, a
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _gfp_powmod(base, exponent: int, modulus, p):
    result = [1]
    base = _gfp_divmod(base, modulus, p)[1]
    while exponent:
        if exponent & 1:
            result = _gfp_divmod(_gfp_mul(result, base, p), modulus, p)[1]
        exponent >>= 1
        if exponent:
            base = _gfp_divmod(_gfp_mul(base, base, p), modulus, p)[1]
    return result


def _gfp_is_irreducible(f: list[int], p: int) -> bool:
    # Rabin's test: x^(p^e) == x mod f, and gcd(x^(p^(e/q)) - x, f) = 1
    # for every prime q dividing e.
    e = len(f) - 1
    if e == 1:
        return True
    x = [0, 1]
    t = x
    for _ in range(e):
        t = _gfp_powmod(t, p, f, p)
    if _gfp_sub(t, x, p):
        return False
    for q in {q for q, _ in factor(e)}:
        t = x
        for _ in range(e // q):
            t = _gfp_powmod(t, p, f, p)
        g = _gfp_gcd(_gfp_sub(t, x, p), f, p)
        if len(g) - 1 != 0:
            return False
    return True


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    for lower in product(range(p), repeat=e):
        cand = list(lower) + [1]
        if cand[0] == 0 and e > 1:
            # divisible by x; cheap skip
            continue
        if _gfp_is_irreducible(cand, p):
            return tuple(cand)
    raise ArithmeticError("no irreducible polynomial found")  # unreachable


class GF:
    """The finite field GF(p^e) with a deterministic modulus.

    Elements are coefficient tuples of length e (lowest degree first)
    reduced modulo the modulus.  ``GF(p)`` is the e = 1 case.
    """

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        if e < 1:
            raise DomainError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.order = p**e
        self.modulus: tuple[int, ...] | None = (
            None if e == 1 else _smallest_irreducible(p, e)
        )
        self.zero = FieldElem(self, (0,) * e)
        self.one = FieldElem(self, (1,) + (0,) * (e - 1))

    def elem(self, coeffs) -> "FieldElem":
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) > self.e:
            raise DomainError("too many coefficients for this field")
        return FieldElem(self, coeffs + (0,) * (self.e - len(coeffs)))

    def coerce(self, x) -> "FieldElem":
        if isinstance(x, FieldElem) and x.field == self:
            return x
        if isinstance(x, int):
            return self.elem(x)
        raise DomainError(f"cannot coerce {x!r} into {self}")

    def elements(self):
        """All field elements, in a fixed order (base-p digits, low first)."""
        for digits in product(range(self.p), repeat=self.e):
            yield FieldElem(self, digits)

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash(("GF", self.p, self.e))

    def __repr__(self):
        return f"GF({self.p})" if self.e == 1 else f"GF({self.p}^{self.e})"


class FieldElem:
    """An element of GF(p^e), stored as a reduced coefficient tuple.

    Arithmetic and equality take elements of the same field only; an int, a
    Fraction or an element of another field is never lifted (TypeError).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def __bool__(self):
        return any(self.coeffs)

    def _same_field(self, other) -> bool:
        return isinstance(other, FieldElem) and (
            other.field is self.field or other.field == self.field
        )

    def __add__(self, other):
        if not self._same_field(other):
            return NotImplemented
        p = self.field.p
        return FieldElem(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        if not self._same_field(other):
            return NotImplemented
        p = self.field.p
        return FieldElem(
            self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        p = self.field.p
        return FieldElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        if not self._same_field(other):
            return NotImplemented
        fld = self.field
        if fld.e == 1:
            return FieldElem(fld, ((self.coeffs[0] * other.coeffs[0]) % fld.p,))
        prod = _gfp_mul(list(self.coeffs), list(other.coeffs), fld.p)
        _, rem = _gfp_divmod(prod, list(fld.modulus), fld.p)
        rem = rem + [0] * (fld.e - len(rem))
        return FieldElem(fld, tuple(rem))

    def inverse(self) -> "FieldElem":
        """x^(q-2), which is 1/x in the multiplicative group of order q - 1."""
        if not self:
            raise DomainError("cannot invert zero")
        return self ** (self.field.order - 2)

    def __truediv__(self, other):
        if not self._same_field(other):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not self._same_field(other):
            raise TypeError(f"cannot compare an element of {self.field} with {other!r}")
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.field.e == 1:
            return f"{self.coeffs[0]}"
        return f"{list(self.coeffs)}"


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial over QQ; coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [QQ.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly((other,))
        out = list(self.coeffs) + [QQ.zero] * (len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            c = QQ.coerce(other)
            return UniPoly(c * x for x in self.coeffs)
        if self.is_zero or other.is_zero:
            return UniPoly()
        out = [QQ.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        result = UniPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def derivative(self) -> "UniPoly":
        return UniPoly(i * c for i, c in enumerate(self.coeffs[1:], start=1))

    def evaluate(self, x):
        x = QQ.coerce(x)
        acc = QQ.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def trailing_zeros(self) -> int:
        """Order of vanishing at 0 (0 for the zero polynomial)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    def shifted_down(self, j: int) -> "UniPoly":
        """Divide by x^j (requires vanishing to order >= j at 0)."""
        if any(self.coeffs[:j]):
            raise DomainError("polynomial does not vanish to that order")
        return UniPoly(self.coeffs[j:])

    def content(self) -> Fraction:
        """Positive rational content (0 for the zero polynomial)."""
        num = 0
        den = 1
        for c in self.coeffs:
            num = gcd(num, c.numerator)
            den = lcm(den, c.denominator)
        return Fraction(num, den)

    def primitive_part(self) -> "UniPoly":
        c = self.content()
        return self * (1 / c) if c else self

    def render(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            mono = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
            cs = str(c)
            if mono:
                cs = f"{cs}*{mono}" if cs not in ("1", "-1") else ("-" + mono if cs == "-1" else mono)
            parts.append(cs)
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"UniPoly({self.render()})"


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def _sylvester_rows(f_coeffs, g_coeffs, zero):
    """Sylvester matrix with f-rows above g-rows (coefficients low-first)."""
    m = len(f_coeffs) - 1
    n = len(g_coeffs) - 1
    size = m + n
    fh = list(reversed(f_coeffs))
    gh = list(reversed(g_coeffs))
    rows = []
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(fh):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(gh):
            row[i + j] = c
        rows.append(row)
    return rows


def _zx_mul_sub(a, p, b, q):
    """a*p - b*q in Z[x], on int lists (lowest degree first, trimmed)."""
    out = [0] * max(len(a) + len(p), len(b) + len(q), 1)
    for x, y, s in ((a, p, 1), (b, q, -1)):
        if not y:
            continue
        for i, c in enumerate(x):
            if c:
                c *= s
                for j, v in enumerate(y, i):
                    out[j] += c * v
    while out and not out[-1]:
        out.pop()
    return out


def _zx_exact_div(t, d):
    """t / d in Z[x] for a nonzero d; DomainError unless the division is exact.

    Long division from the top, overwriting t: each quotient coefficient is
    an exact ``divmod`` by d's leading coefficient, and the remainder must
    vanish.
    """
    if not t:
        return t
    lead = d[-1]
    top = len(d) - 1
    q = [0] * (len(t) - top)
    if not q:
        raise DomainError("inexact division in Z[x]")
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(t[k + top], lead)
        if rem:
            raise DomainError("inexact division in Z[x]")
        if c:
            q[k] = c
            for j, v in enumerate(d, k):
                t[j] -= c * v
    if any(t[:top]):
        raise DomainError("inexact division in Z[x]")
    return q


def _bareiss_zx(mat):
    """Determinant of a square matrix over Z[x] (int-list entries).

    Fraction-free (Bareiss) elimination: after step r every entry below
    and right of the pivot is a minor of the input, (M_ij * p_r - M_ir *
    M_rj) / p_(r-1) with p_r the pivot of step r, and the division is exact.
    A row whose entry in the pivot column is zero would only be multiplied
    by p_r / p_(r-1); it is skipped instead and remembers the step ``s`` it
    is exact as of.  Those factors telescope to p_t / p_s, so its next update
    divides by p_s, and a row that becomes the pivot row is first brought up
    to date by p_(r-1) / p_s.  The factors are nonzero, so the pivot search
    can test a skipped row's entries as they stand.
    """
    n = len(mat)
    sign = 1
    pivots = []
    since = [-1] * n  # the step each row is exact as of; -1 for the input
    for r in range(n):
        if not mat[r][r]:
            for i in range(r + 1, n):
                if mat[i][r]:
                    mat[r], mat[i] = mat[i], mat[r]
                    since[r], since[i] = since[i], since[r]
                    sign = -sign
                    break
            else:
                return []
        top = mat[r]
        s = since[r]
        if s < r - 1:
            for j in range(r, n):
                t = _zx_mul_sub(top[j], pivots[r - 1], [], [])
                top[j] = t if s < 0 else _zx_exact_div(t, pivots[s])
        pivot = top[r]
        pivots.append(pivot)
        for i in range(r + 1, n):
            row = mat[i]
            b = row[r]
            if not b:
                continue
            s = since[i]
            for j in range(r + 1, n):
                t = _zx_mul_sub(row[j], pivot, b, top[j])
                row[j] = t if s < 0 else _zx_exact_div(t, pivots[s])
            since[i] = r
    det = pivots[-1]
    return [-c for c in det] if sign < 0 else det


def _integer_rows(F: "SparsePoly", eliminate: int) -> tuple[int, list[list[int]]]:
    """(lam, rows): lam clears F's denominators, and rows[i] is the
    coefficient of x^i in lam*F (x the eliminated variable), an int list
    in the kept variable."""
    keep = 1 - eliminate
    lam = lcm(*(c.denominator for c in F.terms.values()))
    rows: list[list[int]] = [[] for _ in range(F.degree(eliminate) + 1)]
    for exps, c in F.terms.items():
        row = rows[exps[eliminate]]
        e = exps[keep]
        if len(row) <= e:
            row.extend([0] * (e + 1 - len(row)))
        row[e] = c.numerator * (lam // c.denominator)
    return lam, rows


def bivariate_resultant(F: "SparsePoly", G: "SparsePoly", eliminate: int) -> UniPoly:
    """Resultant over QQ of two 2-variable polynomials with respect to one
    variable, as a UniPoly in the kept variable.

    The denominators are cleared first, by
    Res_x(lam*F, mu*G) = lam^(deg_x G) * mu^(deg_x F) * Res_x(F, G), so the
    Sylvester determinant is taken over Z[y] and divided by that scale once.
    """
    if F.nvars != 2 or G.nvars != 2:
        raise DomainError("bivariate resultant needs two-variable polynomials")
    if not F or not G:
        raise DomainError("resultant of the zero polynomial")
    if F.ring is not QQ or G.ring is not QQ:
        raise DomainError("bivariate resultant needs rational coefficients")
    lam, fc = _integer_rows(F, eliminate)
    mu, gc = _integer_rows(G, eliminate)
    df, dg = len(fc) - 1, len(gc) - 1
    if df + dg == 0:
        return UniPoly((1,))
    # Across the top rows the pivots are powers of their polynomial's leading
    # coefficient in x, so the one whose leading coefficient has the lower
    # degree goes on top; Res(G, F) = (-1)^(df*dg) Res(F, G)
    if len(gc[-1]) < len(fc[-1]):
        det = _bareiss_zx(_sylvester_rows(gc, fc, []))
        if df * dg % 2:
            det = [-c for c in det]
    else:
        det = _bareiss_zx(_sylvester_rows(fc, gc, []))
    scale = lam**dg * mu**df
    return UniPoly(Fraction(c, scale) for c in det)


# ---------------------------------------------------------------------------
# Newton polygons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    slope: Fraction
    length: int


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of (exponent, p-adic coefficient valuation) points.

    ``vanishing_order`` roots of valuation INFINITY (from the x^j factor)
    are reported separately from the hull segments, matching the
    convention val_p(0) = INFINITY.
    """

    p: int
    vanishing_order: int
    points: tuple[tuple[int, Fraction], ...]
    segments: tuple[Segment, ...]

    def root_valuations(self) -> list[tuple[ExtVal, int]]:
        """(valuation, multiplicity) pairs, finite ascending, INFINITY last."""
        out = [(ExtVal(-seg.slope), seg.length) for seg in self.segments]
        out.sort(key=lambda t: t[0]._cmp_key())
        if self.vanishing_order:
            out.append((INFINITY, self.vanishing_order))
        return out

    def all_valuations_nonnegative(self) -> bool:
        return all(v >= 0 for v, _ in self.root_valuations())

    def all_valuations_zero(self) -> bool:
        return all(v == 0 for v, _ in self.root_valuations())


def _lower_hull(points):
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            x3, y3 = pt
            if (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon(f: UniPoly, p: int) -> NewtonPolygon:
    """Newton polygon of f at p; f must be nonzero."""
    if f.is_zero:
        raise DomainError("Newton polygon of the zero polynomial")
    pts = [
        (i, val_p(c, p).finite) for i, c in enumerate(f.coeffs) if c
    ]
    ord0 = pts[0][0]
    hull = _lower_hull(pts)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        segments.append(Segment(Fraction(y2 - y1, x2 - x1), x2 - x1))
    return NewtonPolygon(p, ord0, tuple(pts), tuple(segments))


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------


class SparsePoly:
    """Sparse polynomial in a fixed number of variables.

    Terms map exponent tuples to nonzero coefficients.  Two-variable
    instances carry the (a, c) parameter polynomials; three-variable
    instances appear in the (a, c, gamma) rigidity counterexample.
    """

    __slots__ = ("ring", "nvars", "terms")

    def __init__(self, ring, nvars: int, terms=None, *, _trusted=False):
        self.ring = ring
        self.nvars = nvars
        if _trusted:
            self.terms = dict(terms or {})
            return
        clean: dict[tuple[int, ...], object] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise DomainError("exponent tuple has wrong length")
            c = ring.coerce(c)
            if c:
                clean[exps] = c
        self.terms = clean

    @classmethod
    def constant(cls, ring, nvars: int, value):
        value = ring.coerce(value)
        terms = {(0,) * nvars: value} if value else {}
        return cls(ring, nvars, terms, _trusted=True)

    @classmethod
    def variable(cls, ring, nvars: int, index: int):
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(ring, nvars, {exps: ring.one}, _trusted=True)

    def __bool__(self):
        return bool(self.terms)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def degree(self, var: int | None = None) -> int:
        """Degree in one variable, or total degree if var is None; -1 if zero."""
        if not self.terms:
            return -1
        if var is None:
            return max(sum(e) for e in self.terms)
        return max(e[var] for e in self.terms)

    def _check(self, other: "SparsePoly"):
        if self.ring != other.ring or self.nvars != other.nvars:
            raise DomainError("mixed polynomial domains")

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.ring, self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps)
            s = c if s is None else s + c
            if s:
                out[exps] = s
            elif exps in out:
                del out[exps]
        return SparsePoly(self.ring, self.nvars, out, _trusted=True)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(
            self.ring,
            self.nvars,
            {e: -c for e, c in self.terms.items()},
            _trusted=True,
        )

    def __sub__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.ring, self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _mul_qq(self, other: "SparsePoly") -> "SparsePoly":
        # scale both factors to integer coefficients so the accumulation
        # runs on plain ints; one Fraction normalization per output term
        da = 1
        for c in self.terms.values():
            da = lcm(da, c.denominator)
        db = 1
        for c in other.terms.values():
            db = lcm(db, c.denominator)
        ia = [(e, c.numerator * (da // c.denominator)) for e, c in self.terms.items()]
        ib = [(e, c.numerator * (db // c.denominator)) for e, c in other.terms.items()]
        if len(ia) < len(ib):
            ia, ib = ib, ia
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        if self.nvars == 2:
            for (a0, a1), va in ia:
                for (b0, b1), vb in ib:
                    key = (a0 + b0, a1 + b1)
                    acc[key] = get(key, 0) + va * vb
        else:
            for ea, va in ia:
                for eb, vb in ib:
                    key = tuple(x + y for x, y in zip(ea, eb))
                    acc[key] = get(key, 0) + va * vb
        den = da * db
        terms = {e: Fraction(v, den) for e, v in acc.items() if v}
        return SparsePoly(self.ring, self.nvars, terms, _trusted=True)

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            c = self.ring.coerce(other)
            if not c:
                return SparsePoly(self.ring, self.nvars, {}, _trusted=True)
            return SparsePoly(
                self.ring,
                self.nvars,
                {e: v * c for e, v in self.terms.items()},
                _trusted=True,
            )
        self._check(other)
        if not self.terms or not other.terms:
            return SparsePoly(self.ring, self.nvars, {}, _trusted=True)
        if self.ring is QQ:
            return self._mul_qq(other)
        acc: dict[tuple[int, ...], object] = {}
        for ea, va in self.terms.items():
            for eb, vb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                s = acc.get(key)
                t = va * vb
                acc[key] = t if s is None else s + t
        return SparsePoly(
            self.ring,
            self.nvars,
            {e: c for e, c in acc.items() if c},
            _trusted=True,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        result = SparsePoly.constant(self.ring, self.nvars, self.ring.one)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def partial(self, var: int) -> "SparsePoly":
        out: dict[tuple[int, ...], object] = {}
        for exps, c in self.terms.items():
            e = exps[var]
            if e == 0:
                continue
            d = c * self.ring.coerce(e)
            if d:
                key = exps[:var] + (e - 1,) + exps[var + 1 :]
                out[key] = d
        return SparsePoly(self.ring, self.nvars, out, _trusted=True)

    def evaluate(self, values):
        """Full substitution; values coerced into the coefficient ring."""
        ring = self.ring
        vals = [ring.coerce(v) for v in values]
        if len(vals) != self.nvars:
            raise DomainError("wrong number of values")
        # each value is raised only to the exponents that occur: the loci
        # built over GF(p^e) have a few terms of very high degree
        acc = ring.zero
        for exps, t in self.terms.items():
            for v, e in zip(vals, exps):
                if e:
                    t = t * v**e
            acc = acc + t
        return acc

    def render(self, varnames) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        parts = []
        for exps in keys:
            c = self.terms[exps]
            mono = "*".join(
                varnames[i] if e == 1 else f"{varnames[i]}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            cs = str(c)
            if mono:
                if cs == "1":
                    cs = mono
                elif cs == "-1":
                    cs = "-" + mono
                else:
                    cs = f"{cs}*{mono}"
            parts.append(cs)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        names = ["a", "c", "g", "w"][: self.nvars]
        return f"SparsePoly({self.render(names)})"
