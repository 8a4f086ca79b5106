"""Exact polynomial arithmetic over Q and over finite fields.

Provides

* :class:`GF`, the finite field GF(p^e), represented as residues modulo a
  fixed irreducible modulus: the lexicographically smallest monic
  irreducible of degree e, coefficients compared low-degree-first as
  integers in [0, p).  That makes every certificate reproducible bit for
  bit.  A :class:`FieldElem` computes with elements of its own field only;
  ``scale`` multiplies it by an integer.
* One int-list kernel for Z[x] and GF(p)[x], the ``_zx_*`` functions
  (``mod`` None or p): a product, a division, a power (optionally mod a
  polynomial) and a monic gcd.  It serves the Bareiss resultants, the
  product in GF(p^e), Rabin's irreducibility test and the factor split
  over GF(p).  GF(p^e)[x] is the FieldElem-list ``_fx_*`` layer.
* Roots in GF(p^e): :func:`frobenius_orbits` of a polynomial over GF(p),
  by distinct-degree factorization and Cantor-Zassenhaus equal-degree
  splitting, and :func:`common_roots` of two polynomials over GF(p^e).
* :class:`UniPoly`, dense univariate polynomials over Q (lowest degree
  first): resultants, their content and their Newton polygons.
* :class:`SparsePoly`, sparse polynomials in a fixed number of variables
  over Q (``p`` None) or over GF(p) (``p`` a prime), with coefficients held
  as plain numbers: ints or Fractions over Q, ints in [1, p) over GF(p).
  Two variables carry the (a, c) parameter plane, three the (a, c, gamma)
  counterexample checks.  A product packs each row of a factor, its terms
  of one exponent of one variable, into one int, and takes one int product
  per pair of rows (Kronecker substitution).  A polynomial over GF(p) is
  evaluated at points of any GF(p^e).
* Bivariate resultants as Sylvester determinants, over Q
  (:func:`bivariate_resultant`: denominators are cleared once) and over
  GF(p) (:func:`resultant_mod`).  One fraction-free (Bareiss) elimination
  runs over Z[x] or GF(p)[x] on the int-list kernel, where every division
  is exact; a polynomial linear in the eliminated variable is substituted
  into the other one instead.
* p-adic Newton polygons with a root-valuation readout: a hull segment of
  slope -s and horizontal length L certifies exactly L roots of valuation
  s; vanishing at 0 is reported as roots of valuation INFINITY.
"""

from __future__ import annotations

import operator
import random
import sys
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import NamedTuple

from .arith import ExtVal, INFINITY, factor, is_prime, val_p
from .errors import DomainError

__all__ = [
    "GF",
    "FieldElem",
    "NewtonPolygon",
    "Segment",
    "SparsePoly",
    "UniPoly",
    "bivariate_resultant",
    "common_roots",
    "frobenius_orbits",
    "newton_polygon",
    "resultant_mod",
]


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

# The characteristics shown prime so far.  A GF(p^e), or a SparsePoly over
# GF(p) (built for each constant of every orbit step), tests p only if no
# field or polynomial has shown it prime yet.
_PRIMES: set[int] = set()


def _check_prime(p: int) -> None:
    if p not in _PRIMES:
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        _PRIMES.add(p)


# -- Z[x] and GF(p)[x] on plain int lists (lowest degree first, trimmed) -----
# ``mod`` None is Z[x]; a prime ``mod`` is GF(mod)[x], with every result
# reduced into [0, mod).  No ``_zx_*`` function changes its arguments.


def _trim(a: list) -> list:
    """a without its zero top coefficients (ints or FieldElems), in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _zx_neg(a, mod=None):
    return [-c if mod is None else -c % mod for c in a]


def _zx_mul_sub(a, b, c, d, mod=None):
    """a*b - c*d, reduced once at the end."""
    out = [0] * max(len(a) + len(b), len(c) + len(d), 1)
    for i, v in enumerate(a):
        if v:
            for j, w in enumerate(b, i):
                out[j] += v * w
    if c:
        for i, v in enumerate(c):
            if v:
                for j, w in enumerate(d, i):
                    out[j] -= v * w
    if mod is not None:
        out = [v % mod for v in out]
    while out and not out[-1]:
        out.pop()
    return out


def _zx_divmod(t, d, mod=None):
    """(q, r) with t = q*d + r and deg r < deg d, for a nonzero d; over
    GF(mod), t need not be reduced.

    Long division from the top, on a copy of t.  Over Z each quotient
    coefficient is an exact ``divmod`` by d's leading coefficient, else
    DomainError; over GF(mod) it is a product with that coefficient's
    inverse, which a monic d skips.
    """
    top = len(d) - 1
    lead = d[-1]
    inv = 1 if mod is None or lead == 1 else pow(lead, -1, mod)
    r = list(t)
    q = [0] * (len(r) - top)  # [] when deg t < deg d
    for k in range(len(q) - 1, -1, -1):
        if mod is None:
            c, rem = divmod(r[k + top], lead)
            if rem:
                raise DomainError("inexact division in Z[x]")
        else:
            c = r[k + top] * inv % mod
        if c:
            q[k] = c
            for j, v in enumerate(d, k):
                r[j] -= c * v
    del r[top:]
    if mod is not None:
        r = [v % mod for v in r]
    return q, _trim(r) if any(r) else []


def _zx_exact_div(t, d, mod=None):
    """t / d for a nonzero d; DomainError unless the division is exact."""
    q, r = _zx_divmod(t, d, mod)
    if r:
        raise DomainError("inexact division in Z[x]")
    return q


def _power(base, n: int, one, mul):
    """base^n for n >= 0 by square-and-multiply from ``one``: ``mul(x, y)``
    forms every product, with the partial result on the left.  Callers pass
    ``operator.mul`` for a class, so that the product is looked up on the
    class when it is taken."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def _zx_pow(a, k: int, mod=None, f=None):
    """a^k, k >= 0; with a nonzero f, a^k mod f."""

    def times(x, y):
        xy = _zx_mul_sub(x, y, [], [], mod)
        return xy if f is None else _zx_divmod(xy, f, mod)[1]

    return _power(a if f is None else _zx_divmod(a, f, mod)[1], k, [1], times)


def _zx_gcd(a, b, mod):
    """The monic gcd in GF(mod)[x] ([] when both are zero)."""
    while b:
        a, b = b, _zx_divmod(a, b, mod)[1]
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, mod)
        a = [c * inv % mod for c in a]
    return a


def _gfp_is_irreducible(f: list[int], p: int) -> bool:
    # Rabin's test: x^(p^e) == x mod f, and gcd(x^(p^(e/q)) - x, f) = 1
    # for every prime q dividing e.
    e = len(f) - 1
    if e == 1:
        return True
    x = [0, 1]
    t = x
    for _ in range(e):
        t = _zx_pow(t, p, p, f)
    if t != x:
        return False
    for q in {q for q, _ in factor(e)}:
        t = x
        for _ in range(e // q):
            t = _zx_pow(t, p, p, f)
        if len(_zx_gcd(_zx_mul_sub(t, [1], x, [1], p), f, p)) > 1:
            return False
    return True


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    # candidates in lexicographic order of (constant term, x-coefficient,
    # ...), from constant term 1: with constant term 0 a candidate of degree
    # e > 1 is divisible by x
    for lower in product(range(1, p), *[range(p)] * (e - 1)):
        cand = list(lower) + [1]
        if _gfp_is_irreducible(cand, p):
            return tuple(cand)
    raise ArithmeticError("no irreducible polynomial found")  # unreachable


class GF:
    """The finite field GF(p^e) with a deterministic modulus.

    Elements are coefficient tuples of length e (lowest degree first)
    reduced modulo the modulus.  ``GF(p)`` is the e = 1 case.
    """

    def __init__(self, p: int, e: int = 1):
        _check_prime(p)
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

    def elements(self):
        """All field elements, in a fixed order (base-p digits, low first)."""
        for digits in product(range(self.p), repeat=self.e):
            yield FieldElem(self, digits)

    def orbits(self):
        """(x, size) for one x of each orbit of x -> x^p on the nonzero
        elements, the first in ``elements()`` order, and the orbit's size."""
        seen = set()
        for x in self.elements():
            if x and x.coeffs not in seen:
                orbit = [x.coeffs]
                y = x**self.p
                while y != x:
                    orbit.append(y.coeffs)
                    y = y**self.p
                seen.update(orbit)
                yield x, len(orbit)

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
    ``scale`` is the one product with an integer.
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
        # the product over Z, reduced mod p only by the division
        prod = _zx_mul_sub(self.coeffs, other.coeffs, (), ())
        rem = _zx_divmod(prod, fld.modulus, fld.p)[1]
        return FieldElem(fld, tuple(rem) + (0,) * (fld.e - len(rem)))

    def scale(self, c: int) -> "FieldElem":
        """c * self for an integer c."""
        p = self.field.p
        return FieldElem(self.field, tuple(a * c % p for a in self.coeffs))

    def inverse(self) -> "FieldElem":
        """1/x by the extended Euclidean algorithm against the modulus."""
        if not self:
            raise DomainError("cannot invert zero")
        p = self.field.p
        # s * x = r modulo the modulus, for (r, s) and (r1, s1)
        r, s, r1, s1 = self.field.modulus, [], _trim(list(self.coeffs)), [1]
        while len(r1) > 1:
            q, rem = _zx_divmod(r, r1, p)
            r, s, r1, s1 = r1, s1, rem, _zx_mul_sub(s, [1], q, s1, p)
        # r1 is now a nonzero constant, as the modulus is irreducible; over
        # GF(p), which has no modulus, x is a constant and the loop never runs
        inv = pow(r1[0], -1, p)
        return self.field.elem([c * inv for c in s1])

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, self.field.one, operator.mul)

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


# -- GF(p^e)[x] on lists of FieldElem (lowest degree first, trimmed) -------


def _fx_sub(a, b, field):
    out = list(a) + [field.zero] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = out[i] - c
    return _trim(out)


def _fx_mul(a, b, field):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    out[j] = out[j] + x * y
    return _trim(out)


def _fx_divmod(a, b):
    """(quotient, remainder) for a nonzero divisor b."""
    one = b[-1].field.one
    inv = one if b[-1] == one else b[-1].inverse()  # most divisors are monic
    a = list(a)
    q = [inv.field.zero] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1] * inv
        shift = len(a) - len(b)
        q[shift] = c
        for i, y in enumerate(b[:-1], shift):
            if y:
                a[i] = a[i] - c * y
        a.pop()
        _trim(a)
    return q, a


def _fx_gcd(a, b):
    """The monic gcd ([] when both are zero)."""
    while b:
        a, b = b, _fx_divmod(a, b)[1]
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


def _fx_powmod(base, n: int, modulus, field):
    return _power(
        _fx_divmod(base, modulus)[1], n, [field.one],
        lambda x, y: _fx_divmod(_fx_mul(x, y, field), modulus)[1],
    )


def _fx_split(f, field, rng: random.Random):
    """A proper monic factor of a monic f over ``field`` = GF(q) that is a
    product of distinct linear factors, by the equal-degree split of
    Cantor and Zassenhaus (1981): for a random r, gcd(f, r^((q - 1)/2) - 1),
    or for q = 2^e the trace map, gcd(f, r + r^2 + r^4 + ... + r^(2^(e-1))).
    Each draw splits f with probability about 1/2, and any proper factor
    will do: the callers' results do not depend on which one is found."""
    while True:
        r = _trim([field.elem([rng.randrange(field.p) for _ in range(field.e)])
                      for _ in range(len(f) - 1)])
        if field.p == 2:
            w = t = r
            for _ in range(field.e - 1):
                t = _fx_divmod(_fx_mul(t, t, field), f)[1]
                w = _fx_sub(w, t, field)  # + and - agree in characteristic 2
        else:
            w = _fx_powmod(r, (field.order - 1) // 2, f, field)
            w = _fx_sub(w, [field.one], field)
        g = _fx_gcd(f, w)
        if 1 < len(g) < len(f):
            return g


def _fx_roots(f, field, rng: random.Random) -> list:
    """The roots of f, a monic product of distinct linear factors over
    ``field``."""
    if len(f) <= 2:
        return [-f[0]] if len(f) == 2 else []
    g = _fx_split(f, field, rng)
    return _fx_roots(g, field, rng) + _fx_roots(_fx_divmod(f, g)[0], field, rng)


def _gfp_factors(f: list[int], degree: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic irreducible factors of f, a monic product of distinct
    irreducibles of one ``degree`` over GF(p), on int lists: the
    equal-degree split of Cantor and Zassenhaus, gcd(f, r^((p^degree -
    1)/2) - 1) for a random r, or for p = 2 the trace map gcd(f, r + r^2 +
    ... + r^(2^(degree - 1)))."""
    if len(f) - 1 <= degree:
        return [f] if len(f) > 1 else []
    while True:
        r = _trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if p == 2:
            w = t = r
            for _ in range(degree - 1):
                t = _zx_divmod(_zx_mul_sub(t, t, [], [], p), f, p)[1]
                w = _zx_mul_sub(w, [1], t, [1], p)  # + and - agree in characteristic 2
        else:
            w = _zx_mul_sub(_zx_pow(r, (p**degree - 1) // 2, p, f), [1], [1], [1], p)
        g = _zx_gcd(f, w, p)
        if 1 < len(g) < len(f):
            return _gfp_factors(g, degree, p, rng) + _gfp_factors(
                _zx_divmod(f, g, p)[0], degree, p, rng
            )


def frobenius_orbits(f: list[int], field: GF) -> list[tuple[FieldElem, int]]:
    """The roots in ``field`` = GF(p^e) of f in GF(p)[x], one for each
    Frobenius orbit: a root of each irreducible factor of f whose degree
    divides e, with that degree.  The orbit is that root's images under
    x -> x^p, and together the orbits hold each root in the field once.

    gcd(f, x^(p^e) - x) keeps exactly those factors, once each, on int
    lists; distinct-degree factorization groups them by degree and an
    equal-degree split separates each group over GF(p), also on int lists.
    A root of each factor is then split off over GF(p^e), one linear factor
    at a time.
    """
    p, e = field.p, field.e
    if len(f) < 2:
        return []
    rng = random.Random(0)
    x = [0, 1]
    t = x
    for _ in range(e):
        t = _zx_pow(t, p, p, f)
    rest = _zx_gcd(f, _zx_mul_sub(t, [1], x, [1], p), p)
    orbits = []
    t = x
    for degree in range(1, e + 1):
        if len(rest) < 2:
            break
        t = _zx_pow(t, p, p, rest)
        group = _zx_gcd(rest, _zx_mul_sub(t, [1], x, [1], p), p)
        if len(group) < 2:
            continue
        rest = _zx_divmod(rest, group, p)[0]
        for phi in _gfp_factors(group, degree, p, rng):
            phi = [field.elem(c) for c in phi]
            while len(phi) > 2:
                g = _fx_split(phi, field, rng)
                phi = min(g, _fx_divmod(phi, g)[0], key=len)
            orbits.append((-phi[0], degree))
    return orbits


def common_roots(f: list, g: list, field: GF) -> list[FieldElem]:
    """The distinct common roots in ``field`` = GF(q) of f and g in
    GF(q)[x] (lists of FieldElem, lowest degree first): the linear factors
    of gcd(f, g, x^q - x), split off by Cantor and Zassenhaus."""
    h = _fx_gcd(_trim(list(f)), _trim(list(g)))
    if len(h) < 2:
        return []
    x = [field.zero, field.one]
    h = _fx_gcd(h, _fx_sub(_fx_powmod(x, field.order, h, field), x, field))
    return _fx_roots(h, field, random.Random(0))


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------


def _rational(x) -> Fraction:
    """x as a Fraction; DomainError unless x is an int or a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise DomainError(f"{x!r} is not a rational number")


class UniPoly:
    """Dense univariate polynomial over Q; coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_rational(c) for c in coeffs]
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
        out = list(self.coeffs) + [0] * (len(other.coeffs) - len(self.coeffs))
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
            c = _rational(other)
            return UniPoly(c * x for x in self.coeffs)
        if self.is_zero or other.is_zero:
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
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
        return _power(self, n, UniPoly((1,)), operator.mul)

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def derivative(self) -> "UniPoly":
        return UniPoly(i * c for i, c in enumerate(self.coeffs[1:], start=1))

    def evaluate(self, x):
        x = _rational(x)
        acc = Fraction(0)
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


def _sylvester_rows(f_coeffs, g_coeffs):
    """Sylvester matrix with f-rows above g-rows (coefficients low-first),
    its zero entries []."""
    size = len(f_coeffs) + len(g_coeffs) - 2
    rows = []
    for coeffs, count in ((f_coeffs, len(g_coeffs) - 1), (g_coeffs, len(f_coeffs) - 1)):
        high = coeffs[::-1]
        for i in range(count):
            rows.append([[]] * i + high + [[]] * (size - i - len(high)))
    return rows


def _bareiss_zx(mat, mod=None):
    """Determinant of a square matrix over Z[x], or over GF(mod)[x] (int-list
    entries reduced mod ``mod``).

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
                t = _zx_mul_sub(top[j], pivots[r - 1], [], [], mod)
                top[j] = t if s < 0 else _zx_exact_div(t, pivots[s], mod)
        pivot = top[r]
        pivots.append(pivot)
        for i in range(r + 1, n):
            row = mat[i]
            b = row[r]
            if not b:
                continue
            s = since[i]
            for j in range(r + 1, n):
                t = _zx_mul_sub(row[j], pivot, b, top[j], mod)
                row[j] = t if s < 0 else _zx_exact_div(t, pivots[s], mod)
            since[i] = r
    det = pivots[-1]
    return _zx_neg(det, mod) if sign < 0 else det


def _linear_resultant(fc, gc, mod=None):
    """Res_x(F, G) for G = g1*x + g0, from coefficient rows in x: F at
    x = -g0/g1 scaled by g1^(deg F), which is the Sylvester determinant
    with F's rows on top,

        Res_x(F, G) = sum_i f_i * g0^i * (-g1)^(deg F - i),

    summed by Horner's rule over the nonzero rows only: a run of ``gap``
    zero rows costs one product by g0^gap and one by (-g1)^gap, each power
    taken once per distinct gap.
    """
    (g0, g1), acc, w = gc, fc[-1], [-1]
    powers = {}
    last = len(fc) - 1
    for i in range(last - 1, -1, -1):
        if not fc[i]:
            continue
        gap = last - i
        if gap not in powers:
            powers[gap] = (_zx_pow(g0, gap, mod), _zx_pow(_zx_neg(g1, mod), gap, mod))
        g0_gap, g1_gap = powers[gap]
        w = _zx_mul_sub(w, g1_gap, [], [], mod)  # -(-g1)^(deg F - i)
        acc = _zx_mul_sub(acc, g0_gap, fc[i], w, mod)
        last = i
    return _zx_mul_sub(acc, _zx_pow(g0, last, mod), [], [], mod) if last else acc


def _resultant_rows(fc, gc, mod=None):
    """Res_x(F, G) over Z[y] (or GF(mod)[y]) from the coefficient rows of F
    and G in x: the Sylvester determinant with F's rows on top.

    A polynomial linear in x is substituted into the other one.  Otherwise
    the determinant is taken by Bareiss elimination; across the top rows
    the pivots are powers of their polynomial's leading coefficient in x, so
    the one whose leading coefficient has the lower degree goes on top.
    Swapping F and G multiplies the resultant by (-1)^(deg F * deg G).
    """
    df, dg = len(fc) - 1, len(gc) - 1
    if df + dg == 0:
        return [1]
    if dg == 1:
        return _linear_resultant(fc, gc, mod)
    swap = df == 1 or len(gc[-1]) < len(fc[-1])
    if df == 1:
        det = _linear_resultant(gc, fc, mod)
    elif swap:
        det = _bareiss_zx(_sylvester_rows(gc, fc), mod)
    else:
        det = _bareiss_zx(_sylvester_rows(fc, gc), mod)
    return _zx_neg(det, mod) if swap and df * dg % 2 else det


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
    """Resultant over Q of two 2-variable polynomials with respect to one
    variable, as a UniPoly in the kept variable.

    The denominators are cleared first, by
    Res_x(lam*F, mu*G) = lam^(deg_x G) * mu^(deg_x F) * Res_x(F, G), so the
    resultant is taken over Z[y] and divided by that scale once.
    """
    _check_pair(F, G, None)
    lam, fc = _integer_rows(F, eliminate)
    mu, gc = _integer_rows(G, eliminate)
    scale = lam ** (len(gc) - 1) * mu ** (len(fc) - 1)
    return UniPoly(Fraction(c, scale) for c in _resultant_rows(fc, gc))


def resultant_mod(F: "SparsePoly", G: "SparsePoly", eliminate: int) -> list[int]:
    """Resultant over GF(p) of two 2-variable polynomials over GF(p) with
    respect to one variable: an int list in the kept variable, lowest
    degree first, reduced mod p and trimmed ([] for zero)."""
    if F.p is None:
        raise DomainError("resultant_mod needs polynomials over GF(p)")
    _check_pair(F, G, F.p)
    return _resultant_rows(_integer_rows(F, eliminate)[1], _integer_rows(G, eliminate)[1], F.p)


def _check_pair(F: "SparsePoly", G: "SparsePoly", p: int | None) -> None:
    if F.nvars != 2 or G.nvars != 2:
        raise DomainError("bivariate resultant needs two-variable polynomials")
    if not F or not G:
        raise DomainError("resultant of the zero polynomial")
    if F.p != p or G.p != p:
        domain = "rational coefficients" if p is None else f"coefficients in GF({p})"
        raise DomainError(f"bivariate resultant needs {domain}")


# ---------------------------------------------------------------------------
# Newton polygons
# ---------------------------------------------------------------------------


class Segment(NamedTuple):
    slope: Fraction
    length: int


class NewtonPolygon(NamedTuple):
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
        out.sort(key=lambda t: t[0])
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

# memoryview formats of the unsigned (GF(p)) and signed (Q) slots that fit
# a machine word, so that a row decodes in one C call; none on a big-endian
# host, where the little-endian slots would need a byte swap
_SLOT_FORMATS = (
    ({1: "B", 2: "H", 4: "I", 8: "Q"}, {1: "b", 2: "h", 4: "i", 8: "q"})
    if sys.byteorder == "little" else ({}, {})
)


def _sparse_mul(A: dict, B: dict, nvars: int, p: int | None) -> dict:
    """The product of two nonzero polynomials given as {exponents: int}
    dicts (over GF(p), values in [1, p)), as a dict of nonzero values
    (over GF(p), reduced).

    The terms are cut into rows along the variable with the fewest
    distinct exponents in the larger factor, and :func:`_row_product`
    multiplies the rows.  With two variables the other exponent is the
    slot; with more, the other variables form one slot index by mixed
    radix, each radix above the product's degree in its variable, so that
    exponents add as slot indices do.
    """
    big = A if len(A) >= len(B) else B
    if nvars == 2:
        rows, slots = zip(*big)
        if len(set(rows)) <= len(set(slots)):
            return _row_product(A, B, p)  # exponent pairs are (row, slot) already

        def swap(terms):
            return {(s, i): c for (i, s), c in terms.items()}

        return swap(_row_product(swap(A), swap(B), p))
    rest = list(range(nvars))
    r = None  # one row of every term when there is at most one variable
    if nvars > 1:
        counts = [len(set(x)) for x in zip(*big)]
        r = rest.pop(counts.index(min(counts)))
    radix = [max(e[v] for e in A) + max(e[v] for e in B) + 1 for v in rest]

    def split(terms):
        out = {}
        for e, c in terms.items():
            s = 0
            for v, x in zip(rest, radix):
                s = s * x + e[v]
            out[0 if r is None else e[r], s] = c
        return out

    out = {}
    for (i, s), c in _row_product(split(A), split(B), p).items():
        e = [i] * nvars
        for v, x in zip(reversed(rest), reversed(radix)):
            s, e[v] = divmod(s, x)
        out[tuple(e)] = c
    return out


def _row_product(A: dict, B: dict, p: int | None) -> dict:
    """The product of two nonzero polynomials given as {(row, slot): int},
    by Kronecker substitution (von zur Gathen and Gerhard, *Modern Computer
    Algebra*, ch. 8), with ``p`` as in :func:`_sparse_mul`.

    A row becomes one int, the sum of c * 2^(W * (slot - first)) over its
    terms, ``first`` its lowest slot, so that one int product multiplies
    two rows; the row products are summed the same way into output rows.
    W bounds every output coefficient, as a slot sums at most min(#A, #B)
    products, with a sign bit over Q.  It is a whole number of bytes,
    rounded up to 8, 16, 32 or 64 bits when it fits a machine word.  Each
    output row is decoded once: over Q, adding 2^(W-1) in every slot makes
    each slot's W bits its coefficient plus 2^(W-1), and flipping the top
    bit of every slot back leaves the coefficient in two's complement;
    over GF(p) no coefficient is negative.
    """
    signed = p is None
    if signed:
        top = max(map(abs, A.values())).bit_length() + max(map(abs, B.values())).bit_length() + 1
    else:
        top = 2 * (p - 1).bit_length()
    size = (top + min(len(A), len(B)).bit_length() + 7) // 8
    if size <= 8:
        size = 1 << (size - 1).bit_length()
    width = 8 * size
    packed = []
    for terms in A, B:
        rows: dict[int, list] = {}  # row: [first slot, the row from that slot]
        get = rows.get
        for (i, s), c in terms.items():
            row = get(i)
            if row is None:
                rows[i] = [s, c]
            elif s > row[0]:
                row[1] += c << width * (s - row[0])
            else:
                row[0], row[1] = s, (row[1] << width * (row[0] - s)) + c
        packed.append(rows.items())
    ra, rb = packed
    # the output rows, summed in the same form by the same steps, written
    # out rather than called: most products have a factor of one term or
    # two, and a call would cost about what their whole product does
    acc: dict[int, list] = {}
    get = acc.get
    for i, (oi, x) in ra:
        for j, (oj, y) in rb:
            s = oi + oj
            row = get(i + j)
            if row is None:
                acc[i + j] = [s, x * y]
            elif s >= row[0]:
                row[1] += x * y << width * (s - row[0])
            else:
                row[0], row[1] = s, (row[1] << width * (row[0] - s)) + x * y
    fmt = _SLOT_FORMATS[signed].get(size)
    out = {}
    for i, (o, v) in acc.items():
        if not v:
            continue
        n = v.bit_length() // width + 1
        if signed:
            bias = int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")
            v = (v + bias) ^ bias
        raw = v.to_bytes(size * n, "little")
        if fmt is not None:
            slots = memoryview(raw).cast(fmt).tolist()
        else:
            slots = [int.from_bytes(raw[k : k + size], "little", signed=signed)
                     for k in range(0, size * n, size)]
        if signed:
            for s, c in enumerate(slots, o):
                if c:
                    out[i, s] = c
        else:
            for s, x in enumerate(slots, o):
                if x % p:
                    out[i, s] = x % p
    return out


class SparsePoly:
    """Sparse polynomial in a fixed number of variables, over Q or GF(p).

    Terms map exponent tuples to nonzero coefficients: ints or Fractions
    over Q (``p`` None), ints in [1, p) over GF(p) (``p`` a prime).
    Two-variable instances carry the (a, c) parameter polynomials;
    three-variable instances appear in the (a, c, gamma) rigidity
    counterexample.
    """

    __slots__ = ("nvars", "terms", "p")

    def __init__(self, nvars: int, terms=None, p: int | None = None):
        if p is not None:
            _check_prime(p)
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise DomainError("exponent tuple has wrong length")
            if not isinstance(c, (int, Fraction) if p is None else int):
                domain = "Q" if p is None else f"GF({p})"
                raise DomainError(f"{c!r} is not a coefficient over {domain}")
            if p is not None:
                c %= p
            if c:
                clean[exps] = c
        self.nvars = nvars
        self.terms = clean
        self.p = p

    @classmethod
    def constant(cls, nvars: int, value, p: int | None = None):
        return cls(nvars, {(0,) * nvars: value}, p)

    @classmethod
    def variable(cls, nvars: int, index: int, p: int | None = None):
        return cls(nvars, {tuple(int(i == index) for i in range(nvars)): 1}, p)

    def _like(self, terms: dict) -> "SparsePoly":
        """A polynomial over self's domain from nonzero, reduced terms."""
        out = object.__new__(SparsePoly)
        out.nvars, out.terms, out.p = self.nvars, terms, self.p
        return out

    def _operand(self, other) -> "SparsePoly":
        """other over self's domain; a scalar becomes a constant polynomial."""
        if not isinstance(other, SparsePoly):
            return SparsePoly.constant(self.nvars, other, self.p)
        if other.p != self.p or other.nvars != self.nvars:
            raise DomainError("mixed polynomial domains")
        return other

    def __bool__(self):
        return bool(self.terms)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def degree(self, var: int) -> int:
        """Degree in one variable; -1 if zero."""
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def __add__(self, other):
        other = self._operand(other)
        p = self.p
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) + c
            if p is not None:
                s %= p
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        p = self.p
        return self._like({e: -c if p is None else p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product, by Kronecker substitution (:func:`_sparse_mul`).

        Over Q both factors are first scaled to integer coefficients (ints
        have a numerator and a denominator too) and the product is divided
        once; it keeps int coefficients when no denominator is left."""
        other = self._operand(other)
        A, B, p = self.terms, other.terms, self.p
        if not A or not B:
            return self._like({})
        if p is not None:
            return self._like(_sparse_mul(A, B, self.nvars, p))
        da = lcm(*(c.denominator for c in A.values()))
        db = lcm(*(c.denominator for c in B.values()))
        A = {e: c.numerator * (da // c.denominator) for e, c in A.items()}
        B = {e: c.numerator * (db // c.denominator) for e, c in B.items()}
        terms = _sparse_mul(A, B, self.nvars, None)
        if da * db == 1:
            return self._like(terms)
        return self._like({e: Fraction(v, da * db) for e, v in terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        return _power(self, n, self._operand(1), operator.mul)

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (self.p, self.nvars, self.terms) == (other.p, other.nvars, other.terms)

    def partial(self, var: int) -> "SparsePoly":
        p = self.p
        out = {}
        for exps, c in self.terms.items():
            e = exps[var]
            d = c * e if p is None else c * e % p
            if d:
                out[exps[:var] + (e - 1,) + exps[var + 1 :]] = d
        return self._like(out)

    def evaluate(self, point):
        """The value at a point of GF(p^e)^nvars, for a polynomial over GF(p).

        Each monomial is formed in GF(p^e), every coordinate raised only to
        the exponents that occur (the loci have a few terms of very high
        degree), and then scaled by its integer coefficient.
        """
        field = getattr(point[0], "field", None)
        if len(point) != self.nvars or not all(
            isinstance(v, FieldElem) and v.field == field and field.p == self.p for v in point
        ):
            raise DomainError(f"{self!r} takes a point of GF(p^e)^{self.nvars}, not {point!r}")
        acc = field.zero
        for exps, c in self.terms.items():
            mono = None
            for v, e in zip(point, exps):
                if e:
                    mono = v**e if mono is None else mono * v**e
            acc = acc + (field.one if mono is None else mono).scale(c)
        return acc

    def specialize(self, var: int, value: FieldElem) -> list[FieldElem]:
        """For a two-variable polynomial over GF(p), the polynomial in the
        other variable left when ``var`` is set to a point of GF(p^e): its
        coefficients in GF(p^e), lowest degree first, trimmed."""
        field = getattr(value, "field", None)
        if self.nvars != 2 or not isinstance(value, FieldElem) or field.p != self.p:
            raise DomainError(f"{self!r} cannot be specialized at {value!r}")
        keep = 1 - var
        out = [field.zero] * (self.degree(keep) + 1)
        powers: dict[int, FieldElem] = {}
        for exps, c in self.terms.items():
            e = exps[var]
            if e not in powers:
                powers[e] = value**e
            out[exps[keep]] = out[exps[keep]] + powers[e].scale(c)
        return _trim(out)

    def __repr__(self):
        return f"SparsePoly({self.nvars}, {self.terms!r}, p={self.p})"
