"""Independent arithmetic that the checkers compare bicrit's reports against.

Nothing here imports bicrit.  Every routine is the plain, slow route:
trial division and Floyd's rho instead of Brent's, a Euclidean resultant
modulo a large prime instead of Bareiss over Q, dual-number orbit
iteration over GF(p^e) instead of symbolic Jacobians.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import factorial, gcd, isqrt

# modulus for random-point identity checks (a Mersenne prime)
BIG_P = (1 << 61) - 1

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


# ---------------------------------------------------------------------------
# integers
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below 3.3e24, 40 extra bases above."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = list(_SMALL_PRIMES[:13])
    if n >= 3 * 10**24:
        rng = random.Random(n)
        bases += [rng.randrange(2, n - 1) for _ in range(40)]
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial divisor of the odd composite n (Floyd cycle finding)."""
    rng = random.Random(n)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(0, n)
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(abs(x - y), n)
        if g != n:
            return g


def factor(n: int) -> dict[int, int]:
    """{prime: exponent} for n >= 1 (trial division to 1000, then rho)."""
    out: dict[int, int] = {}
    for q in range(2, 1000):
        if q * q > n:
            break
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack += [r, r]
            continue
        g = _rho(m)
        stack += [g, m // g]
    return out


def valuation(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def witness_holds(d: int, k: int, p: int, r: int, e: int) -> bool:
    """The three IDF conditions, rechecked with bare integer arithmetic."""
    if not (p > k and 0 <= r <= k and r != 1 and e >= 1):
        return False
    m = d - r
    if m < 2 or m % p**e or m % p ** (e + 1) == 0:
        return False
    if r and e % r == 0:
        return False
    return is_prime(p)


def idf_witness(d: int, k: int, factors=factor) -> tuple[int, int, int] | None:
    """Smallest (r, then p) IDF witness, from full factorizations of d - r.

    ``factors(m)`` may be replaced by a lookup when the factorization of
    m is known by construction.
    """
    for r in (0, *range(2, k + 1)):
        m = d - r
        if m < 2:
            continue
        for p, e in sorted(factors(m).items()):
            if p > k and (r == 0 or e % r):
                return (p, r, e)
    return None


def numbers_factored(d: int, k: int, witness_r: int | None) -> list[int]:
    """The values d - r that a witness search factors before it stops."""
    stop = k if witness_r is None else witness_r
    return [d - r for r in (0, *range(2, stop + 1)) if d - r >= 2]


def random_prime(rng: random.Random, bits: int) -> int:
    while True:
        x = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(x):
            return x


# ---------------------------------------------------------------------------
# the normal form B
# ---------------------------------------------------------------------------


def belyi(d: int, k: int) -> list[Fraction]:
    """b_0..b_k, the coefficients of z^d .. z^(d-k), from the closed form."""
    out = []
    for i in range(k + 1):
        prod = 1
        for j in range(k + 1):
            if j != i:
                prod *= d - j
        out.append(Fraction((-1) ** (k - i) * prod, factorial(k - i) * factorial(i)))
    if sum(out) != 1:
        raise AssertionError(f"B(1) != 1 for d={d}, k={k}")
    return out


def mod_frac(x: Fraction, p: int) -> int:
    return x.numerator % p * pow(x.denominator, -1, p) % p


# ---------------------------------------------------------------------------
# dense polynomials over Z/P (coefficient lists, lowest degree first)
# ---------------------------------------------------------------------------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % p for c in out])


def _add(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % p
    return _trim(out)


def _pow(a: list[int], n: int, p: int) -> list[int]:
    out = [1]
    while n:
        if n & 1:
            out = _mul(out, a, p)
        n >>= 1
        if n:
            a = _mul(a, a, p)
    return out


def _b_of(z: list[int], bmod: list[int], d: int, k: int, p: int) -> list[int]:
    acc: list[int] = []
    for b in bmod:
        acc = _add(_mul(acc, z, p), [b] if b else [], p)
    return _mul(acc, _pow(z, d - k, p), p)


def _locus(d: int, k: int, n: int, m: int, p: int, scale, shift):
    """(F_n, G_m) over Z/p for f(z) = scale * B(z) + shift."""
    bmod = [mod_frac(b, p) for b in belyi(d, k)]
    out = []
    for start, steps in ((0, n), (1, m)):
        z = _trim([start])
        for _ in range(steps):
            z = _add(_mul(scale, _b_of(z, bmod, d, k, p), p), shift, p)
        out.append(z)
    f, g = out
    return f, _add(g, [p - 1], p)


def locus_in_c(d: int, k: int, n: int, m: int, a0: int, p: int):
    """(F_n, G_m) as polynomials in c with a = a0 fixed, over Z/p."""
    return _locus(d, k, n, m, p, _trim([a0 % p]), [0, 1])


def locus_in_a(d: int, k: int, n: int, m: int, c0: int, p: int):
    """(F_n, G_m) as polynomials in a with c = c0 fixed, over Z/p."""
    return _locus(d, k, n, m, p, [0, 1], _trim([c0 % p]))


def _divmod_rem(a: list[int], b: list[int], p: int) -> list[int]:
    a = list(a)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        q = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - q * y) % p
        _trim(a)
    return a


def resultant_mod(f: list[int], g: list[int], p: int) -> int:
    """Res(f, g) over Z/p by the Euclidean recursion (f, g nonzero)."""
    result = 1
    while True:
        df, dg = len(f) - 1, len(g) - 1
        if dg == 0:
            return result * pow(g[0], df, p) % p
        if df < dg:
            if df * dg % 2:
                result = -result
            f, g = g, f
            continue
        r = _divmod_rem(f, g, p)
        if not r:
            return 0
        if df * dg % 2:
            result = -result
        result = result * pow(g[-1], df - (len(r) - 1), p) % p
        f, g = g, r


def eval_mod(coeffs: list[Fraction], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + mod_frac(c, p)) % p
    return acc


# ---------------------------------------------------------------------------
# p-adic Newton polygons
# ---------------------------------------------------------------------------


def _val_frac(x: Fraction, p: int) -> int:
    return valuation(x.numerator, p) - valuation(x.denominator, p)


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def newton_polygon(coeffs: list[Fraction], p: int) -> dict:
    """The polygon in bicrit's report layout, from the coefficient list."""
    pts = [(i, _val_frac(c, p)) for i, c in enumerate(coeffs) if c]
    hull: list[tuple[int, int]] = []
    for x, y in pts:
        # drop the last vertex while it lies on or above the chord to (x, y)
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if Fraction(y2 - y1, x2 - x1) >= Fraction(y - y2, x - x2):
                hull.pop()
            else:
                break
        hull.append((x, y))
    segments = [
        (Fraction(y2 - y1, x2 - x1), x2 - x1)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    ]
    roots = sorted((-s, n) for s, n in segments)
    vanishing = pts[0][0]
    root_vals = [
        {"valuation": _frac_str(v), "multiplicity": str(n)} for v, n in roots
    ]
    if vanishing:
        root_vals.append({"valuation": "inf", "multiplicity": str(vanishing)})
    return {
        "p": str(p),
        "vanishing_order": str(vanishing),
        "segments": [
            {"slope": _frac_str(s), "length": str(n)} for s, n in segments
        ],
        "root_valuations": root_vals,
    }


# ---------------------------------------------------------------------------
# GF(p^e)
# ---------------------------------------------------------------------------


def _poly_rem_gfp(a: list[int], b: list[int], p: int) -> list[int]:
    return _divmod_rem(_trim([x % p for x in a]), b, p)


def smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e (low-first)."""
    for lower in product(range(p), repeat=e):
        cand = list(lower) + [1]
        if e == 1:
            return tuple(cand)
        reducible = any(
            not _poly_rem_gfp(cand, list(low) + [1], p)
            for t in range(1, e // 2 + 1)
            for low in product(range(p), repeat=t)
        )
        if not reducible:
            return tuple(cand)
    raise AssertionError("no irreducible polynomial")


class Field:
    """GF(p^e) with elements as coefficient tuples, lowest degree first."""

    def __init__(self, p: int, e: int):
        self.p, self.e = p, e
        self.modulus = smallest_irreducible(p, e)
        self.zero = (0,) * e
        self.one = (1,) + (0,) * (e - 1)

    def const(self, x: int) -> tuple[int, ...]:
        return (x % self.p,) + (0,) * (self.e - 1)

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def neg(self, x):
        return tuple(-a % self.p for a in x)

    def mul(self, x, y):
        p, e, mod = self.p, self.e, self.modulus
        prod_ = [0] * (2 * e - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    prod_[i + j] += a * b
        for i in range(2 * e - 2, e - 1, -1):
            c = prod_[i] % p
            if c:
                for j in range(e + 1):
                    prod_[i - e + j] -= c * mod[j]
        return tuple(c % p for c in prod_[:e])

    def pow(self, x, n: int):
        out = self.one
        while n:
            if n & 1:
                out = self.mul(out, x)
            n >>= 1
            if n:
                x = self.mul(x, x)
        return out


def orbit_jet(field: Field, bmod: list[int], d: int, alpha, beta, start: int, steps: int):
    """(f^steps(start), d/da, d/dc) at (alpha, beta) by dual-number iteration."""
    z, za, zc = field.const(start), field.zero, field.zero
    for _ in range(steps):
        bz = bdz = field.zero
        for i, b in enumerate(bmod):
            if b:
                zi = field.pow(z, d - i - 1)
                bz = field.add(bz, field.mul(field.const(b), field.mul(zi, z)))
                bdz = field.add(bdz, field.mul(field.const(b * (d - i)), zi))
        adb = field.mul(alpha, bdz)
        z, za, zc = (
            field.add(field.mul(alpha, bz), beta),
            field.add(bz, field.mul(adb, za)),
            field.add(field.mul(adb, zc), field.one),
        )
    return z, za, zc


def locus_point(field: Field, bmod: list[int], d: int, n: int, m: int, alpha, beta):
    """(F_n, G_m, Jacobian) of the reduced locus at one point."""
    f, fa, fc = orbit_jet(field, bmod, d, alpha, beta, 0, n)
    g, ga, gc = orbit_jet(field, bmod, d, alpha, beta, 1, m)
    g = field.add(g, field.neg(field.one))
    jac = field.add(field.mul(fa, gc), field.neg(field.mul(ga, fc)))
    return f, g, jac
