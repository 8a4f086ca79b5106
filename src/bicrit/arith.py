"""Exact scalar arithmetic: primality, factorization, p-adic valuations.

Integers are plain Python ints (arbitrary precision, exact).  Rationals are
``fractions.Fraction``, which is always stored reduced with a positive
denominator.  The one custom scalar here is :class:`ExtVal`, the rationals
extended by a maximal element ``INFINITY`` so that the valuation of zero has
a representable value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError, ResourceBudgetError

__all__ = [
    "ExtVal",
    "Factorization",
    "INFINITY",
    "factor",
    "is_prime",
    "val_p",
]

# Witness set making Miller-Rabin deterministic for n < 3.3 * 10**24,
# far beyond any default scan bound of this package.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_LIMIT = 10**6

# Brent's rho takes about sqrt(q) steps to split off a prime q, at roughly
# 3 million steps a second for 120-bit n (Python 3.11, x86-64).  factor
# gives up past this many steps in all, after about 5 s, on most cofactors
# whose smallest prime has more than about 46 bits.
RHO_STEP_LIMIT = 2**24


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a fixed witness set)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime factorization ``n = prod p^e`` with strictly increasing primes."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __iter__(self):
        return iter(self.factors)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def recompose(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


def _brent(n: int, budget: int) -> tuple[int | None, int]:
    """(g, steps): a nontrivial divisor g of an odd composite n (Brent's rho)
    and the steps taken; g is None once the next round would pass ``budget``.

    The polynomial offset c increases deterministically, so repeated runs
    split n identically on every platform.
    """
    steps = 0
    for c in range(1, 1000):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            # a round advances y by r, then by at most r more
            if steps + 2 * r > budget:
                return None, steps
            steps += 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, steps
    raise ArithmeticError(f"rho parameter sweep exhausted for {n}")


def factor(n: int) -> Factorization:
    """Factor an integer n >= 2 into primes.

    Trial division up to 10**6 followed by Brent's rho for any remaining
    cofactor; every reported prime passes :func:`is_prime`.  Past
    ``RHO_STEP_LIMIT`` rho steps in all, ResourceBudgetError names the
    cofactor left unsplit.
    """
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"factor requires an integer n >= 2, got {n!r}")
    counts: dict[int, int] = {}
    m = n
    d = 2
    while d <= _TRIAL_LIMIT and d * d <= m:
        while m % d == 0:
            counts[d] = counts.get(d, 0) + 1
            m //= d
        d = 3 if d == 2 else d + 2
    budget = RHO_STEP_LIMIT
    if m > 1:
        stack = [m]
        while stack:
            v = stack.pop()
            if is_prime(v):
                counts[v] = counts.get(v, 0) + 1
            else:
                g, steps = _brent(v, budget)
                if g is None:
                    raise ResourceBudgetError(
                        f"factoring {n}: the cofactor {v} has no prime factor "
                        f"Brent's rho finds within {RHO_STEP_LIMIT} steps"
                    )
                budget -= steps
                stack.append(g)
                stack.append(v // g)
    return Factorization(n, tuple(sorted(counts.items())))


class ExtVal:
    """A rational valuation value, or +infinity (the valuation of 0).

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
            return INFINITY
        return ExtVal(self._v + other._v)

    __radd__ = __add__

    def __sub__(self, other):
        other = ExtVal(other)
        if other._v is None:
            raise DomainError("cannot subtract INFINITY")
        if self._v is None:
            return INFINITY
        return ExtVal(self._v - other._v)

    def __rmul__(self, m: int):
        if not isinstance(m, int):
            return NotImplemented
        if self._v is None:
            if m <= 0:
                raise DomainError("only positive multiples of INFINITY are defined")
            return INFINITY
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
            return INFINITY
        return ExtVal(Fraction(text))


INFINITY = ExtVal.__new__(ExtVal)
INFINITY._v = None


def _int_val(n: int, p: int) -> int:
    # n != 0
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def val_p(x: "int | Fraction", p: int) -> ExtVal:
    """Normalized p-adic valuation of a rational; val_p(0) = INFINITY."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if x == 0:
        return INFINITY
    x = Fraction(x)
    return ExtVal(_int_val(x.numerator, p) - _int_val(x.denominator, p))
