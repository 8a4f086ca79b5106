"""Exact scalar arithmetic: primality, factorization, p-adic valuations.

Integers are plain Python ints (arbitrary precision, exact).  Rationals are
``fractions.Fraction``, which is always stored reduced with a positive
denominator.  A p-adic valuation is one of these, or ``INFINITY``, the one
value above every rational, so that the valuation of zero is representable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, isqrt

from .errors import DomainError, ResourceBudgetError

__all__ = [
    "DETERMINISTIC_PRIME_BOUND",
    "INFINITY",
    "factor",
    "is_prime",
    "primes_upto",
    "val_p",
]

# Miller-Rabin to the 13 prime bases up to 41 is deterministic below
# psi_13 = 3317044064679887385961981 (Sorenson & Webster, Math. Comp. 86,
# 2017); the 12 bases up to 37 stop at psi_12 = 318665857834031151167461,
# a composite they all pass.  At or above the bound a pass means "probable".
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
DETERMINISTIC_PRIME_BOUND = 3317044064679887385961981


def primes_upto(n: int) -> list[int]:
    """The primes p <= n, by a sieve of Eratosthenes in slices."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = bytes(2)
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return list(compress(range(n + 1), sieve))


# factor trial-divides by these 172 primes below 2^10 and leaves larger
# ones to Brent's rho, which splits off a prime below 10^6 in about a
# thousand steps
_TRIAL_PRIMES = primes_upto(1 << 10)

# Brent's rho takes about sqrt(q) steps to split off a prime q, at roughly
# 3 million steps a second for 120-bit n (Python 3.11, x86-64).  factor
# gives up past this many steps in all, after about 5 s, on most cofactors
# whose smallest prime has more than about 46 bits.
RHO_STEP_LIMIT = 2**24


def is_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set: exact below
    DETERMINISTIC_PRIME_BOUND, a probable-prime test at or above it."""
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


def factor(n: int) -> tuple[tuple[int, int], ...]:
    """The (p, e) pairs of n = prod p^e for an integer n >= 2, in increasing
    order of p.

    Trial division by the primes below 2**10 followed by Brent's rho for
    any remaining cofactor; every reported prime passes :func:`is_prime`.
    Past ``RHO_STEP_LIMIT`` rho steps in all, ResourceBudgetError names
    the cofactor left unsplit.
    """
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"factor requires an integer n >= 2, got {n!r}")
    counts: dict[int, int] = {}
    m = n
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            counts[p], m = _strip(m, p)
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
    return tuple(sorted(counts.items()))


class _Infinity:
    """INFINITY, the valuation of 0: above every rational and equal to none.

    Adding a rational to it, or multiplying it by a positive int, gives it
    back; subtracting it, or a multiple by zero or a negative int, is a
    DomainError.  Ordering it against anything but a valuation is a TypeError.
    """

    __slots__ = ()

    def __add__(self, other):
        return self if _valuation(other) else NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if other is self:
            raise DomainError("cannot subtract INFINITY")
        return self.__add__(other)

    def __rsub__(self, other):
        if not _valuation(other):
            return NotImplemented
        raise DomainError("cannot subtract INFINITY")

    def __mul__(self, m):
        if not isinstance(m, int):
            return NotImplemented
        if m <= 0:
            raise DomainError("only positive multiples of INFINITY are defined")
        return self

    __rmul__ = __mul__

    # x < INFINITY for every rational x
    def __lt__(self, other):
        return False if _valuation(other) else NotImplemented

    def __le__(self, other):
        return other is self if _valuation(other) else NotImplemented

    def __gt__(self, other):
        return other is not self if _valuation(other) else NotImplemented

    def __ge__(self, other):
        return True if _valuation(other) else NotImplemented

    def __hash__(self):
        return hash(None)

    def __reduce__(self):
        return "INFINITY"  # a copy or an unpickled value is INFINITY itself

    def __repr__(self):
        return "INFINITY"

    def __str__(self):
        return "inf"


INFINITY = _Infinity()


def _valuation(x) -> bool:
    """Whether x is a valuation: an int, a Fraction or INFINITY."""
    return x is INFINITY or isinstance(x, (int, Fraction))


def _strip(n: int, p: int) -> tuple[int, int]:
    """(e, m) with n = p^e * m and m prime to p, for n != 0."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def val_p(x: "int | Fraction", p: int) -> "Fraction | _Infinity":
    """Normalized p-adic valuation of a rational; val_p(0) = INFINITY."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if x == 0:
        return INFINITY
    x = Fraction(x)
    return Fraction(_strip(x.numerator, p)[0] - _strip(x.denominator, p)[0])
