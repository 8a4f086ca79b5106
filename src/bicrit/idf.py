"""Index-divisor-free (IDF) primes: decision, search, scans, Mordell sieve.

A prime p is IDF for (d, k), with k in [1, ceil((d-2)/2)], when

  * p > k,
  * p divides d - r for some r <= k (unique, since p > k), and
  * r does not divide v_p(d - r).

The convention "0 divides only 0" makes r = 0 pass automatically (the
exponent is >= 1), while r = 1 can never pass.  IDF primes control the
coefficient valuations of the degree-d normal form: v_p(b_i) = v_p(d-r)
for every i except i = r, where it is 0.

For k = 3, a degree d with no IDF prime forces
d - 3 = C*X^3 and d - 2 = B*Y^2 with B in {1,2,3,6} and C in
{1,2,3,4,6,9,12,18,36}, i.e. integer points on B*Y^2 = C*X^3 + 1.
:func:`mordell_candidates` reproduces that table by bounded enumeration
in X (complete integral-point machinery is deliberately out of scope).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import factor, is_prime
from .errors import DomainError, ResourceBudgetError

__all__ = [
    "IdfRejection",
    "IdfWitness",
    "MORDELL_B_SET",
    "MORDELL_C_SET",
    "MordellCandidate",
    "SCAN_DMAX_LIMIT",
    "conjecture_check",
    "find_idf_prime",
    "is_idf_prime",
    "mordell_candidates",
    "scan_exceptions",
    "scan_witnesses",
]


# scan_witnesses sieves every integer up to d_max, and a scan report holds
# one row per degree: about 480 bytes a degree for CSV output (255 MB of
# peak RSS at this limit) and about 900 for JSON
SCAN_DMAX_LIMIT = 500_000


def _check_dk(d: int, k: int) -> None:
    if d < 3:
        raise DomainError(f"degree must be >= 3, got {d}")
    bound = (d - 1) // 2  # ceil((d-2)/2)
    if not 1 <= k <= bound:
        raise DomainError(f"k must satisfy 1 <= k <= {bound} for d={d}, got {k}")


@dataclass(frozen=True)
class IdfWitness:
    """Certificate that p is IDF for some (d, k): p | d - r with e = v_p(d-r)."""

    p: int
    r: int
    e: int

    def holds_for(self, d: int, k: int) -> bool:
        """Recheck all three conditions, and that p is prime, from scratch
        (DomainError for a (d, k) out of range)."""
        return is_idf_prime(self.p, d, k) == self


@dataclass(frozen=True)
class IdfRejection:
    """Why a particular prime is not IDF for (d, k)."""

    p: int
    d: int
    k: int
    reason: str
    r: int | None = None


def is_idf_prime(p: int, d: int, k: int):
    """Decide whether p is IDF for (d, k); returns a witness or a rejection."""
    _check_dk(d, k)
    if not is_prime(p):
        return IdfRejection(p, d, k, "not prime")
    if p <= k:
        return IdfRejection(p, d, k, f"p = {p} is not greater than k = {k}")
    r = d % p
    if r > k:
        return IdfRejection(p, d, k, f"p divides no d - r with r <= {k}")
    e = 0
    m = d - r
    while m % p == 0:
        m //= p
        e += 1
    if r == 1:
        return IdfRejection(
            p, d, k, "r = 1 divides every exponent", r=1
        )
    if r >= 2 and e % r == 0:
        return IdfRejection(
            p, d, k, f"r = {r} divides v_{p}(d - {r}) = {e}", r=r
        )
    return IdfWitness(p, r, e)


def find_idf_prime(d: int, k: int) -> IdfWitness | None:
    """Smallest-(r, p) IDF witness for (d, k), or None.

    Scans r = 0, 2, 3, ..., k in order and, within each r, the prime
    divisors p > k of d - r in increasing order, so the returned witness
    is deterministic.
    """
    _check_dk(d, k)
    for r in (0, *range(2, k + 1)):
        m = d - r
        if m < 2:
            continue
        for p, e in factor(m):
            if p <= k:
                continue
            if r == 0 or e % r != 0:
                return IdfWitness(p, r, e)
    return None


def _spf_sieve(limit: int) -> list[int]:
    """Smallest-prime-factor table for 0..limit."""
    spf = list(range(limit + 1))
    for i in range(2, isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def _sieve_witness(d: int, k: int, spf: list[int]) -> tuple[int, int, int] | None:
    # same (r ascending, then p ascending) tie-break as find_idf_prime
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


def _scan_chunk(args) -> list[tuple[int, tuple[int, int, int] | None]]:
    d_lo, d_hi, k = args
    spf = _spf_sieve(d_hi)
    return [
        (d, _sieve_witness(d, k, spf))
        for d in range(d_lo, d_hi + 1)
        if d >= 2 * k + 1
    ]


def scan_witnesses(
    d_min: int, d_max: int, k: int, jobs: int = 1
) -> list[tuple[int, IdfWitness | None]]:
    """(d, smallest witness or None) for every d in [d_min, d_max].

    Matches find_idf_prime degree by degree but runs off a shared
    smallest-prime-factor sieve.  Degrees with k out of range
    (d < 2k + 1) are skipped.  The scan partitions the range over workers
    when jobs > 1 and merges in order, so output is independent of the
    level of parallelism.  A d_max above ``SCAN_DMAX_LIMIT`` is refused
    before anything is sieved.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if d_max < d_min:
        return []
    if d_max > SCAN_DMAX_LIMIT:
        raise ResourceBudgetError(
            f"a scan up to d = {d_max} sieves every integer up to it; "
            f"the limit is {SCAN_DMAX_LIMIT}"
        )
    if jobs <= 1 or d_max - d_min < 4 * jobs:
        raw = _scan_chunk((d_min, d_max, k))
    else:
        from concurrent.futures import ProcessPoolExecutor

        span = d_max - d_min + 1
        bounds = [d_min + span * i // jobs for i in range(jobs)] + [d_max + 1]
        chunks = [
            (bounds[i], bounds[i + 1] - 1, k)
            for i in range(jobs)
            if bounds[i] <= bounds[i + 1] - 1
        ]
        raw = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_scan_chunk, chunks):
                raw.extend(part)
    return [(d, None if w is None else IdfWitness(*w)) for d, w in raw]


def scan_exceptions(d_min: int, d_max: int, k: int, jobs: int = 1) -> list[int]:
    """All d in [d_min, d_max] with no IDF prime for (d, k)."""
    return [d for d, w in scan_witnesses(d_min, d_max, k, jobs) if w is None]


MORDELL_B_SET = (1, 2, 3, 6)
MORDELL_C_SET = (1, 2, 3, 4, 6, 9, 12, 18, 36)


@dataclass(frozen=True)
class MordellCandidate:
    """Solution of B*Y^2 = C*X^3 + 1; the associated degree is d = C*X^3 + 3."""

    x: int
    y: int
    b: int
    c: int

    @property
    def d(self) -> int:
        return self.c * self.x**3 + 3

    def holds(self) -> bool:
        return (
            self.b * self.y**2 == self.c * self.x**3 + 1
            and self.b in MORDELL_B_SET
            and self.c in MORDELL_C_SET
            and self.d >= 7
        )


def mordell_candidates(x_max: int) -> list[MordellCandidate]:
    """Enumerate B*Y^2 = C*X^3 + 1 over 2 <= X <= x_max with d >= 7.

    Bounded search in X with an exact square test; sorted by the derived
    degree d.
    """
    if x_max < 2:
        return []
    out = []
    for x in range(2, x_max + 1):
        x3 = x**3
        for c in MORDELL_C_SET:
            rhs = c * x3 + 1
            if c * x3 < 4:
                continue
            for b in MORDELL_B_SET:
                if rhs % b:
                    continue
                y2 = rhs // b
                y = isqrt(y2)
                if y * y == y2:
                    out.append(MordellCandidate(x, y, b, c))
    out.sort(key=lambda m: (m.d, m.b, m.c))
    return out


def conjecture_check(n: int, k: int) -> IdfWitness | None:
    """IDF witness phrased over the product n(n-1)...(n-k).

    Finds a prime p > k dividing the product at index r (p | n - r) whose
    exponent v_p(n - r) is not divisible by r; same witness semantics and
    tie-break as :func:`find_idf_prime`.
    """
    if n <= 2 * k + 2:
        raise DomainError(f"need n > 2k + 2, got n={n}, k={k}")
    return find_idf_prime(n, k)
