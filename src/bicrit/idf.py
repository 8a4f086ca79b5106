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

from array import array
from functools import partial
from itertools import chain, compress
from math import gcd, isqrt
from operator import not_
from typing import NamedTuple

from .arith import _strip, factor, is_prime, primes_upto
from .errors import DomainError, ResourceBudgetError

__all__ = [
    "IdfRejection",
    "IdfScan",
    "IdfWitness",
    "MORDELL_B_SET",
    "MORDELL_C_SET",
    "MORDELL_XMAX_LIMIT",
    "MordellCandidate",
    "SCAN_DMAX_LIMIT",
    "conjecture_check",
    "find_idf_prime",
    "is_idf_prime",
    "mordell_candidates",
    "scan_exceptions",
    "scan_witnesses",
    "witness_fields",
]


# scan_witnesses keeps 4 bytes a degree, the witness keys of its sieve
# segments, and `idf scan` writes its rows from one text per distinct
# witness: a run peaks at about 23 MB of RSS as CSV and 30 MB as JSON at
# this limit, about 16 MB of it the interpreter (15 and 28 bytes a degree)
SCAN_DMAX_LIMIT = 500_000


def _check_dk(d: int, k: int) -> None:
    if d < 3:
        raise DomainError(f"degree must be >= 3, got {d}")
    bound = (d - 1) // 2  # ceil((d-2)/2)
    if not 1 <= k <= bound:
        raise DomainError(f"k must satisfy 1 <= k <= {bound} for d={d}, got {k}")


class IdfWitness(NamedTuple):
    """Certificate that p is IDF for some (d, k): p | d - r with e = v_p(d-r)."""

    p: int
    r: int
    e: int

    def holds_for(self, d: int, k: int) -> bool:
        """Recheck all three conditions, and that p is prime, from scratch
        (DomainError for a (d, k) out of range)."""
        # an IdfRejection has five fields, so it never equals a witness
        return is_idf_prime(self.p, d, k) == self


class IdfRejection(NamedTuple):
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
    e = _strip(d - r, p)[0]
    if r == 1:
        return IdfRejection(
            p, d, k, "r = 1 divides every exponent", r=1
        )
    if r >= 2 and e % r == 0:
        return IdfRejection(
            p, d, k, f"r = {r} divides v_{p}(d - {r}) = {e}", r=r
        )
    return IdfWitness(p, r, e)


def _first_witness(d: int, k: int, factorize) -> tuple[int, int, int] | None:
    """(p, r, e) of the smallest-(r, p) IDF witness for (d, k), or None.

    ``factorize(m)`` yields the (prime, exponent) pairs of m in increasing
    order of the prime (those with prime <= k may be left out); r runs
    over 0, 2, 3, ..., k.
    """
    for r in range(k + 1):
        m = d - r
        if r == 1 or m < 2:
            continue
        for p, e in factorize(m):
            if p > k and (r == 0 or e % r != 0):
                return p, r, e
    return None


def find_idf_prime(d: int, k: int) -> IdfWitness | None:
    """Smallest-(r, p) IDF witness for (d, k), or None.

    Scans r = 0, 2, 3, ..., k in order and, within each r, the prime
    divisors p > k of d - r in increasing order, so the returned witness
    is deterministic.
    """
    _check_dk(d, k)
    w = _first_witness(d, k, factor)
    return None if w is None else IdfWitness(*w)


# degrees per sieve segment: the unit that bounds the sieve's buffers
SEGMENT = 1 << 17


def _rough_factor(m: int, smooth: int, primes: list[int]) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of m // gcd(m, smooth), in increasing order.

    ``smooth`` holds every prime up to some bound b, each to a power at
    least its exponent in m, and ``primes`` every prime in (b, sqrt(m)].
    """
    m //= gcd(m, smooth)
    out = []
    for p in primes:
        if p * p > m:
            break
        if m % p == 0:
            e, m = _strip(m, p)
            out.append((p, e))
    if m > 1:
        out.append((m, 1))
    return out


def _scan_segment(lo: int, hi: int, k: int):
    """Witnesses for d in [lo, hi] (all d >= 2k + 1), in compact form.

    Returns (lo, key, rest): key[i] is p << 5 | e when the witness of
    lo + i is (p, 0, e) and 0 otherwise, and rest lists (i, (p, r, e))
    for the witnesses with r >= 2 and (i, None) for the degrees with no
    witness, in increasing i.  (The key fits in 32 bits for d < 2^27.)
    """
    n = hi - lo + 1
    primes = primes_upto(isqrt(hi))
    small = [q for q in primes if q <= k]
    # the least prime q above k, with its exponent, for every d that one of
    # the base primes (k, sqrt(hi)] divides: larger primes and lower powers
    # are written first, and later writes overwrite them
    key = array("I", [0]) * n
    base = primes[len(small):]
    for q in reversed(base):
        e, qe = 1, q
        while qe <= hi:
            i = -lo % qe
            key[i::qe] = array("I", [q << 5 | e]) * len(range(i, n, qe))
            e, qe = e + 1, qe * q
    # a d that no base prime divides is gcd(d, smooth) * c, with smooth the
    # primes <= k (up to sqrt(hi)) to their largest powers <= hi and c 1 or
    # one prime above sqrt(hi): the witness is (c, 0, 1) when c > k, and d
    # is k-smooth otherwise
    smooth = 1
    for q in small:
        qe = q
        while qe * q <= hi:
            qe *= q
        smooth *= qe
    rest = []
    factorize = partial(_rough_factor, smooth=smooth, primes=base)
    for d in compress(range(lo, hi + 1), map(not_, key)):
        c = d // gcd(d, smooth)
        if c > k:
            key[d - lo] = c << 5 | 1
        else:
            rest.append((d - lo, _first_witness(d, k, factorize)))
    return lo, key, rest


def witness_fields(key) -> tuple[int, int, int] | None:
    """(p, r, e) of a witness key of :meth:`IdfScan.runs`, or None for 0."""
    if isinstance(key, tuple):
        return key
    return (key >> 5, 0, key & 31) if key else None


class _Witnesses(dict):
    """One IdfWitness record per distinct witness key."""

    def __missing__(self, key):
        w = self[key] = IdfWitness(*witness_fields(key))
        return w


class IdfScan:
    """The smallest witness of every degree of a scan, kept as the keys of
    the sieve segments of :func:`_scan_segment`, 4 bytes a degree.

    ``len()`` counts the degrees, and iterating gives a (d, IdfWitness or
    None) pair per degree in increasing d, built as it is read: equal
    witnesses are one shared record.  :meth:`runs` gives the keys
    themselves, which is how a table of the scan is written without a
    record per degree.
    """

    def __init__(self, segments):
        self.segments = segments

    def __len__(self):
        return sum(len(key) for _, key, _ in self.segments)

    def runs(self):
        """(d, keys) runs covering the scan in increasing d: keys[i] is the
        witness key of d + i, p << 5 | e for (p, 0, e), the tuple (p, r, e)
        for a witness with r >= 2 and 0 for none (see witness_fields)."""
        for lo, key, rest in self.segments:
            view = memoryview(key)
            at = 0
            for i, w in rest:
                if w is not None:
                    if at < i:
                        yield lo + at, view[at:i]
                    yield lo + i, (w,)
                    at = i + 1
            if at < len(key):
                yield lo + at, view[at:]

    def __iter__(self):
        get = _Witnesses({0: None}).__getitem__
        return chain.from_iterable(
            zip(range(lo, lo + len(keys)), map(get, keys)) for lo, keys in self.runs()
        )

    @property
    def exceptions(self) -> list[int]:
        """The degrees with no witness, in increasing order."""
        return [lo + i for lo, _, rest in self.segments for i, w in rest if w is None]


def scan_witnesses(d_min: int, d_max: int, k: int) -> IdfScan:
    """The smallest witness, or None, of every d in [d_min, d_max].

    Matches find_idf_prime degree by degree, off a sieve of the least
    prime factor above k run segment by segment.  Degrees with k out of
    range (d < 2k + 1) are skipped.  The scan holds 4 bytes a degree;
    a d_max above ``SCAN_DMAX_LIMIT`` is refused before anything is
    sieved.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if d_max < d_min:
        return IdfScan([])
    if d_max > SCAN_DMAX_LIMIT:
        raise ResourceBudgetError(
            f"a scan up to d = {d_max} lists a witness for every degree; "
            f"the limit is {SCAN_DMAX_LIMIT}"
        )
    starts = range(max(d_min, 2 * k + 1), d_max + 1, SEGMENT)
    return IdfScan([_scan_segment(a, min(a + SEGMENT - 1, d_max), k) for a in starts])


def scan_exceptions(d_min: int, d_max: int, k: int) -> list[int]:
    """All d in [d_min, d_max] with no IDF prime for (d, k)."""
    return scan_witnesses(d_min, d_max, k).exceptions


MORDELL_B_SET = (1, 2, 3, 6)
MORDELL_C_SET = (1, 2, 3, 4, 6, 9, 12, 18, 36)

# mordell_candidates marks the X of one (B, C) pair at a time in a
# bytearray of x_max + 1 bytes, beside a fifth of that at most: an `idf
# mordell` run peaks at about 1.2 bytes an X (38 MB of RSS at this limit)
# and takes about 5 s at it
MORDELL_XMAX_LIMIT = 20_000_000


class MordellCandidate(NamedTuple):
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


# (q, [is r a square mod q for r = 1, ..., q - 1]) for the primes
# 5 <= q < 32: at x_max = 42,000 they leave about 50 of the X of each
# (B, C) pair to the exact test
_SQUARE_CLASSES = [
    (q, [pow(r, (q - 1) // 2, q) == 1 for r in range(1, q)]) for q in primes_upto(31)[2:]
]


def mordell_candidates(x_max: int) -> list[MordellCandidate]:
    """Enumerate B*Y^2 = C*X^3 + 1 over 2 <= X <= x_max with d >= 7.

    Bounded search in X, sorted by the derived degree d.  For each (B, C)
    the X with B | C*X^3 + 1 are marked; those whose (C*X^3 + 1)/B is a
    nonsquare modulo a prime 5 <= q < 32 are struck out a residue class
    at a time, and only the rest get the exact square test.  An x_max
    above ``MORDELL_XMAX_LIMIT`` is refused before anything is marked.
    """
    if x_max > MORDELL_XMAX_LIMIT:
        raise ResourceBudgetError(
            f"a Mordell search up to X = {x_max} marks every X of each (B, C) "
            f"pair; the limit is {MORDELL_XMAX_LIMIT}"
        )
    if x_max < 2:
        return []
    n = x_max + 1
    out = []
    for b in MORDELL_B_SET:
        for c in MORDELL_C_SET:
            # B | C*X^3 + 1 has period B in X: the marks repeat that period,
            # made with no buffer of their size beside them
            period = bytes((c * r**3 + 1) % b == 0 for r in range(b))
            marks = bytearray(period) * (n // b + 1)
            del marks[n:]
            marks[:2] = bytes(2)
            for q, is_square in _SQUARE_CLASSES:
                b_inv = pow(b, -1, q)
                for r in range(min(q, n)):
                    v = (c * r**3 + 1) * b_inv % q
                    if v and not is_square[v - 1]:
                        marks[r::q] = bytearray(len(range(r, n, q)))  # bytes would be copied
            x = marks.find(1)
            while x >= 0:
                rhs = c * x**3 + 1
                y = isqrt(rhs // b)
                if b * y * y == rhs:
                    out.append(MordellCandidate(x, y, b, c))
                x = marks.find(1, x + 1)
            del marks  # before the next pair's marks are made
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
