"""Seeded CLI invocations for each workload.

A workload is two parts of ten slots each: ``pcf`` is integrality plus
transversality, ``idf`` is degree scans plus point factoring.  Each slot
fixes the shape that sets a case's cost (the (d, k, n, m) of a resultant,
the field sizes of a transversality check, the length of a degree scan,
the bit sizes of a number to factor).  The seed draws everything else:
the order of the cases and, in ``idf``, the k of a scan or search, the
exact scan length within 2% and the random numbers to factor.

A run draws one round, one case per slot, and repeats it in reshuffled
orders.  The slots are chosen (costs below are from a 2-vCPU x86-64 VM,
Python 3.11) so that no slot's cost depends much on the seed, and so that
the slots next to the median of a round are not the scans, whose single
runs vary most.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import oracle


@dataclass
class Case:
    kind: str  # which checker reads the output
    argv: list[str]  # arguments after `python -m bicrit.cli`
    params: dict = field(default_factory=dict)


def _flags(**kw) -> list[str]:
    out = []
    for name, value in kw.items():
        out += [f"--{name}", str(value)]
    return out


# -- integrality ------------------------------------------------------------
# (command, d, k, n, m), cheapest first: 0.35-2.1 s per case, where Bareiss
# over Q[a] (or Q[c]), not process start, is most of the time.  k is fixed
# per slot, not drawn: the cost of a resultant grows with k (1.0 s at
# (8, 1, 2, 2), 1.5 s at (8, 3, 2, 2)), and a drawn k moved the median of
# a whole run by up to 15% between seeds.  (8, 2, 2, 2) gives a FAIL
# verdict (exit 1), which the checker reproduces.

INTEGRALITY_SLOTS = [
    ("integrality", 6, 2, 2, 2),
    ("integrality", 5, 2, 1, 3),
    ("integrality", 3, 1, 2, 3),
    ("integrality", 4, 1, 3, 1),
    ("locus", 4, 1, 5, 3),
    ("integrality", 3, 1, 1, 4),
    ("integrality", 7, 3, 2, 2),
    ("integrality", 3, 1, 3, 2),
    ("integrality", 8, 2, 2, 2),
    ("integrality", 4, 1, 2, 3),
]


def _integrality(rng: random.Random) -> list[Case]:
    cases = []
    for cmd, d, k, n, m in INTEGRALITY_SLOTS:
        params = dict(d=d, k=k, n=n, m=m)
        cases.append(Case(cmd, ["pcf", cmd, *_flags(**params)], params))
    return cases


# -- transversality ---------------------------------------------------------
# (d, k, n, m, emax), cheapest first: sum of p^(2e) from 819 to 28730 field
# points.  k is fixed per slot for the same reason as above.  --budget is
# passed because the CLI reuses the monomial budget (default 10^4) as the
# cap on p^(2e); see NOTES.md.

TRANSVERSALITY_SLOTS = [
    (3, 1, 3, 2, 3),
    (7, 2, 2, 2, 2),
    (5, 2, 1, 2, 3),
    (11, 4, 1, 2, 2),
    (13, 6, 1, 1, 2),
    (4, 1, 2, 2, 6),
    (6, 1, 2, 2, 6),
    (8, 1, 2, 2, 6),
    (5, 1, 2, 1, 3),
    (9, 2, 2, 2, 4),
]
TRANSVERSALITY_BUDGET = 10**6


def _transversality(rng: random.Random) -> list[Case]:
    cases = []
    for d, k, n, m, emax in TRANSVERSALITY_SLOTS:
        params = dict(d=d, k=k, n=n, m=m, emax=emax)
        argv = ["pcf", "transversality", *_flags(**params, budget=TRANSVERSALITY_BUDGET)]
        cases.append(Case("transversality", argv, params))
    return cases


# -- idf_scan -----------------------------------------------------------------
# ("scan", nominal dmax, jobs) for `idf scan --format csv` and
# ("mordell", xmax range) for `idf mordell`, cheapest first.  The largest
# scan holds ~200 MB in the CLI.

SCAN_SLOTS = [
    ("mordell", 1_000, 3_000),
    ("mordell", 4_000, 8_000),
    ("scan", 10_000, 1),
    ("scan", 20_000, 1),
    ("mordell", 41_000, 43_000),
    ("scan", 40_000, 2),
    ("scan", 50_000, 1),
    ("scan", 75_000, 1),
    ("scan", 75_000, 2),
    ("scan", 200_000, 2),
]


def _idf_scan(rng: random.Random) -> list[Case]:
    cases = []
    for kind, a, b in SCAN_SLOTS:
        if kind == "mordell":
            xmax = rng.randint(a, b)
            argv = ["idf", "mordell", "--xmax", str(xmax), "--format", "csv"]
            cases.append(Case("mordell", argv, dict(xmax=xmax)))
            continue
        k = rng.randint(1, 10)
        dmax = round(a * rng.uniform(0.98, 1.02))
        argv = ["idf", "scan", *_flags(k=k, dmax=dmax, jobs=b), "--format", "csv"]
        cases.append(Case("scan", argv, dict(k=k, dmax=dmax, jobs=b)))
    return cases


# -- idf_find -----------------------------------------------------------------
# Point factoring of large d.  Each slot is (command, how d is built), and
# each way of building d has a narrow cost, so that the seed does not move
# a slot past its neighbours:
#   none, smooth, random30_36   d (and the d - r searched) below 2^36: trial
#                               division stops early, ~0.01 s of factoring
#   prime60_100, semiprime25_29 d above 2^50 with one factor past 10^6 or two
#                               of 25-29 bits: a full trial division to 10^6
#                               (~0.09 s) and a Brent's rho of ~0.01 s
#   semiprime32_36              two factors of 32-36 bits: Brent's rho is
#                               most of the 0.1-0.35 s of factoring
# Numbers above 60 bits are built from known primes so that no case needs
# Brent's rho on two factors of 45+ bits (which can run for minutes).

FIND_SLOTS = [
    ("find", "none"),
    ("find", "smooth"),
    ("find", "random30_36"),
    ("conjecture", "random30_36"),
    ("find", "prime60_100"),
    ("conjecture", "prime60_100"),
    ("find", "semiprime25_29"),
    ("conjecture", "semiprime25_29"),
    ("find", "semiprime32_36"),
    ("conjecture", "semiprime32_36"),
]


def _semiprime(rng, lo: int, hi: int) -> tuple[int, dict]:
    p = oracle.random_prime(rng, rng.randint(lo, hi - 2))
    q = oracle.random_prime(rng, rng.randint(lo + 2, hi))
    while q == p:
        q = oracle.random_prime(rng, rng.randint(lo + 2, hi))
    return p * q, {p: 1, q: 1}


def _find_number(rng: random.Random, how: str) -> tuple[int, int, dict]:
    """(d, k, {m: known factorization of m})."""
    k = rng.randint(1, 10)
    if how == "random30_36":
        d = rng.getrandbits(rng.randint(30, 36)) | (1 << 29)
        return d, k, {}
    if how.startswith("semiprime"):
        lo, hi = map(int, how[len("semiprime"):].split("_"))
        d, fac = _semiprime(rng, lo, hi)
        return d, k, {d: fac}
    if how == "prime60_100":
        big = oracle.random_prime(rng, rng.randint(60, 100))
        small = rng.randint(2, 1 << 16)
        fac = oracle.factor(small)
        fac[big] = fac.get(big, 0) + 1
        return big * small, k, {big * small: fac}
    if how == "smooth":
        # no prime above k divides d, so the search moves on to d - 2, d - 3, ...
        k = rng.randint(5, 10)
        while True:
            a, b, c = rng.randint(10, 20), rng.randint(5, 10), rng.randint(0, 4)
            d = 2**a * 3**b * 5**c
            if d.bit_length() <= 36:
                return d, k, {d: {q: e for q, e in ((2, a), (3, b), (5, c)) if e}}
    if how == "none":
        # the README's NONE case; for k in [3, 10] no other d <= 3000 has
        # no IDF prime, so there is nothing to draw
        return 27, 3, {}
    raise ValueError(how)


def _idf_find(rng: random.Random) -> list[Case]:
    cases = []
    for cmd, how in FIND_SLOTS:
        d, k, known = _find_number(rng, how)
        name = "d" if cmd == "find" else "n"
        argv = ["idf", cmd, f"--{name}", str(d), "--k", str(k)]
        cases.append(Case("find", argv, dict(d=d, k=k, command=cmd, known=known)))
    return cases


WORKLOADS = {
    "pcf": (_integrality, _transversality),
    "idf": (_idf_scan, _idf_find),
}


def draw_round(workload: str, rng: random.Random) -> list[Case]:
    """One case per slot of the workload, in a seeded order."""
    cases = [case for part in WORKLOADS[workload] for case in part(rng)]
    rng.shuffle(cases)
    return cases
