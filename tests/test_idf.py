import tracemalloc
from math import isqrt
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bicrit.idf
from bicrit.arith import factor, is_prime, val_p
from bicrit.errors import DomainError, ResourceBudgetError
from bicrit.idf import (
    SCAN_DMAX_LIMIT,
    IdfRejection,
    IdfWitness,
    conjecture_check,
    find_idf_prime,
    is_idf_prime,
    mordell_candidates,
    scan_exceptions,
    scan_witnesses,
)
from util import loop_mordell, spf_sieve, spf_witness

MORDELL_TABLE = [
    (2, 3, 1, 1, 11),
    (2, 5, 1, 3, 27),
    (2, 7, 1, 6, 51),
    (2, 17, 1, 36, 291),
    (23, 78, 2, 1, 12170),
    (61, 389, 3, 2, 453965),
]


class TestIsIdfPrime:
    def test_rejections(self):
        r = is_idf_prime(13, 27, 3)
        assert isinstance(r, IdfRejection) and r.r == 1

        r = is_idf_prime(5, 27, 3)
        assert isinstance(r, IdfRejection) and r.r == 2  # 2 divides v_5(25) = 2

        r = is_idf_prime(4, 27, 3)
        assert isinstance(r, IdfRejection) and "not prime" in r.reason

        r = is_idf_prime(3, 27, 3)
        assert isinstance(r, IdfRejection) and "greater than k" in r.reason

        r = is_idf_prime(7, 27, 3)
        assert isinstance(r, IdfRejection)  # 27 = 6 mod 7, index out of range

    def test_witness(self):
        w = is_idf_prime(11, 11, 3)
        assert w == IdfWitness(11, 0, 1)

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            is_idf_prime(5, 6, 3)

    def test_composite_witness_refused(self):
        # 4 | 8 and 9 | 18 to the first power with r = 0, but 4 and 9 are
        # not prime
        assert not IdfWitness(4, 0, 1).holds_for(8, 1)
        assert not IdfWitness(9, 0, 1).holds_for(18, 1)
        assert IdfWitness(3, 0, 2).holds_for(18, 1)


class TestFindIdfPrime:
    def test_examples(self):
        assert find_idf_prime(27, 3) is None
        assert find_idf_prime(3, 1) == IdfWitness(3, 0, 1)
        assert find_idf_prime(8, 2) == IdfWitness(3, 2, 1)

    def test_witness_soundness(self):
        for d in range(7, 400):
            for k in (1, 2, 3):
                if k > (d - 1) // 2:
                    continue
                w = find_idf_prime(d, k)
                if w is None:
                    assert (d, k) == (27, 3)
                    continue
                assert w.holds_for(d, k)
                # recheck with independent pieces
                assert w.e == val_p(d - w.r, w.p).finite
                assert w.p > k and 0 <= w.r <= k and w.r != 1
                if w.r >= 2:
                    assert w.e % w.r != 0

    def test_uniqueness_of_r(self):
        for d in range(7, 200):
            for k in (2, 3):
                if k > (d - 1) // 2:
                    continue
                w = find_idf_prime(d, k)
                if w is None:
                    continue
                hits = [r for r in range(k + 1) if (d - r) % w.p == 0]
                assert hits == [w.r]

    def test_smallest_tiebreak(self):
        # r is scanned first, then p: (3, 0, 1) beats any larger-(r, p) witness
        w = find_idf_prime(12, 2)
        assert w == IdfWitness(3, 0, 1)


class TestScanExceptions:
    def test_agreement_with_find(self):
        for d in range(7, 300):
            exc = scan_exceptions(d, d, 3) if d >= 7 else []
            assert (find_idf_prime(d, 3) is None) == (exc == [d])

    def test_small_slices(self):
        assert scan_exceptions(7, 2000, 3) == [27]
        assert scan_exceptions(4, 2000, 1) == []
        assert scan_exceptions(6, 2000, 2) == []

    def test_sieve_witnesses_match_find(self):
        for d, w in scan_witnesses(7, 600, 3):
            assert w == find_idf_prime(d, 3)

    def test_dmax_over_the_limit_is_refused(self):
        with pytest.raises(ResourceBudgetError):
            scan_witnesses(SCAN_DMAX_LIMIT - 10, SCAN_DMAX_LIMIT + 1, 3)
        assert scan_witnesses(SCAN_DMAX_LIMIT - 10, SCAN_DMAX_LIMIT, 3)

    def test_skips_out_of_range_degrees(self):
        # d < 2k + 1 is not a valid pair and must not be reported
        assert scan_exceptions(2, 6, 3) == []


def check_scan(d_min, d_max, k, segment):
    """scan_witnesses against the smallest-prime-factor walk and against
    find_idf_prime, with the range cut into segments of the given length."""
    with patch.object(bicrit.idf, "SEGMENT", segment):
        got = scan_witnesses(d_min, d_max, k)
    spf = spf_sieve(max(d_max, 1))
    degrees = range(max(d_min, 2 * k + 1), d_max + 1)
    assert [d for d, _ in got] == list(degrees)
    assert [None if w is None else (w.p, w.r, w.e) for _, w in got] == [
        spf_witness(d, k, spf) for d in degrees
    ]
    assert [w for _, w in got] == [find_idf_prime(d, k) for d in degrees]


SEGMENTS = st.sampled_from((1, 2, 7, 64, 1000, bicrit.idf.SEGMENT))


class TestScanOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 12),
        d_min=st.integers(0, 3000),
        length=st.integers(-2, 1500),
        segment=SEGMENTS,
    )
    def test_ranges(self, k, d_min, length, segment):
        # d_min may sit below 2k + 1, and the range may be one degree or none
        check_scan(d_min, d_min + length, k, segment)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d_max=st.integers(9, 700), segment=SEGMENTS)
    def test_no_base_prime_above_k(self, data, d_max, segment):
        # k >= sqrt(d_max): every prime above k is larger than sqrt(d)
        k = data.draw(st.integers(isqrt(d_max), max(isqrt(d_max), (d_max - 1) // 2)))
        d_min = data.draw(st.integers(0, d_max))
        check_scan(max(d_min, d_max - 150), d_max, k, segment)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), k=st.integers(1, 10), segment=SEGMENTS)
    def test_small_prime_times_large_prime(self, data, k, segment):
        # d = q * P with q <= k and P prime above sqrt(d_max): no base
        # prime divides d, and P is found once q is stripped
        P = data.draw(st.integers(max(k + 1, 40), 3000).filter(is_prime))
        q = data.draw(st.integers(1, k))
        d_max = data.draw(st.integers(q * P, min(P * P - 1, q * P + 200)))
        d_min = data.draw(st.integers(q * P - 200, q * P))
        check_scan(d_min, d_max, k, segment)

    @settings(max_examples=30, deadline=None)
    @given(
        edge=st.integers(1, 40),
        offset=st.integers(-3, 3),
        k=st.integers(1, 6),
        segment=st.sampled_from((7, 64, 100)),
    )
    def test_segment_edges(self, edge, offset, k, segment):
        # ranges that start, end or turn one degree off a segment boundary
        lo = 2 * k + 1
        at = lo + edge * segment + offset
        check_scan(lo, at, k, segment)
        check_scan(at, at, k, segment)
        check_scan(at, at + segment, k, segment)


class TestMordell:
    def test_table(self):
        cands = mordell_candidates(100)
        assert [(m.x, m.y, m.b, m.c, m.d) for m in cands] == MORDELL_TABLE

    def test_empty_below_two(self):
        assert mordell_candidates(1) == []

    @pytest.mark.parametrize("x_max", range(4))
    def test_tiny_ranges_match_the_loop(self, x_max):
        assert mordell_candidates(x_max) == loop_mordell(x_max)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 50_000))
    @example(50_000)
    def test_sieve_matches_the_loop(self, x_max):
        # the residue-class sieve leaves every solution to the exact test
        assert mordell_candidates(x_max) == loop_mordell(x_max)

    def test_peak_memory_per_x(self):
        # one (B, C) pair's marks at a time, and no buffer of their size
        # beside them: two pairs' marks and a copy took 3 bytes an X
        x_max = 2 * 10**6
        tracemalloc.start()
        try:
            cands = mordell_candidates(x_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x_max
        assert [(m.x, m.y, m.b, m.c, m.d) for m in cands] == MORDELL_TABLE

    def test_invariants(self):
        for m in mordell_candidates(200):
            assert m.holds()
            assert m.b * m.y**2 == m.c * m.x**3 + 1

    def test_exceptions_appear_in_sieve(self):
        # every k = 3 exception in range must be a sieve degree
        sieve_degrees = {m.d for m in mordell_candidates(1000)}
        for d in scan_exceptions(7, 5000, 3):
            assert d in sieve_degrees


class TestConjecture:
    def test_examples(self):
        assert conjecture_check(27, 3) is None
        w = conjecture_check(11, 3)
        assert w is not None and w.p == 11 and w.r == 0
        w = conjecture_check(51, 3)
        assert w is not None and w.p == 17 and w.r == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            conjecture_check(8, 3)

    def test_witness_divides_product(self):
        for n in range(9, 120):
            w = conjecture_check(n, 3)
            if w is None:
                assert n == 27
                continue
            delta = n * (n - 1) * (n - 2) * (n - 3)
            assert delta % w.p == 0
            assert (n - w.r) % w.p == 0
            assert dict(factor(n - w.r))[w.p] == w.e
