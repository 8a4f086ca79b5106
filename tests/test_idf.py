import pytest

from bicrit.arith import factor, val_p
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

    def test_parallel_matches_serial(self):
        assert scan_exceptions(7, 5000, 3, jobs=3) == scan_exceptions(7, 5000, 3)

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


class TestMordell:
    def test_table(self):
        cands = mordell_candidates(100)
        assert [(m.x, m.y, m.b, m.c, m.d) for m in cands] == MORDELL_TABLE

    def test_empty_below_two(self):
        assert mordell_candidates(1) == []

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
            assert dict(factor(n - w.r).factors)[w.p] == w.e
