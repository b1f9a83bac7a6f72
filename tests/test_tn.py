import random
import tracemalloc
from collections import Counter
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_tn, is_square, largest_prime_factor, trial_factor
from tnlab.errors import CapExceeded, DomainError, RangeError
from tnlab import tn
from tnlab.sieve import WINDOW_BYTES, WINDOW_VALUE_CEILING, build_spf_table, primes_up_to
from tnlab.tn import (BLOCK_BITS, ParitySupplier, TnResult, compute_tn, large_prime_shortcut,
                      render_results, scan_t, scan_tn, verify_witness)


def test_known_small_values(supplier):
    # 2*3*6 = 6^2, 3*6*8 = 12^2, 5*8*10 = 20^2, 6*8*12 = 24^2,
    # 14*15*18*20*21 = 1260^2
    expected = {2: 4, 3: 5, 5: 5, 6: 6, 14: 7}
    for n, t in expected.items():
        r = compute_tn(n, supplier=supplier)
        assert r.t == t
        assert r.witness[-1] == t
        assert verify_witness(n, r.witness, supplier)


def test_square_fast_path(supplier):
    r = compute_tn(4, supplier=supplier)
    assert r == TnResult(4, 0, ())
    assert compute_tn(1, supplier=supplier).t == 0


def test_tn_of_8_matches_brute_oracle(supplier):
    assert brute_tn(8)[0] == 7
    assert compute_tn(8, supplier=supplier).t == 7


@given(st.integers(min_value=2, max_value=150))
@settings(max_examples=40, deadline=None)
def test_small_n_match_brute_oracle(n):
    # the exhaustive oracle is exponential in t, so it caps out at 14;
    # beyond the cap it still certifies the lower bound t_n > 14
    brute = brute_tn(n, cap=14)
    r = compute_tn(n)
    if brute is None:
        assert r.t > 14
    else:
        assert r.t == brute[0]
    if r.witness:
        assert verify_witness(n, r.witness)


def test_shortcut_examples(supplier):
    assert large_prime_shortcut(14, supplier) == 7
    assert large_prime_shortcut(10, supplier) is None
    assert large_prime_shortcut(33, supplier) == 11
    assert large_prime_shortcut(1, supplier) is None
    assert large_prime_shortcut(16, supplier) is None


def test_shortcut_consistency_range(supplier):
    for n in range(2, 400):
        p = large_prime_shortcut(n, supplier)
        if p is not None:
            assert compute_tn(n, use_shortcut=False, supplier=supplier).t == p


def test_largest_prime_lower_bound_range(supplier):
    # non-square n with P+(n)^2 not dividing n must have t_n >= P+(n)
    for n in range(2, 400):
        if is_square(n):
            continue
        p = largest_prime_factor(n)
        if n % (p * p):
            assert compute_tn(n, supplier=supplier, include_witness=False).t >= p


def test_witness_max_is_t(supplier):
    for n in range(2, 120):
        r = compute_tn(n, supplier=supplier)
        if r.t:
            assert max(r.witness) == r.t
        else:
            assert r.witness == ()


def test_verify_witness_examples(supplier):
    assert verify_witness(2, [1, 4], supplier)
    assert not verify_witness(2, [1], supplier)
    assert verify_witness(3, [3, 5], supplier)


def test_verify_witness_malformed(supplier):
    with pytest.raises(DomainError):
        verify_witness(2, [4, 1], supplier)
    with pytest.raises(DomainError):
        verify_witness(2, [0, 1], supplier)


def test_cap_exceeded_carries_state(supplier):
    with pytest.raises(CapExceeded) as exc:
        compute_tn(7, cap=3, use_shortcut=False, supplier=supplier)
    assert exc.value.n == 7
    assert exc.value.cap == 3
    assert exc.value.inserted == 3


def test_compute_tn_domain_error(supplier):
    with pytest.raises(DomainError):
        compute_tn(0, supplier=supplier)


def test_cap_ignored_when_shortcut_determines_t(supplier):
    # the shortcut pins t=7 so the witness search is bounded by a theorem
    # and the protective cap does not apply
    r = compute_tn(14, cap=3, supplier=supplier)
    assert r.t == 7 and r.witness == (1, 4, 6, 7)


def test_shortcut_skips_witness(supplier):
    r = compute_tn(14, include_witness=False, supplier=supplier)
    assert r.t == 7 and r.witness is None and r.shortcut_used


def test_scan_examples(supplier):
    rows = scan_tn(2, 6, supplier=supplier)
    assert [r.t for r in rows] == [4, 5, 0, 5, 6]
    assert [r.t for r in scan_tn(1, 1, supplier=supplier)] == [0]
    assert [r.t for r in scan_tn(8, 8, supplier=supplier)] == [7]


def test_scan_flags_capped_rows(supplier):
    rows = scan_tn(7, 7, cap=3, use_shortcut=False, supplier=supplier)
    assert rows[0].cap_exceeded and rows[0].t is None


def test_scan_workers_deterministic(supplier):
    for include_witness in (True, False):
        seq = scan_tn(2, 80, include_witness=include_witness, supplier=supplier)
        par = scan_tn(2, 80, include_witness=include_witness, workers=2)
        assert seq == par


def test_sweep_checks_shortcut_rows_that_close_inside_it(supplier, monkeypatch):
    # t_14 = P+(14) = 7; pending rows such as n = 30 keep the sweep over
    # 2..30 running past r = 21, where the window of 14 closes, so a wrong
    # shortcut value for 14 must trip the check. The sweep classifies
    # shortcut rows from the P+ of its windows: a P+ of 8 for 14 passes
    # the shortcut test, (8 - 1)^2 > 28, with t = 8.
    windows = tn.parity_windows

    def wrong_p_plus(a, b, bound):
        for start, large, words, p_plus in windows(a, b, bound):
            p_plus = p_plus.copy()
            if start <= 14 < start + len(p_plus):
                p_plus[14 - start] = 8
            yield start, large, words, p_plus

    monkeypatch.setattr(tn, "parity_windows", wrong_p_plus)
    with pytest.raises(AssertionError, match="n = 14 closes at offset 7, not at t = 8"):
        scan_tn(2, 30, supplier=supplier)


def test_scan_cap_below_one_raises_only_for_a_search(supplier):
    # as in compute_tn: squares need no search, so no cap applies to them
    assert scan_tn(1, 1, cap=0, supplier=supplier) == [TnResult(1, 0, ())]
    with pytest.raises(RangeError, match="cap must be >= 1"):
        scan_tn(2, 3, cap=0, supplier=supplier)


class CountingSupplier(ParitySupplier):
    def __init__(self, table):
        super().__init__(table)
        self.calls = Counter()

    def pair(self, m):
        self.calls["pair"] += 1
        return super().pair(m)

    def p_plus(self, m):
        self.calls["p_plus"] += 1
        return super().p_plus(m)


def test_scan_without_witness_reads_sieve_windows_not_the_supplier(table):
    counting = CountingSupplier(table)
    rows = scan_tn(2, 3000, supplier=counting)
    assert not counting.calls
    assert rows == scan_tn(2, 3000, supplier=ParitySupplier(table))
    # the counter sees the supply of a witnessed scan
    scan_tn(2, 40, include_witness=True, supplier=counting)
    assert counting.calls["pair"] and counting.calls["p_plus"]


def test_supplier_matches_trial_division_at_block_edges():
    # the supplier sieves aligned blocks of 2^BLOCK_BITS values, each under
    # isqrt of its last value: check the first and last value of blocks,
    # and m = 1, the first value of block 0, whose slot 0 is padding
    block = 1 << BLOCK_BITS
    rng = random.Random(7)
    ms = [1, 2, 3, 4] + [m for k in (1, 2, 3, 977, 1 << 20) for m in (k * block - 1, k * block)]
    ms += [rng.randrange(1, 1 << 30) for _ in range(40)]
    supplier = ParitySupplier()
    rank = {p: r for r, p in enumerate(primes_up_to(1 << 16))}
    for m in ms:
        odd = [p for p, e in trial_factor(m) if e & 1]
        top = odd[-1] if odd else 0
        rest = sum(1 << rank[p] for p in odd[:-1])
        assert supplier.pair(m) == (top, rest)
        for bound in (isqrt(m), isqrt(m) + 1000):
            small = 0 < top <= bound
            assert supplier.split(m, bound) == \
                ((0, rest | 1 << rank[top]) if small else (top, rest))
        assert supplier.p_plus(m) == largest_prime_factor(m)


def test_no_search_bound_passes_isqrt_4n_whatever_the_cap(monkeypatch):
    # t_n <= 3n, since n * 4n = (2n)^2, so a cap past 3n changes no row and
    # no bound: a bound taken from a cap of 10^18 would rank the primes up
    # to 10^9. Both supplies are guarded, so a bound past isqrt(4n) fails
    # here at once instead of sieving.
    lo, hi = 10 ** 6, 10 ** 6 + 50
    ceiling = isqrt(4 * hi)
    seen = []

    def check(bound):
        seen.append(bound)
        assert bound <= ceiling, f"bound {bound} is past isqrt(4n) = {ceiling}"

    windows, ranks = tn.parity_windows, ParitySupplier.ranks

    def guarded_windows(a, b, bound, *rest):
        check(bound)
        return windows(a, b, bound, *rest)

    def guarded_ranks(self, bound):
        check(bound)
        return ranks(self, bound)

    monkeypatch.setattr(tn, "parity_windows", guarded_windows)
    monkeypatch.setattr(ParitySupplier, "ranks", guarded_ranks)
    ts, shortcut = scan_t(lo, hi, cap=10 ** 18)
    assert (ts, shortcut) == scan_t(lo, hi)
    supplier = ParitySupplier()
    rows = [compute_tn(n, cap=10 ** 18, include_witness=False, supplier=supplier)
            for n in range(lo, hi + 1)]
    assert [r.t for r in rows] == ts and [r.shortcut_used for r in rows] == shortcut
    searched = [n for n, s in zip(range(lo, hi + 1), shortcut) if not s][:4]
    for n in searched:
        assert compute_tn(n, cap=10 ** 18, supplier=supplier) == compute_tn(n, supplier=supplier)
    assert seen and max(seen) == ceiling


@pytest.fixture(scope="module")
def table_2_20():
    return build_spf_table(1 << 20)


def test_tableless_supplier_matches_a_table_supplier(table_2_20):
    # the table serves verification only: t and the canonical witnesses
    # come from the sieve blocks with it or without it, also past it
    rng = random.Random(2211)
    ns = [rng.randrange(2, 1 << 21) for _ in range(40)] + [(1 << 20) - 7, (1 << 20) + 3]
    bare, tabled = ParitySupplier(), ParitySupplier(table_2_20)
    for n in ns:
        row = tn._tn_row(n, 200, False, True, bare)
        assert row == tn._tn_row(n, 200, False, True, tabled)
        if row.witness:
            assert verify_witness(n, row.witness, bare) and verify_witness(n, row.witness, tabled)
    for lo in (5000, (1 << 20) - 20):
        assert scan_tn(lo, lo + 40, 200, False, include_witness=True, supplier=bare) == \
            scan_tn(lo, lo + 40, 200, False, include_witness=True, supplier=tabled)


def test_sweep_window_stays_under_its_byte_cap_when_a_cap_raises_the_bound():
    # The height makes the rows wide, since t_n <= 3n keeps a large cap from
    # raising B at small n: B = isqrt(10^12 + 50 + 50) = 10^6, 78498 ranks,
    # 1227 words a row, so a window of the usual 2^16 rows would take
    # 643 MB. A window holds its words, and its rows as bytes and as ints,
    # about WINDOW_BYTES each.
    lo, hi, cap = 10 ** 12, 10 ** 12 + 50, 50
    assert isqrt(hi + cap) >= 10 ** 6
    tracemalloc.start()
    try:
        rows = scan_tn(lo, hi, cap=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * WINDOW_BYTES
    small = ParitySupplier(build_spf_table(1 << 12))
    assert rows == [tn._tn_row(n, cap, True, False, small) for n in range(lo, hi + 1)]


def test_sweep_refuses_values_past_the_window_ceiling():
    # the default offset limit of 10^7 takes the sweep past the ceiling
    with pytest.raises(RangeError, match="below"):
        scan_t(WINDOW_VALUE_CEILING - 10 ** 6, WINDOW_VALUE_CEILING - 10 ** 6 + 5)


def test_classification_is_exact_just_below_the_window_ceiling():
    # squares and the shortcut test (P+ - 1)^2 > 2n in int64, against
    # Python ints, on runs below the ceiling that hold a square n and an n
    # with 2n square (n = 2m^2). P+ is set to isqrt(2n) + d: d = 1 is the
    # edge, where the shortcut holds exactly when 2n is not a square.
    m = isqrt((WINDOW_VALUE_CEILING - 1) // 2)
    for lo in (WINDOW_VALUE_CEILING - 64, isqrt(WINDOW_VALUE_CEILING - 64) ** 2 - 32,
               2 * m * m - 32):
        ns = range(lo, lo + 64)
        assert ns[-1] < WINDOW_VALUE_CEILING
        for d in (0, 1, 2):
            p_plus = [isqrt(2 * n) + d for n in ns]
            t, shortcut = tn._classify(lo, np.array(p_plus, dtype=np.int64), True)
            for n, p, got_t, got_s in zip(ns, p_plus, t.tolist(), shortcut.tolist()):
                square = isqrt(n) ** 2 == n
                expect_s = not square and (p - 1) ** 2 > 2 * n
                assert got_s == expect_s
                assert got_t == (0 if square else p if expect_s else -1)


def test_scan_falls_back_to_sequential_with_warning(supplier, monkeypatch):
    import concurrent.futures

    def no_processes(*args, **kwargs):
        raise OSError("no process support")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_processes)
    with pytest.warns(RuntimeWarning, match="sequentially"):
        rows = scan_tn(2, 80, include_witness=True, workers=2)
    assert rows == scan_tn(2, 80, include_witness=True, workers=1, supplier=supplier)


def test_render_csv(supplier):
    rows = scan_tn(13, 14, include_witness=True, supplier=supplier)
    text = render_results(rows, "csv")
    lines = text.splitlines()
    assert lines[0] == "n,t,shortcut_used,witness"
    assert lines[1].startswith("13,13,true,")
    offsets = [int(v) for v in lines[1].split(",")[3].split(";")]
    assert verify_witness(13, offsets, supplier)
    assert lines[2] == "14,7,true,1;4;6;7"


def test_render_json(supplier):
    rows = scan_tn(4, 4, supplier=supplier)
    assert render_results(rows, "json") == (
        '{"cap_exceeded": false, "n": 4, "shortcut_used": false, '
        '"t": 0, "witness": []}\n')
