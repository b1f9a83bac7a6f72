import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import islice
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import InProcessPool
from oracles import (brute_tn, interval_rows, is_square, largest_prime_factor,
                     square_by_product, tagged_sweep, tn_row, tn_without_jump, trial_factor,
                     verify_by_supports)
from tnlab.errors import CapExceeded, DomainError, RangeError
from tnlab import sieve, tn
from tnlab.constructor import construct_curve_point
from tnlab.distribution import conjecture_scan, distribution_table
from tnlab.gf2 import kernel_masks, mask_bits
from tnlab.intervals import check_interval_identity
from tnlab.sieve import (WINDOW_BYTES, WINDOW_VALUE_CEILING, SpfTable, build_spf_table,
                         parity_windows, primes_through, primes_up_to, row_bits, split_rows)
from tnlab.tn import (ParitySupplier, TnResult, compute_tn, large_prime_shortcut,
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


def test_a_square_reads_no_sieve_window_however_large(monkeypatch):
    # a square answers before any window or prime is read: P+(2^60) would
    # sieve the primes up to 2^30, and 4^40 lies past the window ceiling
    def no_sieve(*args):
        raise AssertionError("a square read the sieve")

    monkeypatch.setattr(tn, "parity_windows", no_sieve)
    monkeypatch.setattr(sieve, "parity_windows", no_sieve)
    monkeypatch.setattr(tn, "primes_through", no_sieve)
    for n in (2 ** 60, 10 ** 18, (2 ** 40 + 1) ** 2, 4 ** 40):
        assert compute_tn(n) == TnResult(n, 0, ())
        assert compute_tn(n, cap=1, use_shortcut=False) == TnResult(n, 0, ())


def test_a_search_is_sized_by_its_own_limit(monkeypatch):
    # P+(n) for the shortcut is trial-divided, so a shortcut row without
    # witness reads no window at all, and a search sieves n, ..., n+cap
    # under isqrt(n + cap), whatever a shortcut row of the same n would
    # have searched to
    seen = []
    windows = tn.parity_windows

    def recording(a, b, bound):
        seen.append((a, b, bound))
        return windows(a, b, bound)

    monkeypatch.setattr(tn, "parity_windows", recording)
    monkeypatch.setattr(sieve, "parity_windows", recording)
    kinds = set()
    for n in range(10 ** 12 + 1, 10 ** 12 + 5):
        seen.clear()
        try:
            kind = compute_tn(n, cap=50, include_witness=False).shortcut_used
        except CapExceeded:
            kind = "capped"
        kinds.add(kind)
        searched = [] if kind is True else [(n, n + 51, isqrt(n + 50))]
        assert seen == searched
    assert kinds == {True, "capped"}
    n = 10 ** 12 + 3
    seen.clear()
    with pytest.raises(CapExceeded):
        compute_tn(n, cap=50, use_shortcut=False)
    assert seen == [(n, n + 51, isqrt(n + 50))]


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


def _prime_at_most(m: int) -> int:
    while trial_factor(m) != [(m, 1)]:
        m -= 1
    return m


def test_shortcut_follows_the_oracle_rule():
    # t = P+(n) exactly when (P+(n) - 1)^2 > 2n, for non-squares n > 1;
    # P+ is known by construction. Semiprimes near 10^12 sit on both sides
    # of q = 2p, where the rule turns
    cases = [(1, 1), (2, 2), (3, 3), (5, 5), (49, 7), (2 ** 39, 2), (3 ** 25, 3),
             (10 ** 12, 5), (999983 ** 2, 999983), (1000003, 1000003),
             (999999999989, 999999999989), (1000000000039, 1000000000039),
             (999983 * 1000003, 1000003)]
    p = _prime_at_most(707106)
    edge = [(p * q, q) for q in (_prime_at_most(2 * p), _prime_at_most(2 * p + 40))]
    cases += edge + [(1009 * q, q) for q in (_prime_at_most(10 ** 12 // 1009),
                                             _prime_at_most(10 ** 9))]
    for n, p_plus in cases:
        expect = p_plus if not is_square(n) and n > 1 and (p_plus - 1) ** 2 > 2 * n else None
        assert large_prime_shortcut(n) == expect
    assert [large_prime_shortcut(n) is None for n, _ in edge] == [True, False]
    # P+ is read only where windows read it, below their ceiling
    with pytest.raises(RangeError, match="below"):
        large_prime_shortcut(WINDOW_VALUE_CEILING + 1)


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


# n = 2p with the prime p = 999983: n + p = 3p, and n + 4538 = 6 * 578^2
_P = 999983


@given(st.integers(min_value=1, max_value=10 ** 6),
       st.lists(st.integers(min_value=1, max_value=3000), max_size=12, unique=True))
@settings(max_examples=300, deadline=None)
@example(1, [])
@example(4, [])
@example(2, [])
@example(2, [1, 4])
@example(2, [1])
@example(36, [12, 39])           # 36 * 48 * 75 = 360^2, n a square
@example(36, [12])
@example(2 * _P, [4538, _P])     # 2p * 6 * 578^2 * 3p = (6 * 578 * p)^2: p twice
@example(2 * _P, [_P])           # 6 p^2: p cancels, 6 does not
def test_verify_witness_matches_the_support_oracle(n, offsets):
    witness = sorted(offsets)
    assert verify_witness(n, witness) == verify_by_supports(n, witness)


def test_verify_witness_accepts_computed_witnesses_and_certificates():
    rng = random.Random(1515)
    for n in [2, 3, 14, 400006] + [rng.randrange(2, 10 ** 6) for _ in range(40)]:
        witness = compute_tn(n).witness
        assert verify_witness(n, witness) and verify_by_supports(n, witness)
        if witness:
            # t_n is least: no subset of the offsets below it certifies n
            assert not verify_witness(n, witness[:-1]) and not verify_by_supports(n, witness[:-1])
    cert = construct_curve_point(10 ** 5, 0.5, seed=1, y=30, length=5000)
    offsets = cert.offsets + (cert.J,)
    assert verify_witness(cert.n, offsets) and verify_by_supports(cert.n, offsets)
    assert not verify_witness(cert.n, offsets[1:])


def _verifies(values) -> bool:
    """verify_witness on distinct values: the least is n, the others n + j."""
    n, *rest = sorted(values)
    return verify_witness(n, [v - n for v in rest])


# few primes, so values share them at every level of the product tree; all
# small enough for the trial-division oracle
_POOL = (2, 3, 5, 7, 11, 13, 101, 1009)


def _odd_part(v: int) -> int:
    """The product of the primes that divide v to an odd power."""
    return math.prod(p for p, e in trial_factor(v) if e & 1)


@st.composite
def pool_products(draw) -> tuple[tuple[int, ...], bool]:
    """(values, square): up to 40 distinct products of _POOL primes to
    powers up to 3, so tree levels of odd and even length, internal squares
    (p^3, 2^k) and 1. With `square` the value with the odd part of their
    product is added, or taken out when it is there already, so the
    product becomes a square."""
    factors = st.lists(st.tuples(st.sampled_from(_POOL), st.integers(1, 3)), max_size=3)
    values = {math.prod(p ** e for p, e in f) for f in draw(st.lists(factors, min_size=1,
                                                                       max_size=40))}
    square = draw(st.booleans())
    if square:
        values ^= {_odd_part(math.prod(values))}
        assume(values)
    return tuple(sorted(values)), square


# 2018 = 2 * 1009 and 3027 = 3 * 1009: the first and the last value share
# 1009 alone, which cancels only at the root of the tree (as a partner's
# large tag would); 2048 = 2^11, 2187 = 3^7 and 2197 = 13^3 hold squares
@example(((2018, 2048, 2187, 2197, 2400, 2808, 3027), True))
@example(((2018, 2048, 2187, 2197, 2400, 3027), False))
@example(((8, 18), True))                  # cancels at the first level
@example(((1,), True))
@example(((1, 2, 8), True))                # n = 1
@example(((49,), True))                    # a square n, empty witness
@example(((2,), False))
@given(pool_products())
@settings(max_examples=80, deadline=None)
def test_gcd_tree_matches_the_product_and_support_oracles(case):
    values, square = case
    n, witness = values[0], [v - values[0] for v in values[1:]]
    got = verify_witness(n, witness)
    assert got == square_by_product(n, witness) == verify_by_supports(n, witness)
    if square:
        assert got
        # dropping or adding a value that is no square breaks the square
        dropped = next((v for v in values if _odd_part(v) > 1), None)
        if dropped is not None:
            assert not _verifies(set(values) - {dropped})
        assert not _verifies(set(values) | {10009})   # a prime outside _POOL


# heights up to 10^5, where intervals of a few hundred values have kernels;
# at 10^6 a kernel needs about 2000 values
@given(st.integers(min_value=0, max_value=10 ** 5), st.integers(min_value=1, max_value=300))
@settings(max_examples=30, deadline=None)
@example(0, 60)
@example(10 ** 6, 2000)
def test_kernel_members_verify_and_one_value_more_or_less_does_not(lo, length):
    hi = lo + length
    values = range(lo + 1, hi + 1)
    non_squares = [v for v in values if not is_square(v)]
    for mask in kernel_masks(interval_rows(lo, hi)).masks():
        member = {values[b] for b in mask_bits(mask)}
        n = min(member)
        assert _verifies(member) and square_by_product(n, [v - n for v in sorted(member)[1:]])
        dropped = next((v for v in sorted(member) if not is_square(v)), None)
        if dropped is not None:
            assert not _verifies(member - {dropped})
        added = next((v for v in non_squares if v not in member), None)
        if added is not None:
            assert not _verifies(member | {added})


def test_curve_certificates_at_a_million_verify_and_not_without_their_first_offset():
    table = build_spf_table(10 ** 6)
    for c, seed in ((0.5, 0), (0.4, 1)):
        cert = construct_curve_point(10 ** 6, c, seed=seed, table=table)
        offsets = cert.all_offsets()
        assert verify_witness(cert.n, offsets) and square_by_product(cert.n, offsets)
        assert not verify_witness(cert.n, offsets[1:])
        assert not square_by_product(cert.n, offsets[1:])


def test_verify_witness_malformed(supplier):
    with pytest.raises(DomainError):
        verify_witness(2, [4, 1], supplier)
    with pytest.raises(DomainError):
        verify_witness(2, [0, 1], supplier)


@pytest.mark.parametrize("n, inserts", [
    (751435, 316),  # 5 * 150287: its small basis is full only after 1,297 insertions
    (7297, 110),    # a prime: its small basis fills pivot 0, the rank of 2, last, at offset 109
])
def test_partner_first_search_inserts_exactly_its_witness_but_one(monkeypatch, n, inserts):
    # a shortcut row searches to t = P+(n) = q, and only the partner n + q
    # carries q: its target starts as v_n XOR v_{n+q} and goes in first, and
    # the search stops at the first insertion that depends on it, the
    # witness's last offset below q. The partner's vector comes from its
    # cofactor, so the partner is never sieved
    inserted = []
    sieved = []
    windows = tn.parity_windows

    def counting_windows(a, b, bound):
        for window in windows(a, b, bound):
            sieved.append((window[0], window[0] + len(window[1])))
            yield window

    class CountingBasis(tn.SplitBasis):
        def insert(self, q, bits):
            inserted.append(q)
            return super().insert(q, bits)

    monkeypatch.setattr(tn, "SplitBasis", CountingBasis)
    monkeypatch.setattr(tn, "parity_windows", counting_windows)
    monkeypatch.setattr(sieve, "parity_windows", counting_windows)
    r = compute_tn(n)
    p = largest_prime_factor(n)
    assert (r.t, r.shortcut_used) == (p, True)
    assert len(inserted) == r.witness[-2] + 1 == inserts
    assert sum(end - start for start, end in sieved) < 5000
    assert not any(start <= n + p < end for start, end in sieved)
    assert r == tn_without_jump(n)


def _prime_at_least(m):
    while (m % primes_through(isqrt(m)) == 0).any():
        m += 1
    return m


@st.composite
def _jumps(draw):
    """(n, q, B) with n = k q < 2^40 for a prime q > B >= isqrt(n + q)."""
    bits = draw(st.integers(min_value=2, max_value=39))
    q = _prime_at_least(draw(st.integers(min_value=max(3, 1 << (bits - 1)), max_value=1 << bits)))
    n = q * draw(st.integers(min_value=1, max_value=min(q - 2, ((1 << 40) - 1) // q)))
    low = isqrt(n + q)
    return n, q, draw(st.integers(min_value=low, max_value=min(q - 1, low + 5000)))


@given(_jumps())
@settings(max_examples=150, deadline=None)
@example((1009 * 1006, 1009, 1007))                # n + q = (B + 1)^2 - 1, cofactor B
@example((999983 * 999980, 999983, 999981))        # the same near 10^12
@example((999983, 999983, isqrt(2 * 999983)))      # a prime n: cofactor 2
@example((1000003, 1000003, 1000002))              # a prime n under the largest bound
@example((1009 * 24, 1009, isqrt(1009 * 25)))      # a square cofactor: no rank bits
def test_partner_of_a_jump_matches_the_sieve(case):
    # the partner n + q = q (n/q + 1) that a search's target starts with,
    # made from its cofactor, is the row the sieve gives for n + q under
    # the same bound
    n, q, bound = case
    assert bound < q and isqrt(n + q) <= bound and n % q == 0
    [(_, large, words, _)] = parity_windows(n + q, n + q + 1, bound)
    assert tn._partner(n, q, primes_through(bound)) == (int(large[0]), row_bits(words)[0])


@st.composite
def _run_reads(draw):
    """(a, b, reads): a run of a, ..., b-1 and reads (start, count) of it by
    offset from a, with non-decreasing starts: repeats, starts among the
    rows read, and starts past every row read."""
    a = draw(st.one_of(st.integers(min_value=1, max_value=10 ** 4),
                       st.integers(min_value=10 ** 9, max_value=10 ** 9 + 10 ** 4)))
    length = draw(st.integers(min_value=1, max_value=3000))
    reads, start, end = [], 0, 0  # end: one past every row read
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        start = draw(st.one_of(st.just(start), st.integers(min_value=start, max_value=end),
                               st.integers(min_value=end + 1, max_value=end + 1500)))
        if start >= length:
            break
        reads.append((start, draw(st.integers(min_value=1, max_value=min(400, length - start)))))
        end = max(end, start + reads[-1][1])
    return a, a + length, reads


@given(_run_reads())
@settings(max_examples=150, deadline=None)
@example((1, 3000, [(0, 70), (75, 10)]))            # past every row read, five never read
@example((10 ** 6, 10 ** 6 + 3000, [(0, 64), (0, 65), (1, 200), (201, 1), (1500, 400)]))
@example((10 ** 9, 10 ** 9 + 100, [(5, 1), (5, 1), (6, 94)]))
def test_run_rows_are_the_stream_from_each_start(case):
    # a witnessed scan's run serves each search the split vectors of its
    # n, n+1, ..., for non-decreasing n: exactly the rows split_rows gives
    # from n, whether n repeats, lies among the rows held, or lies past
    # every row read, with rows between never read
    a, b, reads = case
    stream = list(split_rows(a, b, isqrt(b - 1)))
    run = tn._Run(a, b)
    for start, k in reads:
        assert list(islice(run.rows(a + start), k)) == stream[start:start + k], (start, k)


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
    # the witnessed scan takes its t from the same sweep
    with pytest.raises(AssertionError, match="n = 14 closes at offset 7, not at t = 8"):
        scan_tn(2, 30, include_witness=True)


@pytest.mark.parametrize("n, shift, message", [
    (10, 1, "n = 10 closes at offset 8, not at t = 9"),
    (10, -1, "n = 10 is still open at offset 7, not closed at t = 7"),
    # a shortcut row that closes at 2n = 58, after the sweep has stopped
    (29, 1, "n = 29 closes at offset 29, not at t = 30"),
    (29, -1, "n = 29 is still open at offset 28, not closed at t = 28"),
])
@pytest.mark.parametrize("workers", [1, 2])
def test_witnessed_scan_searches_to_exactly_the_sweeps_t(monkeypatch, n, shift, message, workers):
    # a witnessed scan takes t from its chunk's sweep and searches each row
    # to exactly that t: a t too large closes early, one too small runs
    # out, and either is an error, never a capped row
    sweep = tn._sweep

    def wrong_t(lo, hi, cap, use_shortcut):
        ts, shortcut, p_plus = sweep(lo, hi, cap, use_shortcut)
        ts[n - lo] += shift
        return ts, shortcut, p_plus

    monkeypatch.setattr(tn, "_sweep", wrong_t)
    with pytest.raises(AssertionError, match=message):
        scan_tn(2, 30, include_witness=True, workers=workers)


@pytest.mark.parametrize("lo, hi, cap", [
    (2, 3000, None), (2, 10 ** 5, None), (2, 10 ** 5, 30), (10 ** 6, 10 ** 6 + 500, 20),
])
def test_sweep_stops_pulling_windows_once_no_row_waits(monkeypatch, lo, hi, cap):
    _check_sweep_stop(monkeypatch, lo, hi, cap, True)


def test_sweep_without_shortcut_stops_within_a_block_of_its_last_close(monkeypatch):
    # the primes close at 2p, in tail windows far longer than a block
    _check_sweep_stop(monkeypatch, 2, 10 ** 5, None, False)


def _check_sweep_stop(monkeypatch, lo, hi, cap, use_shortcut):
    # Without a cap the sweep may run to 4 hi, yet it must stop where its
    # last open row closes: the largest n + t_n over the rows it searched.
    # It pulls no window past that value, and inserts no block of rows that
    # starts past it or past hi, the last row it classifies, nor any row a
    # block or more past it. Squares and shortcut rows do not count, since
    # their t is known before the sweep and may lie far out. With a cap the
    # sweep never passes hi + cap.
    starts = []
    first_inserted = []
    last_inserted = []
    windows = tn.parity_windows

    def recorded_windows(a, b, bound):
        for window in windows(a, b, bound):
            starts.append(window[0])
            yield window

    class RecordedBasis(tn.SweepBasis):
        def insert(self, indices, starts, bits):
            first_inserted.extend(indices[:1])
            last_inserted.extend(indices[-1:])
            return super().insert(indices, starts, bits)

    monkeypatch.setattr(tn, "parity_windows", recorded_windows)
    monkeypatch.setattr(tn, "SweepBasis", RecordedBasis)
    ts, shortcut = scan_t(lo, hi, cap, use_shortcut)
    if cap is None:
        last_close = max(n + t for n, t, s in zip(range(lo, hi + 1), ts, shortcut)
                         if t > 0 and not s)
        assert starts[-1] <= last_close
        assert first_inserted[-1] <= max(last_close, hi)
        assert last_inserted[-1] < max(last_close, hi) + tn._SWEEP_BLOCK
        assert len(starts) >= 2  # a run of one window would show nothing
    else:
        assert starts[-1] <= hi + cap


# the sweep's checks are no assert statements: under python -O, a shortcut
# row that closes off its t still raises in the sweep, and a witnessed
# scan whose t is off still raises in its search
OPTIMIZED_SWEEP_CHILD = """
from tnlab import tn
assert False, "asserts must be stripped here"
windows, sweep = tn.parity_windows, tn._sweep


def wrong_p_plus(a, b, bound):
    for start, large, words, p_plus in windows(a, b, bound):
        p_plus = p_plus.copy()
        if start <= 14 < start + len(p_plus):
            p_plus[14 - start] = 8
        yield start, large, words, p_plus


def wrong_t(lo, hi, cap, use_shortcut):
    ts, shortcut, p_plus = sweep(lo, hi, cap, use_shortcut)
    ts[10 - lo] += 1
    return ts, shortcut, p_plus


for name, patch, include_witness in (("parity_windows", wrong_p_plus, False),
                                     ("parity_windows", wrong_p_plus, True),
                                     ("_sweep", wrong_t, True)):
    setattr(tn, name, patch)
    try:
        tn.scan_tn(2, 30, include_witness=include_witness)
    except AssertionError as e:
        print(e)
    tn.parity_windows, tn._sweep = windows, sweep
"""


def test_sweep_checks_survive_python_O():
    src = str(Path(tn.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SWEEP_CHILD],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["n = 14 closes at offset 7, not at t = 8"] * 2 + \
        ["n = 10 closes at offset 8, not at t = 9"]


@st.composite
def sweep_cases(draw):
    """(lo, hi, cap, use_shortcut) with 1 <= lo <= hi <= 10^9 and at most
    3000 rows. Without the shortcut and without a cap a prime n closes only
    at 2n, so the sweep runs to about 2 hi: such ranges stay below 2*10^4."""
    use_shortcut = draw(st.booleans())
    cap = draw(st.none() | st.integers(min_value=1, max_value=50))
    length = draw(st.integers(min_value=1, max_value=3000))
    top = 10 ** 9 if use_shortcut or cap is not None else 20000
    lo = draw(st.integers(min_value=1, max_value=top - length + 1)
              | st.integers(min_value=max(1, top - 5000), max_value=top - length + 1))
    return lo, lo + length - 1, cap, use_shortcut


@given(sweep_cases())
@settings(max_examples=60, deadline=None)
@example((2, 3000, None, True))
@example((1, 1, None, False))
@example((2, 3000, None, False))
@example((10 ** 9 - 2999, 10 ** 9, None, True))
@example((10 ** 9 - 2999, 10 ** 9, 1, False))
@example((10 ** 6, 10 ** 6 + 2999, 50, True))
def test_sweep_matches_the_tagged_reference(case):
    # the folded sweep, a window of rows per insert and no large rows,
    # against the sweep as it was: every value's split vector inserted one
    # at a time into a basis with a dict of large rows
    ts, shortcut, p_plus = tn._sweep(*case)
    expected_ts, expected_shortcut, expected_p_plus = tagged_sweep(*case)
    assert ts.tolist() == expected_ts
    assert shortcut.tolist() == expected_shortcut
    assert np.array_equal(p_plus, expected_p_plus)


def test_scan_cap_below_one_raises_only_for_a_search(supplier):
    # as in compute_tn: squares need no search, so no cap applies to them
    assert scan_tn(1, 1, cap=0, supplier=supplier) == [TnResult(1, 0, ())]
    with pytest.raises(RangeError, match="cap must be >= 1"):
        scan_tn(2, 3, cap=0, supplier=supplier)
    # a witness needs a search for every row that is not a square,
    # shortcut rows such as 7 included
    assert scan_tn(4, 4, cap=0, include_witness=True) == [TnResult(4, 0, ())]
    for lo, hi in ((7, 7), (4, 9)):
        with pytest.raises(RangeError, match="cap must be >= 1"):
            scan_tn(lo, hi, cap=0, include_witness=True)


class CountingSupplier(ParitySupplier):
    """Counts every request made of it."""

    def __init__(self, table):
        super().__init__(table)
        self.calls = Counter()

    def support(self, m):
        self.calls["support"] += 1
        return super().support(m)

    def p_plus(self, m):
        self.calls["p_plus"] += 1
        return super().p_plus(m)


def test_scan_without_witness_reads_sieve_windows_not_the_supplier(table):
    # the supplier serves no vectors; scans read vectors and P+ from sieve
    # windows, and a search asks the supplier for P+(n) only, once, for
    # the shortcut
    assert not any(hasattr(ParitySupplier, name) for name in ("pair", "split", "ranks"))
    counting = CountingSupplier(table)
    rows = scan_tn(2, 3000, supplier=counting)
    assert rows == scan_tn(2, 3000, supplier=ParitySupplier(table))
    witnessed = scan_tn(2, 40, include_witness=True, supplier=counting)
    assert not counting.calls
    assert witnessed == [tn_row(n, None, True, True, ParitySupplier(table)) for n in range(2, 41)]
    assert compute_tn(14, supplier=counting).t == 7
    assert compute_tn(2, supplier=counting).t == 4
    assert counting.calls == Counter(p_plus=2)
    assert compute_tn(3, use_shortcut=False, supplier=counting).t == 5
    assert counting.calls == Counter(p_plus=2)


def _split_by_trial_division(m, bound, rank):
    odd = [p for p, e in trial_factor(m) if e & 1]
    q = odd[-1] if odd and odd[-1] > bound else 0
    return q, sum(1 << rank[p] for p in odd if p != q)


def test_supplier_matches_trial_division_at_block_edges():
    # windows start at 1024 rows and double: check the first and last row
    # of every window of runs from m = 1 and up to 2^30, under isqrt of
    # their last value and under a larger bound; then one-value windows
    # and the supplier's P+ on single values up to 2^30
    rank = {p: r for r, p in enumerate(primes_up_to(1 << 16))}
    for a in (1, 977 * 1024 - 1, (1 << 30) - 4000):
        b = a + 4000  # windows of 1024, 2048 and 928 rows
        for bound in (isqrt(b - 1), isqrt(b - 1) + 1000):
            edges = 0
            for start, large, words, p_plus in parity_windows(a, b, bound):
                bits = row_bits(words)
                for i in (0, len(large) - 1):
                    m = start + i
                    assert (int(large[i]), bits[i]) == _split_by_trial_division(m, bound, rank)
                    assert p_plus[i] == largest_prime_factor(m)
                    edges += 1
            assert edges == 6
    rng = random.Random(7)
    ms = [1, 2, 3, 4] + [m for k in (1, 2, 3, 977, 1 << 20) for m in (k * 1024 - 1, k * 1024)]
    ms += [rng.randrange(1, 1 << 30) for _ in range(40)]
    supplier = ParitySupplier()
    for m in ms:
        for bound in (isqrt(m), isqrt(m) + 1000):
            [(start, large, words, p_plus)] = parity_windows(m, m + 1, bound)
            assert (int(large[0]), row_bits(words)[0]) == _split_by_trial_division(m, bound, rank)
        assert supplier.p_plus(m) == p_plus[0] == largest_prime_factor(m)


def test_no_search_bound_passes_isqrt_4n_whatever_the_cap(monkeypatch):
    # t_n <= 3n, since n * 4n = (2n)^2, so a cap past 3n changes no row and
    # no bound: a bound taken from a cap of 10^18 would sieve the primes up
    # to 10^9. Every search and scan reads sieve windows, which are
    # guarded, so a bound past isqrt(4n) fails here at once instead of
    # sieving.
    lo, hi = 10 ** 6, 10 ** 6 + 50
    ceiling = isqrt(4 * hi)
    seen = []
    windows = tn.parity_windows

    def guarded_windows(a, b, bound, *rest):
        seen.append(bound)
        assert bound <= ceiling, f"bound {bound} is past isqrt(4n) = {ceiling}"
        return windows(a, b, bound, *rest)

    monkeypatch.setattr(tn, "parity_windows", guarded_windows)
    monkeypatch.setattr(sieve, "parity_windows", guarded_windows)
    ts, shortcut = scan_t(lo, hi, cap=10 ** 18)
    assert (ts, shortcut) == scan_t(lo, hi)
    supplier = ParitySupplier()
    rows = [compute_tn(n, cap=10 ** 18, include_witness=False, supplier=supplier)
            for n in range(lo, hi + 1)]
    assert [r.t for r in rows] == ts and [r.shortcut_used for r in rows] == shortcut
    searched = [n for n, s in zip(range(lo, hi + 1), shortcut) if not s][:4]
    for n in searched:
        assert compute_tn(n, cap=10 ** 18, supplier=supplier) == compute_tn(n, supplier=supplier)
    assert scan_tn(lo, hi, cap=10 ** 18, include_witness=True) == \
        [compute_tn(n, supplier=supplier) for n in range(lo, hi + 1)]
    assert seen and max(seen) == ceiling


def test_a_supplier_never_builds_its_table_p_plus_array(monkeypatch, table):
    # a supplier reads nothing of the table it is given; P+ for the
    # shortcut and an interval's smooth count come from the sieve. A table
    # is its P+ array, built on first read at 8 bytes per entry: reading it
    # would take 13-24 ms and 8.4 MB at 2^20, about a fifth of the peak RSS
    # of the bench's witness and identities workloads, which pass
    # suppliers over a 2^20 table
    def no_p_plus_array(self):
        raise AssertionError("a table P+ array was built")

    monkeypatch.setattr(SpfTable, "largest_prime_factors", no_p_plus_array)
    supplier = ParitySupplier(table)
    # a shortcut row (t = 20011) and searched rows, inside the table
    for n in (2 * 20011, 48, 1000):
        assert n + compute_tn(n, supplier=supplier).t <= table.limit
        assert compute_tn(n, include_witness=False, supplier=supplier).t is not None
    for lo, hi, mode in ((1000, 1400, "kernel"), (1, 20, "brute")):
        r = check_interval_identity(lo, hi, 30, mode=mode, supplier=supplier)
        assert r.identity_ok and r.lower_bound_ok


@pytest.fixture(scope="module")
def table_2_20():
    return build_spf_table(1 << 20)


def test_tableless_supplier_matches_a_table_supplier(table_2_20):
    # a supplier reads nothing of its table: t and the canonical witnesses
    # come from sieve windows with it or without it, also past it
    rng = random.Random(2211)
    ns = [rng.randrange(2, 1 << 21) for _ in range(40)] + [(1 << 20) - 7, (1 << 20) + 3]
    bare, tabled = ParitySupplier(), ParitySupplier(table_2_20)
    for n in ns:
        row = tn_row(n, 200, False, True, bare)
        assert row == tn_row(n, 200, False, True, tabled)
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
    # the same scan once untraced first, so that the peak below measures the
    # window, not the first build of the prime array and the power table
    scan_tn(lo, hi, cap=cap)
    tracemalloc.start()
    try:
        rows = scan_tn(lo, hi, cap=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * WINDOW_BYTES
    small = ParitySupplier(build_spf_table(1 << 12))
    assert rows == [tn_row(n, cap, True, False, small) for n in range(lo, hi + 1)]


def test_witnessed_scan_memory_stays_under_its_stated_peak():
    # A witnessed scan keeps one run of sieved values from its current n
    # on, not the range, and only as far as its searches read: to where
    # their targets reduce to zero, since a partner comes from its
    # cofactor. Measured 1.2 MB, of which 1.0 MB is the 3999 rows returned.
    tracemalloc.start()
    try:
        rows = scan_tn(2, 4000, include_witness=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10 ** 6
    assert len(rows) == 3999 and rows[-1] == compute_tn(4000)


def test_witnessed_scan_at_height_sieves_no_partner():
    # Shortcut rows near 10^6 have partners near 2 * 10^6. A run that
    # sieved out to them held about 10^6 values: 73 MB measured when
    # partners were read from the run, against 2.7 MB from their cofactors
    # and 0.6 MB once each search starts from its partner.
    tracemalloc.start()
    try:
        rows = scan_tn(10 ** 6, 10 ** 6 + 300, include_witness=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 10 ** 6
    assert len(rows) == 301 and all(r.witness is not None for r in rows)


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
            t = tn._classify(lo, np.array(p_plus, dtype=np.int64), True)
            for n, p, got_t in zip(ns, p_plus, t.tolist()):
                square = isqrt(n) ** 2 == n
                expect_s = not square and (p - 1) ** 2 > 2 * n
                assert (got_t > 0) == expect_s
                assert got_t == (0 if square else p if expect_s else -1)


def test_scan_falls_back_to_sequential_with_warning(supplier, monkeypatch):
    import concurrent.futures
    import os

    def no_processes(*args, **kwargs):
        raise OSError("no process support")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_processes)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # 599 values cut into 3 chunks, which asks for a pool of 2
    with pytest.warns(RuntimeWarning, match="sequentially"):
        rows = scan_tn(2, 600, cap=40, include_witness=True, workers=2)
    assert rows == scan_tn(2, 600, cap=40, include_witness=True, workers=1, supplier=supplier)


# every entry point of chunk_map, on 599 or 600 values
_ENTRY_POINTS = {
    "scan": lambda workers: scan_t(2, 600, cap=40, workers=workers),
    "scan --witness": lambda workers: scan_tn(2, 600, cap=40, include_witness=True,
                                              workers=workers),
    "dist": lambda workers: distribution_table(600, [0.3, 0.5, 1.0], workers=workers),
    "conjecture": lambda workers: conjecture_scan(600, 0.5, workers=workers),
}


@pytest.mark.parametrize("workers, cores, processes", [
    (5000, 2, 2),    # bounded by the cores
    (5000, 64, 3),   # bounded by the chunks: 599 or 600 values in chunks of 256
    (2, 64, 2),      # bounded by the workers asked for
    (5000, None, 1),  # no core count known: one process, so no pool
])
def test_witnessed_scan_starts_no_more_processes_than_it_can_use(
        monkeypatch, in_process_pool, workers, cores, processes):
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    for entry, run in _ENTRY_POINTS.items():
        in_process_pool.clear()
        got = run(workers)
        assert in_process_pool == ([processes] if processes > 1 else []), entry
        assert got == run(1), entry


@given(lo=st.integers(min_value=1, max_value=30000),
       length=st.integers(min_value=0, max_value=3000),
       cap=st.sampled_from([7, 50, None]), use_shortcut=st.booleans(),
       x=st.integers(min_value=2, max_value=3000))
@settings(max_examples=25, deadline=None)
@example(lo=1, length=3000, cap=None, use_shortcut=False, x=3000)
def test_chunks_are_exact(lo, length, cap, use_shortcut, x):
    # every scan cut by chunk_map equals the one sweep of its whole range,
    # and its rendering the rendered rows: workers 2 on InProcessPool cut a
    # few thousand values into chunks of 256 in this process
    import concurrent.futures
    import os

    hi = lo + length
    ts, shortcut = (column.tolist() for column in tn._sweep(lo, hi, cap, use_shortcut)[:2])
    rows = [TnResult(n, t, w, s, c) for n, t, s, w, c in tn._t_rows(lo, ts, shortcut)]
    k = min(length + 1, 300)  # witnessed rows: two chunks at most
    witnessed = [TnResult(n, t, w, s, c)
                 for n, t, s, w, c in tn._witnessed_rows(lo, ts[:k], shortcut[:k])]
    x_ts, x_shortcut = (column.tolist() for column in tn._sweep(1, x, None, True)[:2])
    x_rows = [TnResult(n, t, w, s, c) for n, t, s, w, c in tn._t_rows(1, x_ts, x_shortcut)]
    cs = [0.3, 0.5, 0.7, 1.0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        mp.setattr(InProcessPool, "asked", [])
        mp.setattr(os, "cpu_count", lambda: 2)
        assert scan_t(lo, hi, cap, use_shortcut, workers=2) == (ts, shortcut)
        assert scan_tn(lo, hi, cap, use_shortcut, workers=2) == rows
        assert scan_tn(lo, lo + k - 1, cap, use_shortcut, include_witness=True,
                       workers=2) == witnessed
        # each chunk's job renders its own rows, one part a chunk
        for fmt in ("csv", "json"):
            parts = list(tn.scan_lines(lo, hi, cap, use_shortcut, workers=2, fmt=fmt))
            assert "".join(parts) == render_results(rows, fmt)
            assert len(parts) == len(range(lo, hi + 1, 256))
        assert "".join(tn.scan_lines(lo, lo + k - 1, cap, use_shortcut, True, 2, "json")) == \
            render_results(witnessed, "json")
        # the results path takes t from the one sweep, and P+ from p_plus_in
        assert distribution_table(x, cs, workers=2) == distribution_table(x, cs, results=x_rows)
        # one worker sweeps up to 2^15 values as one chunk
        assert conjecture_scan(x, 0.5, workers=2) == conjecture_scan(x, 0.5)


def _cut(a, b):
    return a, b


def test_chunks_are_bounded_by_the_height(monkeypatch, in_process_pool):
    # more workers never cut a chunk longer than one worker's: a process
    # holds one chunk of rows whatever the range's length. [1, 10^7] in
    # len / 16 values a chunk would cut 625,000, against 202,368
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for hi in (10 ** 6, 10 ** 7):
        in_process_pool.clear()
        chunks = list(tn.chunk_map(_cut, 1, hi, 2))
        assert in_process_pool == [2]
        assert [a for a, _ in chunks] == [1] + [b + 1 for _, b in chunks[:-1]]
        assert chunks[-1][1] == hi
        assert max(b + 1 - a for a, b in chunks) <= max(1 << 15, 64 * isqrt(hi))
    # a range of at most 8 * workers * 2^15 values is cut as before
    assert len(list(tn.chunk_map(_cut, 2, 100000, 2))) == 16


def test_a_far_jump_never_spells_out_its_partners_offset():
    # 10^8 + 7 is prime: it closes at its partner 2n, offset q = n.
    # Inserting the partner made a mask with bit q - 1, which mask_bits
    # spelled out as two strings of q characters (221 MB); a search that
    # read rows to its saturation point, 18,197 insertions, and jumped to
    # the partner took 9.2 MB; the partner-first search stops after 1,672
    # insertions (1.3 MB measured).
    n = 100000007
    tracemalloc.start()
    try:
        r = compute_tn(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 10 ** 6
    assert r.t == r.witness[-1] == n and r.shortcut_used
    assert len(r.witness) < 100


def test_a_prime_search_reads_rows_only_until_its_partner_closes_it(peak_growth_mb):
    # 10^10 + 19 is prime: t = n, and its partner 2n comes from the
    # cofactor 2. The process grew by 117 MB when the search read rows to
    # its saturation point, and by 11 MB once it stops where v_n XOR v_{2n}
    # reduces to zero, after 5,520 insertions
    growth = peak_growth_mb("from tnlab.tn import compute_tn",
                            "r = compute_tn(10000000019)\n"
                            "assert r.t == r.witness[-1] == 10000000019 and r.witness[-2] == 5520")
    assert growth < 40


@pytest.mark.parametrize("workers", [0, -3])
def test_scan_rejects_fewer_than_one_worker(workers):
    for include_witness in (True, False):
        with pytest.raises(RangeError, match="workers"):
            scan_tn(2, 80, include_witness=include_witness, workers=workers)


def test_supplier_keeps_nothing(table):
    assert vars(ParitySupplier(table)) == {}
    assert vars(ParitySupplier()) == {}


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


def test_render_no_rows():
    assert render_results([], "csv") == "n,t,shortcut_used,witness\n"
    assert render_results([], "json") == "\n"
