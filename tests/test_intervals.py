import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (brute_square_subsets, count_tn_closed_per_n, gray_code_square_subsets,
                     interval_kernel_basis, interval_rows, split_vectors, tagged_closed_count)
from tnlab import intervals, sieve
from tnlab.errors import RangeError
from tnlab.gf2 import kernel_masks, mask_bits
from tnlab.intervals import (check_interval_identity, count_tn_closed,
                             enumerate_square_subsets)
from tnlab.sieve import smooth_in_interval


def test_count_examples():
    # from the worked t-values: t_2=4, t_3=5, t_4=0, t_5=5, t_6=6
    assert count_tn_closed(2, 6) == 1   # only n=4
    assert count_tn_closed(1, 6) == 2   # n=2 (2+4=6) and n=4
    assert count_tn_closed(4, 5) == 0   # t_5=5 puts 10 outside


@given(st.one_of(st.integers(min_value=0, max_value=3000),
                 st.integers(min_value=10 ** 6 - 3000, max_value=10 ** 6 + 3000),
                 st.integers(min_value=10 ** 9, max_value=10 ** 9 + 3000),
                 st.integers(min_value=10 ** 12, max_value=10 ** 12 + 3000)),
       st.integers(min_value=1, max_value=60))
@settings(max_examples=60, deadline=None)
@example(0, 1)
@example(0, 30)
@example(48, 1)                     # hi = 49, a square, is the only element
@example(10 ** 6 - 40, 40)          # hi = 1000^2
@example(1002001 - 1, 1)            # hi = 1001^2
@example(10 ** 6 + 17, 1)
@example(10 ** 9, 60)
@example(10 ** 12 - 60, 60)         # hi = (10^6)^2
def test_count_matches_per_n_searches(lo, length):
    # one sweep over (lo, hi] against one compute_tn search per n, capped
    # at hi - n
    hi = lo + length
    assert count_tn_closed(lo, hi) == count_tn_closed_per_n(lo, hi)


@given(st.one_of(st.integers(min_value=0, max_value=10 ** 6),
                 st.integers(min_value=0, max_value=10 ** 12)),
       st.integers(min_value=1, max_value=3000))
@settings(max_examples=40, deadline=None)
@example(0, 3000)
@example(10 ** 9 - 3000, 3000)
@example(10 ** 12 - 3000, 3000)     # hi = (10^6)^2
def test_count_matches_the_tagged_reference(lo, length):
    # the folded rows of the interval's windows from lo + 1 against the
    # sweep as it was: every value whose tag is below the length inserted
    # one at a time into a basis with a dict of large rows
    assert count_tn_closed(lo, lo + length) == tagged_closed_count(lo, lo + length)


def test_count_malformed():
    with pytest.raises(RangeError):
        count_tn_closed(6, 6)


def test_enumerate_examples(supplier):
    e = enumerate_square_subsets(2, 6, supplier=supplier)
    assert e.subsets == ((), (4,))
    assert e.count == 2

    e = enumerate_square_subsets(1, 6, supplier=supplier)
    assert e.subsets == ((), (4,), (2, 3, 6), (2, 3, 4, 6))
    assert e.count == 4

    e = enumerate_square_subsets(13, 14, supplier=supplier)
    assert e.subsets == ((),)
    assert e.count == 1


def test_enumerate_matches_multiplication_oracle(supplier):
    for lo, hi in [(1, 10), (20, 30), (47, 56), (90, 101)]:
        got = enumerate_square_subsets(lo, hi, supplier=supplier)
        assert sorted(got.subsets) == sorted(brute_square_subsets(lo, hi))


@given(st.one_of(st.integers(min_value=0, max_value=300),
                 st.integers(min_value=0, max_value=10 ** 6)),
       st.integers(min_value=1, max_value=20))
@settings(max_examples=60, deadline=None)
@example(0, 20)                     # 2^12 subsets, over 16 blocks
@example(48, 1)                     # the only element, 49, is a square
def test_enumerate_matches_the_gray_code_oracle(lo, length):
    got = enumerate_square_subsets(lo, lo + length)
    assert got.subsets == gray_code_square_subsets(lo, lo + length)
    assert got.count == len(got.subsets)


def test_brute_mode_counts_2_to_the_kernel_dimension_at_length_26(monkeypatch):
    # 2^10 blocks of 2^16 subsets; the subsets come out in ascending
    # characteristic-bitmask order, and brute mode reads no sieve window
    # and calls nothing in gf2, so it stays an independent oracle
    kernel = interval_kernel_basis(0, 26)
    for name in ("SweepBasis", "DependencyCount", "folded_rows", "parity_windows"):
        monkeypatch.setattr(intervals, name, None)
    monkeypatch.setattr(sieve, "parity_windows", None)
    brute = enumerate_square_subsets(0, 26)
    assert brute.count == len(brute.subsets) == 2 ** len(kernel) == 2 ** 17
    masks = [sum(1 << (e - 1) for e in s) for s in brute.subsets]
    assert masks == sorted(set(masks))


@given(st.one_of(st.integers(min_value=0, max_value=10 ** 6),
                 st.integers(min_value=0, max_value=10 ** 12)),
       st.integers(min_value=1, max_value=500))
@settings(max_examples=40, deadline=None)
@example(0, 500)
@example(10 ** 12 - 500, 500)       # hi = (10^6)^2
@example(10 ** 12, 1)
def test_kernel_mode_matches_the_trial_division_route(lo, length):
    # the kernel-basis oracle reads the interval's own sieve windows; trial
    # division of the same values (split_vectors) must give the same rows,
    # so the same kernel basis
    hi = lo + length
    elements = list(range(lo + 1, hi + 1))
    expected = tuple(tuple(elements[i] for i in mask_bits(mask))
                     for mask in kernel_masks(split_vectors(elements)).masks())
    assert interval_kernel_basis(lo, hi) == expected


def test_enumerate_guard(supplier):
    with pytest.raises(RangeError):
        enumerate_square_subsets(0, 31, mode="brute", supplier=supplier)
    with pytest.raises(RangeError):
        enumerate_square_subsets(2, 6, mode="bogus", supplier=supplier)
    # the library lists subsets by brute force alone; a kernel basis of an
    # interval is the tests' oracle (interval_kernel_basis)
    with pytest.raises(RangeError, match="brute mode alone"):
        enumerate_square_subsets(2, 6, mode="kernel", supplier=supplier)


def test_kernel_mode_matches_brute(supplier):
    rng = random.Random(7)
    for _ in range(25):
        lo = rng.randrange(1, 300)
        hi = lo + rng.randrange(2, 13)
        brute = enumerate_square_subsets(lo, hi, mode="brute", supplier=supplier)
        assert brute.count == 2 ** len(interval_kernel_basis(lo, hi))


def test_square_subsets_closed_under_xor(supplier):
    for lo, hi in [(1, 10), (47, 56), (120, 132)]:
        subsets = {frozenset(s) for s in
                   enumerate_square_subsets(lo, hi, supplier=supplier).subsets}
        for a in subsets:
            for b in subsets:
                assert a ^ b in subsets


def test_identity_examples(supplier):
    r = check_interval_identity(2, 6, 5, supplier=supplier)
    assert (r.closed_count, r.square_subset_count) == (1, 2)
    assert r.identity_ok and r.lower_bound_ok

    r = check_interval_identity(1, 6, 3, supplier=supplier)
    assert (r.closed_count, r.square_subset_count) == (2, 4)
    assert r.smooth_count == 4 and r.pi_y == 2
    assert r.closed_count == r.smooth_count - r.pi_y  # equality case
    assert r.identity_ok and r.lower_bound_ok

    r = check_interval_identity(13, 14, 5, supplier=supplier)
    assert (r.closed_count, r.square_subset_count) == (0, 1)
    assert r.identity_ok


def test_identity_random_intervals(supplier):
    rng = random.Random(20250809)
    for _ in range(30):
        lo = rng.randrange(1, 200)
        hi = lo + rng.randrange(2, 13)
        y = rng.choice([5, 7, 11])
        r = check_interval_identity(lo, hi, y, supplier=supplier)
        assert r.identity_ok, (lo, hi)
        assert r.lower_bound_ok, (lo, hi, y)
    # hi a square, down to (48, 49], where n = hi is the only element
    for lo, hi in [(40, 49), (110, 121), (48, 49)]:
        r = check_interval_identity(lo, hi, 7, supplier=supplier)
        assert r.identity_ok and r.lower_bound_ok, (lo, hi)
        assert type(r.closed_count) is int


@given(st.one_of(st.tuples(st.integers(min_value=0, max_value=5000),
                           st.integers(min_value=1, max_value=3000)),
                 st.tuples(st.integers(min_value=0, max_value=10 ** 12),
                           st.integers(min_value=1, max_value=1500))),
       st.sampled_from([1, 2, 7, 30, 1000]))
@settings(max_examples=40, deadline=None)
@example((0, 3), 1)                 # B = 1: no small pivots at all
@example((0, 3000), 7)              # saturated after a few dozen values
@example((10 ** 12 - 1500, 1500), 1000)  # hi = (10^6)^2
def test_one_pass_counts_match_their_own_routes(interval, y):
    # the check's one window pass against three routes of their own: the
    # kernel dimension against the masks of gf2.kernel_masks over a row
    # stream of the same interval, and against the sweep's closed count;
    # the smooth count against smooth_in_interval's P+ read. Short
    # intervals at low heights run long past the saturation of the small
    # basis, where the dimension is counted from the tags alone
    lo, length = interval
    hi = lo + length
    report = check_interval_identity(lo, hi, y, "kernel")
    dimension = len(kernel_masks(interval_rows(lo, hi)))
    assert report.square_subset_count == 2 ** dimension
    assert dimension == count_tn_closed(lo, hi) == report.closed_count
    assert report.smooth_count == len(smooth_in_interval(lo, hi, y))


@given(st.one_of(st.integers(min_value=0, max_value=300),
                 st.integers(min_value=0, max_value=10 ** 9)),
       st.integers(min_value=1, max_value=14), st.sampled_from([1, 7, 30]))
@settings(max_examples=30, deadline=None)
@example(0, 14, 7)
@example(48, 1, 7)                  # the only element, 49, is a square
def test_brute_and_kernel_reports_agree(lo, length, y):
    hi = lo + length
    assert check_interval_identity(lo, hi, y, "brute") == check_interval_identity(lo, hi, y,
                                                                                  "kernel")


def test_identity_ok_catches_a_wrong_rule_in_the_closed_count(monkeypatch):
    # the closed count reads folded rows under the partner rule, apart from
    # the dimension's rows: skipping r when r + q > hi loses the closes of
    # the values whose partner r - q lies in the interval
    lo, hi = 10 ** 6, 10 ** 6 + 3000
    assert check_interval_identity(lo, hi, 30, "kernel").identity_ok
    closed = count_tn_closed(lo, hi)
    folded_rows = intervals.folded_rows

    def wrong_rule(window, first):
        rows = zip(*folded_rows(window, first))
        return tuple(map(list, zip(*[(r, s, b) for r, s, b in rows if 2 * r - s <= hi]))) \
            or ([], [], [])

    monkeypatch.setattr(intervals, "folded_rows", wrong_rule)
    report = check_interval_identity(lo, hi, 30, "kernel")
    assert report.closed_count < closed
    assert not report.identity_ok


def test_identity_ok_catches_a_wrong_rule_in_the_dimension(monkeypatch):
    # the dimension reads the raw rows under its own rule, q < hi - lo:
    # keeping only q < (hi - lo) / 2 drops the pairs r, r + q of the larger
    # tags, each a dependency once the small rows are full
    lo, hi = 10 ** 6, 10 ** 6 + 3000
    assert check_interval_identity(lo, hi, 30, "kernel").identity_ok
    monkeypatch.setattr(intervals, "_shared_rows",
                        lambda large, length: np.flatnonzero(large < length // 2))
    report = check_interval_identity(lo, hi, 30, "kernel")
    assert report.closed_count == count_tn_closed(lo, hi)
    assert not report.identity_ok


@pytest.mark.parametrize("lo, hi, y, mode, message", [
    (10 ** 9, 10 ** 9 + 200000, 0, "kernel", "smoothness bound must be >= 1"),
    (10 ** 9, 10 ** 9 + 200000, 5, "brute", "exceeds brute guard"),
    (10 ** 9, 10 ** 9 + 200000, 5, "bogus", "unknown mode"),
    (10 ** 9, 10 ** 9, 5, "kernel", "need 0 <= lo < hi"),
])
def test_identity_arguments_are_checked_before_any_count(monkeypatch, lo, hi, y, mode, message):
    # every argument is refused before anything is counted: the kernel of
    # 200,000 values near 10^9 takes minutes and more than a GB
    def counted(*args):
        raise AssertionError("counted before checking its arguments")

    for name in ("_interval_counts", "enumerate_square_subsets", "parity_windows", "folded_rows"):
        monkeypatch.setattr(intervals, name, counted)
    with pytest.raises(RangeError, match=message):
        check_interval_identity(lo, hi, y, mode)
