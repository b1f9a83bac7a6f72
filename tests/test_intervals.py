import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_square_subsets, count_tn_closed_per_n
from tnlab.errors import RangeError
from tnlab.intervals import (check_interval_identity, count_tn_closed,
                             enumerate_square_subsets)


def test_count_examples(supplier):
    # from the worked t-values: t_2=4, t_3=5, t_4=0, t_5=5, t_6=6
    assert count_tn_closed(2, 6, supplier) == 1   # only n=4
    assert count_tn_closed(1, 6, supplier) == 2   # n=2 (2+4=6) and n=4
    assert count_tn_closed(4, 5, supplier) == 0   # t_5=5 puts 10 outside


@given(st.one_of(st.integers(min_value=0, max_value=3000),
                 st.integers(min_value=10 ** 6 - 3000, max_value=10 ** 6 + 3000)),
       st.integers(min_value=1, max_value=60))
@settings(max_examples=60, deadline=None)
@example(0, 1)
@example(0, 30)
@example(48, 1)                     # hi = 49, a square, is the only element
@example(10 ** 6 - 40, 40)          # hi = 1000^2
@example(1002001 - 1, 1)            # hi = 1001^2
@example(10 ** 6 + 17, 1)
def test_count_matches_per_n_searches(lo, length):
    # one sweep over (lo, hi) against one capped compute_tn search per n
    hi = lo + length
    assert count_tn_closed(lo, hi) == count_tn_closed_per_n(lo, hi)


def test_count_malformed(supplier):
    with pytest.raises(RangeError):
        count_tn_closed(6, 6, supplier)


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


def test_enumerate_guard(supplier):
    with pytest.raises(RangeError):
        enumerate_square_subsets(0, 31, mode="brute", supplier=supplier)
    with pytest.raises(RangeError):
        enumerate_square_subsets(2, 6, mode="bogus", supplier=supplier)


def test_kernel_mode_matches_brute(supplier):
    rng = random.Random(7)
    for _ in range(25):
        lo = rng.randrange(1, 300)
        hi = lo + rng.randrange(2, 13)
        brute = enumerate_square_subsets(lo, hi, mode="brute", supplier=supplier)
        kern = enumerate_square_subsets(lo, hi, mode="kernel", supplier=supplier)
        assert brute.count == kern.count
        assert kern.count == 2 ** len(kern.kernel_basis)


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
