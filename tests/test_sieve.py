import ast
import inspect
import tracemalloc
from collections import defaultdict
from functools import cache
from math import isqrt
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (batch_vectors, factor_range, is_smooth, largest_prime_factor, plain_primes,
                     power_table_per_pass, smooth_rows, split_vectors, trial_factor,
                     whole_range_p_plus)
from tnlab import intervals, sieve, tn, verify
from tnlab.errors import DomainError, RangeError, ResourceError
from tnlab.sieve import (PRIME_CEILING, WINDOW_BYTES, WINDOW_VALUE_CEILING, SpfTable,
                         build_spf_table, factorize_trial, folded_rows, p_plus_in, parity_windows,
                         primes_through, primes_up_to, psi_count, row_bits, smooth_in_interval,
                         smooth_listing)

# the primes up to 5000 by trial division, independent of the sieve
ORACLE_PRIMES = [k for k in range(2, 5001) if trial_factor(k) == [(k, 1)]]


def test_spf_range_errors():
    with pytest.raises(RangeError):
        build_spf_table(1)
    # a limit past the cap is refused before the table is allocated
    tracemalloc.start()
    try:
        with pytest.raises(RangeError, match="entry cap"):
            build_spf_table(sieve.MAX_TABLE_ENTRIES + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_a_table_holds_its_p_plus_array_alone():
    # a table allocates nothing until its first read, and that read holds
    # the P+ array and one chunk's temporaries at most
    limit = 1 << 20
    primes_through(isqrt(limit))
    tracemalloc.start()
    try:
        table = build_spf_table(limit)
        built = tracemalloc.get_traced_memory()[1]
        assert not any(isinstance(v, np.ndarray) for v in vars(table).values())
        tracemalloc.reset_peak()
        lpf = table.largest_prime_factors()
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built < 1 << 16
    assert read < 8 * (limit + 1) + WINDOW_BYTES
    held = [v for v in vars(table).values() if isinstance(v, np.ndarray)]
    assert len(held) == 1 and held[0] is lpf
    assert table.largest_prime_factors() is lpf and not lpf.flags.writeable


def test_factorize_examples():
    r = factorize_trial(12)
    assert r.factors == ((2, 2), (3, 1))
    assert r.p_plus == 3
    assert r.omega == 2

    one = factorize_trial(1)
    assert one.factors == ()
    assert one.p_plus == 1
    assert one.omega == 0

    r = factorize_trial(1260)
    assert r.factors == ((2, 2), (3, 2), (5, 1), (7, 1))


def test_factorize_errors():
    with pytest.raises(DomainError):
        factorize_trial(0)


def test_factorize_roundtrip_exhaustive():
    for n in range(1, 20001):
        rec = factorize_trial(n)
        assert rec.recompose() == n
        ps = [p for p, _ in rec.factors]
        assert ps == sorted(set(ps))


def _built(small: dict, large: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """n = the small prime powers times one larger prime, with its factors."""
    factors = tuple(sorted(small.items())) + ((large, 1),)
    n = 1
    for p, e in factors:
        n *= p ** e
    return n, factors


# trial_factor is the oracle up to 10^9; past it, n is built from its
# factors: small prime powers times one prime near 10^12 .. 10^15 (each
# checked by Miller-Rabin with the first 12 prime bases)
@given(st.integers(min_value=1, max_value=10 ** 9).map(lambda n: (n, tuple(trial_factor(n)))))
@settings(max_examples=150, deadline=None)
@example((4, ((2, 2),)))
@example((2 * 7 ** 2, ((2, 1), (7, 2))))
@example((2 ** 100, ((2, 100),)))
@example(_built({2: 100}, 3))
@example(_built({2: 3, 3: 1, 47: 2}, 999999999989))
@example(_built({3: 2, 7: 1}, 1000000000039))
@example(_built({5: 4}, 10000000000037))
@example(_built({2: 1, 11: 3}, 100000000000031))
@example(_built({}, 1000000000000037))
def test_factorize_trial_matches_oracle(case):
    n, factors = case
    rec = factorize_trial(n)
    assert rec.factors == factors
    assert rec.recompose() == n


def test_squarefree_kernel():
    assert factorize_trial(48).squarefree_kernel == 3
    assert factorize_trial(49).squarefree_kernel == 1
    assert factorize_trial(50).squarefree_kernel == 2


def test_smooth_in_interval_examples(table):
    assert smooth_in_interval(48, 56, 7, table) == [49, 50, 54, 56]
    assert smooth_in_interval(2, 6, 2, table) == [4]
    assert smooth_in_interval(10, 12, 100, table) == [11, 12]


def test_smooth_in_interval_malformed(table):
    with pytest.raises(RangeError):
        smooth_in_interval(6, 6, 5, table)
    with pytest.raises(RangeError):
        smooth_in_interval(-1, 6, 5, table)
    # past the table a P+ array longer than a table may be is refused
    # before any sieving
    with pytest.raises(ResourceError, match="entry cap"):
        psi_count(sieve.MAX_TABLE_ENTRIES + 1, 5, table)


def test_smooth_in_interval_beyond_table_limit(table):
    lo, hi = table.limit + 100, table.limit + 400
    got = smooth_in_interval(lo, hi, 20, table)
    expect = [n for n in range(lo + 1, hi + 1) if is_smooth(n, 20)]
    assert got == expect


@pytest.fixture(scope="module")
def tiny_table():
    return build_spf_table(1 << 8)


@pytest.fixture(scope="module")
def covering_table():
    return build_spf_table(1 << 19)


@given(st.integers(min_value=0, max_value=(1 << 19) - 600),
       st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=3000))
@example(0, 300, 7)
@example(0, 257, 1)
@settings(max_examples=60, deadline=None)
def test_smooth_in_interval_past_the_table_matches_a_covering_table(
        tiny_table, covering_table, lo, length, y):
    # past the tiny table (or with none) P+ comes from the segmented sieve,
    # within the covering table from its P+ array
    hi = max(lo + length, tiny_table.limit + 1)
    sieved = p_plus_in(lo, hi, tiny_table)
    assert np.array_equal(sieved, p_plus_in(lo, hi, covering_table))
    assert np.array_equal(sieved, p_plus_in(lo, hi))
    assert not sieved.flags.writeable
    assert smooth_in_interval(lo, hi, y, tiny_table) == \
        smooth_in_interval(lo, hi, y, covering_table)
    assert psi_count(hi, y, tiny_table) == psi_count(hi, y, covering_table)


def expected_split(m: int, rank: dict[int, int], bound: int,
                   factors: list[tuple[int, int]] = None) -> tuple[int, int]:
    """The split vector of m under `bound`, from its `factors`, by trial
    division when not given; `rank` ranks the primes up to at least `bound`."""
    odd = [p for p, e in (trial_factor(m) if factors is None else factors) if e & 1]
    q = odd[-1] if odd and odd[-1] > bound else 0
    return q, sum(1 << rank[p] for p in odd if p != q)


@given(st.integers(min_value=1, max_value=10 ** 8), st.integers(min_value=1, max_value=48),
       st.integers(min_value=0, max_value=20000))
@example(1, 1, 0)
@example(1, 48, 0)
@example(1020, 8, 0)
@settings(max_examples=60, deadline=None)
def test_parity_windows_match_trial_division(a, length, extra):
    b = a + length
    bound = isqrt(b - 1) + extra
    rank = {p: r for r, p in enumerate(primes_up_to(bound))}
    rows = []
    for start, large, words, p_plus in parity_windows(a, b, bound):
        rows += zip(range(start, b), large.tolist(), row_bits(words), p_plus.tolist())
    assert [m for m, _, _, _ in rows] == list(range(a, b))
    for m, q, bits, p_plus in rows:
        assert (q, bits) == expected_split(m, rank, bound)
        assert p_plus == largest_prime_factor(m)


@given(st.integers(min_value=1, max_value=10 ** 9), st.integers(min_value=1, max_value=3000),
       st.integers(min_value=0, max_value=3000), st.sampled_from([0, 1, 1000]))
@example(1, 3000, 0, 0)
@example(10 ** 9 - 3000, 3000, 3000, 0)
@example(10 ** 6, 2000, 1, 1000)
@example(2, 2, 1, 0)  # B = 1: every prime is a tag
@settings(max_examples=40, deadline=None)
def test_folded_rows_fold_each_tag_into_its_partner(a, length, back, extra):
    # each row of a window of a..b-1 from first = a - back: an untagged r as
    # (r, r, bits of r), a tagged r as (r, r - q, bits of r XOR bits of
    # r - q) with r - q carrying the same tag, read straight from the
    # windows of first..b-1; the rows left out are exactly the tagged rows
    # with r - q < first
    b = a + length
    first = max(1, a - back)
    bound = isqrt(b - 1) + extra
    large, bits = [], []
    for _, tags, words, _ in parity_windows(first, b, bound):
        large += tags.tolist()
        bits += row_bits(words)
    got = [row for window in parity_windows(a, b, bound)
           for row in zip(*folded_rows(window, first))]
    expected = []
    for r in range(a, b):
        q = large[r - first]
        if not q:
            expected.append((r, r, bits[r - first]))
        elif r - q >= first:
            assert large[r - q - first] == q
            expected.append((r, r - q, bits[r - first] ^ bits[r - q - first]))
    assert got == expected
    left_out = set(range(a, b)) - {r for r, _, _ in got}
    assert left_out == {r for r in range(a, b) if large[r - first] and r - large[r - first] < first}


# the ranks of the primes up to the largest bound the pass test draws
_RANK = {p: r for r, p in enumerate(plain_primes(3 * 10 ** 6 + 7))}


@given(st.integers(min_value=1, max_value=10 ** 12), st.integers(min_value=1, max_value=5000),
       st.integers(min_value=0, max_value=1000))
@example(1, 5000, 0)
@example(10 ** 12 - 4999, 5000, 1000)
@example(2 ** 20, 4500, 1000)  # a pass that starts at a prime power
@example(3 ** 25 + 1, 1200, 0)  # and just past one, near 10^12
@example(1, 3, 1000)  # no sieving prime: b - 1 < 4
@example(2, 1, 0)
@settings(max_examples=30, deadline=None)
def test_parity_window_passes_match_trial_division(a, length, stretch):
    # whole passes, over windows long enough that the prime powers up to
    # 16 (2, 3, 4, 5, 7, 8, 9, ...) fall on both sides of the split
    # between strided and scattered powers (q <= L // 128 for a window of
    # L values), under bounds from isqrt(b - 1) to 3 isqrt(b - 1) + 7
    b = a + length
    root = isqrt(b - 1)
    bound = root + (2 * root + 7) * stretch // 1000
    factors = factor_range(a, b)
    m = a
    for start, large, words, p_plus in parity_windows(a, b, bound):
        assert start == m
        for q, bits, p in zip(large.tolist(), row_bits(words), p_plus.tolist()):
            found = factors[m - a]
            assert (q, bits) == expected_split(m, _RANK, bound, found)
            assert p == (found[-1][0] if found else 1)
            m += 1
    assert m == b


@pytest.mark.parametrize("top", [0, 1, 3, 4, 8, 9, 1000, 3 ** 13, 10 ** 6 + 1])
def test_power_table_lists_every_prime_power(top):
    q, p, rank = sieve._power_table(top)
    expect = sorted((p ** k, p, r) for r, p in enumerate(plain_primes(isqrt(top)))
                    for k in range(1, top.bit_length() + 1) if p ** k <= top)
    assert list(zip(q.tolist(), p.tolist(), rank.tolist())) == expect
    assert q.dtype == p.dtype == rank.dtype == np.int64


@given(st.lists(st.one_of(st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=10 ** 7),
                          st.integers(min_value=0, max_value=10 ** 12)), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
@example([10 ** 12, 3, 10 ** 6, 4, 10 ** 12 + 1])
def test_kept_power_table_gives_each_pass_its_own_table(tops):
    # the one table kept across passes, grown or not, slices for every top
    # the table that a pass built for itself, also below and far below
    # what the table covers
    for top in tops:
        got = sieve._power_table(top)
        want = power_table_per_pass(primes_through(isqrt(top)), top)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64
            assert a.tolist() == b.tolist(), top


def test_one_value_window_matches_the_row_of_a_longer_window():
    # a pass of one value (the first row of a span search, or a P+ read at
    # a range's edge) must give the row, the dtypes and the shape of a
    # longer window, also for powers and for a large tag under a bound
    # above isqrt
    rng = np.random.default_rng(5)
    ms = list(range(1, 1000)) + [2 ** 36, 3 ** 20, 2 ** 20 * 3, 999983 ** 2, 2 * 999983]
    ms += rng.integers(1, 1 << 40, 100).tolist()
    for m in ms:
        for bound in (isqrt(m + 1), 3 * isqrt(m + 1) + 7):
            [one] = parity_windows(m, m + 1, bound)
            first = next(parity_windows(m, m + 2, bound))
            assert one[0] == first[0] == m
            for got, want in zip(one[1:], first[1:]):
                assert got.dtype == want.dtype and got.shape[1:] == want.shape[1:]
                assert len(got) == 1 and (got[0] == want[0]).all()


def test_split_vectors_of_a_batch_match_trial_division():
    # the trial-division core (_trial_split, which folded_rows runs on the
    # cofactors of far partners) through the kernel tests' batch oracle:
    # the bound of a batch is isqrt of its largest value, whatever its order
    values = [1034, 1040, 1, 1053, 1058, 1081, 1078, 1050]
    bound = isqrt(1081)
    rank = {p: r for r, p in enumerate(primes_up_to(bound))}
    large, words = split_vectors(values)
    assert large.dtype == np.int64 and words.dtype == np.dtype("<u8")
    assert batch_vectors((large, words)) == [expected_split(m, rank, bound) for m in values]
    # an empty batch has the layout of a window with no rows
    large, words = split_vectors([])
    assert large.shape == (0,) and words.shape == (0, 1) and words.dtype == np.dtype("<u8")


def _prime_below(m: int) -> int:
    """The largest prime <= m, for m >= 2."""
    while factorize_trial(m).p_plus != m:
        m -= 1
    return m


@st.composite
def _batches(draw):
    """Values of an interval in any order and with repeats, some of its
    y-smooth values, and extras up to its top: 1, prime powers, squares of
    the primes up to isqrt(top) nearest it, and multiples of primes above
    isqrt(top), which carry a large tag."""
    lo = draw(st.integers(min_value=1, max_value=10 ** 8))
    top = lo + draw(st.integers(min_value=0, max_value=2000))
    values = draw(st.lists(st.integers(min_value=lo, max_value=top), min_size=1, max_size=30))
    smooth = smooth_in_interval(lo - 1, top, draw(st.integers(min_value=2, max_value=60)))
    if smooth:
        values += draw(st.lists(st.sampled_from(smooth), max_size=10))
    powers = [p ** k for p in ORACLE_PRIMES[:15] for k in range(2, 40) if p ** k <= top]
    near = [p * p for p in primes_up_to(isqrt(top))[-3:]]
    tagged = [c * _prime_below(top // c) for c in (1, 2, 3, 30) if top // c >= 2]
    extras = [1] + powers + near + tagged
    values += draw(st.lists(st.sampled_from(extras), max_size=8))
    return draw(st.permutations(values))


@given(_batches())
@example([1])
@example([4, 1, 3, 2, 2])
@example([1021 * 1021, 1021, 2 * 1021, 1019 * 1021, 1024, 3 ** 12])
@example([23 ** 2, 97 ** 2, 269 ** 2, 661 ** 2, 10 ** 6])  # first primes of the blocks
@settings(max_examples=60, deadline=None)
def test_split_vectors_match_trial_division_and_windows(values):
    # the trial-division core on any batch, through the oracle: under
    # B = isqrt(max), each value's vector is its trial-division split and
    # the row of its one-value window
    bound = isqrt(max(values))
    rank = {p: r for r, p in enumerate(primes_up_to(bound))}
    got = batch_vectors(split_vectors(values))
    assert got == [expected_split(m, rank, bound) for m in values]
    for m, vector in zip(values, got):
        [(_, large, words, _)] = parity_windows(m, m + 1, bound)
        assert vector == (int(large[0]), row_bits(words)[0])


def test_split_vectors_refuse_what_windows_refuse():
    for values in ([0, 5], [-3], [WINDOW_VALUE_CEILING], [7, 2 ** 64]):
        with pytest.raises(RangeError):
            split_vectors(values)


def test_split_vectors_of_the_curve_batch_stay_under_a_window():
    # the trial-division core on the 70-smooth values of the interval of
    # construct_curve_point(10^6), through the oracle: only the batch is
    # factored, so beyond its output the call holds at most WINDOW_BYTES
    batch = smooth_in_interval(206497, 412994, 70)
    split_vectors(batch)  # the prime array grows outside the traced call
    tracemalloc.start()
    try:
        large, words = split_vectors(batch)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(large) == len(words) == 9733
    assert peak - held <= WINDOW_BYTES


@st.composite
def _smooth_intervals(draw):
    """(lo, hi, y): an interval (lo, hi] up to 10^12, of up to 3000 values,
    and a smoothness bound from 1 to 3 isqrt(hi) + 7, so that y falls on
    both sides of isqrt(hi)."""
    lo = draw(st.one_of(st.integers(min_value=0, max_value=10 ** 6),
                        st.integers(min_value=0, max_value=10 ** 12)))
    hi = lo + draw(st.integers(min_value=1, max_value=3000))
    y = draw(st.one_of(st.integers(min_value=1, max_value=60),
                       st.integers(min_value=1, max_value=3 * isqrt(hi) + 7)))
    return lo, hi, y


@given(_smooth_intervals())
@example((0, 1, 1))  # the value 1 alone, with no prime
@example((0, 3000, 1))
@example((206497, 209497, 37))
@example((10 ** 12 - 3000, 10 ** 12, 10 ** 6 + 3))  # y past isqrt(hi)
@example((2 ** 40 - 100, 2 ** 40 + 100, 40))  # a high power of 2 in the span
@settings(max_examples=60, deadline=None)
def test_smooth_rows_match_trial_division(interval):
    # the values are the y-smooth ones of a factorization oracle, and each
    # row holds exactly the odd-exponent primes of its value, ranked from 2,
    # with no large tag
    lo, hi, y = interval
    factors = factor_range(lo + 1, hi + 1)
    values = smooth_in_interval(lo, hi, y)
    assert values == [m for m, found in zip(range(lo + 1, hi + 1), factors)
                      if not found or found[-1][0] <= y]
    large, words = smooth_rows(values, y)
    assert large.dtype == np.int64 and words.dtype == np.dtype("<u8")
    assert len(large) == len(words) == len(values) and not large.any()
    assert words.shape[1] == max(1, (len(primes_through(min(y, max(values, default=1)))) + 63) >> 6)
    assert batch_vectors((large, words)) == [expected_split(m, _RANK, y, factors[m - lo - 1])
                                             for m in values]


def test_smooth_rows_of_a_batch_match_trial_division():
    # any order and repeats, and an empty batch with a window's layout
    values = [49, 50, 1, 54, 56, 48, 50, 2 ** 20, 3 ** 12]
    rank = {p: r for r, p in enumerate(primes_up_to(7))}
    assert batch_vectors(smooth_rows(values, 7)) == [expected_split(m, rank, 7) for m in values]
    large, words = smooth_rows([], 7)
    assert large.shape == (0,) and words.shape == (0, 1) and words.dtype == np.dtype("<u8")


@pytest.mark.parametrize("rows", [1, 3, 7, 64])
def test_smooth_rows_are_unchanged_by_window_sizes(monkeypatch, rows):
    # windows cut to a few rows each put every seam between two values of a
    # batch, or inside a run of values that no window holds
    cases = [(206497, 209497, 37), (10 ** 9, 10 ** 9 + 2000, 50), (0, 500, 40),
             (10 ** 6, 10 ** 6 + 300, 3000)]
    batches = [(smooth_in_interval(lo, hi, y), y) for lo, hi, y in cases]
    expected = [batch_vectors(smooth_rows(values, y)) for values, y in batches]
    for (values, y), want in zip(batches, expected):
        width = max(1, (len(primes_through(min(y, max(values)))) + 63) >> 6)
        monkeypatch.setattr(sieve, "WINDOW_BYTES", 8 * width * rows)
        assert batch_vectors(smooth_rows(values, y)) == want


def test_smooth_rows_of_millions_of_values_stay_within_a_few_windows():
    # the 7-smooth values up to 8 * 10^6: their span fills 16 windows of
    # WINDOW_BYTES // 8 rows, and beyond its output the pass holds the words
    # of one window, freed before the next one is allocated: 4.2 MB
    top = 8 * 10 ** 6
    values = sorted(2 ** a * 3 ** b * 5 ** c * 7 ** d
                    for a in range(23) for b in range(15) for c in range(10) for d in range(9)
                    if 2 ** a * 3 ** b * 5 ** c * 7 ** d <= top)
    assert values[-1] - values[0] > 15 * (WINDOW_BYTES // 8)
    smooth_rows(values, 7)  # the power table grows outside the traced call
    tracemalloc.start()
    try:
        large, words = smooth_rows(values, 7)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held <= 3 * WINDOW_BYTES // 2
    rank = {2: 0, 3: 1, 5: 2, 7: 3}
    assert batch_vectors((large, words)) == [expected_split(m, rank, 7) for m in values]


def test_smooth_rows_refuse_what_windows_refuse():
    # refused before any sieving, however far the batch reaches
    for values in ([0, 5], [-3], [WINDOW_VALUE_CEILING], [7, 2 ** 64], [1, WINDOW_VALUE_CEILING]):
        kept = sieve._powers
        tracemalloc.start()
        try:
            with pytest.raises(RangeError):
                smooth_rows(values, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        assert sieve._powers is kept


@st.composite
def _listings(draw):
    """(x, y, positions): x up to 10^6, y from 1 to past isqrt(x), or at
    and past x for an x whose rows over every prime up to x stay small,
    and positions of the sorted listing whose rows are trial-divided."""
    x = draw(st.one_of(st.integers(min_value=1, max_value=3000),
                       st.integers(min_value=1, max_value=10 ** 6)))
    ys = [st.integers(min_value=1, max_value=60),
          st.integers(min_value=1, max_value=3 * isqrt(x) + 7)]
    if x <= 10 ** 4:
        ys.append(st.integers(min_value=x, max_value=x + 10))
    y = draw(st.one_of(*ys))
    return x, y, draw(st.lists(st.integers(min_value=0), max_size=200))


@given(_listings())
@example((1, 1, []))  # the value 1 alone, with no prime
@example((1, 5, []))
@example((2, 2, [0, 1]))
@example((3000, 1, []))
@example((10 ** 4, 10 ** 4, list(range(300))))  # y = x: every value, 1229 ranks
@example((10 ** 6, 70, [0, 1, 2, 3, 48564]))  # the listing of curve-point --x 10^6
@example((10 ** 6, 1000, []))  # y past isqrt(x)
@example((2 ** 19, 2, list(range(20))))  # powers of 2 alone, up to one that is x
@settings(max_examples=60, deadline=None)
def test_smooth_listing_matches_a_factorization_oracle(case):
    # the listed values are the y-smooth values of [1, x] of the oracle's
    # P+, each once; the rows of a sample of them hold their odd-exponent
    # primes (trial division), ranked from 2 over the primes up to min(y, x),
    # with no large tag, and equal the sieved oracle's rows and the
    # trial-divided rows of split_vectors with each large tag q folded in
    # as the rank bit of q
    x, y, positions = case
    values, words = smooth_listing(x, y)
    assert values.dtype == np.int64 and words.dtype == np.dtype("<u8")
    assert words.shape == (len(values), max(1, (len(primes_through(min(y, x))) + 63) >> 6))
    order = np.argsort(values)
    assert values[order].tolist() == (np.flatnonzero(whole_range_p_plus(x)[1:] <= y) + 1).tolist()
    sample = order[sorted({i % len(values) for i in positions} | {0, len(values) - 1})]
    listed = values[sample].tolist()
    rows = row_bits(words[sample])
    assert rows == [expected_split(m, _RANK, y)[1] for m in listed]
    assert rows == row_bits(smooth_rows(listed, y)[1])
    divided = batch_vectors(split_vectors(listed))
    assert rows == [bits | (1 << _RANK[q] if q else 0) for q, bits in divided]


def test_smooth_listing_refuses_past_its_cap(monkeypatch):
    # the 5,194 7-smooth values up to 10^9 take 16 bytes each with their
    # rows: a cap just at their bytes lists them, one byte less refuses,
    # naming the count, the bytes and the cap; the 117-smooth values up to
    # 10^7 (362,933 of them, 5.8 MB) are refused under a cap of 2^20 before
    # the list passes it, at a traced peak under twice the cap (1.3 times)
    values, _ = smooth_listing(10 ** 9, 7)
    held = 16 * len(values)
    monkeypatch.setattr(sieve, "LISTING_BYTES", held)
    assert len(smooth_listing(10 ** 9, 7)[0]) == len(values)
    monkeypatch.setattr(sieve, "LISTING_BYTES", held - 1)
    with pytest.raises(ResourceError, match=f"least {len(values)} smooth values .* {held} bytes .* "
                                            f"cap {held - 1}"):
        smooth_listing(10 ** 9, 7)
    monkeypatch.setattr(sieve, "LISTING_BYTES", 1 << 20)
    smooth_listing(10 ** 4, 117)  # the prime array grows outside the traced call
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="past the cap 1048576"):
            smooth_listing(10 ** 7, 117)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_smooth_listing_refuses_what_windows_refuse():
    # refused before any listing: a product past the ceiling would leave
    # int64, and there is no smooth value below 1
    for x, y in ((WINDOW_VALUE_CEILING, 7), (2 ** 64, 7), (0, 7), (-5, 7), (100, 0)):
        kept = sieve._sieved
        tracemalloc.start()
        try:
            with pytest.raises(RangeError):
                smooth_listing(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        assert sieve._sieved is kept
    values, _ = smooth_listing(WINDOW_VALUE_CEILING - 1, 2)
    assert sorted(values.tolist()) == [2 ** k for k in range(61)]
    # at 19^14 the first power of 19 that multiplies no value, 19^15, is
    # past int64: it is never formed (6,785,642 values, about 110 MB)
    values, _ = smooth_listing(19 ** 14, 19)
    assert values.max() == 19 ** 14 and values.min() == 1


@given(st.integers(min_value=10 ** 4, max_value=10 ** 9), st.integers(min_value=1, max_value=2000),
       st.integers(min_value=1, max_value=3000))
@example(10 ** 6, 2000, 3000)
@example(10 ** 9 - 2000, 2000, 3000)
@settings(max_examples=30, deadline=None)
def test_far_partners_fold_by_trial_division(a, length, back):
    # rows whose partner r - q lies before the window, and at or after the
    # sweep's first value, take the partner's bits from trial division of
    # the cofactor (_trial_split); every folded row is checked against a
    # factorization oracle, with no window row read
    b = a + length
    first = a - back
    bound = isqrt(b - 1)
    factors = factor_range(first, b)
    window = next(parity_windows(a, b, bound))
    assume(window[0] + len(window[1]) == b)  # one window holds the run
    split = sieve._trial_split
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "_trial_split", lambda rem, top: calls.append(len(rem)) or split(rem, top))
        rows = list(zip(*folded_rows(window, first)))
    far = 0
    for r, start, bits in rows:
        q = r - start
        want = expected_split(r, _RANK, bound, factors[r - first])
        if q:
            assert want[0] == q
            partner = expected_split(start, _RANK, bound, factors[start - first])
            assert partner[0] == q
            want = (q, want[1] ^ partner[1])
            far += start < a
        assert (q, bits) == want
    assert bool(far) == bool(calls)


_BOUNDS = st.one_of(st.sampled_from((0, 1, 2, 3, 4)),
                   st.sampled_from(ORACLE_PRIMES[:200]).flatmap(
                       lambda p: st.sampled_from((p - 1, p, p + 1))),
                   st.integers(min_value=0, max_value=5000))


@given(st.lists(_BOUNDS, min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
@example([0, 1, 2, 3, 2, 1, 0])
@example([7, 6, 8, 1000, 997, 998, 5000, 4999, 2])
def test_prime_array_answers_as_a_fresh_sieve(bounds):
    # each example starts from an empty array, so every rise grows it
    empty = np.zeros(0, dtype=np.int64)
    empty.setflags(write=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "_sieved", (1, empty))
        for bound in bounds:
            expected = [p for p in ORACLE_PRIMES if p <= bound]
            got = primes_through(bound)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert got.tolist() == expected
            assert primes_up_to(bound) == expected


def test_prime_bound_past_the_ceiling_is_refused_before_sieving():
    # the ceiling is the bound of the highest window, and nothing above it
    # is sieved: refusing it allocates nothing and keeps the array
    assert PRIME_CEILING == isqrt(WINDOW_VALUE_CEILING - 1) == 1_518_500_249
    kept = sieve._sieved
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            primes_through(PRIME_CEILING + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert sieve._sieved is kept


def test_parity_windows_refuse_what_they_cannot_hold():
    ceiling = WINDOW_VALUE_CEILING
    # refused before any sieving: primes up to isqrt(ceiling) would not fit
    with pytest.raises(RangeError, match="below"):
        next(parity_windows(ceiling - 1, ceiling + 1, isqrt(ceiling)))
    with pytest.raises(RangeError, match="isqrt"):
        next(parity_windows(1000, 2000, 30))
    with pytest.raises(RangeError):
        next(parity_windows(5, 5, 10))


def test_psi_examples(table):
    assert psi_count(100, 5, table) == 34  # frozen from direct trial-division count
    assert psi_count(10, 10, table) == 10
    assert psi_count(10, 1, table) == 1


def test_psi_matches_smooth_interval(table):
    for x, y in [(50, 3), (200, 7), (1000, 13), (777, 2)]:
        assert psi_count(x, y, table) == len(smooth_in_interval(0, x, y, table))


def test_psi_monotone(table):
    vals = [psi_count(x, y, table)
            for x in (10, 100, 1000) for y in (2, 5, 11)]
    for x in (10, 100, 1000):
        row = [psi_count(x, y, table) for y in (2, 3, 5, 7, 11)]
        assert row == sorted(row)
    for y in (2, 5, 11):
        col = [psi_count(x, y, table) for x in (10, 50, 100, 500)]
        assert col == sorted(col)
    assert all(v >= 1 for v in vals)


def _definitions(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """(name, node) of each top-level definition of a module: a method as
    Class.method, the rest of a class (bases, decorators, class-level
    statements) under the class's name, and module-level code as
    <module>."""
    for top in tree.body:
        if not isinstance(top, ast.ClassDef):
            yield getattr(top, "name", "<module>"), top
            continue
        for node in top.bases + top.decorator_list + top.body:
            is_method = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield f"{top.name}.{node.name}" if is_method else top.name, node


@cache
def _call_map() -> dict[str, set[tuple[str, str]]]:
    """The name of every function called in the package's sources, mapped
    to the (module file, definition) of each call, with methods resolved
    (see _definitions)."""
    found = defaultdict(set)
    for path in sorted(Path(sieve.__file__).parent.glob("*.py")):
        for definition, top in _definitions(ast.parse(path.read_text())):
            for node in ast.walk(top):
                f = node.func if isinstance(node, ast.Call) else None
                name = getattr(f, "attr", getattr(f, "id", None))
                if name is not None:
                    found[name].add((path.name, definition))
    return found


def _calls(name: str) -> set[tuple[str, str]]:
    """(module file, definition) of every call to `name`."""
    return set(_call_map().get(name, ()))


def test_one_reader_decides_where_p_plus_comes_from():
    # only p_plus_in reads a table's P+ array, and no production path
    # builds a table (the bench and the tests still pass them); windows
    # serve ranges alone: P+ past a table, the rows of split_rows, tn's
    # sweep and an interval check's one pass (runge's point search reads
    # no window: it lists the values b z^2 alone), while the constructor
    # lists the y-smooth values of [1, x] with their rows, reading no P+:
    # find_smooth_rich_intervals, build_small_tn and construct_curve_point
    # each make one listing (the first and the last through _rich_intervals),
    # and the kernels take the gathered rows as they are: kernel_masks has
    # no other caller in the package
    assert _calls("largest_prime_factors") == {("sieve.py", "p_plus_in")}
    # P+ of the one n of the shortcut is trial-divided, not sieved
    assert ("tn.py", "ParitySupplier.p_plus") in _calls("factorize_trial")
    assert not {f for f, _ in _calls("p_plus_in")} & {"tn.py", "constructor.py", "cli.py"}
    # a table is its P+ array, built from the one prime array
    assert ("sieve.py", "SpfTable.largest_prime_factors") in _calls("primes_through")
    assert not hasattr(build_spf_table(10), "_spf")
    assert not _calls("build_spf_table") and not _calls("smooth_in_interval")
    assert _calls("parity_windows") == {("sieve.py", "p_plus_in"), ("sieve.py", "split_rows"),
                                        ("tn.py", "_sweep"), ("intervals.py", "_interval_counts")}
    assert _calls("smooth_listing") == {("constructor.py", "_rich_intervals"),
                                        ("constructor.py", "build_small_tn")}
    assert _calls("_rich_intervals") == {("constructor.py", "find_smooth_rich_intervals"),
                                         ("constructor.py", "construct_curve_point")}
    assert _calls("kernel_masks") == {("constructor.py", "build_small_tn"),
                                      ("constructor.py", "construct_curve_point")}
    assert not hasattr(sieve, "split_vectors") and not hasattr(sieve, "smooth_rows")
    # a sweep reads each window's rows with every large tag folded into its
    # partner: the partner's bits come from the cofactor by trial division,
    # and the fold reads no window itself; nothing else divides a batch
    assert _calls("folded_rows") == {("tn.py", "_sweep"), ("intervals.py", "_interval_counts")}
    assert _calls("_trial_split") == {("sieve.py", "folded_rows")}


def test_one_exact_check_for_every_witness():
    # verify_witness reduces the product as a product tree that cancels
    # the gcd of every pair above its leaves (_cancel), and takes isqrt of
    # the root: it reads no sieve, no table and no prime set. Both live in
    # verify.py, which imports the standard library and the package's
    # errors alone, and tn re-exports verify_witness. Prime sets serve only
    # brute-mode enumeration, and the table serves only its P+ array
    tree = ast.parse(Path(sieve.__file__).with_name("verify.py").read_text())
    check = [node for node in tree.body
             if getattr(node, "name", None) in ("verify_witness", "_cancel")]
    assert len(check) == 2
    imported = {node.module for node in tree.body if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "math", "operator", "typing", "errors"}
    assert not any(isinstance(node, ast.Import) for node in tree.body)
    assert tn.verify_witness is verify.verify_witness
    for path in Path(sieve.__file__).parent.glob("*.py"):
        if path.name != "verify.py":
            defined = {getattr(node, "name", None) for node in ast.parse(path.read_text()).body}
            assert not defined & {"verify_witness", "_cancel"}, path.name
    called = {getattr(f, "attr", getattr(f, "id", None))
              for f in (node.func for top in check for node in ast.walk(top)
                        if isinstance(node, ast.Call))}
    sieve_names = {name for name, obj in vars(sieve).items()
                   if getattr(obj, "__module__", None) == sieve.__name__}
    assert not called & (sieve_names | set(vars(SpfTable)) | {"support"})
    assert _calls("support") == {("intervals.py", "enumerate_square_subsets")}
    assert not any(hasattr(SpfTable, name) for name in ("factors", "spf"))
    assert not hasattr(sieve, "factorize")


def test_no_assert_statement_makes_the_exact_check():
    # python -O strips assert statements, and with them any check inside
    # one: the package has none, so every verify_witness, and every other
    # check it makes, is an explicit test
    for path in sorted(Path(sieve.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno}"
    assert _calls("verify_witness") == {("tn.py", "_search"),
                                        ("constructor.py", "build_small_tn"),
                                        ("constructor.py", "construct_curve_point")}


def test_a_run_sieves_forward_from_its_one_start():
    # every span search reads one split_rows stream: compute_tn its own,
    # a witnessed scan's run the one it opens when it is made, and no
    # method of the run opens another; the partner that a search's target
    # starts with comes from its cofactor, reading no window, no run and no
    # sieve pass
    assert _calls("split_rows") == {("tn.py", "compute_tn"), ("tn.py", "_Run.__init__")}
    assert ("tn.py", "compute_tn") not in _calls("_Run")
    assert _calls("_partner") == {("tn.py", "_search")}
    for reader in ("parity_windows", "split_rows", "rows", "p_plus_in", "smooth_listing",
                   "row_bits", "_Run"):
        assert ("tn.py", "_partner") not in _calls(reader), reader
    assert ("tn.py", "_partner") in _calls("factorize_trial")
    assert not any(hasattr(tn, name) for name in ("_Window", "ROW_BLOCK"))
    assert not hasattr(tn._Run, "seek")
    assert list(inspect.signature(tn._Run).parameters) == ["a", "b"]


def test_span_search_starts_from_its_partner():
    # a search stops at the first insertion that depends on its target,
    # v_n XOR v_{n+q} when it carries a large q, so tn reads no saturation
    # count, and the partner's vector is made in one place
    tn_tree = ast.parse(Path(tn.__file__).read_text())
    assert not any(isinstance(node, ast.Attribute) and node.attr == "small_rank"
                   for node in ast.walk(tn_tree))
    assert _calls("_partner") == {("tn.py", "_search")}


def test_split_basis_has_one_insertion_rule():
    # SplitBasis has one operation, insert, which reduces each vector once
    # and calls nothing else of the basis: no reduce, no maskless pass and
    # no mask rebuild. A span search inserts its target first and reads its
    # basis only through insert, the dependency it leaves and the rank, and
    # keeps no target pivot
    split = ast.parse(inspect.getsource(tn.SplitBasis)).body[0]
    methods = {node.name: node for node in split.body if isinstance(node, ast.FunctionDef)}
    assert set(methods) == {"__init__", "rank", "insert"}
    insert = methods["insert"]
    assert not any(isinstance(node, ast.Call) and getattr(node.func, "value", None) is not None
                   and getattr(node.func.value, "id", None) == "self" for node in ast.walk(insert))
    assert sum(isinstance(node, ast.While) for node in ast.walk(insert)) == 1
    search = ast.parse(inspect.getsource(tn._search))
    read = {node.attr for node in ast.walk(search)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "basis"}
    assert read == {"insert", "dependency", "rank"}
    assert not any("pivot" in node.id for node in ast.walk(search) if isinstance(node, ast.Name))


def test_interval_questions_read_the_intervals_own_windows(monkeypatch):
    # an interval check reads (lo, hi] in one window pass under isqrt(hi)
    # (_interval_counts, pinned above) for its closed, smooth and kernel
    # counts, and nothing past hi: no scan, no batch split, no second
    # reader of P+, no row stream and no kernel basis (the tests' oracle
    # interval_kernel_basis spells one out)
    for name in ("scan_t", "chunk_map", "_sweep", "smooth_listing", "_trial_split", "p_plus_in",
                 "smooth_in_interval", "_split_rows"):
        assert not any(path == "intervals.py" for path, _ in _calls(name)), name
        assert not hasattr(intervals, name), name
    assert _calls("_interval_counts") == {("intervals.py", "count_tn_closed"),
                                          ("intervals.py", "check_interval_identity")}
    for name in ("split_rows", "kernel_masks", "mask_bits"):
        assert not any(path == "intervals.py" for path, _ in _calls(name)), name
        assert not hasattr(intervals, name), name
    # the closed count reads folded rows, and the dimension the raw rows of
    # the same windows under a rule of its own, with no combination masks
    assert {d for path, d in _calls("_shared_rows") if path == "intervals.py"} == \
        {"_interval_counts"}
    assert not {("gf2.py", "DependencyCount.__init__"),
                ("gf2.py", "DependencyCount.insert")} & _calls("SplitBasis")
    assert "large" not in intervals.SweepBasis.__slots__
    assert not any("mask" in slot for slot in intervals.DependencyCount.__slots__)
    assert ("intervals.py", "check_interval_identity") not in _calls("count_tn_closed")
    assert not hasattr(tn, "_FIRST_WINDOW")
    # one pass per check, in either mode: every window comes from it
    passes = []

    def counted(a, b, bound):
        passes.append((a, b, bound))
        return parity_windows(a, b, bound)

    monkeypatch.setattr(sieve, "parity_windows", counted)
    monkeypatch.setattr(intervals, "parity_windows", counted)
    for mode in ("kernel", "brute"):
        passes.clear()
        intervals.check_interval_identity(999980, 1000000, 30, mode)
        assert passes == [(999981, 1000001, 1000)], mode


def test_one_producer_of_t_for_every_scan():
    # only the sweep classifies rows: a witnessed scan takes t and the
    # shortcut flags from it and searches only for witnesses
    assert _calls("_classify") == {("tn.py", "_sweep")}


def test_one_driver_starts_every_worker_process():
    # every scan runs through chunk_map, the only code that names a process
    # pool: scan_t, scan_tn with and without witnesses, the CLI scan's
    # text (scan_lines), dist's counts and exceptional set, and conjecture;
    # the witness-only pool is gone
    named = {(path.name, definition)
             for path in sorted(Path(sieve.__file__).parent.glob("*.py"))
             for definition, top in _definitions(ast.parse(path.read_text()))
             if "ProcessPoolExecutor" in ast.dump(top)}
    assert named == {("tn.py", "chunk_map")}
    assert _calls("chunk_map") == {("tn.py", "scan_t"), ("tn.py", "scan_tn"),
                                   ("tn.py", "scan_lines"),
                                   ("distribution.py", "distribution_table"),
                                   ("distribution.py", "exceptional_set"),
                                   ("distribution.py", "conjecture_scan")}
    assert not hasattr(tn, "_scan_parallel")


# a table's build works in chunks [a, b) with b = min(2a, a + CHUNK), each
# sieved by the primes up to isqrt(b - 1)
CHUNK = WINDOW_BYTES // 32
_CHUNK_EDGES = sorted({e for k in range(1, 19) for e in (2 ** k - 1, 2 ** k, 2 ** k + 1)
                       if e >= 2} | {CHUNK - 1, CHUNK + 1, 3 * CHUNK - 1, 3 * CHUNK + 1})
_NEAR_PRIME_SQUARES = [p * p + d for p in ORACLE_PRIMES if p * p < 1 << 19 for d in (-1, 1)]


@given(st.sampled_from(_CHUNK_EDGES) | st.sampled_from(_NEAR_PRIME_SQUARES)
       | st.integers(min_value=2, max_value=1 << 19))
@example(70000)
@settings(max_examples=40, deadline=None)
def test_largest_prime_factors_match_oracle(limit):
    lpf = build_spf_table(limit).largest_prime_factors()
    assert np.array_equal(lpf, whole_range_p_plus(limit))
    assert len(lpf) == limit + 1 and lpf[0] == 0
    for m in list(range(1, min(limit + 1, 5000))) + list(range(max(1, limit - 3000), limit + 1)):
        assert lpf[m] == largest_prime_factor(m)
