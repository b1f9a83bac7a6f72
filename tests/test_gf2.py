from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (TaggedSweepBasis, batch_vectors, frozenset_kernel_masks, pack_vectors,
                     per_vector_kernel_masks, split_vectors)
from tnlab import gf2
from tnlab.gf2 import SplitBasis, SweepBasis, kernel_masks, mask_bits
from tnlab.sieve import (folded_rows, parity_windows, primes_through, row_bits, smooth_in_interval,
                         smooth_rows)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
RANK = {p: r for r, p in enumerate(PRIMES)}
LARGE = (101, 103, 107)  # above every prime of PRIMES, so they go in q


def vec(*primes, q=0):
    """The split vector (q, bits) of a set of small primes and a large one."""
    return q, sum(1 << RANK[p] for p in set(primes))


def support(v):
    q, bits = v
    return frozenset(PRIMES[r] for r in mask_bits(bits)) | ({q} if q else set())


def combine(vectors, mask):
    """The XOR of the vectors that mask selects, as a prime set."""
    acc = frozenset()
    for i in mask_bits(mask):
        acc ^= support(vectors[i])
    return acc


def insert(basis, vectors, v):
    """Insert v; None when it extends the basis, otherwise the dependency
    that insert leaves, its combination over the earlier insertions,
    re-checked by XOR-ing them."""
    vectors.append(v)
    if basis.insert(*v) is not None:
        return None
    mask = basis.dependency
    assert mask < 1 << (len(vectors) - 1)  # earlier insertions only
    assert combine(vectors, mask) == support(v)
    return mask


def test_parity_vector_examples(supplier):
    assert supplier.support(12) == {3}
    assert supplier.support(49) == frozenset()
    assert supplier.support(10) == {2, 5}


def test_insert_dependency_example():
    b, vs = SplitBasis(len(PRIMES)), []
    assert insert(b, vs, vec(2, 5)) is None
    assert insert(b, vs, vec(3)) is None
    assert insert(b, vs, vec(2, 3, 5)) == 0b11


def test_insert_zero_vector():
    b, vs = SplitBasis(len(PRIMES)), []
    insert(b, vs, vec(2))
    assert insert(b, vs, vec()) == 0


def test_insert_independent_rank():
    b, vs = SplitBasis(len(PRIMES)), []
    assert insert(b, vs, vec(2)) is None
    assert insert(b, vs, vec(5)) is None
    assert b.rank == 2


def test_small_rank_counts_the_small_rows():
    # pivot 0, the rank of 2, is a small row; a large pivot is not
    b = SplitBasis(len(PRIMES))
    assert b.insert(*vec(2)) == 0
    assert b.insert(*vec(3, q=101)) == 101
    assert b.insert(*vec(2, 3)) == RANK[3]
    assert b.insert(*vec(3)) is None
    assert (b.small_rank, b.rank) == (2, 3)


def test_pivot_is_largest_support_prime():
    b = SplitBasis(len(PRIMES))
    assert b.insert(*vec(2, 29)) == RANK[29]
    assert b.insert(*vec(2, 3)) == RANK[3]
    assert b.insert(*vec(3, q=101)) == 101
    for pivot, bits in enumerate(b.small_bits):
        if bits:
            assert max(support((0, bits))) == PRIMES[pivot]
    assert list(b.large) == [101]


def kernel_of(vectors):
    """kernel_masks of split vectors (q, bits), packed as it takes them."""
    return kernel_masks(pack_vectors(vectors))


def test_nullspace_examples():
    assert kernel_of([vec(2), vec(3), vec(2, 3)]).masks() == [0b111]
    assert kernel_of([vec(), vec(2)]).masks() == [0b1]
    assert kernel_of([vec(2, q=101), vec(3), vec(2, 3, q=101)]).masks() == [0b111]


def test_kernel_masks_refuses_a_list_of_pairs():
    # two (q, bits) pairs would otherwise unpack as (large, words)
    for vectors in ([vec(2), vec(3)], [vec(2)], [vec(2), vec(3), vec(2, 3)], []):
        with pytest.raises(TypeError):
            kernel_masks(vectors)
    with pytest.raises(TypeError):
        kernel_masks(iter(pack_vectors([vec(2)])))
    # the pair of arrays may come as a list, as a wrapper's list() makes it
    assert kernel_masks(list(pack_vectors([vec(2), vec(2)]))).masks() == [0b11]


def test_nullspace_window_example(supplier):
    # parity vectors of 49, 50, 54, 56, 48: two independent square subsets
    # ({49} and {48, 50, 54}, since 48*50*54 = 360^2), so the kernel has
    # dimension 2 (rank 3 out of 5 vectors).
    values = [49, 50, 54, 56, 48]
    masks = kernel_masks(split_vectors(values)).masks()
    assert [{values[i] for i in mask_bits(m)} for m in masks] == [{49}, {48, 50, 54}]
    for m in masks:
        acc = frozenset()
        for i in mask_bits(m):
            acc ^= supplier.support(values[i])
        assert not acc


def test_kernel_masks_matches_nullspace(supplier):
    # the split vectors of a batch and an elimination over prime sets pivot
    # in the same order, so they give the same kernel masks; 1034 = 2*11*47
    # and 1081 = 23*47 share 47, a prime above the batch bound isqrt(1081)
    for values in ([49, 50, 54, 56, 48], [1034, 1040, 1053, 1058, 1081, 1078, 1050]):
        assert kernel_masks(split_vectors(values)).masks() == \
            frozenset_kernel_masks(supplier.support(m) for m in values)


@st.composite
def vector_batches(draw):
    k = draw(st.integers(min_value=1, max_value=14))
    return [vec(*draw(st.sets(st.sampled_from(PRIMES), max_size=5)),
                q=draw(st.sampled_from((0, 0) + LARGE)))
            for _ in range(k)]


@given(vector_batches())
@settings(max_examples=120)
def test_rank_plus_kernel_dim(vecs):
    b, vs = SplitBasis(len(PRIMES)), []
    kernel = sum(1 for v in vecs if insert(b, vs, v) is not None)
    assert b.rank + kernel == len(vecs)
    assert b.small_rank == sum(1 for bits in b.small_bits if bits)
    assert len(kernel_of(vecs)) == kernel


@given(vector_batches(), st.randoms(use_true_random=False))
@settings(max_examples=80)
def test_rank_is_order_independent(vecs, rng):
    def rank_of(order):
        b = SplitBasis(len(PRIMES))
        for v in order:
            b.insert(*v)
        return b.rank

    shuffled = list(vecs)
    rng.shuffle(shuffled)
    assert rank_of(vecs) == rank_of(shuffled)


@given(vector_batches())
@settings(max_examples=80)
def test_witness_soundness(vecs):
    # insert() re-XORs the selected vectors on every dependency
    b, vs = SplitBasis(len(PRIMES)), []
    for v in vecs:
        insert(b, vs, v)
    for mask in kernel_of(vecs).masks():
        assert mask and not combine(vecs, mask)


@given(st.integers(min_value=0, max_value=2 * 10 ** 5), st.integers(min_value=1, max_value=1200),
       st.booleans(), st.randoms(use_true_random=False))
@example(1000, 300, False, None)    # runs longer than isqrt(max), so a large
@example(200000, 1000, False, None)  # prime divides two values and its tag cancels
@settings(max_examples=60, deadline=None)
def test_kernel_masks_are_in_systematic_form(lo, length, shuffle, rng):
    # mask k is its own dependent insertion plus independent ones only:
    # the constructor reads family members off this form
    values = list(range(lo + 1, lo + length + 1))
    if shuffle:
        rng.shuffle(values)
    batch = split_vectors(values)
    vectors = batch_vectors(batch)
    basis = SplitBasis(max(bits.bit_length() for _, bits in vectors))
    dependent = [i for i, v in enumerate(vectors) if basis.insert(*v) is None]
    kernel = kernel_masks(batch)
    masks = kernel.masks()
    tops = [m.bit_length() - 1 for m in masks]
    assert tops == dependent == kernel.dependent
    assert sorted(kernel.dependent + kernel.independent) == list(range(len(vectors)))
    assert all(a < b for a, b in zip(tops, tops[1:]))
    dependent_bits = sum(1 << i for i in dependent)
    for m, top in zip(masks, tops):
        assert m & dependent_bits == 1 << top


def linear_map_count(vectors):
    """How many vectors come without a large tag after the small basis of
    the batch is full: kernel_masks takes their coordinates from its
    linear map."""
    width = max((bits.bit_length() for _, bits in vectors), default=0)
    basis, count = SplitBasis(width), 0
    for q, bits in vectors:
        if not q and basis.small_rank == width:
            count += 1
        else:
            basis.insert(q, bits)
    return count


def check_kernel(batch):
    """kernel_masks of the rows (large, words) of a batch against the
    per-vector oracle on its split vectors, and its systematic form."""
    kernel = kernel_masks(batch)
    vectors = batch_vectors(batch)
    assert kernel.masks() == per_vector_kernel_masks(vectors)
    assert len(kernel) == len(kernel.dependent) == len(kernel.coords)
    assert sorted(kernel.dependent + kernel.independent) == list(range(len(vectors)))
    independent = sum(1 << i for i in kernel.independent)
    assert kernel.coords.dtype == np.dtype("<u8")
    assert kernel.coords.shape == (len(kernel), max(kernel.independent, default=0) // 64 + 1)
    assert all(coords | independent == independent for coords in row_bits(kernel.coords))


def test_kernel_of_empty_and_one_vector_batches():
    for vectors in ([], [vec()], [vec(2)], [vec(q=101)], [vec(3, q=103)]):
        check_kernel(pack_vectors(vectors))
    check_kernel(split_vectors([]))
    assert kernel_of([vec()]).masks() == [0b1]
    assert len(kernel_of([])) == len(kernel_of([vec(2)])) == 0


@given(vector_batches())
@settings(max_examples=120)
def test_kernel_matches_per_vector_oracle_on_small_batches(vecs):
    check_kernel(pack_vectors(vecs))


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=1500))
@example(1000, 300)   # fills at vector 44; later, 1065 = 15*71 makes a large row
@example(200000, 1000)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_per_vector_oracle_on_ranges(lo, length):
    check_kernel(split_vectors(list(range(lo + 1, lo + length + 1))))


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=50, max_value=4000),
       st.integers(min_value=2, max_value=40))
@example(206497, 3000, 37)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_per_vector_oracle_on_smooth_batches(lo, length, y):
    check_kernel(split_vectors(smooth_in_interval(lo, lo + length, y)))


@given(st.one_of(st.integers(min_value=0, max_value=10 ** 6),
                 st.integers(min_value=0, max_value=10 ** 12)),
       st.integers(min_value=0, max_value=1500), st.sampled_from([None, 7, 30, 60]),
       st.none() | st.randoms(use_true_random=False))
@example(1000, 300, None, None)     # 1065 = 15*71 makes a large row after the basis is full
@example(0, 0, None, None)          # an empty batch
@example(48, 1, None, None)         # 49 alone: width 0, full from the start
@example(10 ** 12 - 1, 1, None, None)  # 10^12 = (10^6)^2 alone, under B = 10^6
@example(10 ** 12 - 1500, 1500, None, None)
@example(10 ** 12 - 10 ** 5, 1500, 30, None)
@settings(max_examples=60, deadline=None)
def test_packed_kernel_matches_the_per_vector_oracle(lo, length, y, rng):
    # ranges and smooth batches up to 10^12, in order or shuffled, go to
    # kernel_masks in a window's layout (split_vectors) and to the oracle
    # as (q, bits) pairs: the same masks, in systematic form
    values = list(range(lo + 1, lo + length + 1))
    if y is not None and values:
        values = smooth_in_interval(lo, lo + length, y)
    if rng is not None:
        rng.shuffle(values)
    check_kernel(split_vectors(values))


@given(st.one_of(st.integers(min_value=0, max_value=10 ** 6),
                 st.integers(min_value=0, max_value=10 ** 12)),
       st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
@example(206497, 3000, 37)
@example(10 ** 12 - 3000, 3000, 10 ** 6 + 3)  # y past isqrt(hi): no large tag
@example(1000, 300, 40)  # y past isqrt(1300) = 36
@example(0, 2000, 2000)
@settings(max_examples=60, deadline=None)
def test_sieved_smooth_rows_give_the_kernel_of_trial_division(lo, length, y):
    # the constructor's sieved rows against the trial-divided ones under
    # isqrt(max): the same kernel in every field, also when y passes
    # isqrt(hi), where a prime the trial division tags as large is a rank
    # bit of the sieved row
    values = smooth_in_interval(lo, lo + length, y)
    sieved = kernel_masks(smooth_rows(values, y))
    divided = kernel_masks(split_vectors(values))
    assert sieved.dependent == divided.dependent
    assert sieved.independent == divided.independent
    assert row_bits(sieved.coords) == row_bits(divided.coords)
    assert sieved.masks() == divided.masks()


def test_smooth_and_range_batches_reach_the_linear_map():
    # the examples above do take the saturated path: 58 of 75 smooth
    # values, and 68 of 300 values in a range
    smooth = smooth_in_interval(206497, 209497, 37)
    assert linear_map_count(batch_vectors(split_vectors(smooth))) == 58
    assert linear_map_count(batch_vectors(split_vectors(list(range(1001, 1301))))) == 68


def test_curve_point_batch_takes_the_linear_map(monkeypatch):
    # the 70-smooth values of the interval of construct_curve_point(10^6),
    # sieved as the constructor sieves them: 19 bits, full after 20
    # vectors, so 9713 of the 9714 dependencies come from the map
    batch = smooth_rows(smooth_in_interval(206497, 412994, 70), 70)
    vectors = batch_vectors(batch)
    assert len(vectors) == 9733
    assert linear_map_count(vectors) == 9713
    mapped = []
    linear_map = gf2._linear_map
    monkeypatch.setattr(gf2, "_linear_map", lambda basis, rows, words:
                        mapped.append(len(rows)) or linear_map(basis, rows, words))
    assert kernel_masks(batch).masks() == per_vector_kernel_masks(vectors)
    assert mapped == [9713]


def test_curve_point_batch_reads_one_block_as_ints(monkeypatch):
    # the same batch: only the first block of ROW_BLOCK rows becomes Python
    # ints, since the basis is full after 20 of them; the other 9713 reach
    # the linear map as words, and their coordinates stay words
    batch = smooth_rows(smooth_in_interval(206497, 412994, 70), 70)
    read = []
    monkeypatch.setattr(gf2, "row_bits", lambda words: read.append(len(words)) or row_bits(words))
    kernel = kernel_masks(batch)
    # the OR of the rows, the first block and the tagged rows past it (none)
    assert read == [1, 64, 0]
    assert kernel.coords.shape == (9714, 1)


@given(st.integers(min_value=10 ** 8, max_value=10 ** 9), st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_kernel_matches_per_vector_oracle_on_batches_that_never_fill(lo, length):
    # near 10^9 a run of up to 40 values has far more small primes than
    # values, so its small basis does not fill; only a run of squares, of
    # width 0, is full from the start
    batch = split_vectors(list(range(lo + 1, lo + length + 1)))
    vectors = batch_vectors(batch)
    assume(any(bits for _, bits in vectors))
    assert linear_map_count(vectors) == 0
    check_kernel(batch)


@given(st.one_of(st.integers(min_value=1, max_value=10 ** 6),
                 st.integers(min_value=1, max_value=10 ** 12)),
       st.integers(min_value=1, max_value=3000),
       st.lists(st.integers(min_value=0, max_value=3000), max_size=6),
       st.sampled_from([0, 1, 1000]))
@example(1, 3, [], 0)              # B = 1: every prime is a tag
@example(2, 2, [1], 0)
@example(1, 3000, [1, 7, 64], 0)   # squares are densest from 1: 54 zero rows
@example(10 ** 6, 3000, [5, 400, 401], 0)
@example(10 ** 12 - 2999, 3000, [100], 0)  # hi = (10^6)^2
@example(10 ** 9, 1000, [3], 1000)
@settings(max_examples=40, deadline=None)
def test_sweep_ends_give_the_closes_of_the_sweep_before_the_fold(lo, length, cuts, extra):
    # the folded rows of lo..hi, each window cut into blocks at arbitrary
    # points, go into one SweepBasis; the closes read from its ends,
    # (ends >= 0) & (ends < index), are those of the basis with a dict of
    # large rows that takes every value one at a time, with the same n;
    # a -1 end is a row that joined the basis, whose slot is its bit length
    hi = lo + length - 1
    bound = isqrt(hi) + extra
    width = len(primes_through(bound))
    basis, oracle = SweepBasis(width), TaggedSweepBasis(width)
    got, expected, joined = [], [], 0
    for start, large, words, p_plus in parity_windows(lo, hi + 1, bound):
        for r, q, bits in zip(range(start, start + len(large)), large.tolist(), row_bits(words)):
            n = oracle.insert(q, bits, r)
            if n is not None:
                expected.append((r, n))
        edges = sorted({0, len(large), *(c % (len(large) + 1) for c in cuts)})
        for i, j in zip(edges, edges[1:]):
            index, starts, bits = folded_rows((start + i, large[i:j], words[i:j], p_plus[i:j]), lo)
            ends = np.array(basis.insert(starts, bits), dtype=np.int64)
            assert len(ends) == len(index)
            closes = (ends >= 0) & (ends < index)
            got += zip(index[closes].tolist(), ends[closes].tolist())
            joined += int(np.count_nonzero(ends == -1))
    assert got == expected
    assert basis.small_bits[0] == 0
    assert [k for k, row in enumerate(basis.small_bits) if row] == \
        [row.bit_length() for row in basis.small_bits if row]
    assert joined == sum(map(bool, basis.small_bits))
