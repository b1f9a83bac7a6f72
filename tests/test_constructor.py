import math
import os
import random
import subprocess
import sys
import tracemalloc
from functools import reduce
from itertools import combinations
from operator import xor
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import pair_loop_max_symdiff, split_vectors, xor_draw_family
from tnlab import constructor
from tnlab.constructor import (_draw_family, _widest_pair, build_small_tn, construct_curve_point,
                               find_smooth_rich_intervals, max_symdiff_pair)
from tnlab.errors import PipelineFailed, RangeError, UsageError
from tnlab.gf2 import kernel_masks, mask_bits
from tnlab.sieve import build_spf_table, smooth_in_interval
from tnlab.tn import compute_tn, verify_witness


def masks(family):
    """Each set of the family as an int mask over the sorted union."""
    bit = {e: b for b, e in enumerate(sorted(set().union(*family)))}
    return [sum(1 << bit[e] for e in s) for s in family]


def test_find_intervals_reverified(table):
    table4 = build_spf_table(10 ** 4)
    found = find_smooth_rich_intervals(10 ** 4, 20, 100, 0.5, table4)
    assert found
    from tnlab.sieve import psi_count
    psi = psi_count(10 ** 4, 20, table4)
    threshold = 0.5 * 100 * psi / 10 ** 4
    for lo, hi in found:
        assert hi - lo == 100
        assert lo >= 10 ** 4 / math.log(10 ** 4) - 100
        assert hi <= 10 ** 4
        assert len(smooth_in_interval(lo, hi, 20, table4)) > threshold
    # completeness: one smooth count per interval, in a loop over every k
    # from the first interval at or above x / log x, is the reference for
    # the counts read off one P+ array; without a table P+ is sieved
    first = max(1, math.ceil(10 ** 4 / math.log(10 ** 4) / 100))
    assert found == [(k * 100, k * 100 + 100) for k in range(first, 100)
                     if len(smooth_in_interval(k * 100, k * 100 + 100, 20)) > threshold]
    assert find_smooth_rich_intervals(10 ** 4, 20, 100, 0.5) == found


def test_find_intervals_delta_zero(table):
    table4 = build_spf_table(2000)
    found = find_smooth_rich_intervals(2000, 10, 50, 0.0, table4)
    for lo, hi in found:
        assert len(smooth_in_interval(lo, hi, 10, table4)) > 0


def test_find_intervals_length_exceeds_x(table):
    assert find_smooth_rich_intervals(100, 10, 200, 0.25, table) == []


def test_find_intervals_validation(table):
    with pytest.raises(RangeError):
        find_smooth_rich_intervals(1000, 10, 50, 1.5, table)
    with pytest.raises(RangeError):
        find_smooth_rich_intervals(1000, 60, 50, 0.5, table)


def test_build_small_tn_examples(table):
    # (47, 56] holds five 7-smooth integers {48,49,50,54,56} > pi(7) = 4;
    # the first kernel element is the square 49
    assert build_small_tn(47, 56, 7, table) == (49, ())
    # (48, 56] has only four, so the count hypothesis fails
    assert build_small_tn(48, 56, 7, table) is None
    # (1, 6]: smooths {2,3,4,6}, pi(3) = 2; kernel starts at the square 4
    assert build_small_tn(1, 6, 3, table) == (4, ())


def test_build_small_tn_certifies_bound(table):
    table4 = build_spf_table(10 ** 4)
    for lo, hi in find_smooth_rich_intervals(10 ** 4, 20, 150, 0.5, table4)[:4]:
        built = build_small_tn(lo, hi, 20, table4)
        if built is None:
            continue
        n, offsets = built
        assert lo < n <= hi
        assert verify_witness(n, offsets)
        assert compute_tn(n, include_witness=False).t <= hi - lo
        if offsets:
            assert n + max(offsets) <= hi


def test_small_tn_sieves_only_its_first_smooth_values(monkeypatch):
    # the pigeonhole needs pi(y) + 1 rows, so the batch that reaches
    # smooth_rows stops at the (pi(y) + 1)-th smooth value of the interval,
    # and the curve point's batch is the whole interval's
    batches = []
    sieved = constructor.smooth_rows
    monkeypatch.setattr(constructor, "smooth_rows",
                        lambda values, y: batches.append((list(values), y)) or sieved(values, y))
    lo, hi = 10 ** 6, 10 ** 6 + 2000
    assert build_small_tn(lo, hi, 30.5) is not None
    assert batches == [(smooth_in_interval(lo, hi, 30)[:11], 30)]  # pi(30) = 10
    batches.clear()
    cert = construct_curve_point(10 ** 6, 0.5, seed=0)
    [(values, y)] = batches
    assert values == smooth_in_interval(*cert.interval, y) and y == int(cert.y)


def test_build_small_tn_returns_only_what_verify_witness_accepts(table, monkeypatch):
    seen = []
    monkeypatch.setattr(constructor, "verify_witness",
                        lambda n, w: seen.append((n, w)) or False)
    with pytest.raises(AssertionError, match="n = 49"):
        build_small_tn(47, 56, 7, table)
    assert seen == [(49, ())]


# the certificate check is no assert statement: under python -O, with the
# check made to fail, the pipeline still raises instead of emitting
OPTIMIZED_CHILD = """
from tnlab import constructor
assert False, "asserts must be stripped here"
constructor.verify_witness = lambda n, witness: False
try:
    constructor.construct_curve_point(10 ** 5, 0.5, seed=1, y=30, length=5000)
except AssertionError as e:
    print(e)
"""


def test_curve_point_check_survives_python_O():
    src = str(Path(constructor.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHILD], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("n = ") and "not a square" in out.stdout


def test_max_symdiff_trivial_pairs():
    subsets = [frozenset({1}), frozenset({2})]
    assert max_symdiff_pair(masks(subsets)) == (0, 1, 2)

    # all subsets of {1..Q}: extremes are the empty set and the full set
    q = 4
    family = [frozenset(c) for r in range(q + 1)
              for c in combinations(range(1, q + 1), r)]
    i, j, size = max_symdiff_pair(masks(family))
    assert size == q
    assert family[i] ^ family[j] == frozenset(range(1, q + 1))


def test_max_symdiff_usage_errors():
    with pytest.raises(UsageError):
        max_symdiff_pair(masks([frozenset({1})]))
    with pytest.raises(UsageError):
        max_symdiff_pair(masks([frozenset({1}), frozenset({1})]))


def test_max_symdiff_matches_exhaustive_oracle():
    rng = random.Random(3)
    family = list({frozenset(k for k in range(64) if rng.random() < 0.4)
                   for _ in range(40)})
    i, j, size = max_symdiff_pair(masks(family))
    best = max(len(a ^ b) for a, b in combinations(family, 2))
    assert size == best
    assert len(family[i] ^ family[j]) == best


def test_max_symdiff_guarantee_random_family():
    # 2^8 distinct subsets of {1..64}: the returned difference must clear
    # Q / (6 ln N) with Q = 8, N = 64
    rng = random.Random(5)
    family = set()
    while len(family) < 256:
        family.add(frozenset(k for k in range(1, 65) if rng.random() < 0.5))
    _, _, size = max_symdiff_pair(masks(sorted(family, key=sorted)))
    assert size > 8 / (6 * math.log(64))


def test_max_symdiff_anchor_mode(monkeypatch):
    monkeypatch.setattr(constructor, "EXHAUSTIVE_PAIR_LIMIT", 8)
    family = [frozenset({k}) for k in range(20)]
    i, j, size = max_symdiff_pair(masks(family))
    assert size == 2 and i < j


def test_curve_point_certificate():
    # the asymptotic default parameters need x beyond 1e5, so desk-scale
    # unit tests pin y and the interval length explicitly
    cert = construct_curve_point(10 ** 5, 0.5, seed=1, y=30, length=5000)
    assert cert.offsets == tuple(sorted(cert.offsets))
    assert cert.N == len(cert.offsets)
    assert all(1 <= j < cert.J for j in cert.offsets)
    assert verify_witness(cert.n, list(cert.offsets) + [cert.J])
    assert cert.meets_target == (cert.N >= math.ceil(cert.J ** 0.5))


def test_curve_point_deterministic_per_seed():
    a = construct_curve_point(10 ** 5, 0.5, seed=7, y=30, length=5000)
    b = construct_curve_point(10 ** 5, 0.5, seed=7, y=30, length=5000)
    assert a.to_json_dict() == b.to_json_dict()


def test_curve_point_parity_invariant_under_offset_shuffle():
    cert = construct_curve_point(10 ** 5, 0.4, seed=2, y=30, length=5000)
    offsets = list(cert.offsets) + [cert.J]
    assert verify_witness(cert.n, sorted(offsets))


def test_curve_point_too_small():
    with pytest.raises(PipelineFailed):
        construct_curve_point(100, 0.5)


def test_curve_point_rejects_a_family_below_two_before_sieving(monkeypatch):
    def no_sieving(*args, **kwargs):
        raise AssertionError("sieved before checking family_size")

    monkeypatch.setattr(constructor, "build_spf_table", no_sieving)
    monkeypatch.setattr(constructor, "find_smooth_rich_intervals", no_sieving)
    for family_size in (1, 0, -3):
        with pytest.raises(RangeError, match="family_size"):
            construct_curve_point(200000, 0.5, y=30, family_size=family_size)


def run_kernel(lo, length, dim):
    """The kernel of lo+1, ..., lo+length up to its dim-th dependency: its
    masks are the first dim masks of the whole range's kernel."""
    values = list(range(lo + 1, lo + length + 1))
    whole = kernel_masks(split_vectors(values))
    if not whole:
        return whole
    kernel = kernel_masks(split_vectors(values[:whole.dependent[:dim][-1] + 1]))
    assert kernel.masks() == whole.masks()[:dim]
    return kernel


def members_of(masks, selectors):
    """The kernel member of each selector: the XOR of the masks it picks."""
    return [reduce(xor, (masks[k] for k in mask_bits(sel)), 0) for sel in selectors]


def check_family_and_pair(kernel, seed, family_size):
    """_draw_family and _widest_pair against the XOR draw and the pure-Python
    pair loop on the kernel's masks; returns the family size."""
    masks = kernel.masks()
    family = _draw_family(kernel, random.Random(seed), family_size)
    expected = xor_draw_family(masks, random.Random(seed), family_size)
    assert members_of(masks, family) == expected
    if len(expected) >= 2:
        i, j, size = pair_loop_max_symdiff(expected, constructor.EXHAUSTIVE_PAIR_LIMIT)
        assert _widest_pair(kernel, family) == (mask_bits(expected[i] ^ expected[j]), size)
    return len(family)


@given(st.integers(min_value=0, max_value=2 * 10 ** 5), st.integers(min_value=2, max_value=1200),
       st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2 ** 32),
       st.integers(min_value=2, max_value=256))
@settings(max_examples=80, deadline=None)
def test_draw_family_matches_xor_oracle(lo, length, dim, seed, family_size):
    kernel = run_kernel(lo, length, dim)
    assume(kernel)
    check_family_and_pair(kernel, seed, family_size)


@pytest.mark.parametrize("dim, family_size, seed, drawn", [
    (7, 128, 0, 128),   # every member, enumerated
    (8, 256, 0, 256),   # every member, enumerated
    (8, 255, 223, 254),  # random draws, stopped by the 8 * 255 attempt cap
])
def test_draw_family_matches_xor_oracle_at_the_edges(dim, family_size, seed, drawn):
    kernel = run_kernel(1000, 300, dim)
    assert len(kernel) == dim
    assert check_family_and_pair(kernel, seed, family_size) == drawn


@given(st.integers(min_value=0, max_value=2 * 10 ** 5), st.integers(min_value=2, max_value=600),
       st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2 ** 32),
       st.integers(min_value=2, max_value=64))
@settings(max_examples=40, deadline=None)
def test_widest_pair_matches_the_anchor_oracle(lo, length, dim, seed, limit):
    # families above the limit are scanned from one anchor only
    kernel = run_kernel(lo, length, dim)
    assume(kernel)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constructor, "EXHAUSTIVE_PAIR_LIMIT", limit)
        check_family_and_pair(kernel, seed, 128)


@given(st.lists(st.integers(min_value=0, max_value=2 ** 8 - 1), min_size=2, max_size=60,
                unique=True),
       st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=70))
@settings(max_examples=150, deadline=None)
def test_max_symdiff_matches_the_pair_loop(masks, shift, limit):
    # eight-bit masks tie often, so the tie rule is exercised; the shift
    # moves them across word boundaries
    masks = [m << 60 * shift for m in masks]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constructor, "EXHAUSTIVE_PAIR_LIMIT", limit)
        assert max_symdiff_pair(masks) == pair_loop_max_symdiff(masks, limit)


def test_curve_point_memory_stays_under_its_stated_peak():
    # the P+ arrays of the 10^6 table (16 MB) and the parity windows of the
    # interval set the peak, 22.3 MB; one mask per kernel vector, as kept
    # before, took it to 25.4 MB
    tracemalloc.start()
    try:
        construct_curve_point(10 ** 6, 0.5, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 10 ** 6
