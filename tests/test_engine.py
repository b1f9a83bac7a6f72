"""The split-vector GF(2) engine against frozen outputs and the frozenset oracle.

The scan and k*p digests were taken from the frozenset engine before the
split representation replaced it; the curve-point, construct and interval
kernel digests were taken while kernels still ranked the primes of a
prime-set family; the digests of scans without witnesses and of the dist
file were taken while those scans still ran one compute_tn search per n.
The property tests compare the engine with the frozenset engine, kept in
oracles.py, on t, the canonical witness and kernel masks, and the one-sweep
scan with per-n searches.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from math import isqrt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tnlab
from oracles import (frozenset_kernel_masks, frozenset_tn, is_smooth, is_square, odd_support,
                     tn_row)
from tnlab.cli import main
from tnlab.constructor import build_small_tn, construct_curve_point
from tnlab.errors import CapExceeded
from tnlab.gf2 import kernel_masks, mask_bits
from tnlab.intervals import enumerate_square_subsets
from tnlab.sieve import build_spf_table, parity_windows, primes_up_to, split_vectors
from tnlab import tn
from tnlab.tn import ParitySupplier, compute_tn, render_results, scan_tn

SCAN_DIGEST = "9f2a1868c703137985338befd8a948abff63c5f25ec832dfd4da053d95852a16"
KP_DIGEST = "180d070eb4bce7100e0c5c0b8ea984240f6faab8eac586575a822423108a7c38"
# scans without witnesses: (lo, hi, cap, use_shortcut) -> digest of the CSV
SWEEP_DIGESTS = {
    (2, 3000, None, False): "b53bd905be7709e3e9bbab3b54ec74dc24941b334c2a4bf099b29b427dc4d7a9",
    (2, 2000, 40, False): "d544fe67fa432873ab869d9945d92adb6eef9a9e9b192b105799163dd7472bea",
    (1, 100000, None, True): "84da83ac7be648062c5b92c8fff496aa3463dceec018187d6da52a8c67a03a15",
}
DIST_DIGEST = "65c84168b5a5f232783ba0eb76c87c5273cfff87032dfcaf155ce3cd792cf490"
CURVE_DIGESTS = {
    (0.5, 0): "72b8175bdec933a878be86764249beb75ad8939bdfa26fa1ff0f5228873d8a8f",
    (0.3, 7): "2a005237298154f94d6c4582be0e5b5b721502de0180b7be2f6a54ddb0abf6d4",
}
CONSTRUCT_DIGEST = "534fdf279ada852825c2ac51f101ca5bfeb9fd8c4a06e1092c42693850745a11"
# (lo, hi] -> digest of the JSON kernel basis. The last two intervals are
# longer than isqrt(hi), so two of their values can share a prime above
# the bound B = isqrt(hi) and the kernel cancels large tags.
KERNEL_DIGESTS = {
    (40, 64): "4a29c93a4df14929f9c9ca42ad8351137dab325c43b973d740a130279e1fd7d8",
    (1000, 1300): "ff4aeaa6a0d8a1d5c4a7846ebbd9a8f4f3f2a97eee51cbe5315ddda83fd5e814",
    (200000, 201000): "b096c7be9995f25194a3d2d9995883ff0f181894bff6fb974c83fd8e2bc1702c",
}

# the small-table supplier verifies values above this by trial division;
# searches read their vectors from sieve windows at every height
SMALL_TABLE = 1 << 12


@pytest.fixture(scope="module")
def small_supplier():
    return ParitySupplier(build_spf_table(SMALL_TABLE))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_scan_without_shortcut():
    text = render_results(scan_tn(2, 3000, use_shortcut=False, include_witness=True))
    assert _digest(text) == SCAN_DIGEST


def test_golden_scans_without_witness():
    for (lo, hi, cap, use_shortcut), digest in SWEEP_DIGESTS.items():
        rows = scan_tn(lo, hi, cap=cap, use_shortcut=use_shortcut)
        assert _digest(render_results(rows)) == digest


def test_golden_dist_file(tmp_path):
    out = tmp_path / "dist.csv"
    argv = ["dist", "--x", "100000", "--c", "0.35", "--c", "0.5", "--c", "0.65", "--c", "0.8"]
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIST_DIGEST


@given(st.integers(min_value=1, max_value=20000), st.integers(min_value=0, max_value=300),
       st.one_of(st.none(), st.integers(min_value=1, max_value=200)), st.booleans())
@settings(max_examples=60, deadline=None)
def test_sweep_matches_per_n_searches(small_supplier, lo, length, cap, use_shortcut):
    hi = lo + length
    rows = scan_tn(lo, hi, cap, use_shortcut, include_witness=False, supplier=small_supplier)
    assert rows == [tn_row(n, cap, use_shortcut, False, small_supplier)
                    for n in range(lo, hi + 1)]
    ts, shortcut = tn.scan_t(lo, hi, cap, use_shortcut)
    for fmt in ("csv", "json"):
        assert tn.render_t(lo, ts, shortcut, fmt) == render_results(rows, fmt)


@given(st.integers(min_value=2, max_value=20000),
       st.one_of(st.none(), st.integers(min_value=1, max_value=200)), st.booleans(),
       st.integers(min_value=1, max_value=5000))
@settings(max_examples=60, deadline=None)
def test_search_is_unchanged_under_a_larger_bound(n, cap, use_shortcut, extra):
    # compute_tn sieves under B = isqrt(n + limit), a witnessed scan under
    # the B of its whole range. A larger B turns large tags into rank bits
    # but keeps t, the canonical witness and every capped row.
    expected = tn_row(n, cap, use_shortcut, True)
    supplier = ParitySupplier()
    supplier.primes(isqrt(4 * n) + extra)  # past every bound of a search of n
    with mock.patch.object(tn, "parity_windows",
                           lambda a, b, bound, primes: parity_windows(a, b, bound + extra, primes)):
        assert tn_row(n, cap, use_shortcut, True, supplier) == expected


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=0, max_value=60),
       st.one_of(st.none(), st.integers(min_value=1, max_value=60)), st.booleans(),
       st.sampled_from((1, 2)))
@settings(max_examples=40, deadline=None)
@example(1, 300, 40, True, 2)  # two chunks of 256 rows, with capped and shortcut rows
@example(2, 300, None, False, 1)
def test_witnessed_scan_matches_per_n_searches(lo, length, cap, use_shortcut, workers):
    # one window pass for the whole range, each search reading it from its
    # n on, against one compute_tn search per n
    hi = lo + length
    rows = scan_tn(lo, hi, cap, use_shortcut, include_witness=True, workers=workers)
    assert rows == [tn_row(n, cap, use_shortcut, True) for n in range(lo, hi + 1)]


def test_golden_witnessed_kp_rows():
    rng = random.Random(2211)
    primes = primes_up_to(5000)
    ns = [rng.randint(1, 60) * rng.choice(primes) for _ in range(60)]
    rows = [compute_tn(n, include_witness=True) for n in ns]
    assert _digest(render_results(rows)) == KP_DIGEST


def test_golden_curve_points():
    table = build_spf_table(10 ** 6)
    for (c, seed), digest in CURVE_DIGESTS.items():
        cert = construct_curve_point(10 ** 6, c, seed, table=table)
        assert _digest(json.dumps(cert.to_json_dict(), sort_keys=True)) == digest


def test_golden_construct_file(tmp_path):
    out = tmp_path / "construct.json"
    assert main(["construct", "--x", "1000000", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONSTRUCT_DIGEST


def test_golden_interval_kernels(small_supplier):
    for (lo, hi), digest in KERNEL_DIGESTS.items():
        e = enumerate_square_subsets(lo, hi, mode="kernel", supplier=small_supplier)
        assert _digest(json.dumps(e.kernel_basis)) == digest


def _engine_tn(n, cap, supplier):
    try:
        r = compute_tn(n, cap=cap, use_shortcut=False, supplier=supplier)
    except CapExceeded as e:
        assert (e.n, e.cap, e.inserted) == (n, cap, cap)
        return None
    return r.t, r.witness


@given(st.integers(min_value=2, max_value=3000))
@settings(max_examples=60, deadline=None)
def test_search_matches_frozenset_oracle(n):
    # t_n <= 3n, since n * 4n is a square, so the oracle always finishes
    assert _engine_tn(n, None, None) == frozenset_tn(n, 3 * n)


@given(st.integers(min_value=2, max_value=20000), st.integers(min_value=1, max_value=60))
@settings(max_examples=60, deadline=None)
def test_capped_search_matches_frozenset_oracle(n, cap):
    assert _engine_tn(n, cap, None) == frozenset_tn(n, cap)


@given(st.integers(min_value=SMALL_TABLE + 1, max_value=300000),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_search_above_table_limit_matches_frozenset_oracle(small_supplier, n, cap):
    assert _engine_tn(n, cap, small_supplier) == frozenset_tn(n, cap)


def test_witnessed_shortcut_rows_above_table_limit(small_supplier):
    # P+(n) = p > sqrt(2n) + 1, so the search runs to exactly t = p, past
    # the table on every value
    for k, p in [(2, 5003), (3, 4099), (7, 1103)]:
        n = k * p
        r = compute_tn(n, supplier=small_supplier)
        assert r.shortcut_used and (r.t, r.witness) == frozenset_tn(n, p)


SMALL_PRIMES = primes_up_to(200)
SMALL_RANK = {p: r for r, p in enumerate(SMALL_PRIMES)}


@st.composite
def split_vector_families(draw):
    """A family of split vectors (q, bits): at most one large prime q and
    a rank bitset over the primes up to 200, with its prime sets."""
    pool = draw(st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=12, unique=True))
    k = draw(st.integers(min_value=1, max_value=24))
    vectors, supports = [], []
    for _ in range(k):
        small = draw(st.sets(st.sampled_from(pool), max_size=5))
        q = draw(st.sampled_from((0, 0, 10007, 99991, 999983)))
        vectors.append((q, sum(1 << SMALL_RANK[p] for p in small)))
        supports.append(frozenset(small) | ({q} if q else set()))
    return vectors, supports


@given(split_vector_families())
@settings(max_examples=150, deadline=None)
def test_kernel_masks_match_frozenset_oracle(family):
    vectors, supports = family
    masks = kernel_masks(vectors)
    assert masks == frozenset_kernel_masks(supports)
    for m in masks:
        acc = frozenset()
        for i in mask_bits(m):
            acc ^= supports[i]
        assert not acc


@given(st.integers(min_value=0, max_value=400000), st.integers(min_value=2, max_value=300))
@settings(max_examples=40, deadline=None)
def test_interval_kernel_matches_frozenset_oracle(small_supplier, lo, length):
    hi = lo + length
    elements = list(range(lo + 1, hi + 1))
    expected = tuple(tuple(elements[b] for b in range(length) if m >> b & 1)
                     for m in frozenset_kernel_masks(odd_support(e) for e in elements))
    got = enumerate_square_subsets(lo, hi, mode="kernel", supplier=small_supplier)
    assert got.kernel_basis == expected


def test_small_tn_is_first_frozenset_dependency(table):
    # build_small_tn eliminates only the first pi(y) + 1 smooth values; its
    # witness must still be the first dependency of the whole batch. With
    # y above isqrt(hi), primes between them are large tags.
    for lo, hi, y in [(1000, 1300, 60), (5000, 5200, 97), (20000, 20300, 150), (47, 56, 7)]:
        smooths = [m for m in range(lo + 1, hi + 1) if is_smooth(m, y)]
        first = frozenset_kernel_masks(odd_support(m) for m in smooths)[0]
        members = [smooths[i] for i in mask_bits(first)]
        n = members[0]
        assert build_small_tn(lo, hi, y, table) == (n, tuple(m - n for m in members[1:]))


def test_split_vectors_have_one_large_prime():
    # one value per batch, so that each is split under B = isqrt(m)
    rank = {p: r for r, p in enumerate(primes_up_to(1000))}
    for m in list(range(1, 3000)) + list(range(SMALL_TABLE - 50, SMALL_TABLE + 50)):
        bound = isqrt(m)
        [(q, bits)] = split_vectors([m])
        support = odd_support(m)
        assert q == (max(support) if support and max(support) > bound else 0)
        assert bits == sum(1 << rank[p] for p in support if p <= bound)
        if is_square(m):
            assert (q, bits) == (0, 0)


CHILD = """
import resource
from tnlab.errors import CapExceeded
from tnlab.tn import compute_tn
try:
    compute_tn(2 ** 41, cap=300, use_shortcut=False)
except CapExceeded:
    pass
r = compute_tn(400006, include_witness=True)
assert r.t == 200003 and r.shortcut_used and r.witness[-1] == r.t
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
"""


def test_witnessed_search_memory_is_linear_in_t():
    # t = 200003; the frozenset engine, whose rows all carried combination
    # masks, peaked near 560 MB on this search. The capped search first
    # has B = isqrt(2^41 + 300), so about 1.1 * 10^5 prime ranks: kept as
    # 1 << rank they would take about 800 MB.
    src = str(Path(tnlab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", CHILD], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert int(out.stdout.strip()) < 150
