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
from oracles import (batch_vectors, frozenset_kernel_masks, frozenset_tn, interval_kernel_basis,
                     is_smooth, is_square, odd_support, pack_vectors, split_vectors, tn_row,
                     tn_without_jump)
from tnlab.cli import main
from tnlab.constructor import build_small_tn, construct_curve_point
from tnlab.errors import CapExceeded
from tnlab.gf2 import kernel_masks, mask_bits
from tnlab.intervals import enumerate_square_subsets
from tnlab.sieve import build_spf_table, parity_windows, primes_through, primes_up_to
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
# witnessed scans at heights where tn_without_jump is too slow to compare
# with, taken while saturation-jump partners were read from the scan's run:
# (lo, hi, cap, use_shortcut) -> digest of the CSV. Without the shortcut
# the sweep closes a prime n only at 2n, so an uncapped scan inserts every
# value up to 2 * 10^7 (about 23 s); under cap 10^5 it stops at hi + 10^5
# and some rows come back capped.
WITNESSED_DIGESTS = {
    (10 ** 6, 10 ** 6 + 100, None, True):
        "4207c42906245bbba20f0bb903f9f60ddd9130088f5ea1f141e8010840c612de",
    (10 ** 6, 10 ** 6 + 100, 10 ** 5, False):
        "20b3f2a9e1f2ebb1007e725874aef062e4b6d86f7079719a15dc8f2a9cb9d3cd",
    (10 ** 7, 10 ** 7 + 50, None, True):
        "bd0baf5356378c9844f1bb476ea4cbeb8f1563799bd775a6970059cc2325de4c",
    (10 ** 7, 10 ** 7 + 50, 10 ** 5, False):
        "e2ff009cf1f3dac66520e749a01d6d6702da00cf33bf949b404a643bdf047030",
}
# `tnlab tn --n N --out FILE` -> digest of the CSV file, taken while
# searches read rows to their saturation point and then jumped to the
# partner n + q
TN_FILE_DIGESTS = {
    400006: "e74bafd140e3096c9be7be0089fd5a1432c2a9f24b7c63b538ff7a8b9c03b1eb",
    1000000006: "a5d564244bac95c1a79820f447da0ac5700ecefba157199770fe2714f96c2a7c",
    10000000019: "411d0302a95d29fc5552b0300dfdf591e2d93332a0a7f5501b13dda78e40f52e",
    100000000003: "d888d447d37edf8fff321e5d0a03678bd5487494a776d36ff7d6f130c61a76d0",
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
# CLI files of the point search and of brute-mode interval reports, and
# the subset lists of brute mode, taken while the search multiplied out
# every x and brute mode walked its subsets in Gray-code order; the search
# to 10^7 was taken while it sieved every value up to x_limit + J
CLI_DIGESTS = {
    ("runge", "--offsets", "0,1,2,4", "--limit", "100000"):
        "c48204d771a363c9795b914d4f11c405087307a036c00439ade024fdb1052f1e",
    ("runge", "--offsets", "0,1,2,4", "--limit", "10000000"):
        "f8f7811b897d86a5309453826eccbb4e199ace1ee871415192aad67f058789be",
    ("runge", "--offsets", "0,2,3,4,5,6,10,11,12,13", "--limit", "30000"):
        "088dfbe7bb7c519ba8c880302b8969922b7ee711ef8dd907039d63d60af0263c",
    ("interval", "--lo", "1778", "--hi", "1795", "--y", "5", "--brute"):
        "c80183556454d8491181b2ec7a1bc130d007686754559674ef8f57c8a7d96ed3",
    ("interval", "--lo", "100", "--hi", "120", "--y", "7", "--brute"):
        "17d7efafa13905143e8007c3ae0482779b3a92c856a5f08506f2f36d06b991fa",
}
# (lo, hi] -> digest of the JSON list of brute-mode subsets
SUBSET_DIGESTS = {
    (0, 20): "943d76b65489b69f4edc760e9702f1e1f885e31f839c2f7baee69d0b19088ffe",
    (100, 120): "5b3e1aa716bb2f8289c7fc3d01854ad63ca66987630e3c8a26411d89a3e9a556",
}

# CLI scan files, taken while the CLI rendered every row before it wrote
# the file: flags -> digest, the same for --workers 1 and 2. [2, 70000] is
# 3 chunks for one worker and 16 for two; [2, 3000] and [100, 5000] are
# one chunk for one worker and 12 and 16 for two.
CLI_SCAN_DIGESTS = {
    "--lo 2 --hi 70000": "b7287cf78f0d64256cd7743e11db42314d9077938b7c7c252095b4d1ccdfe8e6",
    "--lo 2 --hi 70000 --format json":
        "ec0f79729868acd002489b423d09a4935a34df9270050592d6badc910384dc12",
    "--lo 2 --hi 3000 --witness":
        "d16da77bd0897402e6c303477a060f01b6a2f4307425af0d1d5f08861d14e8a8",
    "--lo 2 --hi 3000 --witness --format json":
        "e2882088675c97e7c7196fc77bab2a23a6f38edd345e79e3cc7271a4834cccd9",
    "--lo 100 --hi 5000 --cap 7 --no-shortcut":
        "fef00f03db457db7cbefedb7e776b4c53b8cdb371973ef09c4aa10035e5d350f",
    "--lo 100 --hi 5000 --cap 7 --no-shortcut --format json":
        "d0366292696d2bbb2cba853b43941cf27f4072ab5a277892d88fd0c02e739eba",
}

# values above this lie past the small table of the supplier, which does
# not read it; searches read their vectors from sieve windows at every height
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


def test_golden_witnessed_scans_at_height():
    for (lo, hi, cap, use_shortcut), digest in WITNESSED_DIGESTS.items():
        rows = scan_tn(lo, hi, cap=cap, use_shortcut=use_shortcut, include_witness=True)
        assert _digest(render_results(rows)) == digest


def test_golden_dist_file(tmp_path):
    out = tmp_path / "dist.csv"
    argv = ["dist", "--x", "100000", "--c", "0.35", "--c", "0.5", "--c", "0.65", "--c", "0.8"]
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIST_DIGEST


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("flags", sorted(CLI_SCAN_DIGESTS))
def test_golden_cli_scan_files(tmp_path, flags, workers):
    out = tmp_path / "scan"
    assert main(["scan", *flags.split(), "--workers", workers, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_SCAN_DIGESTS[flags]


@given(st.integers(min_value=1, max_value=20000), st.integers(min_value=0, max_value=300),
       st.one_of(st.none(), st.integers(min_value=1, max_value=200)), st.booleans())
@settings(max_examples=60, deadline=None)
def test_sweep_matches_per_n_searches(small_supplier, lo, length, cap, use_shortcut):
    hi = lo + length
    rows = scan_tn(lo, hi, cap, use_shortcut, include_witness=False, supplier=small_supplier)
    assert rows == [tn_row(n, cap, use_shortcut, False, small_supplier)
                    for n in range(lo, hi + 1)]
    for fmt in ("csv", "json"):
        assert "".join(tn.scan_lines(lo, hi, cap, use_shortcut, fmt=fmt)) == \
            render_results(rows, fmt)


@given(st.integers(min_value=2, max_value=20000),
       st.one_of(st.none(), st.integers(min_value=1, max_value=200)), st.booleans(),
       st.integers(min_value=1, max_value=5000))
@settings(max_examples=60, deadline=None)
def test_search_is_unchanged_under_a_larger_bound(n, cap, use_shortcut, extra):
    # compute_tn sieves under B = isqrt(n + limit), a witnessed scan under
    # isqrt of its furthest n + t_n. A larger B turns large tags into rank bits
    # but keeps t, the canonical witness and every capped row. It reaches
    # the windows and the basis width together.
    expected = tn_row(n, cap, use_shortcut, True)
    with mock.patch.object(tn, "parity_windows",
                           lambda a, b, bound: parity_windows(a, b, bound + extra)), \
            mock.patch.object(tn, "primes_through", lambda bound: primes_through(bound + extra)):
        assert tn_row(n, cap, use_shortcut, True) == expected


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=0, max_value=60),
       st.one_of(st.none(), st.integers(min_value=1, max_value=60)), st.booleans(),
       st.sampled_from((1, 2)))
@settings(max_examples=40, deadline=None)
@example(1, 300, 40, True, 2)  # two chunks of 256 rows, with capped and shortcut rows
@example(2, 300, None, False, 1)
@example(1000, 520, 25, False, 2)  # capped rows, none searched, in each of three chunks
def test_witnessed_scan_matches_per_n_searches(lo, length, cap, use_shortcut, workers):
    # t from one sweep, then one window pass for the whole range, each
    # search reading it from its n on, against one compute_tn search per n
    hi = lo + length
    rows = scan_tn(lo, hi, cap, use_shortcut, include_witness=True, workers=workers)
    assert rows == [tn_row(n, cap, use_shortcut, True) for n in range(lo, hi + 1)]
    assert rows == [tn_row(n, cap, use_shortcut, True, search=tn_without_jump)
                    for n in range(lo, hi + 1)]


def _outcome(search, n, cap, use_shortcut, include_witness):
    """The row of one search, or the message of its CapExceeded."""
    try:
        return search(n, cap=cap, use_shortcut=use_shortcut, include_witness=include_witness)
    except CapExceeded as e:
        return str(e)


@given(st.integers(min_value=1, max_value=4 * 10 ** 5),
       st.one_of(st.none(), st.integers(min_value=1, max_value=200)), st.booleans(),
       st.booleans())
@settings(max_examples=40, deadline=None)
@example(10, 7, False, True)       # the cap runs out before the small basis saturates
@example(100005, 5, False, True)
@example(211, 200, False, True)    # q = 211 > limit: no partner, capped
@example(20014, 200, False, True)  # 2 * 10007, likewise
# capped tagged targets that close past their partner q: (10, cap 10) has
# q = 5 and closes at t = 8 with witness (2, 5, 8); 28 (q = 7) at 12 and
# 66 (q = 11) at 14
@example(10, 10, False, True)
@example(28, 14, False, True)
@example(66, 22, False, True)
@example(5, None, False, True)     # closes at its partner 10, before it inserts 10 itself
@example(400006, None, True, True)  # 2 * 200003: a shortcut row searched to t = 200003
@example(1, None, True, True)
@example(99856, 3, False, True)    # 316^2
@example(99856, None, True, False)
def test_search_matches_the_search_without_jump(n, cap, use_shortcut, include_witness):
    # starting from the partner changes no t, witness, shortcut flag or
    # CapExceeded message (which carries the inserted count and the rank)
    assert _outcome(compute_tn, n, cap, use_shortcut, include_witness) == \
        _outcome(tn_without_jump, n, cap, use_shortcut, include_witness)


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


def test_golden_tn_files(tmp_path):
    for n, digest in TN_FILE_DIGESTS.items():
        out = tmp_path / f"tn_{n}.csv"
        assert main(["tn", "--n", str(n), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, n


def test_golden_construct_file(tmp_path):
    out = tmp_path / "construct.json"
    assert main(["construct", "--x", "1000000", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONSTRUCT_DIGEST


def test_golden_interval_kernels():
    # the kernel basis of each interval, from gf2.kernel_masks over its rows
    for (lo, hi), digest in KERNEL_DIGESTS.items():
        assert _digest(json.dumps(interval_kernel_basis(lo, hi))) == digest


def test_golden_point_search_and_brute_interval_files(tmp_path):
    out = tmp_path / "out.json"
    for argv, digest in CLI_DIGESTS.items():
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv


def test_golden_brute_subsets():
    for (lo, hi), digest in SUBSET_DIGESTS.items():
        e = enumerate_square_subsets(lo, hi, mode="brute")
        assert _digest(json.dumps(e.subsets)) == digest


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
    masks = kernel_masks(pack_vectors(vectors)).masks()
    assert masks == frozenset_kernel_masks(supports)
    for m in masks:
        acc = frozenset()
        for i in mask_bits(m):
            acc ^= supports[i]
        assert not acc


@given(st.integers(min_value=0, max_value=400000), st.integers(min_value=2, max_value=300))
@settings(max_examples=40, deadline=None)
def test_interval_kernel_matches_frozenset_oracle(lo, length):
    hi = lo + length
    elements = list(range(lo + 1, hi + 1))
    expected = tuple(tuple(elements[b] for b in range(length) if m >> b & 1)
                     for m in frozenset_kernel_masks(odd_support(e) for e in elements))
    assert interval_kernel_basis(lo, hi) == expected


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
        [(q, bits)] = batch_vectors(split_vectors([m]))
        support = odd_support(m)
        assert q == (max(support) if support and max(support) > bound else 0)
        assert bits == sum(1 << rank[p] for p in support if p <= bound)
        if is_square(m):
            assert (q, bits) == (0, 0)


# The child reads its own peak resident set, VmHWM: its ru_maxrss would
# start from the peak of the pytest process it was forked from.
CHILD = """
from tnlab.errors import CapExceeded
from tnlab.tn import compute_tn
try:
    compute_tn(2 ** 41, cap=300, use_shortcut=False)
except CapExceeded:
    pass
r = compute_tn(400006, include_witness=True)
assert r.t == 200003 and r.shortcut_used and r.witness[-1] == r.t
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) // 1024)
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
