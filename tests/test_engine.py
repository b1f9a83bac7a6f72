"""The split-vector GF(2) engine against frozen outputs and the frozenset oracle.

The two digests were taken from the frozenset engine before the split
representation replaced it; the property tests compare the engine with
that engine, kept in oracles.py, on t, the canonical witness and kernel
masks.
"""

import hashlib
import os
import random
import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tnlab
from oracles import frozenset_kernel_masks, frozenset_tn, is_square, odd_support
from tnlab.errors import CapExceeded
from tnlab.gf2 import kernel_masks, mask_bits
from tnlab.intervals import enumerate_square_subsets
from tnlab.sieve import build_spf_table, primes_up_to
from tnlab.tn import ParitySupplier, compute_tn, render_results, scan_tn

SCAN_DIGEST = "9f2a1868c703137985338befd8a948abff63c5f25ec832dfd4da053d95852a16"
KP_DIGEST = "180d070eb4bce7100e0c5c0b8ea984240f6faab8eac586575a822423108a7c38"

# values above this go through trial division in the small-table supplier
SMALL_TABLE = 1 << 12


@pytest.fixture(scope="module")
def small_supplier():
    return ParitySupplier(build_spf_table(SMALL_TABLE))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_scan_without_shortcut():
    text = render_results(scan_tn(2, 3000, use_shortcut=False, include_witness=True))
    assert _digest(text) == SCAN_DIGEST


def test_golden_witnessed_kp_rows():
    rng = random.Random(2211)
    primes = primes_up_to(5000)
    ns = [rng.randint(1, 60) * rng.choice(primes) for _ in range(60)]
    rows = [compute_tn(n, include_witness=True) for n in ns]
    assert _digest(render_results(rows)) == KP_DIGEST


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


@st.composite
def prime_set_families(draw):
    pool = draw(st.lists(st.sampled_from(primes_up_to(200) + [10007, 99991, 999983]),
                         min_size=1, max_size=12, unique=True))
    k = draw(st.integers(min_value=1, max_value=24))
    return [frozenset(draw(st.sets(st.sampled_from(pool), max_size=5))) for _ in range(k)]


@given(prime_set_families())
@settings(max_examples=150, deadline=None)
def test_kernel_masks_match_frozenset_oracle(supports):
    masks = kernel_masks(supports)
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


def test_split_vectors_have_one_large_prime(small_supplier):
    rank = {p: r for r, p in enumerate(primes_up_to(1000))}
    for m in list(range(1, 3000)) + list(range(SMALL_TABLE - 50, SMALL_TABLE + 50)):
        bound = isqrt(m)
        q, bits = small_supplier.split(m, bound)
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
