"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with `pytest tests/test_acceptance.py -v -s`).

Scales and tolerances are pinned here and nowhere else: hand-verified
values exactly, derived values from the independent oracles in
tests/oracles.py, runtime ceilings as stated.
"""

import json
import math
import random
import time
from math import isqrt

import pytest

from oracles import brute_pell, largest_prime_factor, rho_quadrature
from tnlab.cli import main as cli_main
from tnlab.constructor import construct_curve_point
from tnlab.distribution import dickman_rho, distribution_table, exceptional_set
from tnlab.heights import pell_solutions
from tnlab.intervals import count_tn_closed, enumerate_square_subsets
from tnlab.runge import offsets_near_square
from tnlab.sieve import build_spf_table, primes_up_to
from tnlab.tn import ParitySupplier, compute_tn, scan_tn, verify_witness


def _report(num, label, t0):
    print(f"\nACCEPTANCE {num}: PASS — {label} ({time.time() - t0:.1f}s)")


@pytest.fixture(scope="module")
def table_1e5():
    return build_spf_table(10 ** 5)




def test_criterion_1_worked_examples_exact():
    t0 = time.time()
    expected = {2: 4, 3: 5, 5: 5, 6: 6, 14: 7}
    for n, t in expected.items():
        r = compute_tn(n)
        assert r.t == t, (n, r.t)
        assert r.witness and max(r.witness) == t
        assert verify_witness(n, r.witness)
    took = time.time() - t0
    assert took < 1.0
    _report(1, "worked examples t_2..t_14 exact with verified witnesses", t0)


def test_criterion_2_lower_bound_and_shortcut_sweep():
    t0 = time.time()
    supplier = ParitySupplier(build_spf_table(1 << 16))
    sweep = scan_tn(2, 10 ** 4, use_shortcut=False, include_witness=False,
                    supplier=supplier)
    tvals = {r.n: r.t for r in sweep}
    checked_bound = checked_shortcut = 0
    for n in range(2, 10 ** 4 + 1):
        if isqrt(n) ** 2 == n:
            continue
        p = largest_prime_factor(n)
        if n % (p * p):
            assert tvals[n] >= p, (n, tvals[n], p)
            checked_bound += 1
        if (p - 1) ** 2 > 2 * n:
            assert tvals[n] == p, (n, tvals[n], p)
            checked_shortcut += 1
    assert checked_bound > 9000
    assert checked_shortcut > 5000
    assert time.time() - t0 < 120
    _report(2, f"t_n >= P+(n) on {checked_bound} n; shortcut exact on "
               f"{checked_shortcut} n (n <= 1e4, full computation)", t0)


@pytest.fixture(scope="module")
def random_intervals():
    rng = random.Random(710)
    out = []
    while len(out) < 200:
        lo = rng.randint(1, 500)
        hi = lo + rng.randint(2, 18)
        out.append((lo, hi))
    return out


@pytest.fixture(scope="module")
def interval_counts(random_intervals, table_1e5):
    supplier = ParitySupplier(table_1e5)
    t0 = time.time()
    counts = []
    for lo, hi in random_intervals:
        b = count_tn_closed(lo, hi)
        enum = enumerate_square_subsets(lo, hi, mode="brute", supplier=supplier)
        counts.append((lo, hi, b, enum.count))
    return counts, time.time() - t0


def test_criterion_3_subset_count_identity(interval_counts):
    t0 = time.time()
    counts, elapsed = interval_counts
    for lo, hi, b, count in counts:
        assert count == 2 ** b, (lo, hi, b, count)
    assert elapsed + (time.time() - t0) < 300
    _report(3, "2^B == brute square-subset count on all 200 random intervals "
               f"(counts took {elapsed:.1f}s)", t0)


def test_criterion_4_smooth_lower_bound(interval_counts, table_1e5):
    t0 = time.time()
    counts, _ = interval_counts
    lpf = table_1e5.largest_prime_factors()
    for y in (5, 7, 11):
        pi_y = len(primes_up_to(y))
        for lo, hi, b, _count in counts:
            smooth = int((lpf[lo + 1:hi + 1] <= y).sum())
            assert b >= smooth - pi_y, (lo, hi, y)
    _report(4, "B >= smooth count - pi(y) for y in {5,7,11} on the same intervals", t0)


def test_criterion_5_dickman_anchors():
    t0 = time.time()
    assert abs(dickman_rho(2.0) - (1 - math.log(2))) < 1e-8
    for u in (2.5, 3.0, 4.0, 5.0):
        assert abs(dickman_rho(u) - rho_quadrature(u)) < 1e-6, u
    took = time.time() - t0
    assert took < 10
    _report(5, "rho(2) = 1 - ln 2 within 1e-8; grid matches quadrature oracle "
               "within 1e-6 at u in {2.5,3,4,5}", t0)


def test_criterion_6_distribution_table_1e5(table_1e5):
    t0 = time.time()
    x = 10 ** 5
    cs = [0.4, 0.5, 0.6, 0.8]
    table = distribution_table(x, cs, table=table_1e5)
    exc_count, _ = exceptional_set(x, include_members=False, table=table_1e5)
    assert table.cap_excluded == 0
    for row in table.rows:
        # the exceptional-set direction is an exact theorem at any scale
        assert row.diff <= exc_count, (row.c, row.diff, exc_count)
        # the other direction carries the recorded O-constant C = 10
        slack = exc_count + (x / (row.c * math.log(x))) * 10
        assert abs(row.diff) <= slack, (row.c, row.diff, slack)
    assert time.time() - t0 < 600
    _report(6, f"x=1e5: count_tn - count_smooth <= |E| = {exc_count} exactly; "
               "|diff| within |E| + 10x/(c ln x) for all four c", t0)


def test_criterion_7_pell_oracle_equivalence():
    t0 = time.time()
    for span in range(1, 201):
        sols = pell_solutions(span)
        assert sols == brute_pell(span)
        assert all(x <= span * span for x, _ in sols)
    took = time.time() - t0
    assert took < 60
    _report(7, "constructive Pell solutions equal brute force for all J <= 200", t0)


def test_criterion_8_runge_decomposition():
    t0 = time.time()
    d = offsets_near_square([0, 1, 2, 3])
    assert [int(c) for c in d.sqrt_part.coeffs] == [1, 3, 1]
    assert [int(c) for c in d.remainder.coeffs] == [-1]

    rng = random.Random(710)
    for _ in range(500):
        u = rng.choice([2, 3, 4, 5])
        span = rng.randrange(2 * u - 1, 51)
        interior = sorted(rng.sample(range(1, span), 2 * u - 2))
        offsets = [0] + interior + [span]
        dec = offsets_near_square(offsets)
        f, g = dec.sqrt_part, dec.remainder
        assert (f * f + g).coeffs == dec.poly.coeffs, offsets
        assert g.degree < u
        assert dec.checks.dyadic_ok, offsets
        assert dec.checks.sqrt_coeff_ok, offsets
        assert dec.checks.remainder_coeff_ok, offsets
    took = time.time() - t0
    assert took < 120
    _report(8, "P = f^2 + g exactly with all coefficient bounds on 500 "
               "random offset sets (u <= 5, J <= 50)", t0)


def test_criterion_9_constructor_soundness():
    t0 = time.time()
    cert = construct_curve_point(10 ** 6, 0.5, seed=0)
    # the pipeline asserts the square product internally; re-verify here
    assert verify_witness(cert.n, list(cert.offsets) + [cert.J])
    assert cert.N == len(cert.offsets)
    took = time.time() - t0
    assert took < 300
    _report(9, f"curve-point certificate at x=1e6 re-verified "
               f"(J={cert.J}, N={cert.N}, n={cert.n})", t0)


ALL_SUBCOMMANDS = [
    ["tn", "--n", "14"],
    ["scan", "--lo", "2", "--hi", "60"],
    ["interval", "--lo", "2", "--hi", "6", "--y", "5", "--brute"],
    ["dist", "--x", "200", "--c", "0.5", "--c", "0.8"],
    ["rho", "--u", "2", "--u", "3.5"],
    ["construct", "--x", "2000", "--y", "10", "--L", "60"],
    ["curve-point", "--x", "20000", "--c", "0.5", "--y", "25", "--L", "1500",
     "--seed", "3"],
    ["pell", "--J", "48"],
    ["bounds", "--kind", "tn-lower", "--n", "65536"],
    ["select-omega", "--bs", "30,77,13", "--J", "13"],
    ["runge", "--offsets", "0,1,2,4", "--limit", "100"],
    ["conjecture", "--x", "50", "--c", "0.5"],
]


def test_criterion_10_cli_determinism(tmp_path, capsys):
    t0 = time.time()
    for argv in ALL_SUBCOMMANDS:
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), argv
    capsys.readouterr()
    _report(10, "all 12 subcommands byte-identical across repeated runs", t0)
