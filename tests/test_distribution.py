import hashlib
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import mpmath_power_threshold, rho_quadrature
from tnlab import distribution
from tnlab.distribution import (conjecture_scan, dickman_rho, distribution_table,
                                exceptional_set, power_threshold)
from tnlab.errors import RangeError
from tnlab.sieve import build_spf_table
from tnlab.tn import scan_tn


def test_rho_on_unit_interval():
    for u in (0.0, 0.3, 0.7, 1.0):
        assert dickman_rho(u) == 1.0


def test_rho_closed_form_on_1_2():
    assert abs(dickman_rho(2.0) - (1 - math.log(2))) < 1e-12
    assert abs(dickman_rho(1.5) - (1 - math.log(1.5))) < 1e-12


def test_rho_against_quadrature_oracle():
    for u in (2.5, 3.0, 4.0, 5.0):
        assert abs(dickman_rho(u) - rho_quadrature(u)) < 1e-6


def test_rho_range_errors():
    with pytest.raises(RangeError):
        dickman_rho(-0.1)
    with pytest.raises(RangeError):
        dickman_rho(50.5)


def test_rho_monotone_decreasing_beyond_1():
    us = [1.0 + 0.25 * k for k in range(1, 40)]
    vals = [dickman_rho(u) for u in us]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_rho_gamma_sanity_bound():
    # rho(u) <= 1/Gamma(u+1), checked with slack factor 2
    for u in (1.5, 2.0, 3.0, 4.0, 5.0):
        assert dickman_rho(u) <= 2.0 / math.gamma(u + 1)


def test_power_threshold_exact_ties():
    assert power_threshold(6, 1.0) == 6
    assert power_threshold(10 ** 5, 0.4) == 100
    assert power_threshold(6, math.log(4) / math.log(6)) == 4


def test_power_threshold_matches_mpmath_reference():
    pytest.importorskip("mpmath")
    rng = random.Random(20)
    cases = []
    for m in (1, 2, 3, 4, 8):
        top = round(10 ** (12 / m))
        for k in [*range(2, 8), *(rng.randrange(8, top) for _ in range(4)), top - 1]:
            if k ** m <= 10 ** 12:
                cases += [(k ** m + d, c) for d in (-1, 0, 1)
                          for c in (0.125, 0.25, 0.5, 1.0, 1 / m)]
                assert power_threshold(k ** m, 1 / m) == k  # the nudge covers 1/3's rounding
    # every 3-decimal c of the dist bench's bands, at its x near 10^5
    cases += [(100_000 + rng.randrange(500), i / 1000) for i in range(300, 901)]
    cases += [(rng.randrange(2, 10 ** rng.randint(2, 12) + 1), rng.uniform(1e-6, 1.0))
              for _ in range(300)]
    for x, c in cases:
        assert power_threshold(x, c) == mpmath_power_threshold(x, c), (x, c)


def test_distribution_examples(table):
    t = distribution_table(6, [1.0])
    assert t.rows[0].count_tn == 6 and t.rows[0].count_smooth == 6

    c = math.log(4) / math.log(6)
    t = distribution_table(6, [c])
    # t-values 0,4,5,0,5,6 for n=1..6: {1,2,4} pass; 4-smooth: {1,2,3,4}... n=6=2*3 also
    assert t.rows[0].count_tn == 3
    assert t.rows[0].count_smooth == 5


def test_distribution_rows_sorted_and_bounded(table):
    t = distribution_table(200, [0.8, 0.4, 0.6])
    cs = [r.c for r in t.rows]
    assert cs == sorted(cs)
    for r in t.rows:
        assert 0 <= r.count_tn <= 200
        assert 0 <= r.count_smooth <= 200
    # counts nondecreasing in c
    assert all(a.count_tn <= b.count_tn for a, b in zip(t.rows, t.rows[1:]))
    assert all(a.count_smooth <= b.count_smooth for a, b in zip(t.rows, t.rows[1:]))


def test_a_c_past_the_rho_grid_is_refused_before_any_sweep(monkeypatch):
    # rho(1/c) is tabulated for 1/c <= 50, and a smaller c is refused before
    # any of [1, x] is swept
    assert distribution_table(1000, [0.02]).rows[0].c == 0.02  # u = 50
    monkeypatch.setattr(distribution, "chunk_map", None)  # a sweep would raise TypeError
    with pytest.raises(RangeError, match=r"got 0\.01$"):
        distribution_table(10 ** 6, [0.5, 0.01])


def test_distribution_exceptional_inequality(table):
    # #{t_n <= T} - #{P+ <= T} <= |E| exactly, any x and c
    x = 2000
    exc, members = exceptional_set(x)
    t = distribution_table(x, [0.3, 0.5, 0.7, 0.9])
    for r in t.rows:
        assert r.diff <= exc
    # P+ from the segmented sieve, with no table or one too small for x,
    # gives what a covering table gives
    assert table.limit >= x
    for tab in (build_spf_table(100), table):
        assert distribution_table(x, [0.3, 0.5, 0.7, 0.9], table=tab) == t
        assert exceptional_set(x, table=tab) == (exc, members)
        assert exceptional_set(x, include_members=False, table=tab) == (exc, None)


def test_distribution_golden_1e4():
    # frozen regression anchor; count_smooth re-derived by independent
    # trial division, count_tn cross-checked against a separate scan
    t = distribution_table(10 ** 4, [0.5])
    r = t.rows[0]
    assert r.threshold == 100
    assert r.count_tn == 3368
    assert r.count_smooth == 3716
    assert r.diff == -348
    assert t.cap_excluded == 0


def test_distribution_takes_only_rows_of_1_to_x(supplier):
    # rows of 2..x would drop n = 1 (t = 0) from every count_tn
    x = 2000
    rows = scan_tn(1, x, supplier=supplier)
    t = distribution_table(x, [0.5], results=rows)
    assert t == distribution_table(x, [0.5])
    assert t.rows[0].count_tn == 627
    for bad in (rows[1:], rows[:-1], rows[:1] + rows[2:] + rows[1:2], rows + rows[-1:]):
        with pytest.raises(RangeError):
            distribution_table(x, [0.5], results=bad)


def test_distribution_table_builds_no_array_of_length_x(peak_growth_mb):
    # both counts are taken chunk by chunk from each chunk's own sweep: the
    # process grew by 12 MB measured at x = 10^6, against 70 MB for t and
    # P+ as arrays of length x
    growth = peak_growth_mb(
        "from tnlab.distribution import distribution_table\n"
        "distribution_table(3000, [0.5])",
        "t = distribution_table(10 ** 6, [0.3, 0.5, 0.7, 1.0])\n"
        "assert t.cap_excluded == 0\n"
        "assert t.rows[-1].count_tn == t.rows[-1].count_smooth == 10 ** 6")
    assert growth < 32


def test_exceptional_set_reads_p_plus_a_chunk_at_a_time():
    # without a table P+ comes from the sieve a chunk at a time: 2.7 MB
    # measured, against 32.0 MB for the P+ of the whole range at once
    tracemalloc.start()
    try:
        count, members = exceptional_set(10 ** 6, include_members=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10 ** 6
    assert (count, members) == (9107, None)
    assert exceptional_set(10 ** 5, table=build_spf_table(10 ** 5)) == exceptional_set(10 ** 5)


@given(st.integers(min_value=2, max_value=5000))
@example(2).via("the smallest x")
@example(3).via("no exceptional n")
@example(4).via("the first exceptional n")
@example(50).via("test_exceptional_examples")
@example(70001).via("three chunks")
@settings(max_examples=20, deadline=None)
def test_distribution_table_counts_the_exceptional_set(x):
    # each chunk counts P+(n)^2 | n from the P+ of its own sweep, and the
    # results path from p_plus_in: both give exceptional_set's count
    cs = [0.5, 1.0]
    count = exceptional_set(x, include_members=False)[0]
    assert distribution_table(x, cs).exceptional_count == count
    assert distribution_table(x, cs, results=scan_tn(1, x)).exceptional_count == count


def test_exceptional_examples():
    count, members = exceptional_set(50)
    assert members == [4, 8, 9, 16, 18, 25, 27, 32, 36, 49, 50]
    assert count == 11
    assert exceptional_set(3) == (0, [])
    assert exceptional_set(4) == (1, [4])


def test_exceptional_excludes_one():
    _, members = exceptional_set(10)
    assert 1 not in members


def test_exceptional_density_trend():
    densities = []
    for x in (10 ** 3, 10 ** 4, 10 ** 5):
        count, _ = exceptional_set(x, include_members=False)
        densities.append(count / x)
    assert densities[0] > densities[1] > densities[2]


def test_conjecture_examples(supplier):
    r = conjecture_scan(100, 0.5)
    assert r.min_ratio > 0
    assert r.argmin_n <= 100
    ratio = r.min_ratio
    t_val = r.argmin_t
    assert abs(t_val / math.log(r.argmin_n) ** 0.5 - ratio) < 1e-12

    r = conjecture_scan(10, 0.9)
    assert [row.n for row in r.rows] == [2, 3, 5, 6, 7, 8, 10]
    for row in r.rows:
        assert abs(row.ratio - row.t / math.log(row.n) ** 0.1) < 1e-12


# x -> digest of the conjecture_scan(x, 0.5) report, taken while it still
# made a row for every non-square n: x = 60 keeps its 53 rows, x = 5000
# drops its 4930 rows
CONJECTURE_DIGESTS = {
    60: "498c22d0ddf9da8e0fca10095c39a7979e9239b437f85f684ad9b6b0bd0186e4",
    5000: "18fc3b210747793b2bd4466c02452c6d56cc89dd9970cad4af62a57cc7583149",
}


def test_golden_conjecture_scans():
    for x, digest in CONJECTURE_DIGESTS.items():
        text = json.dumps(conjecture_scan(x, 0.5).to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_conjecture_schema():
    r = conjecture_scan(30, 0.5)
    d = r.to_json_dict()
    for key in ("x", "c", "scanned", "min_ratio", "argmin_n", "argmin_t"):
        assert key in d


def test_csv_shape(table):
    t = distribution_table(100, [0.5, 1.0])
    text = t.to_csv()
    lines = text.splitlines()
    assert lines[0] == "c,count_tn,count_smooth,diff,normalized_diff,rho_prediction"
    assert len(lines) == 3
    assert text.endswith("\n")
