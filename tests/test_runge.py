import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_integral_points, fraction_near_square_decompose
from tnlab import runge
from tnlab.errors import DomainError, RangeError, ResourceError
from tnlab.runge import (RationalPoly, expand_offset_poly, height_bound,
                         near_square_decompose, offsets_near_square,
                         search_integral_points)
from tnlab.sieve import WINDOW_VALUE_CEILING


def poly_eval_int(p: RationalPoly, x: int) -> Fraction:
    return p.evaluate(x)


def test_expand_examples():
    p = expand_offset_poly([0, 1, 2, 3])
    assert [int(c) for c in p.coeffs] == [0, 6, 11, 6, 1]
    p = expand_offset_poly([0, 2, 4, 6])
    assert [int(c) for c in p.coeffs] == [0, 48, 44, 12, 1]


def test_expand_rejects_bad_offsets():
    with pytest.raises(DomainError):
        expand_offset_poly([0, 1])
    with pytest.raises(DomainError):
        expand_offset_poly([1, 2, 3, 4])
    with pytest.raises(DomainError):
        expand_offset_poly([0, 2, 2, 3])
    with pytest.raises(DomainError):
        expand_offset_poly([0, 1, 2, 3, 4])


def test_decompose_canonical_case():
    d = offsets_near_square([0, 1, 2, 3])
    assert [int(c) for c in d.sqrt_part.coeffs] == [1, 3, 1]
    assert [int(c) for c in d.remainder.coeffs] == [-1]
    assert d.checks.all_ok()
    assert not d.remainder_is_zero


def test_decompose_synthetic_square_flags_zero_remainder():
    sq = RationalPoly.from_coeffs([25, 0, 10, 0, 1])  # (x^2 + 5)^2
    d = near_square_decompose(sq)
    assert d.remainder_is_zero
    assert [int(c) for c in d.sqrt_part.coeffs] == [5, 0, 1]


def test_decompose_u3_bounds():
    d = offsets_near_square([0, 1, 2, 4, 5, 6])
    assert d.checks.all_ok()
    f, g = d.sqrt_part, d.remainder
    assert (f * f + g).coeffs == d.poly.coeffs
    assert g.degree < 3


def test_decompose_rejects_bad_inputs():
    with pytest.raises(DomainError):
        near_square_decompose(RationalPoly.from_coeffs([1, 2, 3, 2, 2]))  # not monic
    with pytest.raises(DomainError):
        near_square_decompose(RationalPoly.from_coeffs([0, 1, 0, 1]))  # odd degree
    with pytest.raises(DomainError):
        near_square_decompose(RationalPoly.from_coeffs([Fraction(1, 2), 0, 0, 0, 1]))


def test_rational_poly_canonical_scaling():
    p = RationalPoly.from_coeffs([Fraction(1, 2), Fraction(3, 4), 8])
    assert p.scaled_coeffs() == [(2, 1), (3, 1), (8, 0)]
    with pytest.raises(DomainError):
        RationalPoly.from_coeffs([Fraction(1, 3)])


def test_rational_poly_arithmetic_exact():
    a = RationalPoly.from_coeffs([Fraction(1, 4), 1])
    b = RationalPoly.from_coeffs([Fraction(-1, 4), 1])
    assert (a * b).coeffs == (Fraction(-1, 16), 0, 1)
    assert (a + b).coeffs == (Fraction(0), 2)
    assert (a - b).coeffs == (Fraction(1, 2),)


def _random_offsets(rng, u, span_cap=50):
    span = rng.randrange(2 * u - 1, span_cap + 1)
    interior = sorted(rng.sample(range(1, span), 2 * u - 2))
    return [0] + interior + [span]


def test_decompose_random_offset_sets():
    rng = random.Random(20250809)
    for _ in range(120):
        u = rng.choice([2, 3, 4, 5])
        offsets = _random_offsets(rng, u)
        d = offsets_near_square(offsets)
        f, g = d.sqrt_part, d.remainder
        assert (f * f + g).coeffs == d.poly.coeffs
        assert g.degree < u
        assert not g.is_zero()
        assert d.checks.all_ok(), offsets
        # denominator exponents obey the 4^(u-i) divisibility
        for i in range(u + 1):
            _, k = f.scaled_coeff(i)
            assert k <= u - i


@given(st.integers(min_value=2, max_value=4), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_decompose_evaluates_exactly(u, rng):
    offsets = _random_offsets(rng, u, span_cap=30)
    d = offsets_near_square(offsets)
    for x in (1, 7, 12):
        direct = 1
        for j in offsets:
            direct *= x + j
        assert d.sqrt_part.evaluate(x) ** 2 + d.remainder.evaluate(x) == direct


def test_height_bound_examples():
    assert height_bound(2, 1) == 327680
    assert height_bound(2, 3) == 26542080
    assert height_bound(3, 2) == 5 * 6 ** 12 * 2 ** 6
    with pytest.raises(DomainError):
        height_bound(1, 5)
    with pytest.raises(RangeError):
        height_bound(2, 0)


def test_search_no_points_for_consecutive_run():
    # P + 1 is the square of the near-square part, so P(x) = y^2 would need
    # two squares at distance 1
    assert search_integral_points([0, 1, 2, 3], 10 ** 5) == []


def test_search_matches_polynomial_oracle():
    offsets = [0, 1, 2, 4, 5, 6]
    got = search_integral_points(offsets, 3000)
    p = expand_offset_poly(offsets)
    expect = []
    for x in range(1, 3001):
        v = int(poly_eval_int(p, x))
        r = isqrt(v)
        if r * r == v:
            expect.append((x, r))
    assert got == expect


def test_search_finds_known_point():
    # 2 * 3 * 4 * 6 = 144 = 12^2, so offsets [0,1,2,4] have the point (2, 12)
    pts = search_integral_points([0, 1, 2, 4], 2000)
    assert (2, 12) in pts
    for x, y in pts:
        assert y * y == int(poly_eval_int(expand_offset_poly([0, 1, 2, 4]), x))


def test_offsets_are_checked_and_expanded_once(monkeypatch):
    # a search checks its offsets and expands nothing, and the near-square
    # split of offsets takes their integer coefficients straight from the
    # expansion, not through a RationalPoly read back
    for bad in ([0, 1], [1, 2, 3, 4], [0, 2, 2, 3], [0, 1, 2, 3, 4]):
        with pytest.raises(DomainError):
            search_integral_points(bad, 100)
    offsets = [0, 1, 2, 4, 5, 6]
    expected_points = search_integral_points(offsets, 3000)
    expected_split = runge.near_square_decompose(expand_offset_poly(offsets), span=6)

    def refuse(*args, **kwargs):
        raise AssertionError("not on this path")

    monkeypatch.setattr(runge, "expand_offset_poly", refuse)
    monkeypatch.setattr(runge, "near_square_decompose", refuse)
    got = runge.offsets_near_square(offsets)
    assert got == expected_split and got.to_json_dict() == expected_split.to_json_dict()
    monkeypatch.setattr(runge, "_offset_coeffs", refuse)
    assert search_integral_points(offsets, 3000) == expected_points


def test_search_x_limit_one():
    assert search_integral_points([0, 1, 2, 3], 1) == []



@st.composite
def offset_sets(draw, most_u=6):
    """2u = 4..2 most_u offsets from 0, with spans up to 5000."""
    u = draw(st.integers(min_value=2, max_value=most_u))
    span = draw(st.integers(min_value=2 * u - 1,
                            max_value=draw(st.sampled_from([20, 60, 500, 5000]))))
    interior = draw(st.lists(st.integers(min_value=1, max_value=span - 1),
                             min_size=2 * u - 2, max_size=2 * u - 2, unique=True))
    return [0] + sorted(interior) + [span]


@st.composite
def split_inputs(draw):
    """(poly, span): an offset product with 2u <= 16 and J <= 5000 and its
    span, or a monic integer polynomial of even degree 4..16 with signed
    coefficients, with a span or None."""
    if draw(st.booleans()):
        offsets = draw(offset_sets(most_u=8))
        return expand_offset_poly(offsets), offsets[-1]
    degree = draw(st.sampled_from(range(4, 17, 2)))
    coeffs = draw(st.lists(st.integers(min_value=-10 ** 12, max_value=10 ** 12),
                           min_size=degree, max_size=degree))
    span = draw(st.none() | st.integers(min_value=1, max_value=5000))
    return RationalPoly.from_coeffs(coeffs + [1]), span


@given(split_inputs())
@settings(max_examples=300, deadline=None)
@example((RationalPoly.from_coeffs([25, 0, 10, 0, 1]), None))  # (x^2 + 5)^2: g = 0
@example((RationalPoly.from_coeffs([0, 0, 0, 0, 1]), 1))
def test_integer_split_matches_the_fraction_recurrence(case):
    poly, span = case
    got = near_square_decompose(poly, span)
    expected = fraction_near_square_decompose(poly, span)
    assert got == expected
    assert repr(got) == repr(expected)
    assert got.to_json_dict() == expected.to_json_dict()


@given(offset_sets(), st.integers(min_value=1, max_value=5000))
@settings(max_examples=200, deadline=None)
def test_search_matches_the_per_x_oracle(offsets, x_limit):
    # limits down to 1 against spans up to 5000, so that J often exceeds
    # isqrt(x_limit + J), K holds most values up to x_limit + J, and the
    # kernels b of one x often share primes
    assert search_integral_points(offsets, x_limit) == brute_integral_points(offsets, x_limit)


@pytest.mark.parametrize("values", [1, 3, 7, 64])
def test_search_is_unchanged_by_window_sizes(monkeypatch, values):
    # windows of a few x, shorter and longer than the span J, so that
    # points and their x + J sit across the seams between windows
    monkeypatch.setattr(runge, "WINDOW_VALUES", values)
    for offsets, x_limit in [([0, 10, 13, 14], 18), ([0, 1, 2, 3, 4, 6, 7, 8], 15),
                             ([0, 336, 2088, 2616], 2475), ([0, 1, 2, 4], 2000),
                             ([0, 13, 22, 36], 300), ([0, 14, 28, 72], 400),
                             ([0, 18, 57, 76], 1100)]:
        points = search_integral_points(offsets, x_limit)
        assert points and points == brute_integral_points(offsets, x_limit)


@pytest.mark.parametrize("offsets, x_limit, point", [
    ([0, 10, 13, 14], 18, (14, 504)),            # 7 divides 14 and 28, J = 14
    ([0, 1, 2, 3, 4, 6, 7, 8], 15, (2, 720)),    # 5 divides 5 and 10, J = 8
    ([0, 336, 2088, 2616], 2475, (29, 243455)),  # 73 divides 365 and 2117, J = 2616
])
def test_search_keeps_points_whose_large_tags_pair_up(offsets, x_limit, point):
    # points of an x where two values share a prime above isqrt(x_limit + J),
    # which then divides the kernels b of both
    got = search_integral_points(offsets, x_limit)
    assert point in got
    assert got == brute_integral_points(offsets, x_limit)


def test_search_memory_stays_small():
    # sieving every value up to x_limit + J held 7.2 MB here; the values
    # b z^2 of one window and 64 kernels hold a few kilobytes
    offsets = [0, 2, 3, 4, 5, 6, 10, 11, 12, 13]
    search_integral_points(offsets, 1000)  # the prime array, built once a process
    tracemalloc.start()
    try:
        assert search_integral_points(offsets, 300000) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("offsets, x_limit, what", [
    ([0, 1, 2, 10 ** 4], 10 ** 12, "kernels so far"),  # K passes the cap while built
    ([0, 1, 2, 4], 10 ** 14, "10000000 squares"),      # the squares z^2 alone
    ([0, 1, 2, 10 ** 8], 5, "primes up to"),           # pi(J) alone, before any sieving
])
def test_search_refuses_past_its_cap_before_any_window(offsets, x_limit, what):
    start = time.perf_counter()
    with pytest.raises(ResourceError, match=f"{what}.*the cap {runge.MAX_SEARCH_ENTRIES}"):
        search_integral_points(offsets, x_limit)
    assert time.perf_counter() - start < 1.0


def test_search_refuses_values_past_the_window_ceiling():
    # X = x_limit + J must stay below the ceiling, so that every b z^2 and
    # every x + j fits int64; the last X below it is refused by the cap
    with pytest.raises(RangeError, match="values below"):
        search_integral_points([0, 1, 2, 4], WINDOW_VALUE_CEILING - 4)
    with pytest.raises(ResourceError):
        search_integral_points([0, 1, 2, 4], WINDOW_VALUE_CEILING - 5)


# the height-bound check on every integral point is no assert statement:
# under python -O, with the bound made to fail, the search still raises
OPTIMIZED_CHILD = """
from tnlab import runge
assert False, "asserts must be stripped here"
runge.height_bound = lambda half_degree, span: 1
try:
    runge.search_integral_points([0, 1, 2, 4], 2000)
except AssertionError as e:
    print(e)
"""


def test_height_bound_check_survives_python_O():
    src = str(Path(runge.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHILD], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"))
    assert out.returncode == 0, out.stderr
    assert out.stdout == "integral point x = 2 exceeds height bound 1\n"
