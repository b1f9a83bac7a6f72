import math
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (brute_pell, mpmath_few_offsets_log_value,
                     mpmath_integral_point_log_value, mpmath_tn_lower_value)
from tnlab.errors import DomainError, PreconditionError, RangeError, ResourceError, UsageError
from tnlab.heights import (few_offsets_log_bound, integral_point_log_bound,
                           pell_solutions, pell_system_decompose, select_low_omega,
                           tn_lower_bound_eval)


def test_pell_examples():
    assert pell_solutions(3) == [(1, 2)]
    assert pell_solutions(4) == []
    assert pell_solutions(1) == []


def test_pell_oracle_equivalence_small():
    for span in range(1, 61):
        sols = pell_solutions(span)
        assert sols == brute_pell(span)
        assert all(x <= span * span for x, _ in sols)
        for x, y in sols:
            assert y * y == x * (x + span)


def test_integral_point_log_bound_examples():
    r = integral_point_log_bound(3, 1)
    assert abs(r.log_log_value - 212 * 81 * math.log(12)) < 1e-6
    r = integral_point_log_bound(4, 10)
    expect = 212 * 256 * math.log(16) + 50 * 256 * math.log(10)
    assert abs(r.log_log_value - expect) < 1e-6


def test_integral_point_log_bound_linear_in_log_height():
    a = integral_point_log_bound(3, 2).log_log_value
    b = integral_point_log_bound(3, 4).log_log_value
    assert abs((b - a) - 50 * 81 * math.log(2)) < 1e-6


def test_integral_point_log_bound_domain():
    with pytest.raises(DomainError):
        integral_point_log_bound(2, 5)
    r = integral_point_log_bound(3, 10 ** 400)  # big heights must not overflow
    assert r.log_log_value > 0


def test_few_offsets_examples():
    r = few_offsets_log_bound(1, 2, constant=1.0)
    assert abs(r.log_log_value - math.log(2)) < 1e-12
    assert "1.0" in r.constant_policy


def test_few_offsets_default_expands_chain():
    r = few_offsets_log_bound(3, 50)
    d4 = 5 ** 4
    expect = 212 * d4 * math.log(20) + 50 * d4 * 4 * math.log(50)
    assert abs(r.log_log_value - expect) < 1e-6
    assert r.inputs["constant"] == "default"


def test_few_offsets_monotone_in_count():
    vals = [few_offsets_log_bound(s, 100).log_log_value for s in range(1, 8)]
    assert vals == sorted(vals)
    vals = [few_offsets_log_bound(s, 100, constant=0.5).log_log_value
            for s in range(1, 8)]
    assert vals == sorted(vals)


def test_select_low_omega_example():
    sel = select_low_omega([2 * 3 * 5, 7 * 11, 13], 13)
    assert sel.indices == (2, 1, 0)  # ascending omega: 13, 77, 30
    assert sel.omegas == (1, 2, 3)
    assert all(c.ok for c in sel.checks)


def test_select_low_omega_all_primes():
    sel = select_low_omega([2, 3, 5, 7], 7)
    assert sel.omegas == (1, 1, 1)
    r1 = sel.checks[0]
    assert r1.r == 1 and r1.union_size == 1 and r1.lower_bound == 1


def test_select_low_omega_derived_size_bound():
    from tnlab.sieve import factorize_trial

    bs = [2 * 3 * 5, 7 * 11, 13, 2 * 13, 3 * 7]
    span = 13
    sel = select_low_omega(bs, span)
    t = len(bs)
    union = sel.checks[-1].union_size
    for idx in sel.indices:
        omega = factorize_trial(bs[idx]).omega
        assert omega <= union / (t - 2) + (t - 1) / 2 * math.log(span) + 1


def test_select_low_omega_of_a_large_power():
    # trial division stops once the cofactor left is 1: no primes near 2^50
    sel = select_low_omega([2 ** 100, 3, 5], 13)
    assert sel.omegas == (1, 1, 1)


def test_select_low_omega_refuses_a_span_below_one():
    # as pell_solutions: 1 has no prime factor to blame, and the span is
    # checked before the values
    for span in (0, -5):
        with pytest.raises(RangeError, match="span must be >= 1"):
            select_low_omega([1, 1, 1], span)
        with pytest.raises(RangeError, match="span must be >= 1"):
            select_low_omega([2, 3], span)
    assert select_low_omega([1, 1, 1], 1).omegas == (0, 0, 0)


def test_select_low_omega_precondition_errors():
    with pytest.raises(UsageError):
        select_low_omega([2, 3], 10)
    with pytest.raises(PreconditionError) as exc:
        select_low_omega([2, 3, 34], 10)  # 17 > 10
    assert exc.value.offending == (2, 17)
    with pytest.raises(PreconditionError):
        select_low_omega([30, 30, 7], 10)  # gcd 30 > 10


def test_pell_system_examples():
    ps = pell_system_decompose(2, [0, 2])
    assert [(e.offset, e.squarefree_part, e.root) for e in ps.entries] == \
        [(0, 2, 1), (2, 1, 2)]
    ps = pell_system_decompose(8, [0, 1, 4])
    assert [(e.offset, e.squarefree_part, e.root) for e in ps.entries] == \
        [(0, 2, 2), (1, 1, 3), (4, 3, 2)]
    ps = pell_system_decompose(48, [0, 2])
    assert [(e.offset, e.squarefree_part, e.root) for e in ps.entries] == \
        [(0, 3, 4), (2, 2, 5)]


def test_pell_system_strict_mode():
    with pytest.raises(DomainError):
        pell_system_decompose(3, [0, 1], strict=True)
    # a genuine square product passes strict: 48*49*50*54 = 360^2*49... use
    # the square family {48,50,54} shifted to x=48, offsets 0,2,6
    ps = pell_system_decompose(48, [0, 2, 6], strict=True)
    assert [e.squarefree_part for e in ps.entries] == [3, 2, 6]


def test_pell_system_validation():
    with pytest.raises(DomainError):
        pell_system_decompose(5, [1, 2])
    with pytest.raises(DomainError):
        pell_system_decompose(5, [0, 2, 2])
    with pytest.raises(ResourceError):
        pell_system_decompose(10 ** 13, [0, 1])


@given(st.integers(min_value=1, max_value=10 ** 6),
       st.sets(st.integers(min_value=1, max_value=60), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_pell_system_roundtrip_random(x, offs):
    offsets = [0] + sorted(offs)
    ps = pell_system_decompose(x, offsets)
    span = offsets[-1]
    for e in ps.entries:
        assert e.squarefree_part * e.root ** 2 == x + e.offset
        # squarefree: no prime square divides it
        b = e.squarefree_part
        d = 2
        while d * d <= b:
            assert b % (d * d) != 0
            d += 1
    parts = [e.squarefree_part for e in ps.entries]
    for i in range(len(parts)):
        for k in range(i + 1, len(parts)):
            assert gcd(parts[i], parts[k]) <= span


def test_tn_lower_bound_examples():
    assert tn_lower_bound_eval(16, constant=0.0).log_log_value == 0.0
    with pytest.raises(DomainError):
        tn_lower_bound_eval(15)

    # n ~ e^(e^e): ln ln ln n ~ 1, so the value is ~ e^(6/5)
    n = round(math.exp(math.exp(math.e)))
    r = tn_lower_bound_eval(n)
    assert abs(r.log_log_value - math.e ** 1.2) < 1e-4

    r = tn_lower_bound_eval(10 ** 6)
    assert abs(r.log_log_value - 3.2074) < 1e-3  # frozen from this formula
    assert "exact_t" not in r.inputs  # beyond the default cross-check range


def test_bounds_match_mpmath_reference():
    pytest.importorskip("mpmath")
    rng = random.Random(20)
    degrees = [3, 4, 7, 12] + [rng.randrange(3, 60) for _ in range(8)]
    heights = [1, 10, 99991, 123456789, 10 ** 400] + [rng.randrange(1, 10 ** rng.randint(1, 40))
                                                       for _ in range(8)]
    for degree in degrees:
        for height in heights:
            assert integral_point_log_bound(degree, height).log_log_value \
                == mpmath_integral_point_log_value(degree, height), (degree, height)
    offsets = [(s, J) for s in (1, 2, 5) for J in (7, 40, 1000)]
    offsets += [(s, rng.randrange(s + 1, 10 ** 6)) for s in (rng.randrange(1, 30) for _ in range(24))]
    for count, span in offsets:
        for constant in (None, 0.0, 1.0, 2.5, rng.uniform(0.0, 100.0)):
            assert few_offsets_log_bound(count, span, constant).log_log_value \
                == mpmath_few_offsets_log_value(count, span, constant), (count, span, constant)
    ns = [16, 17, 9999, 10000, 10 ** 6, 123456789012]
    ns += [rng.randrange(10 ** 4 + 1, 10 ** rng.randint(5, 30)) for _ in range(60)]
    for n in ns:
        for constant in (1.0, 2.5, 0.0, rng.uniform(0.0, 10.0)):
            assert tn_lower_bound_eval(n, constant).log_log_value \
                == mpmath_tn_lower_value(n, constant), (n, constant)


def test_tn_lower_bound_cross_check():
    r = tn_lower_bound_eval(9999)
    assert r.inputs["exact_t"] == 101  # 9999 = 3^2 * 11 * 101; t equals P+
    assert r.inputs["bound_holds"] is True
