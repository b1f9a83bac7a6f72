"""Brute-force and structural verification of interval subset-square identities.

For an interval I = (lo, hi], the number of subsets of I with square
product equals 2^B where B counts the n in I whose witness window closes
inside I (n + t_n <= hi), and B is at least the y-smooth count of I minus
pi(y). Both facts are theorems; this module makes them executable, with
the exponential enumeration kept as the trusted oracle against the GF(2)
kernel route.

check_interval_identity reads (lo, hi] in one pass and nothing past hi:
the windows of sieve.parity_windows under B = isqrt(hi), each held only
while it is read (_interval_counts). Each window's P+ gives its smooth
count. Its folded rows from lo + 1 (sieve.folded_rows: a value whose
large tag's partner lies before lo + 1 is left out) go into one
gf2.SweepBasis for the closed count. In kernel mode its raw rows go into a
gf2.DependencyCount for the kernel dimension, under a rule of their own
(_shared_rows: a value whose large tag is at least the interval's length
is the only one that tag divides, so it is left out). The two sides share
no filter, so the identity checks each against the other.
count_tn_closed is that pass with the closed count alone. Brute mode
takes its subset count from enumerate_square_subsets, whose prime sets
come from trial division. check_interval_identity checks all its
arguments before it counts.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple, Optional

import numpy as np

from .errors import RangeError
from .gf2 import DependencyCount, SweepBasis
from .sieve import folded_rows, pack_rows, parity_windows, primes_through, primes_up_to
# compute_tn stays importable here: bench/tracer.py wraps intervals.compute_tn
# by name until the tracer reads in-tree counters (ROADMAP item 1)
from .tn import ParitySupplier, compute_tn  # noqa: F401

BRUTE_LENGTH_GUARD = 30
# brute mode tabulates the subsets of this many elements at once
BRUTE_BLOCK_BITS = 16


def count_tn_closed(lo: int, hi: int) -> int:
    """#{n in (lo, hi] : n + t_n <= hi}, from one sweep over (lo, hi] alone
    (_interval_counts).

    The vectors v_r of r = lo+1, ..., hi under B = isqrt(hi) go into one
    gf2.SweepBasis in order, and the sweep stops at hi. The count is the
    squares of the interval plus every r whose insert returns a start.

    Why. Let a = lo + 1. insert returns l >= a at r exactly when v_r is in
    span(v_l, ..., v_{r-1}) but not in span(v_{l+1}, ..., v_{r-1}). Then
    v_l = v_r + w with w in span(v_{l+1}, ..., v_{r-1}), so v_l is in the
    span of its next r - l successors and of no fewer (or v_r would be in
    span(v_{l+1}, ..., v_{r-1})): t_l = r - l. Conversely every non-square
    n >= a with n + t_n = r is returned at r: v_r takes part in the
    combination that makes v_n, so v_r is in span(v_n, ..., v_{r-1}), and
    it is not in span(v_{n+1}, ..., v_{r-1}), which would put v_n there.
    Each r returns at most one l and each n closes at one r. A square n
    has the zero vector and t = 0: it counts by itself and is never
    returned, since a zero v_l adds nothing to a span. A non-square n = hi
    cannot close inside the interval, and nothing past hi is read.
    """
    if not (0 <= lo < hi):
        raise RangeError(f"need 0 <= lo < hi, got ({lo}, {hi}]")
    return _interval_counts(lo, hi, 1, False)[0]


def _interval_counts(lo: int, hi: int, y: int, kernel: bool) -> tuple[int, int, int]:
    """The closed count (count_tn_closed), the y-smooth count and, when
    `kernel` is set, the kernel dimension of (lo, hi] (0 otherwise), from
    one parity_windows pass under B = isqrt(hi) that holds one window at
    a time. The closed count is the squares of (lo, hi] plus the closes of
    one gf2.SweepBasis fed the windows' folded rows from lo + 1
    (sieve.folded_rows). The dimension is counted by a gf2.DependencyCount
    from the raw rows under a rule of its own (_shared_rows), so that it
    checks the closed count rather than restating it.
    """
    bound = isqrt(hi)
    width = len(primes_through(bound))
    closes = SweepBasis(width).insert
    dependencies = DependencyCount(width)
    closed, smooth = isqrt(hi) - isqrt(lo), 0  # the squares of (lo, hi] close at once
    for window in parity_windows(lo + 1, hi + 1, bound):
        _, large, words, p_plus = window
        smooth += int(np.count_nonzero(p_plus <= y))
        closed += len(closes(*folded_rows(window, lo + 1))[0])
        if kernel:
            keep = _shared_rows(large, hi - lo)
            dependencies.insert(large[keep], words[keep])
    return closed, smooth, dependencies.dependent


def _shared_rows(large: np.ndarray, length: int) -> np.ndarray:
    """The rows of a window of an interval of `length` values that can take
    part in a dependency: those whose large tag q, if any, is below length.
    Two multiples of q differ by q or more, so a larger q divides no other
    value of the interval, and its vector takes part in no dependency.
    The rule is on q alone, not on r + q > hi, since r - q may still lie in
    the interval."""
    return np.flatnonzero(large < length)


def _check_interval(lo: int, hi: int, mode: str) -> None:
    """Refuse an empty interval, an unknown mode, and brute mode past its
    length guard."""
    if not (0 <= lo < hi):
        raise RangeError(f"need 0 <= lo < hi, got ({lo}, {hi}]")
    if mode not in ("brute", "kernel"):
        raise RangeError(f"unknown mode {mode!r}")
    if mode == "brute" and hi - lo > BRUTE_LENGTH_GUARD:
        raise RangeError(f"interval length {hi - lo} exceeds brute guard "
                         f"{BRUTE_LENGTH_GUARD}; use kernel mode")


class SquareSubsetEnumeration(NamedTuple):
    """Result of enumerating the square-product subsets of an interval.

    Every subset is listed, in ascending characteristic-bitmask order,
    empty set first; count includes the empty subset. mode is "brute".
    """

    lo: int
    hi: int
    mode: str
    count: int
    subsets: tuple[tuple[int, ...], ...]


def enumerate_square_subsets(lo: int, hi: int, mode: str = "brute",
                             supplier: Optional[ParitySupplier] = None) -> SquareSubsetEnumeration:
    """All subsets S of (lo, hi] with square product, including the empty set.

    It checks all 2^m subsets of the m = hi - lo elements
    (length guard 30) on the odd prime sets of `supplier.support`, with
    nothing from gf2 or the sieve windows. It tabulates the XORs of every
    subset of the first k = min(m, BRUTE_BLOCK_BITS) = min(m, 16) elements,
    2^k rows of one uint64 per 64 distinct primes (512 KB per word at
    k = 16), and of every subset of the other m - k (at most 2^14 rows,
    128 KB per word). Then one vectorised pass per subset of the others, in
    ascending order, finds the rows of the first table equal to it, so the
    subsets come out in ascending characteristic-bitmask order. `mode`
    must be "brute", the only mode, named so that the exponential oracle is
    asked for explicitly; check_interval_identity counts the subsets of
    longer intervals in kernel mode without listing them.
    """
    if mode != "brute":
        raise RangeError(f"enumeration has brute mode alone, not {mode!r}")
    _check_interval(lo, hi, mode)
    elements = list(range(lo + 1, hi + 1))
    m = len(elements)

    supplier = supplier or ParitySupplier()
    prime_bits: dict[int, int] = {}
    masks = []
    for e in elements:
        mask = 0
        for p in supplier.support(e):
            bit = prime_bits.setdefault(p, len(prime_bits))
            mask |= 1 << bit
        masks.append(mask)
    width = max(1, (len(prime_bits) + 63) >> 6)
    vecs = pack_rows(masks, width)

    # the XOR of every subset of the first k elements, indexed by its
    # characteristic bitmask, and of every subset of the others
    k = min(m, BRUTE_BLOCK_BITS)
    low, high = _subset_xors(vecs[:k]), _subset_xors(vecs[k:])
    hits = []
    for h, target in enumerate(high):
        block = low[:, 0] == target[0]
        for w in range(1, width):
            block &= low[:, w] == target[w]
        hits.extend((np.flatnonzero(block) | h << k).tolist())
    subsets = tuple(
        tuple(elements[b] for b in range(m) if s >> b & 1)
        for s in hits
    )
    return SquareSubsetEnumeration(lo, hi, mode, len(subsets), subsets=subsets)


def _subset_xors(vecs: np.ndarray) -> np.ndarray:
    """Row s is the XOR of the rows of `vecs` at the set bits of s, for
    every s below 2^len(vecs): filled by doubling."""
    out = np.zeros((1 << len(vecs), vecs.shape[1]), dtype=np.uint64)
    for i, vec in enumerate(vecs):
        np.bitwise_xor(out[:1 << i], vec, out=out[1 << i:2 << i])
    return out


class IntervalReport(NamedTuple):
    """Both interval identities evaluated on one interval."""

    lo: int
    hi: int
    y: int
    closed_count: int          # B = #{n in I : n + t_n in I}
    square_subset_count: int
    smooth_count: int
    pi_y: int
    identity_ok: bool          # square_subset_count == 2**closed_count
    lower_bound_ok: bool       # closed_count >= smooth_count - pi_y

    def to_json_dict(self) -> dict:
        return self._asdict()


def check_interval_identity(lo: int, hi: int, y: int, mode: str = "brute",
                            supplier: Optional[ParitySupplier] = None) -> IntervalReport:
    """Evaluate both interval counts and flag any violation.

    The closed and smooth counts, and in kernel mode the kernel dimension
    dim, come from one pass over (lo, hi] (_interval_counts): kernel mode
    reports 2^dim subsets, and brute mode lists them
    (enumerate_square_subsets, whose prime sets come from `supplier`).
    Violations cannot come from the mathematics (both directions are
    theorems), so a False flag indicates an implementation bug. Every
    argument is checked before the first count.
    """
    _check_interval(lo, hi, mode)
    if y < 1:
        raise RangeError("smoothness bound must be >= 1")
    closed, smooth, dimension = _interval_counts(lo, hi, y, mode == "kernel")
    subsets = (2 ** dimension if mode == "kernel"
               else enumerate_square_subsets(lo, hi, supplier=supplier).count)
    pi_y = len(primes_up_to(y))
    return IntervalReport(
        lo=lo, hi=hi, y=y,
        closed_count=closed,
        square_subset_count=subsets,
        smooth_count=smooth,
        pi_y=pi_y,
        identity_ok=subsets == 2 ** closed,
        lower_bound_ok=closed >= smooth - pi_y,
    )
