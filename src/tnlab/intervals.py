"""Brute-force and structural verification of interval subset-square identities.

For an interval I = (lo, hi], the number of subsets of I with square
product equals 2^B where B counts the n in I whose witness window closes
inside I (n + t_n <= hi), and B is at least the y-smooth count of I minus
pi(y). Both facts are theorems; this module makes them executable, with
the exponential enumeration kept as the trusted oracle against the GF(2)
kernel route.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import isqrt
from typing import Optional

import numpy as np

from .errors import RangeError
from .gf2 import kernel_masks, mask_bits
from .sieve import parity_windows, primes_up_to, split_vectors
# compute_tn stays importable here: bench/tracer.py wraps intervals.compute_tn
# by name until the tracer reads in-tree counters (ROADMAP item 5)
from .tn import ParitySupplier, compute_tn, default_supplier, scan_t  # noqa: F401

BRUTE_LENGTH_GUARD = 30


def count_tn_closed(lo: int, hi: int,
                    supplier: Optional[ParitySupplier] = None) -> int:
    """#{n in (lo, hi] : n + t_n <= hi}, from one sweep.

    tn.scan_t resolves n = lo+1, ..., hi-1 with its cap at hi - lo - 1,
    the largest offset that can stay inside the interval: n counts when
    its t is known (t >= 0, not capped) and n + t <= hi. n = hi counts
    only when it is a square (t = 0). `supplier` is not read.
    """
    if not (0 <= lo < hi):
        raise RangeError(f"need 0 <= lo < hi, got ({lo}, {hi}]")
    closed = int(isqrt(hi) ** 2 == hi)
    if hi - lo > 1:
        ts, _ = scan_t(lo + 1, hi - 1, cap=hi - lo - 1)
        closed += sum(0 <= t <= hi - n for n, t in zip(count(lo + 1), ts))
    return closed


@dataclass(frozen=True)
class SquareSubsetEnumeration:
    """Result of enumerating the square-product subsets of an interval.

    Brute mode lists every subset (ascending characteristic-bitmask order,
    empty set first); kernel mode carries a kernel basis instead and the
    count 2^dim. count always includes the empty subset.
    """

    lo: int
    hi: int
    mode: str
    count: int
    subsets: Optional[tuple[tuple[int, ...], ...]] = None
    kernel_basis: Optional[tuple[tuple[int, ...], ...]] = None


def enumerate_square_subsets(lo: int, hi: int, mode: str = "brute",
                             supplier: Optional[ParitySupplier] = None) -> SquareSubsetEnumeration:
    """All subsets S of (lo, hi] with square product, including the empty set.

    mode="brute" walks all 2^(hi-lo) subsets (length guard 30); the
    selection of mode is deliberately explicit so tests cannot silently
    lose their exponential oracle. mode="kernel" returns a GF(2) kernel
    basis and the exact count 2^dim without enumeration.
    """
    if not (0 <= lo < hi):
        raise RangeError(f"need 0 <= lo < hi, got ({lo}, {hi}]")
    elements = list(range(lo + 1, hi + 1))
    if mode == "kernel":
        kernel = _kernel_sets(elements)
        return SquareSubsetEnumeration(lo, hi, mode, 2 ** len(kernel),
                                       kernel_basis=tuple(kernel))
    if mode != "brute":
        raise RangeError(f"unknown mode {mode!r}")
    m = len(elements)
    if m > BRUTE_LENGTH_GUARD:
        raise RangeError(f"interval length {m} exceeds brute guard "
                         f"{BRUTE_LENGTH_GUARD}; use kernel mode")

    supplier = supplier or default_supplier()
    prime_bits: dict[int, int] = {}
    vecs = []
    for e in elements:
        mask = 0
        for p in supplier.support(e):
            bit = prime_bits.setdefault(p, len(prime_bits))
            mask |= 1 << bit
        vecs.append(mask)

    # Gray-code walk: consecutive subsets differ in one element.
    hits = [0]
    acc = 0
    prev_gray = 0
    for g in range(1, 1 << m):
        gray = g ^ (g >> 1)
        acc ^= vecs[(gray ^ prev_gray).bit_length() - 1]
        prev_gray = gray
        if acc == 0:
            hits.append(gray)
    hits.sort()
    subsets = tuple(
        tuple(elements[b] for b in range(m) if s >> b & 1)
        for s in hits
    )
    return SquareSubsetEnumeration(lo, hi, mode, len(subsets), subsets=subsets)


def _kernel_sets(elements: list[int]) -> list[tuple[int, ...]]:
    return [tuple(elements[i] for i in mask_bits(mask))
            for mask in kernel_masks(split_vectors(elements))]


@dataclass(frozen=True)
class IntervalReport:
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
        return {
            "lo": self.lo, "hi": self.hi, "y": self.y,
            "closed_count": self.closed_count,
            "square_subset_count": self.square_subset_count,
            "smooth_count": self.smooth_count,
            "pi_y": self.pi_y,
            "identity_ok": self.identity_ok,
            "lower_bound_ok": self.lower_bound_ok,
        }


def check_interval_identity(lo: int, hi: int, y: int, mode: str = "brute",
                            supplier: Optional[ParitySupplier] = None) -> IntervalReport:
    """Evaluate both interval counts and flag any violation.

    Violations cannot come from the mathematics (both directions are
    theorems), so a False flag indicates an implementation bug.
    """
    closed = count_tn_closed(lo, hi)
    enum = enumerate_square_subsets(lo, hi, mode=mode, supplier=supplier)
    smooth = sum(int(np.count_nonzero(p_plus <= y))
                 for _, _, _, p_plus in parity_windows(lo + 1, hi + 1, isqrt(hi)))
    pi_y = len(primes_up_to(y))
    return IntervalReport(
        lo=lo, hi=hi, y=y,
        closed_count=closed,
        square_subset_count=enum.count,
        smooth_count=smooth,
        pi_y=pi_y,
        identity_ok=enum.count == 2 ** closed,
        lower_bound_ok=closed >= smooth - pi_y,
    )
