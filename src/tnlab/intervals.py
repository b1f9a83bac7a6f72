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
from math import isqrt
from typing import Optional

from .errors import CapExceeded, RangeError
from .gf2 import kernel_masks, mask_bits
from .sieve import primes_up_to, split_vectors
from .tn import ParitySupplier, compute_tn, default_supplier

BRUTE_LENGTH_GUARD = 30


def count_tn_closed(lo: int, hi: int,
                    supplier: Optional[ParitySupplier] = None) -> int:
    """#{n in (lo, hi] : n + t_n <= hi}, computed per element.

    Each n < hi is resolved by compute_tn with its cap at hi - n: squares
    and large-prime shortcut rows come back whatever the cap, and
    exhausting the cap means the window does not close inside the
    interval, so the element does not count. n = hi counts only when it
    is a square (t = 0).
    """
    if not (0 <= lo < hi):
        raise RangeError(f"need 0 <= lo < hi, got ({lo}, {hi}]")
    supplier = supplier or default_supplier()
    count = int(isqrt(hi) ** 2 == hi)
    for n in range(lo + 1, hi):
        try:
            t = compute_tn(n, cap=hi - n, include_witness=False, supplier=supplier).t
        except CapExceeded:
            continue
        count += n + t <= hi
    return count


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
    supplier = supplier or default_supplier()
    closed = count_tn_closed(lo, hi, supplier)
    enum = enumerate_square_subsets(lo, hi, mode=mode, supplier=supplier)
    smooth = sum(1 for e in range(lo + 1, hi + 1) if supplier.p_plus(e) <= y)
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
