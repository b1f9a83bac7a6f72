"""Exponent-parity vectors and the one GF(2) elimination primitive.

Split vectors. Every integer m <= N has at most one prime factor above
B = isqrt(N) (two of them would multiply to more than N), and that prime
divides m exactly once. A parity vector over the values up to N is
therefore stored as a pair (q, bits): q is the odd-exponent prime above B,
or 0, and bits is a Python int whose bit r is set when the r-th prime
(counting 2 as rank 0) has odd exponent. This is the large-prime variation
of the quadratic sieve (Pomerance, 1982).

The B rule. A span search for t_n with offset limit L touches the values
n, n+1, ..., n+L, so it uses B = isqrt(n + L); every value it can touch,
values past the sieve table included, then has at most one prime above B.

Elimination. SplitBasis pivots on the largest prime of a vector: q when it
is set, otherwise the top bit of bits. Ranks follow the order of the
primes, so the basis performs the same XOR sequence as an echelon basis
over prime sets that pivots on the largest prime, and yields the same
ranks, kernels and canonical witnesses. Large pivots are rare near any n,
which keeps reduction chains short.

Memory. Reducing a vector cancels its q and never brings a large prime
back, so a row whose pivot is a large prime is always an unreduced
original vector: it is stored as (bits, insertion index), without a
combination mask. Only rows with small pivots -- at most pi(B) of them --
carry a combination mask over insertion indices. After t insertions the
basis holds O(t) words for the large rows plus pi(B) * t bits of masks, so
memory grows linearly in t.

Entry points. The span search in tn drives SplitBasis directly, and
kernel_masks serves every kernel: interval kernels, the small-t_n
pigeonhole and the constructor's parity kernel. Its split vectors come
from tn.ParitySupplier.vectors, the one place that picks the bound of a
batch. Every dependency comes out as a combination mask over insertion
indices; callers map set bits back to their own values with mask_bits.
Prime sets (ParitySupplier.support) are kept apart from this encoding on
purpose: they serve only to verify witnesses.
"""

from __future__ import annotations

from typing import Iterable, Optional


def mask_bits(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative int, ascending."""
    digits = bin(mask)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


class SplitBasis:
    """Insertion-order echelon basis over split vectors (q, bits).

    Insertions are numbered 0, 1, 2, ... in order; a combination mask has
    bit i set when the i-th inserted vector takes part. A pivot is reported
    as q for a large row and as the bit index for a small row; the two
    never collide, because every bit index is below the number of primes
    up to B and every q is above B.
    """

    __slots__ = ("large", "small_bits", "small_masks", "inserted")

    def __init__(self, width: int = 0):
        self.large: dict[int, tuple[int, int]] = {}  # q -> (bits, insertion index)
        self.small_bits: list[int] = [0] * width     # bit index -> row bits, 0 when empty
        self.small_masks: list[int] = [0] * width    # bit index -> row combination mask
        self.inserted = 0

    @property
    def rank(self) -> int:
        return len(self.large) + sum(1 for b in self.small_bits if b)

    def insert(self, q: int, bits: int) -> Optional[int]:
        """Add the next vector. Returns its pivot, or None when it lies in
        the span of the earlier ones (reduce() then gives the dependency)."""
        index = self.inserted
        self.inserted = index + 1
        reduced = bits
        if q:
            row = self.large.get(q)
            if row is None:
                self.large[q] = (bits, index)
                return q
            reduced ^= row[0]
        rows = self.small_bits
        while reduced:
            pivot = reduced.bit_length() - 1
            row_bits = rows[pivot]
            if not row_bits:
                # a new small row: rebuild its combination mask, which the
                # fast pass above did not track
                _, reduced, mask = self.reduce(q, bits, 1 << index)
                rows[pivot] = reduced
                self.small_masks[pivot] = mask
                return pivot
            reduced ^= row_bits
        return None

    def reduce(self, q: int, bits: int, mask: int = 0) -> tuple[int, int, int]:
        """Reduce (q, bits) as far as the rows allow.

        Returns the residual (q, bits) and `mask` XOR the combination of the
        rows used; a residual (0, 0) means the vector is that combination of
        inserted vectors.
        """
        if q:
            row = self.large.get(q)
            if row is None:
                return q, bits, mask
            bits ^= row[0]
            mask ^= 1 << row[1]
            q = 0
        rows, masks = self.small_bits, self.small_masks
        while bits:
            pivot = bits.bit_length() - 1
            row_bits = rows[pivot]
            if not row_bits:
                break
            bits ^= row_bits
            mask ^= masks[pivot]
        return q, bits, mask


def kernel_masks(vectors: Iterable[tuple[int, int]]) -> list[int]:
    """Kernel basis of an ordered family of split vectors (q, bits).

    One mask per dependent insertion, in insertion order: bit i selects
    the i-th vector, and the selected vectors XOR to zero. The masks are
    independent and span the kernel.
    """
    vectors = list(vectors)
    basis = SplitBasis(max((bits.bit_length() for _, bits in vectors), default=0))
    out = []
    for index, (q, bits) in enumerate(vectors):
        if basis.insert(q, bits) is None:
            out.append(basis.reduce(q, bits, 1 << index)[2])
    return out
