"""Exponent-parity vectors and the two GF(2) elimination primitives.

Split vectors. Every integer m <= N has at most one prime factor above
B = isqrt(N) (two of them would multiply to more than N), and that prime
divides m exactly once. A parity vector over the values up to N is
therefore stored as a pair (q, bits): q is the odd-exponent prime above B,
or 0, and bits is a Python int whose bit r is set when the r-th prime
(counting 2 as rank 0) has odd exponent. This is the large-prime variation
of the quadratic sieve (Pomerance, 1982).

The B rule. A span search for t_n with offset limit L touches the values
n, n+1, ..., n+L, so it needs B >= isqrt(n + L); every value it can touch
then has at most one prime above B. compute_tn takes B = isqrt(n + L); a
witnessed scan takes the B of its whole range for every n of it.

Elimination. SplitBasis pivots on the largest prime of a vector: q when it
is set, otherwise the top bit of bits. Ranks follow the order of the
primes, so the basis performs the same XOR sequence as an echelon basis
over prime sets that pivots on the largest prime, and yields the same
ranks, kernels and canonical witnesses. For the same reason the choice of
B does not matter, as long as B >= isqrt of every value: raising B turns a
large tag q into the rank bit of q, which is then the top bit, so the
vector still pivots on q and every reduction XORs the same vectors. A
witnessed scan's larger B therefore gives the t and witness of compute_tn.
Large pivots are rare near any n, which keeps reduction chains short.

Memory. Reducing a vector cancels its q and never brings a large prime
back, so a row whose pivot is a large prime is always an unreduced
original vector: it is stored as (bits, insertion index), without a
combination mask. Only rows with small pivots -- at most pi(B) of them --
carry a combination mask over insertion indices. After t insertions the
basis holds O(t) words for the large rows plus pi(B) * t bits of masks, so
memory grows linearly in t.

Entry points. There are two elimination primitives over the same split
vectors, because they answer two different questions.

- SplitBasis answers "which subset?". It keeps the insertion-order
  echelon basis with combination masks, so it alone yields canonical
  witnesses and kernel bases. The span search of tn (compute_tn and
  witnessed scans) drives it directly, one n at a time, and kernel_masks
  serves every kernel: interval kernels, the small-t_n pigeonhole and the
  constructor's parity kernel. Its split vectors come from
  sieve.parity_windows: kernels take them through sieve.split_vectors,
  the one place that picks the bound of a batch, and span searches read
  the windows directly. Every dependency comes out as a combination mask
  over insertion indices; callers map set bits back to their own values
  with mask_bits.
- SweepBasis answers "which n closes here?". It keeps no masks: each row
  carries only the smallest insertion index among the vectors XOR-ed into
  it, and a pivot keeps the row whose start is latest. One left-to-right
  sweep over a range then resolves t_n for every n of a scan without
  witnesses (tn.scan_t), where SplitBasis would need a fresh search per n.
  Its split vectors come from sieve.parity_windows, the segmented sieve
  that every split vector comes from.

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


class SweepBasis:
    """Latest-start basis over split vectors (q, bits), inserted in index order.

    Each row carries its start: the smallest index among the inserted
    vectors XOR-ed into it. At a pivot the stored row and the vector being
    reduced swap when the latter has the later start, so for every l the
    rows with start >= l span the vectors inserted at indices >= l (the
    prefix linear basis). Reduction performs the same XORs as an echelon
    basis without swaps; only the rows that stay behind differ.

    A large row is always an unreduced original vector, the latest one
    with its q, since a new vector with that q is the newest index and
    swaps in at once.
    """

    __slots__ = ("large", "small_bits", "small_starts")

    def __init__(self, width: int = 0):
        self.large: dict[int, tuple[int, int]] = {}  # q -> (bits, start)
        self.small_bits: list[int] = [0] * width     # bit index -> row bits, 0 when empty
        self.small_starts: list[int] = [0] * width   # bit index -> row start

    def insert(self, q: int, bits: int, index: int) -> Optional[int]:
        """Add the vector of `index`, which must exceed every earlier index.

        Returns None when the vector is zero or independent of the earlier
        ones. Otherwise it returns the largest l such that the vector lies
        in the span of the vectors inserted at l, l+1, ..., index-1: the
        smallest start among the rows its reduction met, since the rows
        with start >= l are an echelon basis of that span and the
        reduction's rows are unique. For the vectors of n, n+1, ... that l
        is the unique n with n + t_n = index.
        """
        start = index
        if q:
            row = self.large.get(q)
            self.large[q] = (bits, index)
            if row is None:
                return None
            bits ^= row[0]
            start = row[1]
        rows, starts = self.small_bits, self.small_starts
        while bits:
            pivot = bits.bit_length() - 1
            row_bits = rows[pivot]
            if not row_bits:
                rows[pivot] = bits
                starts[pivot] = start
                return None
            row_start = starts[pivot]
            if start > row_start:
                rows[pivot] = bits
                starts[pivot] = start
                start = row_start
            bits ^= row_bits
        return start if start < index else None


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
