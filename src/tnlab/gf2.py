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

The prime-set entry points (EchelonBasis, SpanTarget, kernel_masks,
nullspace_subsets) run on the same primitive with q = 0: kernel_masks
ranks the primes of its family, EchelonBasis uses each prime as its own
bit index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Optional

from .errors import UsageError
from .sieve import FactorizationRecord


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

    def widen(self, width: int) -> None:
        """Make room for small pivots below `width`."""
        grow = width - len(self.small_bits)
        if grow > 0:
            self.small_bits.extend([0] * grow)
            self.small_masks.extend([0] * grow)

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


def split_kernel(vectors: Iterable[tuple[int, int]]) -> Iterator[int]:
    """Kernel masks of an ordered family of split vectors, lazily.

    Yields one mask per dependent insertion, in insertion order: bit i
    selects the i-th vector, and the selected vectors XOR to zero. The
    masks are independent and span the kernel.
    """
    vectors = list(vectors)
    basis = SplitBasis(max((bits.bit_length() for _, bits in vectors), default=0))
    for q, bits in vectors:
        index = basis.inserted
        if basis.insert(q, bits) is None:
            yield basis.reduce(q, bits, 1 << index)[2]


@dataclass(frozen=True)
class ParityVector:
    """Image of an integer in the GF(2) space indexed by primes.

    support holds exactly the primes with odd exponent; an empty support
    means the underlying integer is a perfect square.
    """

    support: frozenset[int]

    def __xor__(self, other: "ParityVector") -> "ParityVector":
        return ParityVector(self.support ^ other.support)

    def is_zero(self) -> bool:
        return not self.support

    def sorted_primes(self) -> tuple[int, ...]:
        return tuple(sorted(self.support))


def parity_vector(f: FactorizationRecord) -> ParityVector:
    """Reduce the exponents of a factorization mod 2."""
    return ParityVector(f.odd_parity_primes())


@dataclass(frozen=True)
class InsertOutcome:
    extended: bool
    pivot: Optional[int] = None
    combination: Optional[frozenset] = None

    @property
    def dependent(self) -> bool:
        return not self.extended


class EchelonBasis:
    """Row basis over prime sets with witness tracking, tagged insertions.

    A SplitBasis whose bit index is the prime itself, so pivots are primes
    (the largest prime of each reduced row) and a row takes as many bits as
    its largest prime: this suits small prime sets, and the span searches
    use ranked split vectors instead. Single writer; reads are safe between
    mutations.

    With verify=True every dependency/expression result is re-checked by
    XOR-ing the original vectors (slow; meant for tests).
    """

    def __init__(self, verify: bool = False):
        self._basis = SplitBasis()
        self._tags: list[Hashable] = []
        self._seen: set[Hashable] = set()
        self._verify = verify
        self._originals: dict[Hashable, frozenset[int]] = {}

    @property
    def rank(self) -> int:
        return self._basis.rank

    @property
    def inserted_count(self) -> int:
        return len(self._tags)

    def pivots(self) -> list[int]:
        return [p for p, bits in enumerate(self._basis.small_bits) if bits]

    def row(self, pivot: int) -> tuple[frozenset[int], frozenset]:
        bits = self._basis.small_bits[pivot] if pivot < len(self._basis.small_bits) else 0
        if not bits:
            raise KeyError(pivot)
        return frozenset(mask_bits(bits)), self._tags_from_mask(self._basis.small_masks[pivot])

    def _tags_from_mask(self, mask: int) -> frozenset:
        return frozenset(self._tags[i] for i in mask_bits(mask))

    def _bits(self, support: frozenset[int]) -> int:
        bits = 0
        for p in support:
            bits |= 1 << p
        self._basis.widen(bits.bit_length())
        return bits

    def insert(self, support: frozenset[int], tag: Hashable) -> InsertOutcome:
        """Insert a vector; grow the basis or report a dependency witness.

        A Dependent outcome carries prior tags whose vectors XOR to the
        inserted one (empty for the zero vector).
        """
        if tag in self._seen:
            raise UsageError(f"tag {tag!r} already inserted")
        self._seen.add(tag)
        self._tags.append(tag)
        if self._verify:
            self._originals[tag] = support
        bits = self._bits(support)
        pivot = self._basis.insert(0, bits)
        if pivot is not None:
            return InsertOutcome(extended=True, pivot=pivot)
        combination = self._tags_from_mask(self._basis.reduce(0, bits)[2])
        if self._verify:
            self._check_combination(combination, support)
        return InsertOutcome(extended=False, combination=combination)

    def express(self, support: frozenset[int]) -> Optional[frozenset]:
        """Tags whose vectors XOR to the given vector, or None if outside the span."""
        _, residual, mask = self._basis.reduce(0, self._bits(support))
        if residual:
            return None
        combination = self._tags_from_mask(mask)
        if self._verify:
            self._check_combination(combination, support)
        return combination

    def _check_combination(self, combination: Iterable[Hashable], support: frozenset[int]) -> None:
        acc: frozenset[int] = frozenset()
        for t in combination:
            acc = acc ^ self._originals[t]
        if acc != support:
            raise AssertionError("combination does not XOR to the requested vector")


class SpanTarget:
    """Incrementally tracks whether a fixed vector is in a growing span.

    Keeps the target reduced against the basis; after each extending
    insertion, call notify(pivot). Re-reduction resumes only when the new
    pivot equals the largest prime of the stuck residual, so the amortized
    cost per insertion is O(1) plus the actual reduction work.
    """

    def __init__(self, basis: EchelonBasis, support: frozenset[int]):
        self._basis = basis
        _, self._residual, self._mask = basis._basis.reduce(0, basis._bits(support))

    @property
    def in_span(self) -> bool:
        return not self._residual

    def notify(self, pivot: int) -> bool:
        """Report a new basis pivot; returns True once the target is in the span."""
        r = self._residual
        if r and pivot == r.bit_length() - 1:
            _, self._residual, self._mask = self._basis._basis.reduce(0, r, self._mask)
        return not self._residual

    def combination(self) -> frozenset:
        if self._residual:
            raise UsageError("target is not in the span yet")
        return self._basis._tags_from_mask(self._mask)


def basis_insert(basis: EchelonBasis, v: ParityVector, tag: Hashable) -> InsertOutcome:
    return basis.insert(v.support, tag)


def express_in_span(basis: EchelonBasis, v: ParityVector) -> Optional[frozenset]:
    return basis.express(v.support)


def kernel_masks(supports: Iterable[frozenset[int]]) -> list[int]:
    """Kernel basis of an ordered vector family, as bitmasks over positions.

    Bit i of a mask selects the i-th input vector; each mask XORs to the
    zero vector. Bulk-oriented twin of nullspace_subsets for callers that
    go on to XOR many kernel elements together.
    """
    supports = list(supports)
    rank = {p: r for r, p in enumerate(sorted(set().union(*supports)))}
    vectors = []
    for s in supports:
        bits = 0
        for p in s:
            bits |= 1 << rank[p]
        vectors.append((0, bits))
    return list(split_kernel(vectors))


def nullspace_subsets(vectors: Iterable[tuple[Hashable, ParityVector | frozenset]],
                      verify: bool = False) -> list[frozenset]:
    """Kernel basis of a tagged vector family.

    Returns one tag set per dependent insertion (the dependency witness
    plus the inserted tag itself); each set XORs to the zero vector, the
    sets are linearly independent, and together they span the kernel, so
    there are exactly (number of vectors) - rank of them.
    """
    tags, supports = [], []
    for tag, v in vectors:
        tags.append(tag)
        supports.append(v.support if isinstance(v, ParityVector) else v)
    if len(set(tags)) != len(tags):
        raise UsageError("tags must be distinct")
    kernel = []
    for mask in kernel_masks(supports):
        members = mask_bits(mask)
        if verify:
            acc: frozenset[int] = frozenset()
            for i in members:
                acc = acc ^ supports[i]
            if acc:
                raise AssertionError("kernel element does not XOR to zero")
        kernel.append(frozenset(tags[i] for i in members))
    return kernel
