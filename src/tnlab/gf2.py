"""Exponent-parity vectors and the two GF(2) elimination primitives.

Split vectors. Every integer m <= N has at most one prime factor above
B = isqrt(N) (two of them would multiply to more than N), and that prime
divides m exactly once. A parity vector over the values up to N is
therefore stored as a pair (q, bits): q is the odd-exponent prime above B,
or 0, and bits is a Python int whose bit r is set when the r-th prime
(counting 2 as rank 0) has odd exponent. This is the large-prime variation
of the quadratic sieve (Pomerance, 1982). Both producers in sieve hand
the vectors out in a window's layout, the rows (large, words) of an int64
array of tags and a little-endian uint64 array of bits, which
sieve.row_bits turns into the Python ints that the bases reduce.

The B rule. A span search for t_n with offset limit L touches the values
n, n+1, ..., n+L, so it needs B >= isqrt(n + L); every value it can touch
then has at most one prime above B. compute_tn takes B = isqrt(n + L); a
witnessed scan, which takes every t from the sweep and searches each n
to exactly t_n, takes B = isqrt of the furthest n + t_n of each chunk.

Elimination. SplitBasis pivots on the largest prime of a vector: q when it
is set, otherwise the top bit of bits. Ranks follow the order of the
primes, so the basis performs the same XOR sequence as an echelon basis
over prime sets that pivots on the largest prime, and yields the same
ranks, kernels and canonical witnesses. For the same reason the choice of
B does not matter, as long as B >= isqrt of every value: raising B turns a
large tag q into the rank bit of q, which is then the top bit, so the
vector still pivots on q and every reduction XORs the same vectors. A
witnessed scan's B therefore gives the t and witness of compute_tn.
Large pivots are rare near any n, which keeps reduction chains short.

Insertion. SplitBasis has one operation, insert. It reduces the new
vector once against the rows and XORs the combination masks of the rows
it meets as it goes. A vector that reaches an empty pivot becomes a row
there, with that mask plus its own bit; a vector that reduces to zero is
dependent and leaves the mask in `dependency`: the earlier insertions
whose vectors XOR to it. Only insertions that created a row appear in a
mask, and over those the combination is unique. tn's span search relies
on it: it inserts its target first, so insertion j is offset j, and n
closes at the first dependent insertion whose combination holds bit 0
(see tn._search).

Memory. Reducing a vector cancels its q and never brings a large prime
back, so SplitBasis stores a row whose pivot is a large prime as
(bits, insertion index), without a combination mask. Only rows with small
pivots -- at most pi(B) of them -- carry a combination mask over
insertion indices. After t insertions the basis holds O(t) words for the
large rows plus pi(B) * t bits of masks, so memory grows linearly in t.

Partners. Over consecutive values under B, a value r with large tag q is
q c with c <= B, since r < (B + 1)^2, and the last value before it that q
divides is its partner r - q = q (c - 1). A basis that keeps the latest
start at each pivot and has taken the values from r - q on holds the
vector of r - q, unreduced, as its row for q, so it reduces r to
v_c XOR v_(c-1), with start r - q: the partner identity. SweepBasis
therefore holds no large rows. sieve.folded_rows hands it each tagged
value with its partner folded in, and leaves out a value whose partner
lies before the sweep's first value, which such a basis would only have
stored.

Fixed rows. A row never changes once it is set. Once the small rows
(small_rank) fill all pi(B) small pivots, every vector without a large
tag is dependent, and its combination is a fixed linear map of its bits:
the XOR of the combinations of the unit vectors at its set bits. Row b is
the unit vector at b plus lower bits, so those combinations come from the
rows' masks alone, from bit 0 up, and the map reads each vector's words as
they are, with one numpy pass per bit: kernel_masks turns no row past
saturation into a Python int, unless it has a large tag, and keeps the
coordinates it maps as packed words. A vector with a
large tag is then dependent exactly when its tag already has a row, since
XOR-ing that row leaves small bits alone. So the number of dependent
insertions, the kernel dimension, needs no combination at all:
DependencyCount reduces without masks until its small rows are full, and
from then on keeps the tags alone and reads no coordinates.

Entry points. There are two elimination primitives over the same split
vectors, because they answer two different questions.

- SplitBasis answers "which subset?". It keeps the insertion-order
  echelon basis with combination masks, so it alone yields canonical
  witnesses and kernel bases. The span search of tn (compute_tn and
  witnessed scans) drives it directly, one n at a time, reading its
  vectors as pairs from sieve.split_rows, the rows of the windows of
  sieve.parity_windows. kernel_masks serves the constructor's two kernels,
  the small-t_n pigeonhole and the parity kernel of a curve point, over
  batches of y-smooth values: it takes the rows (large, words) that
  sieve.smooth_rows sieves for a batch, with no large tag, ranks counted
  from 2 as in every window. When y <= isqrt(hi) the window pass over the
  interval under isqrt(hi) gives the same rows; for a larger y a prime
  above isqrt(hi) is a top rank bit where a window has a large tag, and
  the B rule above gives the same kernel. An interval check needs only the
  kernel's dimension, which DependencyCount counts (Fixed rows) from the
  rows of the check's one window pass, so the library spells out no
  interval's kernel basis. A
  kernel comes out in systematic form (Kernel): the dependent and
  independent insertion indices, and each dependent vector's coordinates
  over the independent ones. The constructor works on those coordinates;
  the callers that read whole dependencies take Kernel.masks(),
  combination masks over insertion indices, and map set bits back to
  their own values with mask_bits, as the span search does with its
  witness masks.
- SweepBasis answers "which n closes here?". It keeps no masks: each row
  carries only the smallest insertion index among the vectors XOR-ed into
  it, and a pivot keeps the row whose start is latest. One left-to-right
  sweep over a range then resolves t_n for every n of a scan without
  witnesses (tn.scan_t), and which n of an interval close inside it
  (intervals.count_tn_closed), where SplitBasis would need a fresh search
  per n. It takes a window's rows per insert, from sieve.folded_rows over
  the windows of sieve.parity_windows, the segmented sieve that every
  split vector of a range comes from, with every large tag folded into its
  partner (Partners), and returns one end per row: the start a row that
  reduces to zero ends at, or -1 for a row that joins the basis. The
  callers read the closes in numpy: row r closes when its end l satisfies
  0 <= l < r, and l is then the n with n + t_n = r.

Prime sets (ParitySupplier.support, by trial division) are kept apart
from this encoding on purpose: they serve only brute-mode
intervals.enumerate_square_subsets, as its independent oracle. Witnesses
are verified without any parity encoding: verify.verify_witness reduces the
product to a root that is a square exactly when the product is, by
cancelling gcds up a product tree, and takes the root's integer square
root.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .sieve import ROW_BLOCK, pack_rows, row_bits


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

    __slots__ = ("large", "small_bits", "small_masks", "small_rank", "inserted", "dependency")

    def __init__(self, width: int = 0):
        self.large: dict[int, tuple[int, int]] = {}  # q -> (bits, insertion index)
        self.small_bits: list[int] = [0] * width     # bit index -> row bits, 0 when empty
        self.small_masks: list[int] = [0] * width    # bit index -> row combination mask
        self.small_rank = 0                          # small rows held, at most width
        self.inserted = 0
        self.dependency = 0                          # see insert

    @property
    def rank(self) -> int:
        return len(self.large) + self.small_rank

    def insert(self, q: int, bits: int) -> Optional[int]:
        """Add the next vector, reduced once against the rows while its
        combination mask takes the masks of the rows it meets. Returns its
        pivot, or None when it lies in the span of the earlier ones:
        `dependency` then holds that mask, the earlier insertions whose
        vectors XOR to it. The mask leaves out the vector's own bit, which
        would make it as long as the insertion index."""
        index = self.inserted
        self.inserted = index + 1
        mask = 0  # the combination of the rows met, without the vector's own bit
        if q:
            row = self.large.get(q)
            if row is None:
                self.large[q] = (bits, index)
                return q
            bits ^= row[0]
            mask = 1 << row[1]
        rows, masks = self.small_bits, self.small_masks
        while bits:
            pivot = bits.bit_length() - 1
            row_bits = rows[pivot]
            if not row_bits:
                rows[pivot] = bits
                masks[pivot] = mask | 1 << index
                self.small_rank += 1
                return pivot
            bits ^= row_bits
            mask ^= masks[pivot]
        self.dependency = mask
        return None


class SweepBasis:
    """Latest-start basis over the small bits of rows inserted in index order.

    Each row carries its start: the smallest index among the inserted
    vectors XOR-ed into it. At a pivot the stored row and the vector being
    reduced swap when the latter has the later start, so for every l the
    rows with start >= l span the vectors inserted at indices >= l (the
    prefix linear basis). Reduction performs the same XORs as an echelon
    basis without swaps; only the rows that stay behind differ. The row
    whose top bit is rank b sits in slot b + 1, its bit length, so a
    reduction step indexes by bit_length() alone; slot 0 stays empty.

    It holds no large rows: a vector with a large tag q comes with its
    partner folded in (sieve.folded_rows), as the XOR of its vector and
    that of the last earlier value that q divides, with that value's index
    as its start. That is the reduction a basis with large rows would make:
    its row for q is always the latest vector with q, unreduced, since a new
    vector with q is the newest index and swaps in at once.
    """

    __slots__ = ("small_bits", "small_starts")

    def __init__(self, width: int = 0):
        self.small_bits: list[int] = [0] * (width + 1)     # bit length -> row bits, 0 when empty
        self.small_starts: list[int] = [0] * (width + 1)   # bit length -> row start

    def insert(self, starts: list[int], bits: list[int]) -> list[int]:
        """Add rows (start, bits) in order, each at an index above every
        earlier one and at least its start; returns one end per row: the
        start a row that reduces to zero ends with, and -1 for a row that
        joins the basis.

        The end l of the row at index r is the smallest start among its own
        and the rows its reduction met. When l < r, r closes: l is then the
        largest such that the vector lies in the span of the vectors
        inserted at l, l+1, ..., r-1, since the rows with start >= l are an
        echelon basis of that span and the reduction's rows are unique. For
        the vectors of n, n+1, ... that l is the unique n with n + t_n = r.
        A row with zero bits ends at its own start: a square, whose start
        is its own index, closes nothing.
        """
        rows, row_starts = self.small_bits, self.small_starts
        ends = []
        append = ends.append
        for start, b in zip(starts, bits):
            while b:
                pivot = b.bit_length()
                row = rows[pivot]
                if not row:
                    rows[pivot] = b
                    row_starts[pivot] = start
                    start = -1
                    break
                if start > row_starts[pivot]:  # keep the later start at the pivot
                    rows[pivot] = b
                    row_starts[pivot], start = start, row_starts[pivot]
                b ^= row
            append(start)
        return ends


class Kernel:
    """The kernel of an ordered family of split vectors, in systematic
    form [I | A] (MacWilliams and Sloane, "The Theory of Error-Correcting
    Codes", 1977).

    `independent` holds the insertion indices of the vectors that extended
    the basis and `dependent` those of the others, each ascending. The k-th
    dependent vector XORs to zero with the independent vectors at the set
    bits of coords[k], its coordinates: a mask over insertion indices with
    bits at independent ones only, packed as a row of a little-endian
    uint64 array (sieve.pack_rows' layout) of independent[-1] // 64 + 1
    words. len() is the kernel dimension.
    """

    __slots__ = ("dependent", "independent", "coords")

    def __init__(self, dependent: list[int], independent: list[int], coords: np.ndarray):
        self.dependent = dependent
        self.independent = independent
        self.coords = coords

    def __len__(self) -> int:
        return len(self.dependent)

    def masks(self) -> list[int]:
        """One mask per dependent insertion, in insertion order: bit i
        selects the i-th vector, and the selected vectors XOR to zero. The
        masks are independent and span the kernel."""
        return [mask | 1 << index for index, mask in zip(self.dependent, row_bits(self.coords))]


class DependencyCount:
    """The kernel dimension of split vectors under a bound with `width`
    primes, inserted in order: `dependent` counts those that lie in the
    span of the earlier ones.

    A rank-only elimination, with no combination masks: a vector whose tag
    has no row becomes that row, and any other reduces against its tag's
    row and the small rows. Once the small rows are full (Fixed rows),
    nothing is reduced: a vector without a large tag is dependent, and one
    with a tag is dependent exactly when the tag already has a row, so only
    the tags are kept from then on.
    """

    __slots__ = ("small_bits", "small_rank", "large", "dependent")

    def __init__(self, width: int):
        self.small_bits: list[int] = [0] * width  # bit index -> row bits, 0 when empty
        self.small_rank = 0
        self.large: dict[int, int] = {}  # tag -> row bits; only the tags count once full
        self.dependent = 0

    def insert(self, tags: np.ndarray, words: np.ndarray) -> None:
        """Take the next vectors, as the large tags and the word rows of a
        window, counting those that are dependent."""
        rows, large = self.small_bits, self.large
        taken = 0
        if self.small_rank < len(rows):
            for q, b in zip(tags.tolist(), row_bits(words)):
                if self.small_rank == len(rows):
                    break
                taken += 1
                if q:
                    if q not in large:  # a new tag: its row
                        large[q] = b
                        continue
                    b ^= large[q]
                while b:
                    pivot = b.bit_length() - 1
                    if not rows[pivot]:
                        rows[pivot] = b
                        self.small_rank += 1
                        break
                    b ^= rows[pivot]
                else:
                    self.dependent += 1
        rest = tags[taken:]
        fresh = set(rest[rest > 0].tolist()).difference(large)
        self.dependent += len(rest) - len(fresh)
        large.update(dict.fromkeys(fresh, 0))


def kernel_masks(batch: tuple[np.ndarray, np.ndarray]) -> Kernel:
    """The kernel of an ordered batch of split vectors, given as the rows
    (large, words) of a window's layout (sieve.smooth_rows, or the rows of
    windows), in systematic form; Kernel.masks() gives it as combination
    masks. Anything else, a list of (q, bits) pairs among them, raises
    TypeError.

    Rows go into a SplitBasis one at a time, read as Python ints
    ROW_BLOCK rows at a time, until its small basis is full (small_rank
    == width, the bit length of the OR of all rows); a dependent one takes
    its coordinates from its own insertion. From then on a row without a
    large tag is dependent, and its coordinates are a fixed linear map of
    its bits, read from its words as they are and returned as words
    (_linear_map). Rows with a large tag still go into the basis one at a
    time, since a new tag extends it. The coordinates of the rows inserted
    one at a time are packed once, into rows as wide as the last
    independent insertion needs.

    Cost. For n rows past saturation at insertion s, under a basis of
    width w, the map holds n s / 8 bytes and makes w XOR passes over them.
    The constructor's batch at x = 10^6 (n = 9,713, s = 20, w = 19) takes
    about 0.8 ms in all (2-core box). A wide batch that fills late is quadratic: the values of
    (10^9, 10^9 + 8 * 10^4] fill at s = 60,954 (n = 5,361, w = 3,401), and
    their map holds 41 MB and took 62 s, with a process peak of 211 MB
    (2-core box).
    """
    if len(batch) != 2 or not all(isinstance(part, np.ndarray) for part in batch):
        raise TypeError("kernel_masks takes the (large, words) arrays of a batch")
    large, words = batch
    width = row_bits(np.bitwise_or.reduce(words, axis=0, keepdims=True))[0].bit_length()
    basis = SplitBasis(width)
    dependent, independent, coords = [], [], []

    def insert(index: int, q: int, bits: int) -> None:
        basis.inserted = index  # rows past saturation skip indices
        if basis.insert(q, bits) is None:
            dependent.append(index)
            coords.append(basis.dependency)
        else:
            independent.append(index)

    full = 0  # the rows before it go in one at a time
    while full < len(large) and basis.small_rank < width:
        block = slice(full, full + ROW_BLOCK)
        for q, bits in zip(large[block].tolist(), row_bits(words[block])):
            if basis.small_rank == width:
                break
            insert(full, q, bits)
            full += 1
    # full from here on, since only a new small row raises small_rank
    tagged = np.flatnonzero(large[full:]) + full
    for index, q, bits in zip(tagged.tolist(), large[tagged].tolist(), row_bits(words[tagged])):
        insert(index, q, bits)
    saturated = np.flatnonzero(large[full:] == 0) + full
    packed = independent[-1] // 64 + 1 if independent else 1  # words a coordinate row
    coords = pack_rows(coords, packed)
    if len(saturated):
        dependent += saturated.tolist()
        coords = np.concatenate((coords, _linear_map(basis, words[saturated], packed)))
        if len(tagged):  # tagged rows may fall in between
            dependent, coords = sorted(dependent), coords[np.argsort(dependent)]
    return Kernel(dependent, independent, coords)


def _linear_map(basis: SplitBasis, rows: np.ndarray, words: int) -> np.ndarray:
    """For each word row, the XOR of the coordinates of the unit vectors at
    its set bits, under a basis whose small rows are full, with one numpy
    pass per bit, as rows of `words` uint64 words. The coordinates of the
    unit vector at b are the mask of row b XOR those of row b's lower bits,
    since row b is that unit vector plus its lower bits: they are built
    from bit 0 up."""
    units = []
    for row, mask in zip(basis.small_bits, basis.small_masks):
        for c in mask_bits(row)[:-1]:
            mask ^= units[c]
        units.append(mask)
    out = np.zeros((len(rows), words), dtype="<u8")
    for b, image in enumerate(pack_rows(units, words)):
        column = (rows[:, b >> 6] >> np.uint64(b & 63)) & np.uint64(1)
        out ^= column[:, None] * image
    return out
