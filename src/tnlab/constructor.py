"""Constructive pipelines: smooth-rich intervals, small-t_n witnesses, and
curve-point certificates.

The pipeline finds short intervals unusually rich in smooth numbers, takes
the GF(2) kernel of their parity vectors (every kernel element is a subset
with square product), draws a family of kernel members, and picks two with
a large symmetric difference; the difference is itself a square-product
subset whose elements, written as n, n+j_1, ..., n+J, certify an integral
point on the corresponding hyperelliptic curve. Every certificate is
verified exactly at emission (verify.verify_witness, which loads no tn);
count guarantees are asymptotic and only reported, never asserted.

The y-smooth values of [1, x] and their parity vectors come from one
listing (sieve.smooth_listing), made as products of the prime powers of
the primes <= y, which reads no P+ and divides no value: Psi(x, y) is its
length, each interval's smooth count is one bincount of (v - 1) // length,
and the chosen interval's values and rows are a gather from it, sorted
ascending. build_small_tn takes the first pi(y) + 1 values above lo of
the listing of [1, hi]. The rows, in a window's layout (large, words),
reach gf2.kernel_masks as they are: past the saturation of its small
basis, which takes one block of rows at x = 10^6, no value of the batch
becomes a Python int on its way to the kernel's linear map, and the
coordinates the map returns stay packed words.

Certificates stay in kernel coordinates from the kernel to the chosen
pair. gf2.kernel_masks returns the kernel in systematic form [I | A]
(MacWilliams and Sloane, "The Theory of Error-Correcting Codes", 1977):
each kernel vector is its own dependent insertion plus independent
insertions only, given by its coordinates over those. A family member is
therefore its random selector plus one parity bit per independent
insertion, computed on packed uint64 words, instead of the XOR of about
half of the basis (at x = 10^6, 9714 kernel vectors over 9733 values,
rank 19). No mask of a kernel vector is built on the way: the widest
pair is picked on these coordinates, and only its difference is spread
back to the interval's values.
"""

from __future__ import annotations

import math
import random
import time
from typing import Optional, Sequence

import numpy as np

from .errors import PipelineFailed, RangeError, UsageError
from .gf2 import Kernel, kernel_masks, mask_bits
# smooth_in_interval stays importable here, with no caller: bench/tracer.py
# wraps constructor.smooth_in_interval by name until the tracer reads
# in-tree counters (ROADMAP item 1b)
from .sieve import SpfTable, pack_rows, primes_up_to, smooth_in_interval, smooth_listing  # noqa: F401
from .verify import verify_witness

EXHAUSTIVE_PAIR_LIMIT = 2 ** 12


def smoothness_parameter(x: int) -> float:
    """Default smoothness bound: exp((sqrt(2)/2) sqrt(log x log log x))."""
    return math.exp(0.5 * math.sqrt(2.0) * _log_scale(x))


def interval_length_parameter(x: int) -> float:
    """Default interval length: exp((sqrt(2) + 1/sqrt(log log x)) sqrt(log x log log x))."""
    return math.exp(_log_scale(x) * (math.sqrt(2.0) + 1.0 / math.sqrt(math.log(math.log(x)))))


def _log_scale(x: int) -> float:
    """sqrt(log x log log x), the scale of both parameters."""
    if x < 3:  # log log x <= 0
        raise RangeError("x must be >= 3")
    return math.sqrt(math.log(x) * math.log(math.log(x)))


def find_smooth_rich_intervals(x: int, y: float, length: int, delta: float,
                               table: Optional[SpfTable] = None) -> list[tuple[int, int]]:
    """Disjoint intervals (k*length, (k+1)*length] inside [x/log x, x] whose
    y-smooth count exceeds delta * length * Psi(x, y) / x, ascending.

    delta = 0 degenerates to "any interval with a positive smooth count".
    An empty list (e.g. when length > x) is a normal outcome, not an error.
    `table` is accepted and not read.
    """
    return _rich_intervals(x, y, length, delta)[2]


def _rich_intervals(x: int, y: float, length: int,
                    delta: float) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """find_smooth_rich_intervals with the listing it reads: the y-smooth
    values of [1, x], their rows, and the intervals."""
    if x < 3:
        raise RangeError("x must be >= 3")
    if not (0.0 <= delta < 1.0):
        raise RangeError(f"delta must lie in [0, 1), got {delta}")
    if y < 1 or y >= length:
        raise RangeError(f"need 1 <= y < length, got y={y}, length={length}")
    values, words = smooth_listing(x, int(math.floor(y)))
    threshold = delta * length * len(values) / x
    # interval k holds the values v with (v - 1) // length == k, for k from
    # the first at or above x / log x to the last inside x
    first = max(1, math.ceil(x / math.log(x) / length))
    counts = np.bincount((values - 1) // length, minlength=x // length)[first:x // length]
    return values, words, [(k * length, (k + 1) * length)
                           for k in (np.flatnonzero(counts > threshold) + first).tolist()]


def build_small_tn(lo: int, hi: int, y: float,
                   table: Optional[SpfTable] = None) -> Optional[tuple[int, tuple[int, ...]]]:
    """A pair (n, offsets) with n in (lo, hi] whose square-product witness
    lies wholly inside the interval, certifying t_n <= hi - lo.

    Exists whenever the interval holds more y-smooth integers than there
    are primes up to y (pigeonhole on parity vectors); returns None when
    that count condition fails. The kernel element produced by the first
    dependent insertion is used, and n is its least element. The pair is
    returned only once verify_witness accepts it. `table` is accepted and
    not read.
    """
    y_int = int(math.floor(y))
    values, words = smooth_listing(hi, y_int)
    prime_count = len(primes_up_to(y_int))
    # the pi(y) + 1 least smooth values above lo, as vectors over the primes
    # up to y: the first dependency is among them (pigeonhole)
    batch = np.flatnonzero(values > lo)
    batch = batch[np.argsort(values[batch])][:prime_count + 1]
    if len(batch) <= prime_count:
        return None
    first = kernel_masks((np.zeros(len(batch), dtype=np.int64), words[batch])).masks()[0]
    members = values[batch[mask_bits(first)]].tolist()
    n = members[0]
    offsets = tuple(v - n for v in members[1:])
    if not verify_witness(n, offsets):
        raise AssertionError(f"n = {n}: the witness does not make a square")
    return n, offsets


def max_symdiff_pair(masks: Sequence[int]) -> tuple[int, int, int]:
    """Indices (i, j) of a pair of subsets with maximal symmetric difference,
    plus its size. Each subset is an int mask (bit b set when element b is
    a member), so the difference of a pair is the popcount of its XOR.

    The masks are packed into uint64 rows once. Up to EXHAUSTIVE_PAIR_LIMIT
    subsets every pair is scanned, one row against the rows after it per
    numpy pass; ties go to the lexicographically first pair. Beyond that,
    one anchor set is fixed and scanned against all others (the counting
    argument guarantees the anchor already sees a far set when the family
    is large enough).
    """
    k = len(masks)
    if k < 2:
        raise UsageError("need at least 2 subsets")
    if len(set(masks)) != k:
        raise UsageError("subsets must be distinct")
    return _widest_rows(pack_rows(masks, max(m.bit_length() for m in masks) // 64 + 1))


def _widest_rows(rows: np.ndarray) -> tuple[int, int, int]:
    """max_symdiff_pair on distinct subsets packed as the rows of a uint64
    array; the bit order within a row does not matter."""
    if len(rows) <= EXHAUSTIVE_PAIR_LIMIT:
        best = (-1, 0, 0)
        for i in range(len(rows) - 1):
            sizes = np.add.reduce(np.bitwise_count(rows[i + 1:] ^ rows[i]), axis=1, dtype=np.int32)
            j = int(sizes.argmax())  # the first j at the row's largest size
            if sizes[j] > best[0]:
                best = (int(sizes[j]), i, i + 1 + j)
    else:
        anchor = int(rows.any(axis=1).argmax())  # the first set that is not empty
        # the anchor's own size is 0, below that of every other set
        sizes = np.add.reduce(np.bitwise_count(rows ^ rows[anchor]), axis=1, dtype=np.int32)
        j = int(sizes.argmax())
        best = (int(sizes[j]), min(anchor, j), max(anchor, j))
    return best[1], best[2], best[0]


class CurvePointCertificate:
    """An exactly verified integral point: n(n+J) * prod(n+j_i) is a square.

    offsets holds the N interior shifts 1 <= j_1 < ... < j_N < J. The
    J^(1-c) size target is reported (meets_target), never asserted: the
    underlying guarantee is asymptotic. Immutable; equality and the hash
    read every field but stage_seconds, the wall time of each stage.
    """

    __slots__ = ("J", "offsets", "n", "N", "c", "target", "meets_target", "x", "y",
                 "length", "seed", "interval", "smooth_count", "prime_count",
                 "kernel_dim", "family_size", "stage_seconds")

    def __init__(self, J: int, offsets: tuple[int, ...], n: int, N: int, c: float,
                 target: int, meets_target: bool, x: int, y: float, length: int,
                 seed: int, interval: tuple[int, int], smooth_count: int,
                 prime_count: int, kernel_dim: int, family_size: int,
                 stage_seconds: Optional[dict] = None):
        fields = locals()
        fields["stage_seconds"] = {} if stage_seconds is None else stage_seconds
        for name in self.__slots__:
            object.__setattr__(self, name, fields[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _compared(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__[:-1])

    def __eq__(self, other):
        if type(other) is not CurvePointCertificate:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self):
        return "CurvePointCertificate(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"

    def __reduce__(self):
        return CurvePointCertificate, tuple(getattr(self, name) for name in self.__slots__)

    def all_offsets(self) -> tuple[int, ...]:
        return self.offsets + (self.J,)

    def to_json_dict(self) -> dict:
        doc = dict(zip(self.__slots__[:-1], self._compared()))
        return dict(doc, offsets=list(self.offsets), interval=list(self.interval))


def construct_curve_point(x: int, c: float, seed: int = 0,
                          y: Optional[float] = None,
                          length: Optional[int] = None,
                          delta: float = 0.25,
                          family_size: int = 128,
                          table: Optional[SpfTable] = None) -> CurvePointCertificate:
    """Run the full certificate pipeline at scale x.

    Stages: smooth-rich interval discovery -> parity kernel of the smooth
    integers in the first qualifying interval -> seeded family of kernel
    members -> maximal symmetric difference -> certificate. Raises
    PipelineFailed (with the stage name) when a stage yields nothing, e.g.
    when x is too small for the default parameters. `table` is accepted
    and not read.
    """
    if x < 16:
        raise PipelineFailed("parameters", f"x={x} is too small")
    if not (0.0 < c < 1.0):
        raise RangeError(f"c must lie in (0, 1), got {c}")
    if family_size < 2:
        raise RangeError(f"family_size must be >= 2, got {family_size}")
    t0 = time.perf_counter()
    if y is None:
        y = smoothness_parameter(x)
    if length is None:
        length = int(interval_length_parameter(x))
    if y < 2 or length < 4:
        raise PipelineFailed("parameters", f"degenerate y={y:.3g}, length={length}")
    if y >= length:
        raise PipelineFailed("parameters", f"y={y:.3g} >= length={length}")
    timings = {}

    values, words, intervals = _rich_intervals(x, y, length, delta)
    timings["intervals"] = time.perf_counter() - t0
    if not intervals:
        raise PipelineFailed("intervals", f"no qualifying interval at x={x}")
    lo, hi = intervals[0]

    t1 = time.perf_counter()
    inside = np.flatnonzero((values > lo) & (values <= hi))
    inside = inside[np.argsort(values[inside])]  # ascending, the order of the kernel's rows
    # the listing is let go here: the later stages hold the interval alone
    values, words = values[inside], words[inside]
    kernel = kernel_masks((np.zeros(len(values), dtype=np.int64), words))
    dim = len(kernel)
    prime_count = len(primes_up_to(int(math.floor(y))))
    timings["kernel"] = time.perf_counter() - t1
    if dim == 0:
        raise PipelineFailed("kernel", f"kernel is trivial on ({lo}, {hi}]")

    t2 = time.perf_counter()
    rng = random.Random(seed)
    family = _draw_family(kernel, rng, family_size)
    if len(family) < 2:
        raise PipelineFailed("family", "fewer than 2 distinct kernel members drawn")
    positions, size = _widest_pair(kernel, family)
    timings["symdiff"] = time.perf_counter() - t2
    if size < 2:
        raise PipelineFailed("symdiff", "largest symmetric difference has < 2 elements")

    members = values[positions].tolist()
    n = members[0]
    span = members[-1] - n
    interior = tuple(m - n for m in members[1:-1])

    if not verify_witness(n, interior + (span,)):
        raise AssertionError(f"n = {n}: the certificate product is not a square")

    target = math.ceil(span ** (1.0 - c))
    timings["total"] = time.perf_counter() - t0
    return CurvePointCertificate(
        J=span, offsets=interior, n=n, N=len(interior), c=c,
        target=target, meets_target=len(interior) >= target,
        x=x, y=y, length=length, seed=seed, interval=(lo, hi),
        smooth_count=len(values), prime_count=prime_count,
        kernel_dim=dim, family_size=len(family),
        stage_seconds=timings,
    )


def _draw_family(kernel: Kernel, rng: random.Random, family_size: int) -> list[int]:
    """Selectors of distinct kernel members, in family order: bit k of sel
    picks the k-th kernel vector, kernel.masks()[k]. The kernel vectors
    are independent, so distinct selectors give distinct members. All 2^dim
    selectors, in the order of the value of their member, when they fit in
    the family; otherwise seeded random selectors, in order of first
    appearance, within 8 * family_size draws.

    The value order of the members is the order of their selectors: the
    top bit of the k-th kernel vector is its dependent insertion, and its
    other bits lie below it, so the top bit of a member is the dependent
    insertion of the top bit of its selector, and the dependent
    insertions ascend with k.
    """
    dim = len(kernel)
    if dim <= 12 and 2 ** dim <= max(family_size, 2):
        return list(range(2 ** dim))
    seen = {}
    attempts = 0
    while len(seen) < family_size and attempts < 8 * family_size:
        attempts += 1
        seen.setdefault(rng.getrandbits(dim), None)
    return list(seen)


def _widest_pair(kernel: Kernel, family: list[int]) -> tuple[list[int], int]:
    """The insertion indices, ascending, of the symmetric difference of the
    family's widest pair (the pair max_symdiff_pair picks), and its size.

    The kernel is in systematic form (gf2.Kernel): the member of a selector
    sel holds the dependent vectors at the set bits of sel and, for each
    independent insertion i, the vector i when the parity of sel AND
    column i is odd, where bit k of column i is bit i of coords[k]. In
    kernel coordinates the member is one packed row: the words of sel, then
    the words of its parity bits, one per independent insertion. These
    coordinates are a fixed bit permutation of the member's mask, which
    keeps XOR and popcount, so the pair is picked on them and only its
    difference is spread back.
    """
    dim = len(kernel)
    words = dim // 64 + 1
    slots, coords = kernel.independent, kernel.coords  # every bit of coords lies at a slot
    columns = np.zeros((len(slots), 8 * words), dtype=np.uint8)
    for s, i in enumerate(slots):
        column = (coords[:, i >> 6] >> np.uint64(i & 63)).astype(np.uint8) & 1
        columns[s, :(dim + 7) // 8] = np.packbits(column, bitorder="little")
    selectors = pack_rows(family, words)
    parities = np.zeros((len(family), 64 * (len(slots) // 64 + 1)), dtype=np.uint8)
    for s, column in enumerate(columns.view("<u8")):
        parities[:, s] = np.bitwise_count(selectors & column).sum(axis=1) & 1
    i, j, size = _widest_rows(np.hstack(
        [selectors, np.packbits(parities, axis=1, bitorder="little").view("<u8")]))
    union = np.unpackbits((selectors[i] ^ selectors[j]).view(np.uint8), bitorder="little")
    positions = [kernel.dependent[b] for b in np.flatnonzero(union).tolist()]
    positions += [slots[s] for s in np.flatnonzero(parities[i] ^ parities[j]).tolist()]
    return sorted(positions), size
