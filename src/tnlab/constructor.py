"""Constructive pipelines: smooth-rich intervals, small-t_n witnesses, and
curve-point certificates.

The pipeline finds short intervals unusually rich in smooth numbers, takes
the GF(2) kernel of their parity vectors (every kernel element is a subset
with square product), draws a family of kernel members, and picks two with
a large symmetric difference; the difference is itself a square-product
subset whose elements, written as n, n+j_1, ..., n+J, certify an integral
point on the corresponding hyperelliptic curve. Every certificate is
parity-verified at emission; count guarantees are asymptotic and only
reported, never asserted.

The kernel basis from gf2.kernel_masks is in systematic form [I | A]
(MacWilliams and Sloane, "The Theory of Error-Correcting Codes", 1977):
each mask is its own dependent insertion plus independent insertions
only. A family member is therefore read off its random selector directly,
by spreading the selector onto the dependent positions and setting one
parity bit per independent position, instead of XOR-ing about half of the
basis per draw (at x = 10^6, 9700 masks over 9719 values, rank 19).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import PipelineFailed, RangeError, UsageError
from .gf2 import kernel_masks, mask_bits
from .sieve import (SpfTable, build_spf_table, p_plus_in, primes_up_to, smooth_in_interval,
                    split_vectors)
from .tn import verify_witness

EXHAUSTIVE_PAIR_LIMIT = 2 ** 12


def smoothness_parameter(x: int) -> float:
    """Default smoothness bound: exp((sqrt(2)/2) sqrt(log x log log x))."""
    if x < 3:  # log log x <= 0
        raise RangeError("x must be >= 3")
    s = math.sqrt(math.log(x) * math.log(math.log(x)))
    return math.exp(0.5 * math.sqrt(2.0) * s)


def interval_length_parameter(x: int) -> float:
    """Default interval length: exp((sqrt(2) + 1/sqrt(log log x)) sqrt(log x log log x))."""
    if x < 3:
        raise RangeError("x must be >= 3")
    s = math.sqrt(math.log(x) * math.log(math.log(x)))
    return math.exp((math.sqrt(2.0) + 1.0 / math.sqrt(math.log(math.log(x)))) * s)


def find_smooth_rich_intervals(x: int, y: float, length: int, delta: float,
                               table: Optional[SpfTable] = None) -> list[tuple[int, int]]:
    """Disjoint intervals (k*length, (k+1)*length] inside [x/log x, x] whose
    y-smooth count exceeds delta * length * Psi(x, y) / x, ascending.

    delta = 0 degenerates to "any interval with a positive smooth count".
    An empty list (e.g. when length > x) is a normal outcome, not an error.
    """
    if x < 3:
        raise RangeError("x must be >= 3")
    if not (0.0 <= delta < 1.0):
        raise RangeError(f"delta must lie in [0, 1), got {delta}")
    if y < 1 or y >= length:
        raise RangeError(f"need 1 <= y < length, got y={y}, length={length}")
    y_int = int(math.floor(y))
    # smooth[i]: is i + 1 y-smooth; one P+ read for Psi(x, y) and the intervals
    smooth = p_plus_in(0, x, table) <= y_int
    threshold = delta * length * int(np.count_nonzero(smooth)) / x
    # interval k holds smooth[k * length:(k + 1) * length], for k from the
    # first at or above x / log x to the last inside x
    first = max(1, math.ceil(x / math.log(x) / length))
    counts = smooth[first * length:x // length * length].reshape(-1, length).sum(axis=1)
    return [(k * length, (k + 1) * length)
            for k in (np.flatnonzero(counts > threshold) + first).tolist()]


def build_small_tn(lo: int, hi: int, y: float,
                   table: Optional[SpfTable] = None) -> Optional[tuple[int, tuple[int, ...]]]:
    """A pair (n, offsets) with n in (lo, hi] whose square-product witness
    lies wholly inside the interval, certifying t_n <= hi - lo.

    Exists whenever the interval holds more y-smooth integers than there
    are primes up to y (pigeonhole on parity vectors); returns None when
    that count condition fails. The kernel element produced by the first
    dependent insertion is used, and n is its least element.
    """
    y_int = int(math.floor(y))
    smooths = smooth_in_interval(lo, hi, y_int, table)
    prime_count = len(primes_up_to(y_int))
    if len(smooths) <= prime_count:
        return None
    # pi(y) + 1 vectors over the primes up to y: the first dependency is
    # among them (pigeonhole)
    first = kernel_masks(split_vectors(smooths[:prime_count + 1]))[0]
    members = [smooths[i] for i in mask_bits(first)]
    n = members[0]
    return n, tuple(v - n for v in members[1:])


def max_symdiff_pair(masks: Sequence[int]) -> tuple[int, int, int]:
    """Indices (i, j) of a pair of subsets with maximal symmetric difference,
    plus its size. Each subset is an int mask (bit b set when element b is
    a member), so the difference of a pair is the popcount of its XOR.

    Exhaustive pair scan up to EXHAUSTIVE_PAIR_LIMIT subsets; beyond that, one
    anchor set is fixed and scanned against all others (the counting
    argument guarantees the anchor already sees a far set when the family
    is large enough).
    """
    k = len(masks)
    if k < 2:
        raise UsageError("need at least 2 subsets")
    if len(set(masks)) != k:
        raise UsageError("subsets must be distinct")

    best = (-1, 0, 0)
    if k <= EXHAUSTIVE_PAIR_LIMIT:
        for i in range(k):
            mi = masks[i]
            for j in range(i + 1, k):
                d = (mi ^ masks[j]).bit_count()
                if d > best[0]:
                    best = (d, i, j)
    else:
        anchor = next(i for i, m in enumerate(masks) if m)
        ma = masks[anchor]
        for j in range(k):
            if j == anchor:
                continue
            d = (ma ^ masks[j]).bit_count()
            if d > best[0]:
                best = (d, min(anchor, j), max(anchor, j))
    return best[1], best[2], best[0]


@dataclass(frozen=True)
class CurvePointCertificate:
    """A parity-verified integral point: n(n+J) * prod(n+j_i) is a square.

    offsets holds the N interior shifts 1 <= j_1 < ... < j_N < J. The
    J^(1-c) size target is reported (meets_target), never asserted: the
    underlying guarantee is asymptotic.
    """

    J: int
    offsets: tuple[int, ...]
    n: int
    N: int
    c: float
    target: int
    meets_target: bool
    x: int
    y: float
    length: int
    seed: int
    interval: tuple[int, int]
    smooth_count: int
    prime_count: int
    kernel_dim: int
    family_size: int
    stage_seconds: dict = field(compare=False, default_factory=dict)

    def all_offsets(self) -> tuple[int, ...]:
        return self.offsets + (self.J,)

    def to_json_dict(self) -> dict:
        return {
            "J": self.J,
            "offsets": list(self.offsets),
            "n": self.n,
            "N": self.N,
            "c": self.c,
            "target": self.target,
            "meets_target": self.meets_target,
            "x": self.x,
            "y": self.y,
            "length": self.length,
            "seed": self.seed,
            "interval": list(self.interval),
            "smooth_count": self.smooth_count,
            "prime_count": self.prime_count,
            "kernel_dim": self.kernel_dim,
            "family_size": self.family_size,
        }


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
    when x is too small for the default parameters.
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
    if table is None or table.limit < x:
        table = build_spf_table(x)
    timings = {}

    intervals = find_smooth_rich_intervals(x, y, length, delta, table)
    timings["intervals"] = time.perf_counter() - t0
    if not intervals:
        raise PipelineFailed("intervals", f"no qualifying interval at x={x}")
    lo, hi = intervals[0]

    t1 = time.perf_counter()
    y_int = int(math.floor(y))
    smooths = smooth_in_interval(lo, hi, y_int, table)
    masks = kernel_masks(split_vectors(smooths))
    dim = len(masks)
    prime_count = len(primes_up_to(y_int))
    timings["kernel"] = time.perf_counter() - t1
    if dim == 0:
        raise PipelineFailed("kernel", f"kernel is trivial on ({lo}, {hi}]")

    t2 = time.perf_counter()
    rng = random.Random(seed)
    family = _draw_family(masks, rng, family_size)
    if len(family) < 2:
        raise PipelineFailed("family", "fewer than 2 distinct kernel members drawn")
    i, j, size = max_symdiff_pair(family)
    timings["symdiff"] = time.perf_counter() - t2
    if size < 2:
        raise PipelineFailed("symdiff", "largest symmetric difference has < 2 elements")

    union = family[i] ^ family[j]
    members = sorted(smooths[b] for b in mask_bits(union))
    n = members[0]
    span = members[-1] - n
    interior = tuple(m - n for m in members[1:-1])

    assert verify_witness(n, interior + (span,)), "certificate product is not a square"

    target = math.ceil(span ** (1.0 - c))
    timings["total"] = time.perf_counter() - t0
    return CurvePointCertificate(
        J=span, offsets=interior, n=n, N=len(interior), c=c,
        target=target, meets_target=len(interior) >= target,
        x=x, y=y, length=length, seed=seed, interval=(lo, hi),
        smooth_count=len(smooths), prime_count=prime_count,
        kernel_dim=dim, family_size=len(family),
        stage_seconds=timings,
    )


def _draw_family(masks: list[int], rng: random.Random, family_size: int) -> list[int]:
    """Distinct kernel members, each the XOR of the masks that a selector
    sel picks (bit k of sel picks masks[k]): all 2^dim members, sorted,
    when they fit in the family, otherwise those of seeded random
    selectors, in order of first appearance, within 8 * family_size draws.

    The kernel basis is in systematic form [I | A] (MacWilliams and
    Sloane, "The Theory of Error-Correcting Codes", 1977): the top bit of
    masks[k] is its own dependent insertion index, and its other bits lie
    only at independent positions, where no mask has its top bit. A
    member is therefore sel spread onto the dependent positions, plus one
    parity bit per independent position, computed by _member_map without
    touching the masks again.
    """
    dim = len(masks)
    member = _member_map(masks)
    if dim <= 12 and 2 ** dim <= max(family_size, 2):
        # the masks are independent, so the members are distinct
        return sorted(member(sel) for sel in range(2 ** dim))
    seen = {}
    attempts = 0
    while len(seen) < family_size and attempts < 8 * family_size:
        attempts += 1
        seen.setdefault(member(rng.getrandbits(dim)), None)
    return list(seen)


def _member_map(masks: list[int]) -> Callable[[int], int]:
    """The map sel -> XOR of the masks[k] with bit k of sel set, for a
    kernel basis in systematic form (see _draw_family).

    For an independent position i, bit k of column i is set when masks[k]
    has bit i, so the member's bit i is the parity of sel AND column i.
    The columns are read off one array of the masks' low words and packed
    once each, in time linear in the masks.
    """
    tops = [m.bit_length() - 1 for m in masks]
    dependent = set(tops)
    free = [i for i in range(max(tops, default=0)) if i not in dependent]
    columns = []
    if free:
        # the low words of every mask, as one array: they hold every bit
        # at an independent position, and only column i of it is read
        width = (free[-1] >> 6) + 1
        low = (1 << 64 * width) - 1
        words = np.frombuffer(b"".join((m & low).to_bytes(8 * width, "little") for m in masks),
                              dtype="<u8").reshape(len(masks), width)
        for i in free:
            column = (words[:, i >> 6] >> np.uint64(i & 63)) & np.uint64(1)
            if column.any():
                packed = np.packbits(column.astype(np.uint8), bitorder="little").tobytes()
                columns.append((1 << i, int.from_bytes(packed, "little")))

    def member(sel: int) -> int:
        m = sel
        for i in free:
            # doubling the part at and above i moves it up one place and
            # leaves bit i clear: sel's k-th bit lands on the k-th dependent
            # position once every independent position below it is passed
            m += m >> i << i
        for bit, column in columns:
            if (sel & column).bit_count() & 1:
                m |= bit
        return m

    return member
