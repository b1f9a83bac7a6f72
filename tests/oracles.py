"""Independent brute-force oracles.

Everything here deliberately avoids the library's own code paths: trial
division instead of sieve tables (factor_range divides a whole range by
the primes of its own sieve, plain_primes), a square root of every whole
product (square_by_product) instead of sieve windows, exhaustive subset search instead of GF(2) elimination, plain quadrature instead of the production rho grid.
Expected values frozen into tests were computed with these. The
exceptions are the per-n loops at the end, which run one compute_tn
search per value where the library now runs one sweep or one window pass,
tn_without_jump, the span search as it was before it started from the
partner of a large tag and kept its target outside the basis,
per_vector_kernel_masks, the kernel as it was
before its linear map, interval_kernel_basis, the kernel basis of an
interval as the library gave it before it kept brute enumeration alone
(with batch_vectors, pack_vectors and interval_rows, which move split
vectors between (q, bits) pairs and a window's layout), split_vectors,
the constructor's trial-divided batches as they were before they were
sieved, smooth_rows, the sieved batches that followed them, before the
constructor listed its smooth values with their rows
(sieve.smooth_listing), whole_range_p_plus, a table's P+ array as it was
built before its chunks, table_route, the constructor's intervals and
smooth values as it read them from that array before the listing,
power_table_per_pass, the prime-power table as each window pass built it
before one table was kept, and
TaggedSweepBasis with tagged_sweep and tagged_closed_count, the sweep and
the interval's closed count as they were before each large tag was folded
into its partner: a dict of large rows and one insert per value, and
fraction_near_square_decompose, the near-square split as it ran in
Fractions before it moved to 4^u-scaled integers.
The mpmath_* functions are the thresholds and height bounds as the library
evaluated them in mpmath before it moved to `decimal`; each imports mpmath
itself, so only the tests that call them need it installed.
"""

import math
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import isqrt

import numpy as np

from tnlab import sieve
from tnlab.errors import CapExceeded, DomainError, RangeError
from tnlab.gf2 import SplitBasis, kernel_masks, mask_bits
from tnlab.runge import BoundChecks, NearSquareDecomposition, RationalPoly
from tnlab.sieve import (WINDOW_VALUE_CEILING, _power_table, _trial_split, pack_rows,
                         parity_windows, primes_through, row_bits)
from tnlab.tn import HARD_OFFSET_CAP, TnResult, compute_tn, large_prime_shortcut


def trial_factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


@cache
def plain_primes(n: int) -> tuple[int, ...]:
    """The primes <= n, by a sieve of Eratosthenes over a list of flags."""
    flags = [True] * (n + 1)
    flags[:2] = [False] * min(2, n + 1)
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = [False] * len(range(p * p, n + 1, p))
    return tuple(p for p, prime in enumerate(flags) if prime)


def factor_range(a: int, b: int) -> list[list[tuple[int, int]]]:
    """trial_factor(m) for every m in [a, b), by dividing each prime
    p <= isqrt(b - 1) out of its multiples in the range: what is left of a
    value then is 1 or one prime, to the first power."""
    rem = list(range(a, b))
    factors = [[] for _ in rem]
    for p in plain_primes(isqrt(b - 1)):
        for i in range(-a % p, b - a, p):
            e = 0
            while rem[i] % p == 0:
                rem[i] //= p
                e += 1
            factors[i].append((p, e))
    for found, r in zip(factors, rem):
        if r > 1:
            found.append((r, 1))
    return factors


def largest_prime_factor(n: int) -> int:
    if n == 1:
        return 1
    return trial_factor(n)[-1][0]


def is_smooth(n: int, y: int) -> bool:
    return largest_prime_factor(n) <= y


def is_square(n: int) -> bool:
    return isqrt(n) ** 2 == n


def brute_tn(n: int, cap: int = 16):
    """Least t with a subset of {n+1..n+t} whose product with n is square,
    by exhaustive subset search growing t one step at a time.

    Exponential in t, so the cap stays small; returns None when t_n > cap
    (which is itself a checkable fact)."""
    if is_square(n):
        return 0, ()
    for t in range(1, cap + 1):
        # any witness realizing this t must include the newest offset t
        others = list(range(1, t))
        for r in range(0, len(others) + 1):
            for combo in combinations(others, r):
                prod = n * (n + t)
                for j in combo:
                    prod *= n + j
                if is_square(prod):
                    return t, combo + (t,)
    return None


def brute_pell(span: int) -> list[tuple[int, int]]:
    """All positive (x, y) with y^2 = x(x + span) and x <= span^2, by
    testing every x."""
    out = []
    for x in range(1, span * span + 1):
        m = x * (x + span)
        r = isqrt(m)
        if r * r == m:
            out.append((x, r))
    return out


def brute_square_subsets(lo: int, hi: int) -> list[tuple[int, ...]]:
    """All subsets of (lo, hi] with square product, by direct multiplication."""
    elements = list(range(lo + 1, hi + 1))
    out = []
    for mask in range(1 << len(elements)):
        prod = 1
        for b, e in enumerate(elements):
            if mask >> b & 1:
                prod *= e
        if is_square(prod):
            out.append(tuple(e for b, e in enumerate(elements) if mask >> b & 1))
    return out


def gray_code_square_subsets(lo: int, hi: int) -> tuple[tuple[int, ...], ...]:
    """All subsets of (lo, hi] with square product, in ascending
    characteristic-bitmask order (empty set first): the XOR of the odd
    supports of each subset, taken by a Gray-code walk in which consecutive
    subsets differ in one element (how brute-mode enumeration walked them
    before it tabulated blocks of subsets)."""
    elements = list(range(lo + 1, hi + 1))
    prime_bits = {}
    vecs = []
    for e in elements:
        mask = 0
        for p in odd_support(e):
            mask |= 1 << prime_bits.setdefault(p, len(prime_bits))
        vecs.append(mask)
    hits = [0]
    acc = prev_gray = 0
    for g in range(1, 1 << len(elements)):
        gray = g ^ (g >> 1)
        acc ^= vecs[(gray ^ prev_gray).bit_length() - 1]
        prev_gray = gray
        if acc == 0:
            hits.append(gray)
    return tuple(tuple(e for b, e in enumerate(elements) if s >> b & 1)
                 for s in sorted(hits))


def brute_integral_points(offsets, x_limit: int) -> list[tuple[int, int]]:
    """All (x, y) with 1 <= x <= x_limit and y^2 = prod(x + j), by
    multiplying out every x and taking its integer square root."""
    out = []
    for x in range(1, x_limit + 1):
        m = 1
        for j in offsets:
            m *= x + j
        r = isqrt(m)
        if r * r == m:
            out.append((x, r))
    return out


def fraction_near_square_decompose(poly, span=None):
    """runge.near_square_decompose(poly, span) as it was computed in
    Fractions before it moved to the integers 4^u a_i: the recurrence
    a_j = (q_(u+j) - sum a_i a_(u-i+j)) / 2 on Fractions, g = P - f^2 by
    RationalPoly arithmetic, and each bound compared in Fractions."""
    if not poly.is_integral():
        raise DomainError("polynomial must have integer coefficients")
    if not poly.is_monic():
        raise DomainError("polynomial must be monic")
    d = poly.degree
    if d % 2 or d < 4:
        raise DomainError(f"degree must be even and >= 4, got {d}")
    u = d // 2
    a = [Fraction(0)] * (u + 1)
    a[u] = Fraction(1)
    for j in range(u - 1, -1, -1):
        s = sum((a[i] * a[u - i + j] for i in range(j + 1, u)), Fraction(0))
        a[j] = (poly.coeff(u + j) - s) / 2
    f = RationalPoly.from_coeffs(a)
    g = poly - f * f
    if g.degree >= u:
        raise AssertionError("remainder degree must drop below half degree")
    dyadic_ok = all((Fraction(4) ** (u - i) * a[i]).denominator == 1 for i in range(u + 1))
    sqrt_ok = remainder_ok = None
    if span is not None:
        sqrt_ok = all(abs(a[u - k]) <= (k * u * span) ** k for k in range(1, u + 1))
        remainder_ok = all(
            abs(g.coeff(i)) <= 5 * Fraction(u) ** (4 * u - 2 * i) * Fraction(span) ** (2 * u - i)
            for i in range(u))
    return NearSquareDecomposition(
        poly=poly, sqrt_part=f, remainder=g, half_degree=u, span=span,
        checks=BoundChecks(dyadic_ok=dyadic_ok, sqrt_coeff_ok=sqrt_ok,
                           remainder_coeff_ok=remainder_ok))


def rho_quadrature(u: float, step: float = 1e-5) -> float:
    """Dickman rho from the integral relation u rho(u) = F(u) - F(u-1)
    with F the running trapezoid integral of rho; a fine-step marcher
    independent of the production grid evaluator."""
    if u <= 1:
        return 1.0
    n1 = int(round(1.0 / step))
    total = int(round(u / step))
    rho = [1.0] * (n1 + 1)
    cum = [i * step for i in range(n1 + 1)]  # integral of 1 on [0, 1]
    for i in range(n1 + 1, total + 1):
        ui = i * step
        # ui*r = cum[i-1] + (step/2)(rho[i-1] + r) - cum[i - n1]
        r = (cum[i - 1] + step / 2 * rho[i - 1] - cum[i - n1]) / (ui - step / 2)
        rho.append(r)
        cum.append(cum[i - 1] + step / 2 * (rho[i - 1] + r))
    return rho[total]


def odd_support(n: int) -> frozenset[int]:
    """Primes dividing n to an odd power, by trial division."""
    return frozenset(p for p, e in trial_factor(n) if e & 1)


def verify_by_supports(n: int, witness) -> bool:
    """True iff n times the product of n+j over the witness is a square,
    by the XOR of their odd supports (the check verify_witness made before
    it took isqrt of the product)."""
    acc = odd_support(n)
    for j in witness:
        acc ^= odd_support(n + j)
    return not acc


def square_by_product(n: int, witness) -> bool:
    """True iff m = n times the product of n+j over the witness is a
    square, with m multiplied out in full as a balanced product tree and
    decided by isqrt(m)^2 == m (the check verify_witness made before it
    cancelled gcds)."""
    level = [n] + [n + j for j in witness]
    while len(level) > 1:
        level = [a * b for a, b in zip(level[::2], level[1::2])] + level[len(level) & ~1:]
    m = level[0]
    return isqrt(m) ** 2 == m


class FrozensetBasis:
    """The echelon basis over prime sets that the split-vector engine
    replaced, kept as an oracle.

    Rows are keyed by their pivot, the largest prime of the reduced
    support, and each row carries the bitmask of the insertions (numbered
    0, 1, ... in order) whose vectors XOR to it.
    """

    def __init__(self):
        self.rows: dict[int, tuple[frozenset[int], int]] = {}
        self.inserted = 0

    def reduce(self, support: frozenset[int], mask: int = 0) -> tuple[frozenset[int], int]:
        while support:
            row = self.rows.get(max(support))
            if row is None:
                break
            support = support ^ row[0]
            mask ^= row[1]
        return support, mask

    def insert(self, support: frozenset[int]):
        """Pivot of the new row, or (None, dependency mask incl. own bit)."""
        support, mask = self.reduce(support, 1 << self.inserted)
        self.inserted += 1
        if support:
            self.rows[max(support)] = (support, mask)
            return max(support), None
        return None, mask


def frozenset_kernel_masks(supports) -> list[int]:
    basis = FrozensetBasis()
    out = []
    for s in supports:
        pivot, mask = basis.insert(s)
        if pivot is None:
            out.append(mask)
    return out


def frozenset_tn(n: int, cap: int, support=odd_support):
    """(t, witness) from the frozenset engine's span search over offsets
    1..cap, or None when the vector of n is not in the span by then. The
    witness is the canonical one: the target's combination mask when it
    first falls into the span."""
    if is_square(n):
        return 0, ()
    basis = FrozensetBasis()
    residual, mask = support(n), 0
    for j in range(1, cap + 1):
        pivot, _ = basis.insert(support(n + j))
        if residual and pivot == max(residual):
            residual, mask = basis.reduce(residual, mask)
            if not residual:
                return j, tuple(b + 1 for b in range(mask.bit_length()) if mask >> b & 1)
    return None


def per_vector_kernel_masks(vectors) -> list[int]:
    """gf2.kernel_masks(...).masks() of split vectors (q, bits) as it was
    computed before the saturated kernel: every vector goes into one
    SplitBasis, and each dependent one gives the combination mask its
    insertion leaves."""
    vectors = list(vectors)
    basis = SplitBasis(max((bits.bit_length() for _, bits in vectors), default=0))
    out = []
    for index, (q, bits) in enumerate(vectors):
        if basis.insert(q, bits) is None:
            out.append(basis.dependency | 1 << index)
    return out


def batch_vectors(batch) -> list[tuple[int, int]]:
    """The split vectors (q, bits) of the rows (large, words) of a batch."""
    large, words = batch
    return list(zip(large.tolist(), row_bits(words)))


def pack_vectors(vectors) -> tuple[np.ndarray, np.ndarray]:
    """Split vectors (q, bits) as the rows (large, words) that
    gf2.kernel_masks takes."""
    vectors = list(vectors)
    words = max((bits.bit_length() for _, bits in vectors), default=0) // 64 + 1
    return (np.array([q for q, _ in vectors], dtype=np.int64),
            pack_rows([bits for _, bits in vectors], words))


def split_vectors(values) -> tuple[np.ndarray, np.ndarray]:
    """The split rows (large, words) of a batch of positive values, in any
    order, under B = isqrt(max(values)), by trial division of the batch
    alone (sieve._trial_split, the core that folded_rows runs on the
    cofactors of far partners): the constructor's batch producer as it was
    before its batches were sieved (sieve.smooth_rows), kept for the
    kernel tests, which feed it ranges and shuffled batches that are not
    smooth. Values outside [1, WINDOW_VALUE_CEILING) raise RangeError, as
    they do in a window."""
    hi = max(values, default=1)
    if min(values, default=1) < 1 or hi >= WINDOW_VALUE_CEILING:
        raise RangeError(f"batch values must lie in [1, {WINDOW_VALUE_CEILING})")
    return _trial_split(np.array(values, dtype=np.int64), isqrt(hi))


def smooth_rows(values, y: int) -> tuple[np.ndarray, np.ndarray]:
    """The split rows (large, words) of a batch of y-smooth values, in a
    window's layout with no large tag: words[i] holds the ranks of the
    primes that divide values[i] to an odd power, counted from 2 as in
    every window. For y <= isqrt(max(values)) they are the rows of a window
    under that bound; for a larger y a prime above it is its top rank bit
    where a window has a large tag. The constructor's batch producer before
    it listed its smooth values with their rows (sieve.smooth_listing),
    kept as the sieved oracle for the listing's rows. A value with a prime
    above y would lose that prime from its row. Values outside
    [1, WINDOW_VALUE_CEILING) raise RangeError before any sieving.

    No value is divided. One pass over the span of the batch, in windows
    of at most sieve.WINDOW_BYTES of words, one window alive at a time,
    flips the rank bit of p at the multiples of each prime power
    p^k <= max(values) of the primes p <= y (from sieve._power_table), so
    each value ends with exactly its odd-exponent primes set.
    """
    lo, hi = min(values, default=1), max(values, default=1)
    if lo < 1 or hi >= WINDOW_VALUE_CEILING:
        raise RangeError(f"batch values must lie in [1, {WINDOW_VALUE_CEILING})")
    bound = min(y, hi)
    q, p, rank = _power_table(max(hi, bound * bound))
    keep = (p <= bound) & (q <= hi)
    powers = list(zip(q[keep].tolist(), rank[keep].tolist()))
    values = np.array(values, dtype=np.int64)
    width = max(1, (len(primes_through(bound)) + 63) >> 6)
    rows = np.zeros((len(values), width), dtype="<u8")
    most = max(1, sieve.WINDOW_BYTES // (8 * width))
    for a in range(lo, hi + 1, most):
        words = np.zeros((min(most, hi + 1 - a), width), dtype="<u8")
        for qk, rk in powers:
            words[-a % qk::qk, rk >> 6] ^= np.uint64(1 << (rk & 63))
        inside = np.flatnonzero((values >= a) & (values < a + most))
        rows[inside] = words[values[inside] - a]
        del words  # freed before the next window's zeros are allocated
    return np.zeros(len(values), dtype=np.int64), rows


def listed_batch(lo: int, hi: int, y: int) -> tuple[list[int], tuple[np.ndarray, np.ndarray]]:
    """The y-smooth values of (lo, hi], ascending, and their rows
    (large, words), gathered from sieve.smooth_listing(hi, y) as the
    constructor gathers its batches."""
    values, words = sieve.smooth_listing(hi, y)
    inside = np.flatnonzero(values > lo)
    inside = inside[np.argsort(values[inside])]
    return values[inside].tolist(), (np.zeros(len(inside), dtype=np.int64), words[inside])


def interval_rows(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows (large, words) of lo+1, ..., hi under B = isqrt(hi), from
    the interval's own sieve windows."""
    windows = list(parity_windows(lo + 1, hi + 1, isqrt(hi)))
    return (np.concatenate([large for _, large, _, _ in windows]),
            np.concatenate([words for _, _, words, _ in windows]))


def interval_kernel_basis(lo: int, hi: int) -> tuple[tuple[int, ...], ...]:
    """A basis of the square-product subsets of (lo, hi], each as its
    values: gf2.kernel_masks over the interval's own rows (interval_rows),
    what intervals.enumerate_square_subsets returned in kernel mode. The
    library keeps brute mode alone; this is the kernel-basis oracle that
    the golden kernel digests and the brute-against-kernel tests read."""
    return tuple(tuple(lo + 1 + i for i in mask_bits(mask))
                 for mask in kernel_masks(interval_rows(lo, hi)).masks())


def pair_loop_max_symdiff(masks: list[int], limit: int) -> tuple[int, int, int]:
    """max_symdiff_pair as a pure-Python loop over int masks: every pair
    up to `limit` masks, the lexicographically first of the widest;
    beyond that, the first mask that is not empty against all others."""
    best = (-1, 0, 0)
    if len(masks) <= limit:
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                d = (masks[i] ^ masks[j]).bit_count()
                if d > best[0]:
                    best = (d, i, j)
    else:
        anchor = next(i for i, m in enumerate(masks) if m)
        for j in range(len(masks)):
            if j == anchor:
                continue
            d = (masks[anchor] ^ masks[j]).bit_count()
            if d > best[0]:
                best = (d, min(anchor, j), max(anchor, j))
    return best[1], best[2], best[0]


def xor_draw_family(masks: list[int], rng, family_size: int) -> list[int]:
    """The constructor's family draw by plain XOR of basis masks: every
    member by a Gray-code walk when they fit in the family (sorted), else
    the members of seeded random selectors, in order of first appearance,
    within 8 * family_size draws."""
    dim = len(masks)
    if dim <= 12 and 2 ** dim <= max(family_size, 2):
        family = [0]
        prev = 0
        for g in range(1, 2 ** dim):
            gray = g ^ (g >> 1)
            family.append(family[-1] ^ masks[(gray ^ prev).bit_length() - 1])
            prev = gray
        return sorted(set(family))
    seen = {}
    attempts = 0
    while len(seen) < family_size and attempts < 8 * family_size:
        attempts += 1
        sel = rng.getrandbits(dim)
        m = 0
        while sel:
            low = sel & -sel
            m ^= masks[low.bit_length() - 1]
            sel ^= low
        seen.setdefault(m, None)
    return list(seen)


def tn_without_jump(n: int, cap=None, use_shortcut: bool = True, include_witness: bool = True,
                    supplier=None) -> TnResult:
    """compute_tn as it was before its search started from the partner
    n + q of a large tag q (and before the saturation jump that came
    first, and before its target went into the basis): the shortcut from
    large_prime_shortcut, one bound isqrt(n + limit), and a span search
    whose target is the vector of n itself, kept outside the basis and
    reduced again over its rows whenever a row lands on its pivot, which
    inserts every offset up to t or up to the cap.
    CapExceeded carries the rank counted over the basis rows, not
    SplitBasis.rank."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if is_square(n):
        return TnResult(n, 0, ())
    shortcut_t = large_prime_shortcut(n, supplier) if use_shortcut else None
    if shortcut_t is not None and not include_witness:
        return TnResult(n, shortcut_t, None, shortcut_used=True)
    limit = cap if cap is not None else HARD_OFFSET_CAP
    if limit < 1:
        raise RangeError("cap must be >= 1")
    if shortcut_t is not None:
        limit = shortcut_t
    limit = min(limit, 3 * n)
    bound = isqrt(n + limit)
    vectors = (vector for _, large, words, _ in parity_windows(n, n + limit + 1, bound)
               for vector in zip(large.tolist(), row_bits(words)))
    target_q, target_bits = next(vectors)
    basis = SplitBasis(len(primes_through(bound)))
    target_mask = 0
    target_pivot = target_q or target_bits.bit_length() - 1
    for j in range(1, limit + 1):
        pivot = basis.insert(*next(vectors))
        if pivot is None or pivot != target_pivot:
            continue
        # reduce the target over the rows, which never change once set
        if target_q:
            large_bits, large_index = basis.large[target_q]
            target_q, target_bits, target_mask = 0, target_bits ^ large_bits, 1 << large_index
        while target_bits:
            pivot = target_bits.bit_length() - 1
            if not basis.small_bits[pivot]:
                break
            target_bits ^= basis.small_bits[pivot]
            target_mask ^= basis.small_masks[pivot]
        if target_bits:
            target_pivot = target_bits.bit_length() - 1
            continue
        assert target_mask.bit_length() == j
        assert shortcut_t is None or j == shortcut_t
        witness = tuple(i + 1 for i in mask_bits(target_mask)) if include_witness else None
        return TnResult(n, j, witness, shortcut_used=shortcut_t is not None)
    rank = len(basis.large) + sum(1 for bits in basis.small_bits if bits)
    raise CapExceeded(n, limit, limit, rank)


def tn_row(n: int, cap, use_shortcut: bool, include_witness: bool, supplier=None,
           search=compute_tn) -> TnResult:
    """The row of n in a scan, from its own `search` (compute_tn or
    tn_without_jump): a search that exhausts its cap gives a flagged row."""
    try:
        return search(n, cap=cap, use_shortcut=use_shortcut,
                      include_witness=include_witness, supplier=supplier)
    except CapExceeded:
        return TnResult(n, None, None, shortcut_used=False, cap_exceeded=True)


def count_tn_closed_per_n(lo: int, hi: int, supplier=None) -> int:
    """#{n in (lo, hi] : n + t_n <= hi}, one compute_tn search per element.

    Each n < hi is searched with its cap at hi - n: squares and
    large-prime shortcut rows come back whatever the cap, and exhausting
    the cap means the window does not close inside the interval. n = hi
    counts only when it is a square (t = 0).
    """
    count = int(is_square(hi))
    for n in range(lo + 1, hi):
        try:
            t = compute_tn(n, cap=hi - n, include_witness=False, supplier=supplier).t
        except CapExceeded:
            continue
        count += n + t <= hi
    return count


class TaggedSweepBasis:
    """gf2.SweepBasis as it was before the fold: latest-start rows over
    split vectors (q, bits), with the large rows in a dict, q -> (bits,
    start), and one insert per value in index order.

    A large row is always an unreduced original vector, the latest one
    with its q, since a new vector with that q is the newest index and
    swaps in at once.
    """

    def __init__(self, width: int = 0):
        self.large: dict[int, tuple[int, int]] = {}
        self.small_bits = [0] * width
        self.small_starts = [0] * width

    def insert(self, q: int, bits: int, index: int):
        """None when the vector of `index` is zero or independent of the
        earlier ones; otherwise the smallest start among the rows its
        reduction met, the unique n with n + t_n = index."""
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
            row = rows[pivot]
            if not row:
                rows[pivot] = bits
                starts[pivot] = start
                return None
            row_start = starts[pivot]
            if start > row_start:
                rows[pivot] = bits
                starts[pivot] = start
                start = row_start
            bits ^= row
        return start if start < index else None


def tagged_sweep(lo: int, hi: int, cap, use_shortcut: bool):
    """tn._sweep(lo, hi, cap, use_shortcut) as it was before the fold:
    (ts, shortcut, p_plus), with every value's split vector inserted into
    one TaggedSweepBasis, one at a time, until every row of lo..hi is
    classified (tn._classify) and none is open."""
    from tnlab.tn import _classify
    limit = cap if cap is not None else HARD_OFFSET_CAP
    reach = hi + max(min(limit, 3 * hi), 0)
    bound = isqrt(reach)
    basis = TaggedSweepBasis(len(primes_through(bound)))
    ts, shortcut, p_pluses = [], [], []
    open_rows = 0
    for a, large, words, p_plus in parity_windows(lo, reach + 1, bound):
        if a <= hi:
            p_pluses.append(p_plus[:hi + 1 - a])
            known = _classify(a, p_pluses[-1], use_shortcut)
            ts += known.tolist()
            shortcut += (known > 0).tolist()
            new = int(np.count_nonzero(known < 0))
            if new and limit < 1:
                raise RangeError("cap must be >= 1")
            open_rows += new
        done = a + len(p_plus) > hi
        for r, q, bits in zip(range(a, a + len(p_plus)), large.tolist(), row_bits(words)):
            if done and not open_rows:
                return ts, shortcut, np.concatenate(p_pluses)
            n = basis.insert(q, bits, r)
            if n is not None and n <= hi:
                t = ts[n - lo]
                if t < 0:
                    if r - n <= limit:
                        ts[n - lo] = r - n
                    open_rows -= 1
                elif r - n != t:
                    raise AssertionError(f"n = {n} closes at offset {r - n}, not at t = {t}")
    return ts, shortcut, np.concatenate(p_pluses)


def tagged_closed_count(lo: int, hi: int) -> int:
    """intervals.count_tn_closed(lo, hi) as it was before the fold: the
    squares of (lo, hi] plus every value whose insert into one
    TaggedSweepBasis returns a start, over the split vectors of (lo, hi]
    under isqrt(hi) whose large tag is below hi - lo."""
    bound = isqrt(hi)
    basis = TaggedSweepBasis(len(primes_through(bound)))
    closed = 0
    for start, large, words, _ in parity_windows(lo + 1, hi + 1, bound):
        for r, q, bits in zip(range(start, start + len(large)), large.tolist(), row_bits(words)):
            if q < hi - lo:
                closed += not (q or bits) or basis.insert(q, bits, r) is not None
    return closed


def whole_range_p_plus(limit: int) -> np.ndarray:
    """P+ of 0..limit as a table built it before its chunked build: the
    smallest prime factor of every value up to limit in one array, sieved
    by the primes it finds itself (spf[p] == p), then P+(m) = max(spf(m),
    P+(m / spf(m))) over the blocks [a, 2a), which read only below a."""
    spf = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            multiples = spf[p * p::p]
            np.minimum(multiples, p, out=multiples)
    lpf = np.zeros(limit + 1, dtype=np.int64)
    lpf[1] = 1
    a = 2
    while a <= limit:
        b = min(2 * a, limit + 1)
        np.maximum(spf[a:b], lpf[np.arange(a, b) // spf[a:b]], out=lpf[a:b])
        a = b
    return lpf


def table_route(x: int, y: int, length: int,
                delta: float) -> tuple[list[tuple[int, int]], int, list[int]]:
    """constructor.find_smooth_rich_intervals as it read one P+ array of
    0..x (here whole_range_p_plus) before it listed its smooth values: the
    intervals, Psi(x, y), and the y-smooth values of the first interval,
    ascending (empty when there is none)."""
    smooth = whole_range_p_plus(x)[1:] <= y  # smooth[i]: is i + 1 y-smooth
    psi = int(np.count_nonzero(smooth))
    threshold = delta * length * psi / x
    first = max(1, math.ceil(x / math.log(x) / length))
    counts = smooth[first * length:x // length * length].reshape(-1, length).sum(axis=1)
    found = [(k * length, (k + 1) * length)
             for k in (np.flatnonzero(counts > threshold) + first).tolist()]
    values = (np.flatnonzero(smooth[found[0][0]:found[0][1]]) + found[0][0] + 1).tolist() \
        if found else []
    return found, psi, values


def power_table_per_pass(primes: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every prime power q = p^k <= top of the primes p <= isqrt(top), as
    (q, p, rank of p among `primes`), ascending in q, built level by level
    for one top, as each window pass once built it."""
    p = primes[:np.searchsorted(primes, isqrt(top), side="right")]
    room = top // p  # p^(k+1) <= top exactly when p^k <= top // p
    levels = [p]
    while len(levels[-1]):
        q = levels[-1]
        n = np.count_nonzero(q <= room[:len(q)])
        levels.append(q[:n] * p[:n])
    rank = np.concatenate([np.arange(len(q)) for q in levels])
    q = np.concatenate(levels)
    order = np.argsort(q, kind="stable")
    return q[order], p[rank[order]], rank[order]


def mpmath_power_threshold(x: int, c: float) -> int:
    import mpmath

    with mpmath.workdps(50):
        return int(mpmath.floor(mpmath.mpf(x) ** mpmath.mpf(c) + mpmath.mpf("1e-9")))


def mpmath_integral_point_log_value(degree: int, height: int) -> float:
    import mpmath

    with mpmath.workdps(30):
        n4 = mpmath.mpf(degree) ** 4
        v = 212 * n4 * mpmath.log(4 * degree) + 50 * n4 * mpmath.log(height)
        value = float(v)
    return value


def mpmath_few_offsets_log_value(count: int, span: int, constant=None) -> float:
    import mpmath

    with mpmath.workdps(30):
        if constant is not None:
            v = mpmath.mpf(constant) * mpmath.mpf(count) ** 5 * mpmath.log(span)
        else:
            d4 = mpmath.mpf(count + 2) ** 4
            v = 212 * d4 * mpmath.log(4 * (count + 2)) \
                + 50 * d4 * (count + 1) * mpmath.log(span)
        value = float(v)
    return value


def mpmath_tn_lower_value(n: int, constant: float = 1.0) -> float:
    import mpmath

    with mpmath.workdps(40):
        ll = mpmath.log(mpmath.log(n))
        lll = mpmath.log(ll)
        value = float(constant * ll ** mpmath.mpf("1.2") * lll ** mpmath.mpf("-0.2"))
    return value
