"""Independent brute-force oracles.

Everything here deliberately avoids the library's own code paths: trial
division instead of sieve tables, exhaustive subset search instead of
GF(2) elimination, plain quadrature instead of the production rho grid.
Expected values frozen into tests were computed with these. The
exceptions are the per-n loops at the end, which run one compute_tn
search per value where the library now runs one sweep or one window pass.
"""

from itertools import combinations
from math import isqrt

from tnlab.errors import CapExceeded
from tnlab.tn import TnResult, compute_tn


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


def tn_row(n: int, cap, use_shortcut: bool, include_witness: bool, supplier=None) -> TnResult:
    """The row of n in a scan, from its own compute_tn search: a search
    that exhausts its cap gives a flagged row."""
    try:
        return compute_tn(n, cap=cap, use_shortcut=use_shortcut,
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
