"""Exact computation of t_n with verifiable witnesses.

t_n is the least t >= 0 such that some subset of {n+1, ..., n+t} multiplied
by n gives a perfect square (0 when n is itself a square). The search
inserts the parity vectors of n+1, n+2, ... into an echelon basis and stops
the first time the vector of n enters the span; the basis's combination
tracking then yields a witness subset whose largest offset is exactly t_n.

A large-prime shortcut resolves most n instantly: when P+(n) > sqrt(2n)+1,
t_n = P+(n).

A scan without witnesses resolves its whole range in one left-to-right
sweep instead of one search per n. The vectors of lo, lo+1, ... go into
one gf2.SweepBasis, which keeps at each pivot the row with the latest
start (the smallest index among the vectors XOR-ed into a row). For every
l its rows with start >= l then span the vectors of l, ..., r-1, so the
vector of r falls into the span exactly when it closes a window, and the
smallest start its reduction meets is the unique n with n + t_n = r. The
sweep reads its vectors and P+ from sieve.parity_windows, one numpy pass
per window instead of one factor walk per value, classifies squares and
shortcut rows per window with exact integer numpy, and keeps t in a plain
int list (scan_t); scan_tn makes TnResult rows of it only at its edge. It
runs in one process: it shares its basis across the whole range, so
chunks would repeat each other's work. A witnessed scan keeps one
compute_tn search per n, on the sieve blocks that ParitySupplier keeps: the
canonical witness is the combination the insertion-order basis of that n
finds, which the sweep does not track.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from itertools import count
from math import isqrt
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CapExceeded, DomainError, RangeError
from .gf2 import SplitBasis, SweepBasis, mask_bits
from .sieve import PrimeCache, SpfTable, factorize_trial, parity_windows, primes_up_to, row_bits

# Hard ceiling on searched offsets when no explicit cap is given.
HARD_OFFSET_CAP = 10 ** 7

# ParitySupplier sieves single values in aligned blocks of 2^BLOCK_BITS.
BLOCK_BITS = 10
_BLOCK_MASK = (1 << BLOCK_BITS) - 1


class ParitySupplier:
    """Serves exponent-parity vectors (and largest prime factors) of single
    positive integers below sieve.WINDOW_VALUE_CEILING, for compute_tn.

    Vectors and P+ come from sieve.parity_windows in aligned blocks: block
    k holds the values [k, k+1) * 2^BLOCK_BITS, sieved under
    B = isqrt((k+1) * 2^BLOCK_BITS - 1), and is kept once sieved, since the
    searches for nearby n (a witnessed scan) overlap. Prime sets (support)
    are a separate encoding, used only to verify witnesses: they walk the
    optional table, or trial divide past it, independently of the sieve.
    """

    def __init__(self, table: Optional[SpfTable] = None):
        self.table = table
        self._trial_primes = PrimeCache()
        self._blocks: dict[int, tuple[list[tuple[int, int]], list[int]]] = {}  # (pairs, P+)
        self._rank: dict[int, int] = {}
        self._primes: list[int] = []  # by rank
        self._prime_array = np.zeros(0, dtype=np.int64)
        self._rank_bound = 1

    def support(self, m: int) -> frozenset[int]:
        """The primes dividing m to an odd power."""
        table = self.table
        if table is not None and m <= table.limit:
            factors = table.factors(m)
        else:
            factors = factorize_trial(m, self._trial_primes.covering(m)).factors
        return frozenset(p for p, e in factors if e & 1)

    def ranks(self, bound: int) -> dict[int, int]:
        """Map from each prime p <= bound (and possibly a few more) to its
        rank, where 2 has rank 0. Grows lazily; ranks never change.

        Ranks are kept as ints, not as 1 << rank: those masks would take
        pi(B)^2 / 16 bytes in all, about 400 MB at B = 10^6.
        """
        if bound > self._rank_bound:
            self._rank_bound = max(bound, 2 * self._rank_bound)
            self._primes = primes = primes_up_to(self._rank_bound)
            self._prime_array = np.array(primes, dtype=np.int64)
            self._rank.update((primes[r], r) for r in range(len(self._rank), len(primes)))
        return self._rank

    def _sieve_block(self, k: int) -> tuple[list[tuple[int, int]], list[int]]:
        """Sieve block k and keep its pairs and P+, indexed by the low bits of m."""
        start, end = k << BLOCK_BITS, (k + 1) << BLOCK_BITS
        bound = isqrt(end - 1)
        self.ranks(bound)
        primes = self._primes
        pairs, p_plus = ([], []) if start else ([(0, 0)], [0])  # m = 0 pads block 0
        for _, large, words, window_p_plus in parity_windows(start or 1, end, bound,
                                                             self._prime_array):
            for q, bits in zip(large.tolist(), row_bits(words)):
                # with no prime above B, the top prime is the highest rank bit
                r = bits.bit_length() - 1
                pairs.append((q, bits) if q or r < 0 else (primes[r], bits ^ 1 << r))
            p_plus += window_p_plus.tolist()
        block = self._blocks[k] = pairs, p_plus
        return block

    def pair(self, m: int) -> tuple[int, int]:
        """(top, rest): the largest prime dividing m to an odd power (0 for
        a square) and the rank bitset of the other such primes, which are
        all below sqrt(m).

        The split vector of m under a bound B >= isqrt(m) is (top, rest)
        when top > B, and (0, rest | 1 << rank(top)) otherwise.
        """
        block = self._blocks.get(m >> BLOCK_BITS) or self._sieve_block(m >> BLOCK_BITS)
        return block[0][m & _BLOCK_MASK]

    def split(self, m: int, bound: int) -> tuple[int, int]:
        """The split vector (q, bits) of m under the bound B = `bound`,
        which must be at least isqrt(m)."""
        q, bits = self.pair(m)
        if 0 < q <= bound:
            return 0, bits | 1 << self.ranks(q)[q]
        return q, bits

    def p_plus(self, m: int) -> int:
        """Largest prime factor, with 1 for m = 1."""
        block = self._blocks.get(m >> BLOCK_BITS) or self._sieve_block(m >> BLOCK_BITS)
        return block[1][m & _BLOCK_MASK]


_default_supplier: Optional[ParitySupplier] = None


def default_supplier() -> ParitySupplier:
    global _default_supplier
    if _default_supplier is None:
        _default_supplier = ParitySupplier()
    return _default_supplier


@dataclass(frozen=True)
class TnResult:
    """t_n with its certifying subset.

    witness lists the offsets j_1 < ... < j_s = t; it is the empty tuple
    exactly when t = 0 and None when the witness was not computed (shortcut
    rows, or scans run without witness tracking). cap_exceeded marks rows
    that hit their search cap, in which case t is None.
    """

    n: int
    t: Optional[int]
    witness: Optional[tuple[int, ...]]
    shortcut_used: bool = False
    cap_exceeded: bool = False


def large_prime_shortcut(n: int, supplier: Optional[ParitySupplier] = None) -> Optional[int]:
    """t_n when the largest prime factor of n exceeds sqrt(2n) + 1.

    Returns P+(n) exactly when (P+(n) - 1)^2 > 2n (an exact integer
    comparison equivalent to P+(n) > sqrt(2n) + 1), else None. Squares and
    n = 1 return None.
    """
    if n < 2 or isqrt(n) ** 2 == n:
        return None
    supplier = supplier or default_supplier()
    p = supplier.p_plus(n)
    if (p - 1) ** 2 > 2 * n:
        return p
    return None


def compute_tn(n: int,
               cap: Optional[int] = None,
               use_shortcut: bool = True,
               include_witness: bool = True,
               supplier: Optional[ParitySupplier] = None) -> TnResult:
    """Compute t_n exactly, with a witness subset certifying it.

    The returned t is the least offset count such that the parity vector of
    n lies in the GF(2) span of the vectors of n+1, ..., n+t; minimality
    holds by construction because span membership is tested after every
    insertion. Raises CapExceeded if no witness appears within `cap`
    offsets (default: a hard limit of 10^7).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if isqrt(n) ** 2 == n:
        return TnResult(n, 0, ())
    supplier = supplier or default_supplier()

    shortcut_t = large_prime_shortcut(n, supplier) if use_shortcut else None
    if shortcut_t is not None and not include_witness:
        return TnResult(n, shortcut_t, None, shortcut_used=True)

    limit = cap if cap is not None else HARD_OFFSET_CAP
    if limit < 1:
        raise RangeError("cap must be >= 1")
    if shortcut_t is not None:
        # witness requested for a shortcut row: the search is guaranteed to
        # terminate at exactly t = P+(n), so the cap cannot apply
        limit = shortcut_t
    # t_n <= 3n, since n * 4n = (2n)^2: no search goes further, whatever the cap
    limit = min(limit, 3 * n)
    # every value n..n+limit has at most one prime above this bound
    bound = isqrt(n + limit)
    rank = supplier.ranks(bound)
    pair = supplier.pair
    basis = SplitBasis(len(rank))
    insert = basis.insert
    target_q, target_bits = supplier.split(n, bound)
    target_mask = 0
    target_pivot = target_q or target_bits.bit_length() - 1
    j = 0
    while j < limit:
        j += 1
        q, bits = pair(n + j)
        if 0 < q <= bound:
            bits |= 1 << rank[q]
            q = 0
        pivot = insert(q, bits)
        if pivot is None or pivot != target_pivot:
            continue
        target_q, target_bits, target_mask = basis.reduce(target_q, target_bits, target_mask)
        if target_q or target_bits:
            target_pivot = target_q or target_bits.bit_length() - 1
            continue
        assert target_mask.bit_length() == j, "witness must peak at t_n"
        if shortcut_t is not None:
            assert j == shortcut_t, "shortcut disagrees with full search"
        witness = tuple(i + 1 for i in mask_bits(target_mask)) if include_witness else None
        return TnResult(n, j, witness, shortcut_used=shortcut_t is not None)
    raise CapExceeded(n, limit, j, basis.rank)


def verify_witness(n: int, witness: Sequence[int],
                   supplier: Optional[ParitySupplier] = None) -> bool:
    """True iff n times the product of n+j over the witness is a square.

    Checked via parity vectors (the XOR of all supports must be empty); the
    product itself is never formed.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    prev = 0
    for j in witness:
        if j <= prev:
            raise DomainError("witness offsets must be strictly increasing and positive")
        prev = j
    supplier = supplier or default_supplier()
    acc = supplier.support(n)
    for j in witness:
        acc = acc ^ supplier.support(n + j)
    return not acc


def scan_tn(lo: int, hi: int,
            cap: Optional[int] = None,
            use_shortcut: bool = True,
            include_witness: bool = False,
            supplier: Optional[ParitySupplier] = None,
            workers: int = 1) -> list[TnResult]:
    """One TnResult per n in [lo, hi], ascending.

    Rows whose search cap is exhausted come back flagged (t = None,
    cap_exceeded=True) instead of aborting the scan. Without witnesses the
    rows wrap the lists of scan_t, one sequential sweep that reads its
    vectors from sieve windows, not from `supplier`, whatever `workers`
    is. With witnesses each n gets its own compute_tn search; with
    workers > 1 disjoint n-chunks are searched in separate processes (each
    with its process's default_supplier) and merged in order. Output is
    identical for any worker count.
    """
    if not include_witness:
        ts, shortcut = scan_t(lo, hi, cap, use_shortcut)
        return [TnResult(n, 0, ()) if t == 0
                else TnResult(n, None, None, cap_exceeded=True) if t < 0
                else TnResult(n, t, None, shortcut_used=s)
                for n, t, s in zip(range(lo, hi + 1), ts, shortcut)]
    if not (1 <= lo <= hi):
        raise RangeError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if workers > 1 and hi - lo >= 16:
        return _scan_parallel(lo, hi, cap, use_shortcut, workers)
    return _witnessed_rows(lo, hi, cap, use_shortcut, supplier or default_supplier())


def _witnessed_rows(lo, hi, cap, use_shortcut, supplier) -> list[TnResult]:
    return [_tn_row(n, cap, use_shortcut, True, supplier) for n in range(lo, hi + 1)]


def _tn_row(n, cap, use_shortcut, include_witness, supplier) -> TnResult:
    try:
        return compute_tn(n, cap=cap, use_shortcut=use_shortcut,
                          include_witness=include_witness, supplier=supplier)
    except CapExceeded:
        return TnResult(n, None, None, shortcut_used=False, cap_exceeded=True)


def _classify(a: int, p_plus: np.ndarray, use_shortcut: bool) -> tuple[np.ndarray, np.ndarray]:
    """t of the rows n = a, a+1, ... that need no search, given their P+:
    0 for a square, P+(n) for a shortcut row (large_prime_shortcut's test),
    and -1 for every other n. Also returns the shortcut mask.

    Exact integer numpy: the squares and isqrt(2n) come from the squares
    of a short run of ints, never from a float sqrt.
    """
    c = a + len(p_plus)  # the rows are a..c-1, all below the window ceiling
    t = np.full(len(p_plus), -1, dtype=np.int64)
    shortcut = np.zeros(len(p_plus), dtype=bool)
    if use_shortcut:
        ns = np.arange(a, c, dtype=np.int64)
        k0 = isqrt(2 * a)
        squares = np.arange(k0, isqrt(2 * (c - 1)) + 2, dtype=np.int64) ** 2
        isqrt_2n = k0 - 1 + np.searchsorted(squares, 2 * ns, side="right")
        # (P+ - 1)^2 > 2n exactly when P+ - 1 > isqrt(2n)
        shortcut = p_plus - 1 > isqrt_2n
        t[shortcut] = p_plus[shortcut]
    roots = np.arange(isqrt(a - 1) + 1, isqrt(c - 1) + 1, dtype=np.int64)
    squares_at = roots * roots - a
    t[squares_at] = 0
    shortcut[squares_at] = False
    return t, shortcut


def scan_t(lo: int, hi: int, cap: Optional[int] = None,
           use_shortcut: bool = True) -> tuple[list[int], list[bool]]:
    """t_n for n = lo, lo+1, ..., hi without witnesses, as plain lists.

    Returns the t of every n, with -1 for a row whose search cap is
    exhausted, and whether the large-prime shortcut settled it: the rows
    of scan_tn without witnesses, from one left-to-right sweep.

    The values lo, lo+1, ... come from sieve windows under the bound B of
    compute_tn's rule taken over the whole range: every value the sweep
    touches is at most hi + min(limit, 3 hi), since t_n <= 3n. The rows of
    each window are classified from its P+ before its values go in:
    squares and shortcut rows are settled, every other n is pending. The
    values go into one SweepBasis, whose insertion of r returns the unique
    n with n + t_n = r, if any; a pending n that is not closed by
    r = n + limit is capped. Pending rows expire in order of n, so one
    pointer tracks the oldest open one, and the sweep stops once every n
    is classified and none is open.
    """
    if not (1 <= lo <= hi):
        raise RangeError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    limit = cap if cap is not None else HARD_OFFSET_CAP
    reach = hi + max(min(limit, 3 * hi), 0)
    ts: list[int] = []
    shortcut = []
    pending: list[int] = []
    oldest = 0  # pending[oldest] is the smallest n that may still be open
    expiry = reach + 1  # pending[oldest] + limit, or past the sweep
    open_rows = 0
    basis = None
    for a, large, words, p_plus in parity_windows(lo, reach + 1, isqrt(reach)):
        b = a + len(p_plus)
        if a <= hi:
            known, s = _classify(a, p_plus[:hi + 1 - a], use_shortcut)
            ts += known.tolist()
            shortcut.append(s)
            new = (np.flatnonzero(known < 0) + a).tolist()
            if new:
                if limit < 1:
                    raise RangeError("cap must be >= 1")
                if oldest == len(pending):
                    expiry = new[0] + limit
                pending += new
                open_rows += len(new)
        done = b > hi  # every n is classified
        basis = basis or SweepBasis(64 * words.shape[1])
        insert = basis.insert
        for r, q, bits in zip(count(a), large.tolist(), row_bits(words)):
            if done and not open_rows:
                break
            n = insert(q, bits, r)
            if n is not None and n <= hi:
                t = ts[n - lo]
                if t >= 0:
                    # n closes once, at n + t_n: a shortcut row at P+(n)
                    assert r - n == t, f"n = {n} closes at offset {r - n}, not at t = {t}"
                elif r - n <= limit:
                    ts[n - lo] = r - n
                    open_rows -= 1
            if r >= expiry:
                while oldest < len(pending):
                    n = pending[oldest]
                    if ts[n - lo] < 0:
                        if r - n < limit:
                            break
                        open_rows -= 1  # capped: its t stays -1
                    oldest += 1
                expiry = pending[oldest] + limit if oldest < len(pending) else reach + 1
        if done and not open_rows:
            break
    return ts, np.concatenate(shortcut).tolist()


def _scan_chunk(args) -> list[TnResult]:
    lo, hi, cap, use_shortcut = args
    return _witnessed_rows(lo, hi, cap, use_shortcut, default_supplier())


def _scan_parallel(lo, hi, cap, use_shortcut, workers) -> list[TnResult]:
    from concurrent.futures import ProcessPoolExecutor

    count = hi - lo + 1
    chunk = max(256, count // (workers * 8))
    tasks = [(a, min(a + chunk - 1, hi), cap, use_shortcut)
             for a in range(lo, hi + 1, chunk)]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_scan_chunk, tasks))
    except OSError as e:
        # Sandboxed environments without process support: fall back to
        # sequential, which produces identical output by construction.
        warnings.warn(f"worker processes unavailable ({e}); scanning sequentially",
                      RuntimeWarning, stacklevel=3)
        return _scan_chunk((lo, hi, cap, use_shortcut))
    return [row for part in parts for row in part]


CSV_HEADER = "n,t,shortcut_used,witness"


def _render(rows, fmt: str) -> str:
    """Render (n, t, shortcut_used, witness, cap_exceeded) rows as CSV
    (with header) or JSON lines; LF endings."""
    if fmt == "csv":
        lines = [CSV_HEADER] + [
            f"{n},{'' if t is None else t},{'true' if s else 'false'},"
            f"{';'.join(map(str, w)) if w else ''}" for n, t, s, w, _ in rows]
    elif fmt == "json":
        lines = [json.dumps({"n": n, "t": t, "shortcut_used": s,
                             "witness": list(w) if w is not None else None,
                             "cap_exceeded": c}, sort_keys=True)
                 for n, t, s, w, c in rows]
    else:
        raise RangeError(f"unknown format {fmt!r}")
    return "\n".join(lines) + "\n"


def render_results(results: Iterable[TnResult], fmt: str = "csv") -> str:
    """Render scan rows as CSV (with header) or JSON lines; LF endings."""
    return _render(((r.n, r.t, r.shortcut_used, r.witness, r.cap_exceeded)
                    for r in results), fmt)


def render_t(lo: int, ts: Sequence[int], shortcut: Sequence[bool], fmt: str = "csv") -> str:
    """Render the lists of scan_t(lo, hi) as render_results renders the
    rows of scan_tn(lo, hi) without witnesses, without making the rows."""
    return _render(((n, t if t >= 0 else None, s, () if t == 0 else None, t < 0)
                    for n, t, s in zip(count(lo), ts, shortcut)), fmt)
