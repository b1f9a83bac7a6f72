"""Exact computation of t_n with verifiable witnesses.

t_n is the least t >= 0 such that some subset of {n+1, ..., n+t} multiplied
by n gives a perfect square (0 when n is itself a square). The search
inserts the parity vectors of n+1, n+2, ... into an echelon basis and stops
the first time the vector of n enters the span; the basis's combination
tracking then yields a witness subset whose largest offset is exactly t_n.

A large-prime shortcut resolves most n instantly: when P+(n) > sqrt(2n)+1,
t_n = P+(n).

Every span search reads its split vectors straight from
sieve.parity_windows, under one bound B >= isqrt of the last value it may
touch; t and the canonical witness do not depend on which such B (see
gf2). compute_tn sieves its own run n, n+1, ..., n+limit and stops
pulling windows once it closes. A witnessed scan sieves one run for the
whole range and searches each n on it from n onward, forgetting the
values below n, so the rows it keeps follow the longest search, not the
range; it takes P+ for the shortcut from the same run. Both go through
one search loop (_search).

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
chunks would repeat each other's work. A witnessed scan keeps one search
per n: the canonical witness is the combination the insertion-order basis
of that n finds, which the sweep does not track.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from itertools import count, islice, repeat
from math import isqrt
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import CapExceeded, DomainError, RangeError
from .gf2 import SplitBasis, SweepBasis, mask_bits
from .sieve import (PrimeCache, SpfTable, Window, factorize_trial, parity_windows, primes_up_to,
                    row_bits)

# Hard ceiling on searched offsets when no explicit cap is given.
HARD_OFFSET_CAP = 10 ** 7


class ParitySupplier:
    """Serves P+ and the prime sets of single positive integers.

    It serves no split vectors: span searches read those from
    sieve.parity_windows themselves. It keeps the prime array that
    compute_tn and p_plus hand to the windows (primes), and p_plus reads
    a one-value window. Prime sets (support) are a separate encoding,
    used only to verify witnesses: they walk the optional table, or trial
    divide past it, independently of the sieve.
    """

    def __init__(self, table: Optional[SpfTable] = None):
        self.table = table
        self._trial_primes = PrimeCache()
        self._primes = np.zeros(0, dtype=np.int64)
        self._prime_bound = 1  # self._primes holds every prime up to this

    def support(self, m: int) -> frozenset[int]:
        """The primes dividing m to an odd power."""
        table = self.table
        if table is not None and m <= table.limit:
            factors = table.factors(m)
        else:
            factors = factorize_trial(m, self._trial_primes.covering(m)).factors
        return frozenset(p for p, e in factors if e & 1)

    def primes(self, bound: int) -> np.ndarray:
        """The ascending int64 primes up to at least `bound`. Kept, and
        grown at least twofold when a larger bound comes."""
        if bound > self._prime_bound:
            self._prime_bound = max(bound, 2 * self._prime_bound)
            self._primes = np.array(primes_up_to(self._prime_bound), dtype=np.int64)
        return self._primes

    def p_plus(self, m: int) -> int:
        """Largest prime factor, with 1 for m = 1."""
        bound = isqrt(m)
        return int(next(parity_windows(m, m + 1, bound, self.primes(bound)))[3][0])


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
    primes = supplier.primes(bound)
    vectors = _split_rows(parity_windows(n, n + limit + 1, bound, primes))
    return _search(n, vectors, len(primes), limit, shortcut_t, include_witness)


def _split_rows(windows: Iterable[Window]) -> Iterator[tuple[int, int]]:
    """The split vectors (q, bits) of the rows of consecutive windows."""
    for _, large, words, _ in windows:
        yield from zip(large.tolist(), row_bits(words))


def _search(n: int, vectors: Iterator[tuple[int, int]], width: int, limit: int,
            shortcut_t: Optional[int], include_witness: bool) -> TnResult:
    """The span search of a non-square n, the one loop of every witnessed
    search.

    `vectors` yields the split vectors of n, n+1, ..., n+limit under one
    bound B >= isqrt(n + limit), and `width` is at least the number of
    primes up to B. t and the witness do not depend on B (see gf2).
    `shortcut_t` is P+(n) when the large-prime shortcut applies, and the
    search must then end at exactly that t. Raises CapExceeded when n
    stays out of the span of its first `limit` successors.
    """
    target_q, target_bits = next(vectors)
    basis = SplitBasis(width)
    insert = basis.insert
    target_mask = 0
    target_pivot = target_q or target_bits.bit_length() - 1
    j = 0
    for q, bits in islice(vectors, limit):
        j += 1
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
    rows wrap the lists of scan_t, one sequential sweep, whatever
    `workers` is. With witnesses each n gets its own search, with the t
    and witness of compute_tn, on one window pass over the range; with
    workers > 1 disjoint n-chunks are searched in separate processes and
    merged in order. Output is identical for any worker count. No scan
    reads `supplier`: vectors and P+ come from sieve windows.
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
    return _witnessed_rows(lo, hi, cap, use_shortcut)


class _Run:
    """The split vectors and P+ of lo, lo+1, ... from one window pass,
    sieved as far as the searches ask and kept from the current n on."""

    def __init__(self, windows: Iterator[Window], start: int):
        self._windows = windows
        self.start = start  # the value of row 0
        self.large: list[int] = []
        self.bits: list[int] = []
        self.p_plus: list[int] = []

    def _pull(self) -> None:
        _, large, words, p_plus = next(self._windows)
        self.large += large.tolist()
        self.bits += row_bits(words)
        self.p_plus += p_plus.tolist()

    def seek(self, n: int) -> int:
        """P+(n). Sieves up to n, and forgets the rows below n once they
        are at least half of those kept, so that what is kept follows the
        furthest any search has read, not the range."""
        k = n - self.start
        while k >= len(self.p_plus):
            self._pull()
        if 2 * k >= len(self.p_plus):
            del self.large[:k], self.bits[:k], self.p_plus[:k]
            self.start, k = n, 0
        return self.p_plus[k]

    def vectors(self, n: int) -> Iterator[tuple[int, int]]:
        """The split vectors of n, n+1, ..., sieving more as they are read."""
        i = n - self.start
        while True:
            end = len(self.large)
            rows = range(i, end)
            yield from zip(map(self.large.__getitem__, rows), map(self.bits.__getitem__, rows))
            i = end
            self._pull()


def _witnessed_rows(lo, hi, cap, use_shortcut) -> list[TnResult]:
    """The rows of compute_tn(n, cap, use_shortcut) for n = lo..hi, with
    witnesses and capped rows flagged, from one window pass.

    Every search reads the run from its n on, under the one bound
    B = isqrt(reach), where reach is the last value any search may touch:
    hi + min(limit, 3 hi), or 2 hi when a shortcut row searches to
    t = P+(n) <= n past a smaller cap. t and the witness of n are those of
    compute_tn, whose bound isqrt(n + limit) is at most B (see gf2).
    """
    limit = cap if cap is not None else HARD_OFFSET_CAP
    reach = hi + max(min(limit, 3 * hi), hi if use_shortcut else 0)
    bound = isqrt(reach)
    primes = np.array(primes_up_to(bound), dtype=np.int64)
    run = _Run(parity_windows(lo, reach + 1, bound, primes), lo)
    rows = []
    for n in range(lo, hi + 1):
        p = run.seek(n)
        if isqrt(n) ** 2 == n:
            rows.append(TnResult(n, 0, ()))
            continue
        if limit < 1:
            raise RangeError("cap must be >= 1")
        # large_prime_shortcut's test, on the P+ of the run
        shortcut_t = p if use_shortcut and (p - 1) ** 2 > 2 * n else None
        limit_n = shortcut_t if shortcut_t is not None else min(limit, 3 * n)
        try:
            rows.append(_search(n, run.vectors(n), len(primes), limit_n, shortcut_t, True))
        except CapExceeded:
            rows.append(TnResult(n, None, None, cap_exceeded=True))
    return rows


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


def _scan_parallel(lo, hi, cap, use_shortcut, workers) -> list[TnResult]:
    from concurrent.futures import ProcessPoolExecutor

    count = hi - lo + 1
    chunk = max(256, count // (workers * 8))
    starts = range(lo, hi + 1, chunk)
    ends = [min(a + chunk - 1, hi) for a in starts]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_witnessed_rows, starts, ends, repeat(cap),
                                  repeat(use_shortcut)))
    except OSError as e:
        # Sandboxed environments without process support: fall back to
        # sequential, which produces identical output by construction.
        warnings.warn(f"worker processes unavailable ({e}); scanning sequentially",
                      RuntimeWarning, stacklevel=3)
        return _witnessed_rows(lo, hi, cap, use_shortcut)
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
