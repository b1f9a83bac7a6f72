"""Exact computation of t_n with verifiable witnesses.

t_n is the least t >= 0 such that some subset of {n+1, ..., n+t} multiplied
by n gives a perfect square (0 when n is itself a square). The search
inserts the parity vector of n, its target, into an echelon basis first,
then those of n+1, n+2, ..., and stops at the first insertion that
depends on the target: the vector of n then enters the span, and the
combination that insertion leaves is a witness subset whose largest
offset is exactly t_n.

A large-prime shortcut resolves most n instantly: when P+(n) > sqrt(2n)+1,
t_n = P+(n). compute_tn takes that P+ of its one n by trial division
(ParitySupplier.p_plus), not from a window: its first window's bound
depends on whether the shortcut fires.

Every span search reads its split vectors from one sieve.split_rows
stream, by value, under one bound B >= isqrt of the last value it may
touch; t and the canonical witness do not depend on which such B (see
gf2). compute_tn's search reads its own stream of n, n+1, ... as far as it
searches. A witnessed scan reads one stream over each chunk, under isqrt
of the furthest n + t_n it searches, through a row buffer (_Run) that
searches each n from n onward and forgets the rows below n. Both go
through one search loop (_search), which starts from the partner: when
the vector of n carries a large prime q within the search's limit, only
n + q among n+1, ..., n+q carries q too, so t_n >= q, and the target
starts as the XOR of the two vectors, which has small bits only. The
partner is not read from the rows: n + q = q (n/q + 1), and its vector is
q with the rank bits of the cofactor n/q + 1 <= B (_partner). The target
goes in first and the search stops at the first dependency through it,
at the latest once its small basis is full, and the witness is that
combination XOR offset q. So a search that reads s rows keeps O(s) rows
and pi(B) * s mask bits, whatever t is, every stream sieves forward from
its start only as far as its searches read, and a far partner is never
sieved. Every witness is checked by verify_witness before it is
returned; it lives in the module verify, with the exact check alone, and
is re-exported here. Nothing here keeps primes (sieve.primes_through
does), so a call without a ParitySupplier makes a fresh one at no cost.

Every scan takes t from one producer, the sweep (_sweep, below). Its
_classify reads a window's P+ and gives each row its state before any
elimination: t = 0 for a square, t = P+(n) for a shortcut row, and -1 for
a row that needs a search. The sweep closes the -1 rows and checks the
shortcut rows that close inside it; a witnessed scan searches each row
with t > 0 only for its witness, to exactly that t, which checks it.
large_prime_shortcut is the same rule for one n (compute_tn).

A scan without witnesses resolves its range in left-to-right sweeps
instead of one search per n. The vectors of a, a+1, ... go into one
gf2.SweepBasis, which keeps at each pivot the row with the latest start
(the smallest index among the vectors XOR-ed into a row). For every l its
rows with start >= l then span the vectors of l, ..., r-1, so the vector
of r falls into the span exactly when it closes a window, and the
smallest start its reduction meets is the unique n with n + t_n = r. The
sweep reads its vectors and P+ from sieve.parity_windows, one numpy pass
per window instead of one factor walk per value. A value r with a large
tag q goes in with its partner r - q folded in (sieve.folded_rows): the
basis would reduce it against r - q, its row for q, to the small vector
v_c XOR v_(c-1) of r = q c, with start r - q (see gf2, Partners). The bits
of c - 1 are the partner's small bits: its row when it lies in the same
window, and otherwise from trial division of its cofactor
(sieve._trial_split). A value whose partner lies before the sweep's first value, which
the basis would only store, is left out, so those values never reach
Python. The basis takes a window's rows per call and returns the values
that close with their n; the sweep settles them in numpy, keeps t in an
int64 array, and counts the rows still open instead of queueing them.
Each chunk turns its lists into plain tuple rows through one mapping (_t_rows,
and _witnessed_rows with witnesses): scan_tn makes TnResults of them only
at its edge, and scan_lines renders them in the chunk's own job, so the
text of a scan comes a chunk at a time. Every scan runs through one
driver, chunk_map, which cuts the range into chunks, sweeps each (scan_t,
scan_tn, scan_lines, and the distribution tables and conjecture scans),
and runs them in this process or in worker processes. The cuts change no
t, since the rows with start >= n of the basis do not depend on where the
sweep began; each chunk repeats only a tail past its end, about
2*sqrt(hi) values, until its own open rows close. A witnessed scan keeps
one search per row: the canonical witness is the combination the
insertion-order basis of that n finds, which the sweep does not track.
"""

from __future__ import annotations

import json
import os
import warnings
from itertools import chain, count, islice, repeat
from math import isqrt
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import CapExceeded, DomainError, RangeError
from .gf2 import SplitBasis, SweepBasis, mask_bits
from .sieve import (WINDOW_VALUE_CEILING, SpfTable, factorize_trial, folded_rows,
                    parity_windows, primes_through, split_rows)
from .verify import verify_witness

# Hard ceiling on searched offsets when no explicit cap is given.
HARD_OFFSET_CAP = 10 ** 7
# The sweep folds and inserts each window's rows this many at a time, so
# that it stops within a block of its last close and holds no more of a
# window as Python ints. 1024, 2048, 4096, 8192 and whole windows were
# tried on scan_t from 2 to 10^5 and 2*10^5 and on 10^5 values from 10^9
# (2-core x86-64 box): 4096 was as fast as any, whole windows peaked
# higher, and 1024 paid for its many folds.
_SWEEP_BLOCK = 4096


class ParitySupplier:
    """Serves P+ and the prime sets of single positive integers.

    It keeps nothing, so a fresh one costs nothing; the optional `table`
    is accepted and not read. It serves no split vectors: span searches
    read those from sieve.split_rows themselves. p_plus, the shortcut's P+
    of one n, comes from sieve.factorize_trial, which stops once the
    cofactor left is below the square of the next prime, and reads no
    window. Prime sets (support) are a separate encoding, by trial
    division, used only by the brute mode of
    intervals.enumerate_square_subsets as its independent oracle.
    """

    def __init__(self, table: Optional[SpfTable] = None):
        pass

    def support(self, m: int) -> frozenset[int]:
        """The primes dividing m to an odd power."""
        return frozenset(p for p, e in factorize_trial(m).factors if e & 1)

    def p_plus(self, m: int) -> int:
        """Largest prime factor, with 1 for m = 1, by trial division; m
        must lie below WINDOW_VALUE_CEILING, as every sieved value does."""
        if m >= WINDOW_VALUE_CEILING:
            raise RangeError(f"P+ is read below {WINDOW_VALUE_CEILING}, not at {m}")
        return factorize_trial(m).p_plus


class TnResult(NamedTuple):
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
    p = (supplier or ParitySupplier()).p_plus(n)
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
    # the bound isqrt(n + limit) leaves every value n..n+limit at most one
    # prime above it
    bound = isqrt(n + limit)
    witness = _search(n, split_rows(n, n + limit + 1, bound), bound, limit,
                      exact=shortcut_t is not None)
    return TnResult(n, witness[-1], witness if include_witness else None, shortcut_t is not None)


def _search(n: int, rows: Iterator[tuple[int, int]], bound: int, limit: int,
            exact: bool) -> tuple[int, ...]:
    """The span search of a non-square n, the one loop of every witnessed
    search: its canonical witness, whose last offset is t_n.

    It reads the split vectors of n, n+1, ... from `rows`, never past
    n + limit, under their bound B = `bound` >= isqrt(n + limit); t and
    the witness do not depend on B (see gf2).
    `exact` says that t_n = limit is known (P+(n) for a shortcut row, the
    sweep's t in a witnessed scan): closing earlier or not at all then
    raises AssertionError, naming n and both offsets. Otherwise it raises
    CapExceeded when n stays out of the span of its first `limit`
    successors.

    Target first, and stop at the first dependency through it. The
    target is insertion 0, so insertion j is offset j. Until n closes the
    target is independent of its successors, so no combination holds bit
    0; the first dependent insertion whose combination does is the first
    offset j with the vector of n in the span of offsets 1..j. That
    combination, bit 0 and offsets below j, is unique over the insertions
    that made rows (see gf2): without bit 0 and with j added, it is the
    canonical witness. CapExceeded reports the rank of the offsets alone,
    without the target's row.

    Partner first. A large tag q of n divides n + j exactly when q
    divides j, so of n+1, ..., n+2q-1 only the partner n + q carries q:
    t_n >= q, and n closes exactly where v_n XOR v_{n+q}, which has small
    bits only, enters the span. So when q <= limit the target starts as
    that residual, with the partner's vector made from its cofactor
    (_partner), and the witness is the stopping combination's offsets XOR
    {q}: t_n is q when the search stops before offset q, and the offset
    where it stops otherwise. It stops at the latest when its small basis
    is full, since every vector without a large tag is then dependent; a
    search that stops before offset q never reads n + q and never holds
    bit q in a mask. With q > limit the target keeps its tag and the
    search exhausts its cap.

    The witness is returned only once verify_witness accepts it; a witness
    that does not make a square raises AssertionError, naming n.
    """
    read = rows.__next__
    q, bits = read()
    primes = primes_through(bound)
    basis = SplitBasis(len(primes))
    insert = basis.insert
    far = q if 0 < q <= limit else 0  # the partner's offset, when it starts the target
    if far:
        q, bits = 0, bits ^ _partner(n, far, primes)[1]
    insert(q, bits)  # the target is insertion 0, so insertion j is offset j
    for j in range(1, limit + 1):
        if insert(*read()) is None and basis.dependency & 1:
            break
    else:
        if exact:
            raise AssertionError(f"n = {n} is still open at offset {limit}, "
                                 f"not closed at t = {limit}")
        raise CapExceeded(n, limit, limit, basis.rank - 1)
    # offset j and its combination without bit 0, the target's own and its
    # lowest, with offset q toggled when the target started from the partner
    offsets = set(mask_bits(basis.dependency | 1 << j)[1:]) ^ ({far} if far else set())
    witness = tuple(sorted(offsets))
    t = max(j, far)
    if witness[-1] != t:
        raise AssertionError("witness must peak at t_n")
    if exact and t != limit:
        raise AssertionError(f"n = {n} closes at offset {t}, not at t = {limit}")
    if not verify_witness(n, witness):
        raise AssertionError(f"n = {n}: the witness does not make a square")
    return witness


def _partner(n: int, q: int, primes: np.ndarray) -> tuple[int, int]:
    """The split vector of n + q under the bound B of `primes`, the primes
    up to B, for a prime q > B dividing n with n + q < (B + 1)^2.

    n + q = q (n/q + 1), and the cofactor n/q + 1 is below (B + 1)^2 / q,
    so at most B: q divides n + q once, and the primes of the cofactor,
    all at most B, give the rank bits.
    """
    odd = [p for p, e in factorize_trial(n // q + 1).factors if e & 1]
    return q, sum(1 << rank for rank in primes.searchsorted(odd).tolist())


def scan_tn(lo: int, hi: int,
            cap: Optional[int] = None,
            use_shortcut: bool = True,
            include_witness: bool = False,
            supplier: Optional[ParitySupplier] = None,
            workers: int = 1) -> list[TnResult]:
    """One TnResult per n in [lo, hi], ascending.

    Rows whose search cap is exhausted come back flagged (t = None,
    cap_exceeded=True) instead of aborting the scan. The rows come chunk by
    chunk from chunk_map, with `workers` as there: each chunk takes its t,
    shortcut flags and capped rows from its sweep (_sweep), and with
    witnesses then searches each of its rows with t > 0 to exactly that t,
    only for its witness, on one window pass over the chunk, giving the
    rows of compute_tn. Output is identical for any worker count >= 1. No
    scan reads `supplier`: vectors and P+ come from sieve windows.
    """
    return [TnResult(n, t, w, s, c)
            for part in chunk_map(_rows, lo, hi, workers, cap, use_shortcut, include_witness)
            for n, t, s, w, c in part]


def scan_lines(lo: int, hi: int,
               cap: Optional[int] = None,
               use_shortcut: bool = True,
               include_witness: bool = False,
               workers: int = 1,
               fmt: str = "csv") -> Iterator[str]:
    """The text of render_results(scan_tn(lo, hi, ...), fmt), one part per
    chunk of chunk_map, with `workers` as there.

    Each chunk's job renders its own rows, so a worker process sends back
    text, no TnResult is made, and no text is longer than a chunk's. The
    first part opens with the CSV header, and it is rendered at the call:
    an unknown format, a bad range or cap, or a failure in the first
    chunk raises before any text is returned.
    """
    head = _header(fmt)
    parts = chunk_map(_lines, lo, hi, workers, cap, use_shortcut, include_witness, fmt)
    return chain([head + next(parts)], parts)


def _rows(lo: int, hi: int, cap: Optional[int], use_shortcut: bool,
          include_witness: bool) -> list[tuple]:
    """The rows of scan_tn on one chunk [lo, hi], as _body reads them:
    (n, t, shortcut_used, witness, cap_exceeded)."""
    ts, shortcut, _ = _sweep(lo, hi, cap, use_shortcut)
    ts, shortcut = ts.tolist(), shortcut.tolist()
    if not include_witness:
        return list(_t_rows(lo, ts, shortcut))
    if cap is not None and cap < 1 and any(ts):  # as in compute_tn: only squares need no search
        raise RangeError("cap must be >= 1")
    return _witnessed_rows(lo, ts, shortcut)


def _lines(lo: int, hi: int, cap: Optional[int], use_shortcut: bool, include_witness: bool,
           fmt: str) -> str:
    """The rendered rows of scan_tn on one chunk [lo, hi], without a header."""
    return _body(_rows(lo, hi, cap, use_shortcut, include_witness), fmt)


class _Run:
    """The split vectors of the values a, ..., b-1 under one bound
    B = isqrt(b - 1), read by the searches of a witnessed scan in
    ascending order of n: the rows from a floor on, held in a list fed by
    one split_rows stream. No search reads the partner its target starts
    with from the run: that comes from its cofactor (_partner).
    """

    def __init__(self, a: int, b: int):
        self.bound = isqrt(b - 1)
        self._floor = a  # the value of the first row held
        self._held: list[tuple[int, int]] = []
        self._stream = split_rows(a, b, self.bound)

    def rows(self, n: int) -> Iterator[tuple[int, int]]:
        """The split vectors of n, n+1, ..., for an n at least every n
        asked for before: the floor moves to n, the rows held below it are
        dropped, and the rows between the last one held and n, which no
        search read, are skipped. The list grows by the rows read past
        its end."""
        held = self._held
        unread = n - self._floor - len(held)
        if unread > 0:
            held.clear()
            next(islice(self._stream, unread, unread), None)
        else:
            del held[:n - self._floor]
        self._floor = n
        yield from held
        # a for loop, not yield from: closing this generator when its
        # search ends must not close the stream
        for row in self._stream:
            held.append(row)
            yield row


def _witnessed_rows(lo: int, ts: Sequence[int], shortcut: Sequence[bool]) -> list[tuple]:
    """The rows of n = lo, lo+1, ... with witnesses, from their lists of
    scan_t, in _t_rows' layout. Squares and capped rows come straight from
    the lists; every other n is searched on one run, from n on, to
    exactly its t, under B = isqrt(max(n + t_n)) >= isqrt of every value a
    search reads, so t and the witness are those of compute_tn (see gf2)."""
    reach = max((n + t for n, t in zip(count(lo), ts) if t > 0), default=lo)
    run = _Run(lo, reach + 1)
    rows = []
    for n, t, s, w, c in _t_rows(lo, ts, shortcut):
        if t:  # neither a square (0) nor capped (None)
            w = _search(n, run.rows(n), run.bound, t, exact=True)
        rows.append((n, t, s, w, c))
    return rows


def _classify(a: int, p_plus: np.ndarray, use_shortcut: bool) -> np.ndarray:
    """t of the rows n = a, a+1, ... that need no search, given their P+:
    0 for a square, P+(n) for a shortcut row (large_prime_shortcut's test),
    and -1 for a row that needs a search. A row is a shortcut row exactly
    when its t here is > 0, since the test passes only for P+ >= 3.

    Exact integer numpy: the squares and isqrt(2n) come from the squares
    of a short run of ints, never from a float sqrt.
    """
    c = a + len(p_plus)  # the rows are a..c-1, all below the window ceiling
    if use_shortcut:
        ns = np.arange(a, c, dtype=np.int64)
        k0 = isqrt(2 * a)
        squares = np.arange(k0, isqrt(2 * (c - 1)) + 2, dtype=np.int64) ** 2
        isqrt_2n = k0 - 1 + squares.searchsorted(2 * ns, side="right")
        # (P+ - 1)^2 > 2n exactly when P+ - 1 > isqrt(2n)
        t = np.where(p_plus - 1 > isqrt_2n, p_plus, -1)
    else:
        t = np.full(len(p_plus), -1, dtype=np.int64)
    roots = np.arange(isqrt(a - 1) + 1, isqrt(c - 1) + 1, dtype=np.int64)
    t[roots * roots - a] = 0
    return t


def chunk_map(job, lo: int, hi: int, workers: int, *args) -> Iterator:
    """job(a, b, *args) on consecutive chunks [a, b] that cut [lo, hi], in
    order: the one driver of every scan, and the only place that starts
    processes.

    The chunk size comes from lo, hi and workers alone, and is bounded by
    the height: at most max(2^15, 64 isqrt(hi)) values, so the tail that a
    sweep runs past its chunk's end until its open rows close, about
    2 sqrt(hi) values, is a few percent of a full chunk, and a process
    holds one chunk's rows whatever the range's length. One worker runs
    the chunks of that size lazily in this process. More workers cut at
    most max(256, ceil(len / (8 workers))) values a chunk, so that each
    has about eight chunks or more, and run them in at most
    min(workers, chunks, cores) processes, in order; where that is one
    process, or processes cannot be started (with a RuntimeWarning), they
    run here. Fewer than one worker, or not 1 <= lo <= hi, raise
    RangeError.
    """
    if workers < 1:
        raise RangeError(f"workers must be >= 1, got {workers}")
    if not 1 <= lo <= hi:
        raise RangeError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    size = max(1 << 15, 64 * isqrt(hi))
    if workers > 1:
        size = min(size, max(256, -((lo - hi - 1) // (8 * workers))))  # ceil(len / (8 workers))
    starts = range(lo, hi + 1, size)
    ends = [min(a + size, hi + 1) - 1 for a in starts]
    done = 0
    # the pool may start all its processes at once: none past chunks or cores
    processes = min(workers, len(starts), os.cpu_count() or 1)
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=processes) as pool:
                for part in pool.map(job, starts, ends, *map(repeat, args)):
                    yield part
                    done += 1
        except OSError as e:
            # Sandboxed environments without process support: the chunks
            # not yet done run here, which gives identical output.
            warnings.warn(f"worker processes unavailable ({e}); scanning sequentially",
                          RuntimeWarning, stacklevel=2)
    for a, b in zip(starts[done:], ends[done:]):
        yield job(a, b, *args)


def scan_t(lo: int, hi: int, cap: Optional[int] = None, use_shortcut: bool = True,
           workers: int = 1) -> tuple[list[int], list[bool]]:
    """t_n for n = lo, lo+1, ..., hi without witnesses, as plain lists.

    Returns the t of every n, with -1 for a row whose search cap is
    exhausted, and whether the large-prime shortcut settled it: the rows
    of scan_tn without witnesses, joined from the sweeps (_sweep) of the
    chunks of chunk_map, with `workers` as there. The lists do not depend
    on the cuts: for n >= a the rows with start >= n of the latest-start
    basis are the same whether the sweep began at a or earlier.
    """
    ts, shortcut = [], []
    for part_ts, part_shortcut, _ in chunk_map(_sweep, lo, hi, workers, cap, use_shortcut):
        ts += part_ts.tolist()
        shortcut += part_shortcut.tolist()
    return ts, shortcut


def _sweep(lo: int, hi: int, cap: Optional[int],
           use_shortcut: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lists of scan_t(lo, hi) from one left-to-right sweep, as an
    int64 and a bool array, and the P+ of the rows lo..hi. Only the
    readers that walk rows in Python turn them into lists.

    The values lo, lo+1, ... come from sieve windows under the bound B of
    compute_tn's rule taken over the whole range: every value the sweep
    touches is at most reach = hi + min(limit, 3 hi), since t_n <= 3n. The
    windows of the rows and those of the tail past hi are two passes, so
    that the tail, which runs only until the open rows close, sieves small
    windows first.
    The rows of each window are classified from its P+ (_classify) before
    its values go in: squares and shortcut rows are settled, every other n
    is open. Each window's folded rows from lo (sieve.folded_rows) go into
    one SweepBasis, which returns the values r that close and the unique n
    with n + t_n = r of each, and t is settled in numpy, in an int64 array:
    an open n takes t = r - n if that is within the cap and stays capped
    (-1) otherwise, and a settled n must close at its t, or AssertionError
    names the first that does not. Each n closes at most once, so the sweep
    keeps only a count of open rows. A row that never closes is bounded by
    reach. The sweep stops once every n is classified and none is open:
    each window is folded and inserted in blocks of _SWEEP_BLOCK rows, so it
    stops within a block of its last close.
    """
    limit = cap if cap is not None else HARD_OFFSET_CAP
    reach = hi + max(min(limit, 3 * hi), 0)
    if reach >= WINDOW_VALUE_CEILING:  # refused before the rows' windows sieve primes to B
        raise RangeError(f"windows hold values below {WINDOW_VALUE_CEILING}, not {reach}")
    ts = np.empty(hi + 1 - lo, dtype=np.int64)
    shortcut = np.empty(hi + 1 - lo, dtype=bool)
    p_pluses = np.empty(hi + 1 - lo, dtype=np.int64)
    open_rows = 0
    bound = isqrt(reach)
    insert = SweepBasis(len(primes_through(bound))).insert
    # the tail past hi, a few windows at most, starts again from small ones
    windows = chain(parity_windows(lo, hi + 1, bound), parity_windows(hi + 1, reach + 1, bound))
    for window in windows:
        a, p_plus = window[0], window[3]
        if a <= hi:
            rows = slice(a - lo, a - lo + len(p_plus))
            p_pluses[rows] = p_plus
            ts[rows] = _classify(a, p_plus, use_shortcut)
            shortcut[rows] = ts[rows] > 0
            open_rows += int(np.count_nonzero(ts[rows] < 0))
            if open_rows and limit < 1:  # only squares and shortcut rows need no search
                raise RangeError("cap must be >= 1")
        done = a + len(p_plus) > hi  # every n is classified
        for i in range(0, len(p_plus), _SWEEP_BLOCK):
            if done and not open_rows:
                break
            block = (a + i,) + tuple(column[i:i + _SWEEP_BLOCK] for column in window[1:])
            r, n = (np.array(v, dtype=np.int64) for v in insert(*folded_rows(block, lo)))
            r, n = r[n <= hi], n[n <= hi]
            t = ts[n - lo]
            # a settled row closes at its t: a shortcut row at P+(n)
            wrong = (t >= 0) & (t != r - n)
            if wrong.any():
                k = int(wrong.argmax())
                raise AssertionError(f"n = {n[k]} closes at offset {r[k] - n[k]}, "
                                     f"not at t = {t[k]}")
            opened = t < 0  # open until now: n closes once, at n + t_n
            ts[n[opened] - lo] = np.where(r - n <= limit, r - n, -1)[opened]
            open_rows -= int(np.count_nonzero(opened))
        if done and not open_rows:
            break
    return ts, shortcut, p_pluses


CSV_HEADER = "n,t,shortcut_used,witness"


def _header(fmt: str) -> str:
    """The header line of a rendering: the CSV header, or nothing for JSON
    lines."""
    if fmt not in ("csv", "json"):
        raise RangeError(f"unknown format {fmt!r}")
    return CSV_HEADER + "\n" if fmt == "csv" else ""


def _body(rows: Iterable[tuple], fmt: str) -> str:
    """(n, t, shortcut_used, witness, cap_exceeded) rows as CSV or JSON
    lines, each ending in LF, without a header."""
    if fmt == "csv":
        lines = (f"{n},{'' if t is None else t},{'true' if s else 'false'},"
                 f"{';'.join(map(str, w)) if w else ''}\n" for n, t, s, w, _ in rows)
    else:
        lines = (json.dumps({"n": n, "t": t, "shortcut_used": s,
                             "witness": list(w) if w is not None else None,
                             "cap_exceeded": c}, sort_keys=True) + "\n"
                 for n, t, s, w, c in rows)
    return "".join(lines)


def render_results(results: Iterable[TnResult], fmt: str = "csv") -> str:
    """Render scan rows as CSV (with header) or JSON lines; LF endings.
    No rows in JSON render as one empty line."""
    text = _header(fmt) + _body(((r.n, r.t, r.shortcut_used, r.witness, r.cap_exceeded)
                                 for r in results), fmt)
    return text or "\n"


def _t_rows(lo: int, ts: Sequence[int], shortcut: Sequence[bool]) -> Iterator[tuple]:
    """The rows of the lists of scan_t(lo, hi), as _body reads them:
    (n, t, shortcut_used, witness, cap_exceeded), with witness () for a
    square, t None for a capped row, and no witness otherwise."""
    return ((n, t if t >= 0 else None, s, () if t == 0 else None, t < 0)
            for n, t, s in zip(count(lo), ts, shortcut))
