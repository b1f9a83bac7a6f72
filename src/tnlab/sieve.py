"""Sieving, factorization, and smooth-number counting over bounded ranges.

Every prime the package reads comes from one read-only int64 array kept
here, through primes_through (primes_up_to is its list view). Split parity
vectors come from two producers, which hand them out in one layout, the
rows (large, words) of a window: ranges, at any height below
WINDOW_VALUE_CEILING, from one segmented sieve (parity_windows), which
divides out the prime powers it sieves and also gives P+; batches of
y-smooth values, for the constructor's kernels, from smooth_rows, which
divides nothing: one XOR pass over the batch's span, in windows, flips
the rank bit of each prime p <= y at the multiples of its powers, and
gf2.kernel_masks takes its rows as they are. Both take their prime powers
from one table (_power_table). The windows are read here by p_plus_in
and split_rows, by tn's sweep and by intervals' one pass per interval
check (runge's point search reads none: it takes primes_through alone
and lists the values b z^2 it needs); split_rows streams their rows as
Python ints for tn's span searches. A sweep reads each window's rows
through folded_rows, which folds every large tag q into its partner, the
last value before it that q divides: the partner's small bits come from
its row of the window, or, for a partner before the window, from trial
division (_trial_split) of the window's distinct cofactors, which ends in
the window's remainder step (_split_remainders), so no table of B rows is
built and a sweep holds O(window) at every height. P+ over a range has three
readers: tn's sweep, which takes the P+ of its own windows (for its rows'
classification and for distribution's counts), an interval check, which
counts the smooth values of its own windows, and p_plus_in, for every
other caller, with one rule: a slice of the caller's table's P+ array
when the table reaches the range's end, the segmented sieve otherwise. A
table is that P+ array alone, built on its first read at 8 bytes per
entry, a chunk at a time, with primes from primes_through. Factorization
records come from trial division (factorize_trial), which serves heights,
the prime sets of brute-mode enumeration and the P+ of the one n of tn's
shortcut.
"""

from __future__ import annotations

from itertools import repeat
from math import isqrt
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, RangeError, ResourceError

# Cap on table entries: build_spf_table refuses a larger limit before
# allocating anything.
MAX_TABLE_ENTRIES = 2 ** 31

# Windows hold their values in int64 and must stay below this ceiling, so
# that twice a value, and the next square above that, are below 2^63.
WINDOW_VALUE_CEILING = 1 << 61
# isqrt(2^61 - 1) = 1,518,500,249, the largest prime bound a window asks for
PRIME_CEILING = isqrt(WINDOW_VALUE_CEILING - 1)

# (bound, every prime up to bound): replaced whole, so that no reader pairs
# a bound with another array; growing it changes no answer.
_sieved: tuple[int, np.ndarray] = (1, np.zeros(0, dtype=np.int64))
_sieved[1].setflags(write=False)

# (top, (every prime power q = p^k <= top of the primes p <= isqrt(top),
# the same with k >= 2 alone), each as (q, p, rank of p), ascending in q):
# replaced whole, like _sieved, and sliced by every window pass
# (_power_table); growing it changes no answer.
_powers: tuple[int, tuple[tuple[np.ndarray, ...], ...]] = (3, ((_sieved[1],) * 3,) * 2)


def primes_through(bound: int) -> np.ndarray:
    """The ascending primes <= bound, a read-only int64 slice of the one
    prime array, which is sieved again, at least twice as far, only when
    `bound` passes what it covers. A bound above PRIME_CEILING raises
    ResourceError before any sieving: sieving to the ceiling takes a
    1.5 GB bytearray and keeps about 75 million primes in 0.6 GB.
    """
    global _sieved
    if bound > PRIME_CEILING:
        raise ResourceError(f"prime bound {bound} exceeds the ceiling {PRIME_CEILING}")
    held, primes = _sieved
    if bound > held:
        held = min(max(bound, 2 * held), PRIME_CEILING)
        sieve = bytearray(b"\x01") * (held + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, isqrt(held) + 1):
            if sieve[p]:
                start = p * p
                sieve[start::p] = bytes((held - start) // p + 1)
        primes = np.flatnonzero(np.frombuffer(sieve, dtype=np.uint8)).astype(np.int64, copy=False)
        primes.setflags(write=False)
        _sieved = held, primes
    return primes[:np.searchsorted(primes, bound, side="right")]


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, as a list."""
    return primes_through(n).tolist()


class SpfTable:
    """The P+ of 0..limit, read only through p_plus_in: a table is its P+
    array, built on its first read (largest_prime_factors) at 8 bytes per
    entry, and read-only after that; safe to share across workers.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self._lpf: np.ndarray | None = None

    def largest_prime_factors(self) -> np.ndarray:
        """Array lpf with lpf[n] = P+(n) for 0 <= n <= limit (lpf[1] = 1).

        Built in chunks [a, b) with b <= 2a (Bays and Hudson, BIT 1977):
        each chunk sieves its own smallest prime factors, the primes up to
        isqrt(b-1) written at their multiples in descending order so that
        the least one is written last, and P+(m) = max(spf(m), P+(m / spf(m)))
        reads only entries below a, since m / spf(m) <= m / 2. A chunk holds
        at most WINDOW_BYTES // 32 values, so that four int64 arrays of it
        stay under WINDOW_BYTES.
        """
        if self._lpf is None:
            n = self.limit
            lpf = np.zeros(n + 1, dtype=np.int64)
            lpf[1] = 1
            a = 2
            while a <= n:
                b = min(2 * a, a + WINDOW_BYTES // 32, n + 1)
                m = np.arange(a, b, dtype=np.int64)
                spf = m.copy()
                for p in primes_through(isqrt(b - 1))[::-1].tolist():
                    spf[-a % p::p] = p
                m //= spf
                np.maximum(spf, lpf[m], out=lpf[a:b])
                a = b
            lpf.setflags(write=False)
            self._lpf = lpf
        return self._lpf


def build_spf_table(limit: int) -> SpfTable:
    """A table of the P+ of 0..limit, which allocates nothing until its
    first read; a limit below 2 or above MAX_TABLE_ENTRIES raises
    RangeError."""
    if limit < 2:
        raise RangeError(f"table limit must be >= 2, got {limit}")
    if limit > MAX_TABLE_ENTRIES:
        raise RangeError(f"table limit {limit} exceeds entry cap {MAX_TABLE_ENTRIES}")
    return SpfTable(limit)


class FactorizationRecord(NamedTuple):
    """Complete prime factorization of n, primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def p_plus(self) -> int:
        """Largest prime factor; 1 for n = 1."""
        return self.factors[-1][0] if self.factors else 1

    @property
    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    @property
    def squarefree_kernel(self) -> int:
        """Product of the primes dividing n to odd multiplicity."""
        k = 1
        for p, e in self.factors:
            if e & 1:
                k *= p
        return k

    def recompose(self) -> int:
        m = 1
        for p, e in self.factors:
            m *= p ** e
        return m


def factorize_trial(n: int) -> FactorizationRecord:
    """Factor n by trial division, with primes from primes_through in runs
    whose bound doubles from 1024, only while p^2 <= the cofactor left
    (so n = 2^100 reads no prime past 1024). While the cofactor is below
    2^63, a run is one numpy divisibility test and only the primes that
    divide it are divided out; above, a Python loop tries each prime. What
    remains then is 1 or a prime, recorded with exponent 1.
    """
    if n <= 0:
        raise DomainError("n must be positive")
    factors = []
    m = n
    bound, done = 1, 0  # the `done` primes up to bound are divided out
    while isqrt(m) > bound:
        bound = min(isqrt(m), max(2 * bound, 1 << 10))
        primes = primes_through(bound)
        run = primes[done:]
        if m < 1 << 63:  # m fits int64
            run = run[m % run == 0]
        for p in run.tolist():
            if p * p > m:
                break
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                factors.append((p, e))
        done = len(primes)
    if m > 1:
        factors.append((m, 1))
    return FactorizationRecord(n, tuple(factors))


def p_plus_in(lo: int, hi: int, table: Optional[SpfTable] = None) -> np.ndarray:
    """P+ of lo+1, ..., hi as a read-only int64 array, with P+(1) = 1: a
    slice of the table's P+ array when `table` reaches hi, the segmented
    sieve otherwise. More values than a table may hold raise ResourceError.
    """
    if not 0 <= lo < hi:
        raise RangeError(f"need 0 <= lo < hi, got ({lo}, {hi}]")
    if table is not None and hi <= table.limit:
        return table.largest_prime_factors()[lo + 1:hi + 1]
    if hi - lo > MAX_TABLE_ENTRIES:
        raise ResourceError(f"{hi - lo} values exceed the entry cap {MAX_TABLE_ENTRIES}")
    out = np.empty(hi - lo, dtype=np.int64)
    for start, _, _, p_plus in parity_windows(lo + 1, hi + 1, isqrt(hi)):
        out[start - lo - 1:start - lo - 1 + len(p_plus)] = p_plus
    out.setflags(write=False)
    return out


def smooth_in_interval(lo: int, hi: int, y: int, table: Optional[SpfTable] = None) -> list[int]:
    """All n in (lo, hi] with P+(n) <= y, ascending (n = 1 counts when lo = 0)."""
    if y < 1:
        raise RangeError("smoothness bound must be >= 1")
    return (np.flatnonzero(p_plus_in(lo, hi, table) <= y) + lo + 1).tolist()


# Cap on the bytes of one window's word array; windows of wide rows get
# fewer rows.
WINDOW_BYTES = 1 << 22
# Windows start this small and double, so that a short scan sieves little.
_FIRST_WINDOW = 1 << 10
# split_rows, and gf2.kernel_masks until its small basis is full, turn this
# many rows at a time into Python ints: enough to amortize the conversion,
# few enough that a reader that stops early leaves little unread.
ROW_BLOCK = 64
# A window sieves a prime power with strided slices only when it hits at
# least this many of its values, and the rest in one scattered pass. A
# strided power costs about 2.2 us of numpy calls, a scattered hit about
# 25 ns (1024 values at 10^9, 2 cores, numpy 2.4). Per window, at 16, 128
# and 1024: 100, 71 and 77 us for 1024 values at 3.8*10^5; 149, 120 and
# 127 us for 1024 at 10^9; 3.9, 3.3 and 3.5 ms for 65,536 at 10^9.
_STRIDED_HITS = 128
# Cofactors are trial-divided in blocks of primes that start this small and
# double, so that a batch of small values reads few primes past its roots.
_FIRST_BLOCK = 8

# (start, large, words, p_plus): see parity_windows
Window = tuple[int, np.ndarray, np.ndarray, np.ndarray]


def pack_rows(values: Sequence[int], words: int) -> np.ndarray:
    """Non-negative ints below 2^(64 words) as the rows of a little-endian
    uint64 array of shape (len(values), words), the layout of a window's
    word array; row_bits reads them back."""
    packed = b"".join(value.to_bytes(8 * words, "little") for value in values)
    return np.frombuffer(packed, dtype="<u8").reshape(len(values), words)


def row_bits(words: np.ndarray) -> list[int]:
    """Each row of a window's word array as a Python int: the `bits` of
    its split vector."""
    # one bytes object per row; the S dtype drops trailing zero bytes,
    # which are the high bytes of a little-endian number
    rows = words.view(f"S{8 * words.shape[1]}").ravel().tolist()
    return list(map(int.from_bytes, rows, repeat("little")))


def parity_windows(a: int, b: int, bound: int) -> Iterator[Window]:
    """The values a, a+1, ..., b-1 in consecutive windows, ascending.

    Each window is (start, large, words, p_plus), and its row i describes
    m = start + i under B = `bound`: large[i] is the prime above B that
    divides m (to the first power), or 0; words[i] is the little-endian
    uint64 bitset over the ranks of the primes <= B that divide m to an
    odd power (2 has rank 0), which row_bits turns into ints; p_plus[i] is
    P+(m), with 1 for m = 1.

    A segmented sieve (Bays and Hudson, BIT 1977). The pass takes every
    prime power q = p^k < b of the primes p <= isqrt(b-1) from one table
    kept across passes (_power_table); per window, each power XORs the
    rank bit of p into the words at the multiples of q, and divides a
    remainder array by p there.
    A power that hits at least _STRIDED_HITS values of the window does so
    with strided slices, one power at a time, and every other power in one
    scattered pass of ufunc.at over all their hits, so a window makes no
    numpy call per prime for the primes that hit it only a few times. What
    remains of a value is 1 or one prime, which is P+ when above 1. With
    B = `bound` >= isqrt(b-1) that prime is the large tag when it exceeds
    B (the large-prime split of Pomerance, 1982) and sets its rank bit
    otherwise.

    A window's word array stays under WINDOW_BYTES; windows start at
    _FIRST_WINDOW rows and double up to that size. The primes up to
    min(B, b-1) come from primes_through.
    """
    if not 1 <= a < b:
        raise RangeError(f"need 1 <= a < b, got [{a}, {b})")
    if b > WINDOW_VALUE_CEILING:
        raise RangeError(f"windows hold values below {WINDOW_VALUE_CEILING}, not {b - 1}")
    if bound < isqrt(b - 1):
        raise RangeError(f"bound {bound} is below isqrt({b - 1})")
    primes = primes_through(min(bound, b - 1))
    powers = _power_table(b - 1)
    width = max(1, (len(primes) + 63) >> 6)
    most = max(1, WINDOW_BYTES // (8 * width))
    size = min(_FIRST_WINDOW, most)
    while a < b:
        end = min(a + size, b)
        yield _parity_window(a, end, bound, primes, width, powers)
        a = end
        size = min(2 * size, most)


def split_rows(a: int, b: int, bound: int) -> Iterator[tuple[int, int]]:
    """The split vectors (q, bits) of a, a+1, ..., b-1 under B = `bound`,
    from one parity_windows pass, sieved as they are read: the large tag
    and the row_bits of each row, ROW_BLOCK rows at a time."""
    for _, large, words, _ in parity_windows(a, b, bound):
        large = large.tolist()
        for i in range(0, len(large), ROW_BLOCK):
            yield from zip(large[i:i + ROW_BLOCK], row_bits(words[i:i + ROW_BLOCK]))


def folded_rows(window: Window, first: int) -> tuple[np.ndarray, list[int], list[int]]:
    """The rows that a sweep from `first` inserts for one parity_windows
    window, or a run of its rows, with start >= first: their index r, as
    an int64 array, and their start and bits, as lists.

    An untagged row r is (r, r, bits of r). A row r with large tag q comes
    with its partner folded in: r = q c with c <= B, since r < (B + 1)^2,
    and the last value before r that q divides is r - q = q (c - 1), whose
    vector is q with the rank bits of c - 1. So when r - q >= first the row
    is (r, r - q, bits of r XOR bits of c - 1), which is what a latest-start
    basis that holds r - q as its row for q reduces r to, with start r - q.
    When r - q < first the row is left out: such a basis would only store
    it as the row for q, and the fold of r + q stands in for that row.
    The bits of c - 1 are the partner's own small bits: its row of the
    window when the partner lies in it, and otherwise from trial division
    (_trial_split) of the window's distinct cofactors, so nothing past the
    window is held.
    """
    start, large, words, _ = window
    index = np.arange(start, start + len(large))
    partner = index - large  # untagged rows have q = 0: start r
    keep = partner >= first
    index, large, partner, bits = index[keep], large[keep], partner[keep], words[keep]
    # short interval checks keep few tagged rows or none, and their one
    # window holds every partner: neither step then costs its numpy calls
    if large.any():
        near = np.flatnonzero(large.astype(bool) & (partner >= start))
        bits[near] ^= words[partner[near] - start]
        far = np.flatnonzero(partner < start)
        if len(far):
            cofactors, at = np.unique(index[far] // large[far] - 1, return_inverse=True)
            _, found = _trial_split(cofactors, int(cofactors[-1]))  # c - 1 < B: no large tag
            bits[far, :found.shape[1]] ^= found[at]
    return index, partner.tolist(), row_bits(bits)


def smooth_rows(values: Sequence[int], y: int) -> tuple[np.ndarray, np.ndarray]:
    """The split rows (large, words) of a batch of y-smooth values, in a
    window's layout with no large tag: words[i] holds the ranks of the
    primes that divide values[i] to an odd power, counted from 2 as in
    every window. For y <= isqrt(max(values)) they are the rows of a window
    under that bound; for a larger y a prime above it is its top rank bit
    where a window has a large tag, which gives the same kernel (the B rule
    in gf2). The constructor's two kernels take their batches from here,
    with the values of smooth_in_interval, and gf2.kernel_masks takes the
    rows as they are. A value with a prime above y would lose that prime
    from its row, and the constructor verifies every certificate. Values
    outside [1, WINDOW_VALUE_CEILING) raise RangeError before any sieving.

    No value is divided. One pass over the span of the batch, in windows
    of at most WINDOW_BYTES of words, one window alive at a time, flips the
    rank bit of p at the multiples of each prime power p^k <= max(values)
    of the primes p <= y (from _power_table), so each value ends with
    exactly its odd-exponent primes set. Each power is one strided slice
    per window: a smoothness bound has few primes (19 at x = 10^6), so none
    is worth the scattered pass of a window.
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
    most = max(1, WINDOW_BYTES // (8 * width))
    for a in range(lo, hi + 1, most):
        words = np.zeros((min(most, hi + 1 - a), width), dtype="<u8")
        for qk, rk in powers:
            words[-a % qk::qk, rk >> 6] ^= np.uint64(1 << (rk & 63))
        inside = np.flatnonzero((values >= a) & (values < a + most))
        rows[inside] = words[values[inside] - a]
        del words  # freed before the next window's zeros are allocated
    return np.zeros(len(values), dtype=np.int64), rows


def _trial_split(rem: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The trial division of folded_rows, for the cofactors of far
    partners: the split rows (large, words) of the int64 values `rem` under
    B = `bound`, in a window's layout. The primes up to B are divided out
    of `rem` in place, and the large tags are what remains above B
    (_split_remainders).

    Blocks of primes start at _FIRST_BLOCK primes and double: one numpy
    pass per block finds every prime of the block that divides a value, and
    the powers of those primes are divided out together. A value stays live
    only while its remainder is at least the square of the next prime,
    since a smaller remainder is 1 or a prime; so a batch of values below
    c stops after the primes up to isqrt(c). Blocks are cut so that their
    2-D remainder array stays under WINDOW_BYTES, down to one prime a block
    when the live values alone fill it.
    """
    primes = primes_through(bound)
    words = np.zeros((len(rem), max(1, (len(primes) + 63) >> 6)), dtype="<u8")
    live = np.flatnonzero(rem >= 4)
    start, size = 0, _FIRST_BLOCK
    while len(live) and start < len(primes):
        block = primes[start:start + min(size, max(1, WINDOW_BYTES // (8 * len(live))))]
        rows, cols = np.divmod(np.flatnonzero(rem[live, None] % block == 0), len(block))
        rows, p = live[rows], block[cols]
        # one division per pass; a pair leaves once its prime is divided out,
        # and `odd` counts its passes mod 2. Two primes may divide one value:
        # .at applies both
        odd = np.zeros(len(rows), dtype=bool)
        at = np.arange(len(rows))
        while len(at):
            np.floor_divide.at(rem, rows[at], p[at])
            odd[at] ^= True
            at = at[rem[rows[at]] % p[at] == 0]
        ranks = cols[odd] + start
        np.bitwise_xor.at(words, (rows[odd], ranks >> 6), _rank_bits(ranks))
        start += len(block)
        size *= 2
        if start < len(primes):
            live = live[rem[live] >= primes[start] ** 2]
    return _split_remainders(rem, words, primes, bound), words


def _rank_bits(ranks: np.ndarray) -> np.ndarray:
    """The bit of each rank within its uint64 word."""
    return np.left_shift(np.uint64(1), (ranks & 63).astype(np.uint64))


def _split_remainders(rem: np.ndarray, words: np.ndarray, primes: np.ndarray,
                      bound: int) -> np.ndarray:
    """Finish split rows whose remainders are 1 or a prime above every prime
    divided out of them: a remainder up to `bound` sets the rank bit of its
    prime in `words`, and the large tags, the remainders above `bound` (0
    elsewhere), are returned. Windows and trial-divided values both end
    here."""
    small = np.flatnonzero((rem > 1) & (rem <= bound))
    ranks = np.searchsorted(primes, rem[small])
    words[small, ranks >> 6] ^= _rank_bits(ranks)
    return np.where(rem > bound, rem, 0)


def _power_table(top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every prime power q = p^k <= top of the primes p <= isqrt(top), as
    (q, p, rank of p among the primes), ascending in q; empty for top < 4.

    A slice of the table kept in _powers, which is built again, at least
    twice as far, only when `top` passes what it covers. The table holds
    the primes up to isqrt of its own top, so past isqrt(top) a pass keeps
    only the powers with k >= 2: it reads the table up to isqrt(top) and
    then the table's higher powers up to top, both slices in q.
    """
    global _powers
    held, tables = _powers
    if top > held:
        held = max(top, min(2 * held, WINDOW_VALUE_CEILING - 1))
        p = primes_through(isqrt(held))
        room = held // p  # p^(k+1) <= held exactly when p^k <= held // p
        levels = [p]  # levels[k - 1] holds the p^k <= held, ascending in p
        while len(levels[-1]):
            q = levels[-1]
            n = np.count_nonzero(q <= room[:len(q)])  # a prefix, as q and p ascend
            levels.append(q[:n] * p[:n])
        rank = np.concatenate([np.arange(len(q)) for q in levels])
        q = np.concatenate(levels)
        order = np.argsort(q, kind="stable")  # merges the ascending levels
        table = q[order], p[rank[order]], rank[order]
        higher = table[0] != table[1]
        tables = table, tuple(column[higher] for column in table)
        _powers = held, tables
    (q, _, _), (q_higher, _, _) = tables
    root = isqrt(top)
    low = int(np.searchsorted(q, root, side="right"))
    start, end = np.searchsorted(q_higher, (root, top), side="right").tolist()
    return tuple(np.concatenate((every[:low], higher[start:end]))
                 for every, higher in zip(*tables))


def _parity_window(a: int, b: int, bound: int, primes: np.ndarray, width: int,
                   powers: tuple[np.ndarray, np.ndarray, np.ndarray]) -> Window:
    length = b - a
    rem = np.arange(a, b, dtype=np.int64)
    words = np.zeros((length, width), dtype="<u8")
    p_plus = np.ones(length, dtype=np.int64)
    q, p, rank = powers
    # the powers that hit many values of the window are sieved one at a
    # time, ascending, so the largest prime is written to p_plus last
    many = int(np.searchsorted(q, length // _STRIDED_HITS, side="right"))
    for qk, pk, rk in zip(q[:many].tolist(), p[:many].tolist(), rank[:many].tolist()):
        first = -a % qk
        words[first::qk, rk >> 6] ^= np.uint64(1 << (rk & 63))
        rem[first::qk] //= pk
        if qk == pk:
            p_plus[first::pk] = pk
    # every other power in one scattered pass over its hits
    q, p, rank = q[many:], p[many:], rank[many:]
    first = -a % q
    hit = first < length
    q, p, rank, first = q[hit], p[hit], rank[hit], first[hit]
    hits = (length - 1 - first) // q + 1
    nth = np.arange(hits.sum()) - np.repeat(np.cumsum(hits) - hits, hits)
    at = np.repeat(first, hits) + nth * np.repeat(q, hits)
    p, rank = np.repeat(p, hits), np.repeat(rank, hits)
    # two primes may divide one value: .at applies both
    np.bitwise_xor.at(words, (at, rank >> 6), _rank_bits(rank))
    np.floor_divide.at(rem, at, p)
    np.maximum.at(p_plus, at, p)
    # rem is now 1 or a prime above every sieving prime
    np.maximum(p_plus, rem, out=p_plus)
    return a, _split_remainders(rem, words, primes, bound), words, p_plus


def psi_count(x: int, y: int, table: Optional[SpfTable] = None) -> int:
    """Number of y-smooth integers n <= x, counting n = 1."""
    if x < 1:
        raise RangeError("x must be >= 1")
    if y < 1:
        raise RangeError("y must be >= 1")
    return int(np.count_nonzero(p_plus_in(0, x, table) <= y))
