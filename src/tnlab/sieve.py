"""Sieving, factorization, and smooth-number counting over bounded ranges.

An immutable smallest-prime-factor table backs factorization records,
smoothness tests and Psi counts. Split parity vectors and P+, at any height
below WINDOW_VALUE_CEILING, come from one segmented sieve (parity_windows),
for span searches and scans, kernel batches (split_vectors), interval
smooth counts and tn.ParitySupplier.p_plus alike; trial division
(factorize_trial) serves verification and heights only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import isqrt
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError, RangeError

# Default cap on table entries; override via build_spf_table(max_entries=...).
DEFAULT_MAX_ENTRIES = 2 ** 31

_LPF_CHUNK = 1 << 16


def primes_up_to(n: int) -> list[int]:
    """All primes <= n via a bytearray sieve."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start:n + 1:p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, v in enumerate(sieve) if v]


class SpfTable:
    """Smallest-prime-factor table for 2..limit.

    spf[p] == p exactly for primes; for composite m, spf[m] is the least
    prime dividing m. Immutable after construction; safe to share across
    workers.
    """

    def __init__(self, limit: int, spf: np.ndarray):
        self.limit = limit
        self._spf = spf
        self._spf.setflags(write=False)
        # factors() reads through a memoryview: it yields Python ints and is
        # faster than numpy scalar indexing on this per-value hot path
        self._view = memoryview(spf)
        self._lpf: np.ndarray | None = None

    def spf(self, m: int) -> int:
        return int(self._spf[m])

    def factors(self, m: int) -> list[tuple[int, int]]:
        """The (prime, exponent) pairs of 1 <= m <= limit, primes ascending.

        The one walk over the table; unchecked, so callers validate m.
        """
        spf = self._view
        out = []
        while m > 1:
            p = spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        return out

    def largest_prime_factors(self) -> np.ndarray:
        """Array lpf with lpf[n] = P+(n) for 0 <= n <= limit (lpf[1] = 1).

        Built lazily on first use; used for vectorized Psi counts and
        exceptional-set scans.
        """
        if self._lpf is None:
            # P+(m) = max(spf(m), P+(m / spf(m))), and m / spf(m) <= m / 2,
            # so a block [a, 2a) only reads entries below a: one numpy pass
            # per block, in chunks small enough to keep temporaries small
            n = self.limit
            spf = self._spf
            lpf = np.zeros(n + 1, dtype=np.int64)
            lpf[1] = 1
            a = 2
            while a <= n:
                b = min(2 * a, a + _LPF_CHUNK, n + 1)
                s = spf[a:b]
                np.maximum(s, lpf[np.arange(a, b) // s], out=lpf[a:b])
                a = b
            lpf.setflags(write=False)
            self._lpf = lpf
        return self._lpf


def build_spf_table(limit: int, max_entries: int = DEFAULT_MAX_ENTRIES) -> SpfTable:
    """Sieve the smallest prime factor for every integer in 2..limit."""
    if limit < 2:
        raise RangeError(f"table limit must be >= 2, got {limit}")
    if limit > max_entries:
        raise RangeError(f"table limit {limit} exceeds entry cap {max_entries}")
    spf = np.arange(limit + 1, dtype=np.int64)
    spf[0] = 0
    spf[1] = 1
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            sl = spf[p * p::p]
            np.minimum(sl, p, out=sl)
    return SpfTable(limit, spf)


@dataclass(frozen=True)
class FactorizationRecord:
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


def factorize(n: int, table: SpfTable) -> FactorizationRecord:
    """Factor n using the table. n = 1 gives the empty factorization."""
    if n == 0:
        raise DomainError("cannot factorize 0")
    if n < 0:
        raise DomainError("n must be positive")
    if n > table.limit:
        raise RangeError(f"n={n} exceeds table limit {table.limit}")
    return FactorizationRecord(n, tuple(table.factors(n)))


def factorize_trial(n: int, primes: list[int]) -> FactorizationRecord:
    """Factor n by trial division; primes must cover everything <= sqrt(n).

    Any cofactor left after dividing out primes <= sqrt(n) is prime and is
    recorded with exponent 1.
    """
    if n <= 0:
        raise DomainError("n must be positive")
    factors = []
    m = n
    for p in primes:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    if m > 1:
        factors.append((m, 1))
    return FactorizationRecord(n, tuple(factors))


class PrimeCache:
    """Growable list of primes for trial division beyond the table limit."""

    def __init__(self, initial: int = 1 << 10):
        self._bound = max(initial, 4)
        self._primes = primes_up_to(self._bound)

    def covering(self, n: int) -> list[int]:
        """Primes up to at least sqrt(n)."""
        need = isqrt(n) + 1
        if need > self._bound:
            self._bound = max(need, 2 * self._bound)
            self._primes = primes_up_to(self._bound)
        return self._primes


def smooth_in_interval(lo: int, hi: int, y: int, table: SpfTable) -> list[int]:
    """All n in (lo, hi] with P+(n) <= y, ascending.

    Intervals within the table are read off its P+ array; intervals beyond
    the table limit read P+ from the segmented sieve (parity_windows).
    smooth_in_interval(0, x, y) enumerates all smooth n <= x including 1.
    """
    if not (0 <= lo < hi):
        raise RangeError(f"need 0 <= lo < hi, got ({lo}, {hi}]")
    if y < 1:
        raise RangeError("smoothness bound must be >= 1")
    if hi <= table.limit:
        lpf = table.largest_prime_factors()
        seg = lpf[lo + 1:hi + 1]
        return [int(m) for m in np.nonzero(seg <= y)[0] + lo + 1]
    out = []
    for start, _, _, p_plus in parity_windows(lo + 1, hi + 1, isqrt(hi)):
        out += (np.flatnonzero(p_plus <= y) + start).tolist()
    return out


# Cap on the bytes of one window's word array; windows of wide rows get
# fewer rows.
WINDOW_BYTES = 1 << 22
# Windows hold their values in int64 and must stay below this ceiling, so
# that twice a value, and the next square above that, are below 2^63.
WINDOW_VALUE_CEILING = 1 << 61
# Windows start this small and double, so that a short scan sieves little.
_FIRST_WINDOW = 1 << 10

# (start, large, words, p_plus): see parity_windows
Window = tuple[int, np.ndarray, np.ndarray, np.ndarray]


def row_bits(words: np.ndarray) -> list[int]:
    """Each row of a window's word array as a Python int: the `bits` of
    its split vector."""
    # one bytes object per row; the S dtype drops trailing zero bytes,
    # which are the high bytes of a little-endian number
    rows = words.view(f"S{8 * words.shape[1]}").ravel().tolist()
    return list(map(int.from_bytes, rows, repeat("little")))


def parity_windows(a: int, b: int, bound: int,
                   primes: Optional[np.ndarray] = None) -> Iterator[Window]:
    """The values a, a+1, ..., b-1 in consecutive windows, ascending.

    Each window is (start, large, words, p_plus), and its row i describes
    m = start + i under B = `bound`: large[i] is the prime above B that
    divides m (to the first power), or 0; words[i] is the little-endian
    uint64 bitset over the ranks of the primes <= B that divide m to an
    odd power (2 has rank 0), which row_bits turns into ints; p_plus[i] is
    P+(m), with 1 for m = 1.

    A segmented sieve (Bays and Hudson, BIT 1977): per window, each prime
    p <= isqrt(b-1) XORs the rank bit of p into the words at the multiples
    of every power p^k < b, and divides a remainder array by p there. What
    remains of a value is 1 or one prime, which is P+ when above 1. With
    B = `bound` >= isqrt(b-1) that prime is the large tag when it exceeds
    B (the large-prime split of Pomerance, 1982) and sets its rank bit
    otherwise.

    A window's word array stays under WINDOW_BYTES; windows start at
    _FIRST_WINDOW rows and double up to that size. A caller that sieves
    many runs passes `primes`, the ascending int64 primes up to at least
    min(B, b-1), so that they are not sieved again for every run.
    """
    if not 1 <= a < b:
        raise RangeError(f"need 1 <= a < b, got [{a}, {b})")
    if b > WINDOW_VALUE_CEILING:
        raise RangeError(f"windows hold values below {WINDOW_VALUE_CEILING}, not {b - 1}")
    if bound < isqrt(b - 1):
        raise RangeError(f"bound {bound} is below isqrt({b - 1})")
    top = min(bound, b - 1)
    primes = np.array(primes_up_to(top), dtype=np.int64) if primes is None else primes
    primes = primes[:np.searchsorted(primes, top, side="right")]
    width = max(1, (len(primes) + 63) >> 6)
    most = max(1, WINDOW_BYTES // (8 * width))
    size = min(_FIRST_WINDOW, most)
    while a < b:
        end = min(a + size, b)
        yield _parity_window(a, end, bound, primes, width)
        a = end
        size = min(2 * size, most)


def split_vectors(values: Sequence[int]) -> list[tuple[int, int]]:
    """The split vectors (q, bits) of a batch of positive values under
    B = isqrt(max(values)), the bound of every kernel: no value of the batch
    has two prime factors above it. One window pass over the batch's range."""
    if not values:
        return []
    hi = max(values)
    ms = np.array(values, dtype=np.int64)
    out = [(0, 0)] * len(values)
    for start, large, words, _ in parity_windows(min(values), hi + 1, isqrt(hi)):
        # only the rows of the batch become Python ints
        at = np.flatnonzero((ms >= start) & (ms < start + len(large)))
        rows = ms[at] - start
        for i, q, bits in zip(at.tolist(), large[rows].tolist(), row_bits(words[rows])):
            out[i] = (q, bits)
    return out


def _parity_window(a: int, b: int, bound: int, primes: np.ndarray, width: int) -> Window:
    rem = np.arange(a, b, dtype=np.int64)
    words = np.zeros((b - a, width), dtype="<u8")
    p_plus = np.ones(b - a, dtype=np.int64)
    sieving = primes[:np.searchsorted(primes, isqrt(b - 1), side="right")]
    # a power p^k >= b - a divides at most one value of the window: such
    # powers are sieved together, the lower ones one prime at a time
    length = b - a
    few = int(np.searchsorted(sieving, length))
    powers = []  # the least power of each of these primes that is >= length
    for rank, p in enumerate(sieving[:few].tolist()):
        column = words[:, rank >> 6]
        bit = np.uint64(1 << (rank & 63))
        p_plus[-a % p::p] = p
        pk = p
        while pk < length:
            first = -a % pk
            column[first::pk] ^= bit
            rem[first::pk] //= p
            pk *= p
        powers.append(pk)
    p, ranks = sieving, np.arange(len(sieving))
    pk = np.concatenate((np.array(powers, dtype=np.int64), sieving[few:]))
    while len(pk):
        first = -a % pk
        hit = first < length
        p, ranks, pk, first = p[hit], ranks[hit], pk[hit], first[hit]
        # two primes may divide one value: .at applies both
        np.bitwise_xor.at(words, (first, ranks >> 6),
                          np.left_shift(np.uint64(1), (ranks & 63).astype(np.uint64)))
        np.floor_divide.at(rem, first, p)
        np.maximum.at(p_plus, first, p)
        more = pk <= (b - 1) // p  # p^(k+1) < b
        p, ranks, pk = p[more], ranks[more], pk[more] * p[more]
    # rem is now 1 or a prime above every sieving prime
    np.maximum(p_plus, rem, out=p_plus)
    small = np.flatnonzero((rem > 1) & (rem <= bound))
    ranks = np.searchsorted(primes, rem[small])
    words[small, ranks >> 6] ^= np.left_shift(np.uint64(1), (ranks & 63).astype(np.uint64))
    return a, np.where(rem > bound, rem, 0), words, p_plus


def psi_count(x: int, y: int, table: SpfTable) -> int:
    """Number of y-smooth integers n <= x, counting n = 1."""
    if x < 1:
        raise RangeError("x must be >= 1")
    if y < 1:
        raise RangeError("y must be >= 1")
    if x > table.limit:
        raise RangeError(f"x={x} exceeds table limit {table.limit}")
    lpf = table.largest_prime_factors()
    return int(np.count_nonzero(lpf[1:x + 1] <= y))
