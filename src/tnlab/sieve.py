"""Sieving, factorization, and smooth-number counting over bounded ranges.

The central object is an immutable smallest-prime-factor table; everything
else (factorization records, smoothness tests, Psi counts) reads from it.
Values above the table limit fall back to trial division by cached primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

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

    def __reduce__(self):
        """Pickle as (limit, array); a memoryview cannot be pickled."""
        return SpfTable, (self.limit, self._spf)

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

    Intervals within the table are read off directly; intervals beyond the
    table limit are handled by a segmented residual sieve (divide out primes
    up to min(y, sqrt(hi)); a surviving cofactor is a single prime).
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
    return _smooth_segment(lo, hi, y)


def _smooth_segment(lo: int, hi: int, y: int) -> list[int]:
    size = hi - lo
    residual = list(range(lo + 1, hi + 1))
    bound = min(y, isqrt(hi))
    for p in primes_up_to(bound):
        start = ((lo + p) // p) * p  # first multiple of p in (lo, hi]
        for idx in range(start - lo - 1, size, p):
            while residual[idx] % p == 0:
                residual[idx] //= p
    out = []
    for idx, r in enumerate(residual):
        if r == 1 or r <= y:
            out.append(lo + 1 + idx)
    return out


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
