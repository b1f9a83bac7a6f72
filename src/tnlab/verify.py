"""The exact check of every emitted witness, apart from the parity
machinery: it reads no sieve, no table and no prime set, and imports only
the standard library and the package's errors, so the constructor checks
its certificates without loading tn. tn re-exports verify_witness.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import mul
from typing import Sequence

from .errors import DomainError


def verify_witness(n: int, witness: Sequence[int], supplier: object = None) -> bool:
    """True iff m = n times the product of n+j over the witness is a square.

    Exact and independent of every sieve: m is reduced as a balanced
    product tree (Bernstein, "Fast multiplication and its applications",
    2008), which pairs operands of similar size. The first level
    multiplies pairs outright, since n+j and n+j' share only divisors of
    j' - j; every level above replaces a*b with (a/g)(b/g), g = gcd(a, b),
    and isqrt(r)^2 == r decides on the root r. Why it is exact: a*b =
    (a/g)(b/g) g^2, so m is r times a square, and m is a square exactly
    when r is (an integer that is the square of a rational is the square
    of an integer). `supplier` is not read.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    prev = 0
    for j in witness:
        if j <= prev:
            raise DomainError("witness offsets must be strictly increasing and positive")
        prev = j
    level, pair = [n] + [n + j for j in witness], mul
    while len(level) > 1:  # an odd one out moves up unpaired
        level = list(map(pair, level[::2], level[1::2])) + level[len(level) & ~1:]
        pair = _cancel
    r = level[0]
    return isqrt(r) ** 2 == r


def _cancel(a: int, b: int) -> int:
    """a*b without the square gcd(a, b)^2."""
    g = gcd(a, b)
    return (a // g) * (b // g)
