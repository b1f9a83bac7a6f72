"""Near-square decomposition of even-degree offset products, with exact
coefficient bounds, the resulting integral-point height bound, and a
search for the integral points below a limit.

For P(x) = prod(x + j_i) over 2u offsets starting at 0 and ending at the
span J, there is a monic degree-u polynomial f with dyadic rational
coefficients such that P = f^2 + g with deg g < u. The coefficients obey
explicit bounds (|a_(u-k)| <= (kuJ)^k, 4^(u-i) a_i integral,
|b_i| <= 5 u^(4u-2i) J^(2u-i)), and any positive x with P(x) a square
satisfies x <= 5 (2u)^(4u) J^(2u). The split runs on the integers
A_i = 4^u a_i and G_i = 16^u b_i, and only the returned f and g are
made of Fractions.

The point search rests on the argument of Erdos and Selfridge (1975):
when P(x) is a square, a prime p > J divides at most one x + j, since it
would otherwise divide a difference of two offsets, which is at most J;
so it divides that one to an even power. Every x + j is then b z^2 with
b from K, the squarefree products of the primes <= J, and the search
enumerates those values instead of sieving every value up to the limit.
K, up to X = x_limit + J, and the squares z^2 <= X are built once; more
than MAX_SEARCH_ENTRIES of either raise ResourceError before any window.
x is walked in windows of WINDOW_VALUES values. A window [s, e) lists V,
the b z^2 in [s, e + J), keeps the x in V whose every x + j is in V, and
confirms each by an integer square root of the product. A window costs
O(min(|K|, sqrt X) log X + |V| log |V|) with |V| <= e - s + J, and holds
O(|K| + sqrt X + |V|) values: for a fixed J that is O(sqrt X) a window,
against the O(X) values a sieve would read.

Everything here is exact integer/rational arithmetic: the divisibility
claims would not survive floating point, and P(x) overflows fixed widths
almost immediately.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt, prod
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, RangeError, ResourceError
from .sieve import WINDOW_BYTES, WINDOW_VALUE_CEILING, primes_through

CoeffLike = Union[int, Fraction]

# The point search walks x in windows of this many values, so that a
# window's values b z^2, at most WINDOW_VALUES + J of them, take about
# WINDOW_BYTES in int64.
WINDOW_VALUES = WINDOW_BYTES // 8
# Cap on the kernels b and on the squares z^2 a point search builds,
# 8 MB of int64 each.
MAX_SEARCH_ENTRIES = 1 << 20


def _is_pow2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


class RationalPoly:
    """Exact polynomial whose coefficients are integers divided by powers of 4.

    Coefficients ascend by degree; trailing zeros are stripped. Every
    denominator must be a power of two (hence expressible as 4^k), which is
    an invariant of everything this module produces. Immutable, and equal
    to another RationalPoly with the same coefficients; not a tuple, whose
    arithmetic would clash with its own.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self.coeffs == other.coeffs if type(other) is RationalPoly else NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RationalPoly(coeffs={self.coeffs!r})"

    def __reduce__(self):
        return RationalPoly, (self.coeffs,)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[CoeffLike]) -> "RationalPoly":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not _is_pow2(c.denominator):
                raise DomainError(f"coefficient {c} is not an integer over a power of 4")
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def scaled_coeff(self, i: int) -> tuple[int, int]:
        """Canonical (numerator, k) with coefficient = numerator / 4^k.

        k is minimal: either k = 0, or the numerator is not divisible by 4.
        """
        c = self.coeff(i)
        j = c.denominator.bit_length() - 1  # denominator is 2^j
        k = (j + 1) // 2
        return c.numerator << (2 * k - j), k

    def scaled_coeffs(self) -> list[tuple[int, int]]:
        return [self.scaled_coeff(i) for i in range(len(self.coeffs))]

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPoly.from_coeffs(
            [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPoly.from_coeffs(
            [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        if self.is_zero() or other.is_zero():
            return RationalPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RationalPoly.from_coeffs(out)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(tuple(-c for c in self.coeffs))

    def evaluate(self, x: CoeffLike) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json_dict(self) -> dict:
        return {"scaled_coeffs": [[num, k] for num, k in self.scaled_coeffs()]}


def expand_offset_poly(offsets: Sequence[int]) -> RationalPoly:
    """Exact expansion of prod(x + j) over the offsets: an even count
    2u >= 4 of strictly increasing offsets starting at 0, each coefficient
    checked against its bound (_offset_coeffs)."""
    return RationalPoly(tuple(map(Fraction, _offset_coeffs(offsets))))


def _check_offsets(offsets: Sequence[int]) -> None:
    """Refuse offsets that are not an even count 2u >= 4 of strictly
    increasing integers starting at 0."""
    if len(offsets) % 2 or len(offsets) < 4:
        raise DomainError(f"need an even number >= 4 of offsets, got {len(offsets)}")
    if offsets[0] != 0:
        raise DomainError("offsets must start at 0")
    if any(b <= a for a, b in zip(offsets, offsets[1:])):
        raise DomainError("offsets must be strictly increasing")


def _offset_coeffs(offsets: Sequence[int]) -> list[int]:
    """The integer coefficients q_i of prod(x + j) over checked offsets
    (_check_offsets), ascending by degree, each checked against its
    elementary-symmetric bound binom(2u, i) * J^(2u-i)."""
    _check_offsets(offsets)
    span = offsets[-1]
    coeffs = [1]
    for j in offsets:
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] += coeffs[i + 1] * j
    d = len(coeffs) - 1
    for i, q in enumerate(coeffs):
        if not 0 <= q <= comb(d, i) * span ** (d - i):
            raise AssertionError("coefficient bound violated")
    return coeffs


class BoundChecks(NamedTuple):
    dyadic_ok: bool                       # 4^(u-i) a_i is an integer, all i
    sqrt_coeff_ok: Optional[bool]         # |a_(u-k)| <= (kuJ)^k (needs span)
    remainder_coeff_ok: Optional[bool]    # |b_i| <= 5 u^(4u-2i) J^(2u-i) (needs span)

    def all_ok(self) -> bool:
        return bool(self.dyadic_ok and self.sqrt_coeff_ok and self.remainder_coeff_ok)


class NearSquareDecomposition(NamedTuple):
    """P = sqrt_part^2 + remainder, exactly, with deg remainder < deg P / 2.

    remainder_is_zero can only happen for synthetic perfect-square inputs;
    offset products have no repeated roots, so their remainder is nonzero.
    """

    poly: RationalPoly
    sqrt_part: RationalPoly
    remainder: RationalPoly
    half_degree: int
    span: Optional[int]
    checks: BoundChecks

    @property
    def remainder_is_zero(self) -> bool:
        return self.remainder.is_zero()

    def to_json_dict(self) -> dict:
        return {
            "poly": self.poly.to_json_dict(),
            "sqrt_part": self.sqrt_part.to_json_dict(),
            "remainder": self.remainder.to_json_dict(),
            "half_degree": self.half_degree,
            "span": self.span,
            "remainder_is_zero": self.remainder_is_zero,
            "checks": self.checks._asdict(),
        }


def near_square_decompose(poly: RationalPoly,
                          span: Optional[int] = None) -> NearSquareDecomposition:
    """Split a monic integer polynomial of even degree 2u >= 4 as f^2 + g.

    f is built top-down: a_u = 1 and
    a_j = (q_(u+j) - sum a_i a_(u-i+j) for j+1 <= i <= u-1) / 2, which
    matches the coefficients of P from degree 2u down to u, leaving
    deg g < u. It runs on the integers A_i = 4^u a_i, integral since
    every 4^(u-i) a_i is, and on G = 16^u P - (A_u x^u + ... +
    A_(j+1) x^(j+1))^2: A_j is coefficient u + j of G over 2 4^u, that is
    (16^u q_(u+j) - sum A_i A_(u-i+j)) / (2 4^u). The division must be
    exact (AssertionError otherwise), and its remainder is what is left of
    that coefficient once A_j is taken out, so exact divisions leave
    G = 16^u g of degree < u. Fractions are made only for the returned f
    and g. Coefficient magnitude bounds are evaluated when the offset
    span is supplied; the dyadic divisibility claim, 4^i | A_i, is always
    checked.
    """
    if not poly.is_integral():
        raise DomainError("polynomial must have integer coefficients")
    if not poly.is_monic():
        raise DomainError("polynomial must be monic")
    if poly.degree % 2 or poly.degree < 4:
        raise DomainError(f"degree must be even and >= 4, got {poly.degree}")
    return _split(poly, [c.numerator for c in poly.coeffs], span)


def _split(poly: RationalPoly, coeffs: list[int], span: Optional[int]) -> NearSquareDecomposition:
    """near_square_decompose of a checked poly whose integer coefficients
    are `coeffs`, ascending by degree."""
    u = len(coeffs) // 2
    scale = 4 ** u
    a = [0] * u + [scale]
    g = [scale * scale * c for c in coeffs[:-1]] + [0]  # A_u^2 taken out
    for j in range(u - 1, -1, -1):
        a[j], r = divmod(g[u + j], 2 * scale)
        if r:
            raise AssertionError(f"4^u a_{j} is not an integer")
        g[2 * j] -= a[j] * a[j]
        for k in range(j + 1, u + 1):
            g[j + k] -= 2 * a[j] * a[k]

    dyadic_ok = all(ai % 4 ** i == 0 for i, ai in enumerate(a))
    sqrt_ok = remainder_ok = None
    if span is not None:
        sqrt_ok = all(abs(a[u - k]) <= scale * (k * u * span) ** k for k in range(1, u + 1))
        remainder_ok = all(abs(g[i]) <= scale * scale * 5 * u ** (4 * u - 2 * i) * span ** (2 * u - i)
                           for i in range(u))
    f = RationalPoly(tuple(Fraction(ai, scale) for ai in a))
    g = RationalPoly.from_coeffs(Fraction(gi, scale * scale) for gi in g[:u])
    return NearSquareDecomposition(poly, f, g, u, span, BoundChecks(dyadic_ok, sqrt_ok, remainder_ok))


def offsets_near_square(offsets: Sequence[int]) -> NearSquareDecomposition:
    """Expand the offsets and decompose, with all bounds evaluated: the
    integer coefficients go to the split as they are."""
    coeffs = _offset_coeffs(offsets)
    return _split(RationalPoly(tuple(map(Fraction, coeffs))), coeffs, offsets[-1])


def height_bound(half_degree: int, span: int) -> int:
    """Exact bound 5 (2u)^(4u) J^(2u) on integral points of offset products."""
    if half_degree < 2:
        raise DomainError("half degree must be >= 2")
    if span < 1:
        raise RangeError("span must be >= 1")
    u = half_degree
    return 5 * (2 * u) ** (4 * u) * span ** (2 * u)


def search_integral_points(offsets: Sequence[int], x_limit: int) -> list[tuple[int, int]]:
    """All positive x <= x_limit with prod(x + j) a perfect square, ascending.

    When the product is a square, every x + j is b z^2 with b a squarefree
    product of primes <= J (the module docstring gives the argument), so
    only such values are read: K, the kernels b up to X = x_limit + J, and
    the squares z^2 <= X are built once (_kernels_and_squares), and each
    window of WINDOW_VALUES x lists its values b z^2 and keeps the x of
    them whose every x + j is one too. X at or past WINDOW_VALUE_CEILING
    raises RangeError, and more than MAX_SEARCH_ENTRIES kernels or squares
    raise ResourceError, before any window.

    Every x kept is multiplied out and kept only if its integer square
    root squares back to the product; nothing is evaluated in floating
    point. A point above the even-degree height bound raises
    AssertionError.
    """
    _check_offsets(offsets)
    if x_limit < 1:
        raise RangeError("x_limit must be >= 1")
    span = offsets[-1]
    bound = height_bound(len(offsets) // 2, span)
    top = x_limit + span
    if top >= WINDOW_VALUE_CEILING:
        raise RangeError(f"the search holds values below {WINDOW_VALUE_CEILING}, not {top}")
    # each window makes one searchsorted pass over the shorter array
    short, long = sorted(_kernels_and_squares(span, top), key=len)
    out = []
    for s in range(1, x_limit + 1, WINDOW_VALUES):
        e = min(s + WINDOW_VALUES, x_limit + 1)
        # V: for each v of `short`, the run of w in `long` with v w in [s, e + J)
        first = np.searchsorted(long, -(-s // short))
        n = np.searchsorted(long, (e + span - 1) // short, side="right") - first
        at = np.arange(n.sum()) + np.repeat(first - np.cumsum(n) + n, n)
        # each b z^2 once, as it has one such factorization, and then e + J,
        # so that every x + j < e + J finds an entry
        values = np.append(np.sort(np.repeat(short, n) * long[at]), e + span)
        xs = values[:np.searchsorted(values, e)]
        for j in offsets[1:]:
            xs = xs[values[np.searchsorted(values, xs + j)] == xs + j]
        for x in xs.tolist():
            r = isqrt(m := prod(x + j for j in offsets))
            if r * r == m:
                if x > bound:
                    raise AssertionError(f"integral point x = {x} exceeds height bound {bound}")
                out.append((x, r))
    return out


def _kernels_and_squares(span: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """K, the squarefree products <= top of the primes <= span, and the
    squares z^2 <= top, each ascending. More than MAX_SEARCH_ENTRIES of
    either raise ResourceError: a span whose primes alone are more (since
    pi(J) > J / ln J) before they are sieved, the squares, and a K whose
    count from below (_least_kernels) is more, before K is built, and K as
    soon as it passes the cap.

    A kernel holds at most one prime above isqrt(top), so those primes
    enter K as they are; the primes up to isqrt(top) then multiply K in
    descending order, so that each meets the kernels up to top // p that
    hold larger primes alone. That costs O(|K|) per prime up to isqrt(top),
    so a K past the cap is refused by its count from below where it can
    be: J = 10^6 at top = 10^12 has at least 3.1 * 10^9 kernels, refused
    in milliseconds, where the build took about 2 s to pass the cap
    (2 cores).
    """
    if span >= MAX_SEARCH_ENTRIES * span.bit_length():
        raise ResourceError(f"the primes up to {span} exceed the cap {MAX_SEARCH_ENTRIES}")
    primes = primes_through(span)
    if max(least := _least_kernels(primes, top), isqrt(top)) > MAX_SEARCH_ENTRIES:
        raise ResourceError(f"at least {least} kernels and {isqrt(top)} squares up to {top}: "
                            f"more than the cap {MAX_SEARCH_ENTRIES}")
    kernels = np.concatenate(([1], primes[primes > isqrt(top)]))
    for p in primes[primes <= isqrt(top)][::-1].tolist():
        kernels = np.concatenate((kernels, p * kernels[kernels <= top // p]))
        if len(kernels) > MAX_SEARCH_ENTRIES:
            raise ResourceError(f"{len(kernels)} kernels so far, past the cap {MAX_SEARCH_ENTRIES}")
    return np.sort(kernels), np.arange(1, isqrt(top) + 1, dtype=np.int64) ** 2


def _least_kernels(primes: np.ndarray, top: int) -> int:
    """A count from below of the squarefree products <= top of `primes`
    (ascending, each <= top): 1, the primes, and the products p q <= top of
    two of them, one searchsorted pass for the q > p of each p."""
    pairs = np.searchsorted(primes, top // primes, side="right") - np.arange(1, len(primes) + 1)
    return 1 + len(primes) + int(np.maximum(pairs, 0).sum())
