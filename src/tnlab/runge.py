"""Near-square decomposition of even-degree offset products, with exact
coefficient bounds and the resulting integral-point height bound.

For P(x) = prod(x + j_i) over 2u offsets starting at 0 and ending at the
span J, there is a monic degree-u polynomial f with dyadic rational
coefficients such that P = f^2 + g with deg g < u. The coefficients obey
explicit bounds (|a_(u-k)| <= (kuJ)^k, 4^(u-i) a_i integral,
|b_i| <= 5 u^(4u-2i) J^(2u-i)), and any positive x with P(x) a square
satisfies x <= 5 (2u)^(4u) J^(2u).

Everything here is exact integer/rational arithmetic: the divisibility
claims would not survive floating point, and P(x) overflows fixed widths
almost immediately.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt, prod
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, RangeError
from .sieve import parity_windows

CoeffLike = Union[int, Fraction]


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
    """Exact expansion of prod(x + j) over the offsets.

    Requires an even count 2u >= 4 of strictly increasing offsets starting
    at 0. Each coefficient q_i is checked against its elementary-symmetric
    bound binom(2u, i) * J^(2u-i).
    """
    if len(offsets) % 2 or len(offsets) < 4:
        raise DomainError(f"need an even number >= 4 of offsets, got {len(offsets)}")
    if offsets[0] != 0:
        raise DomainError("offsets must start at 0")
    if any(b <= a for a, b in zip(offsets, offsets[1:])):
        raise DomainError("offsets must be strictly increasing")
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
    return RationalPoly.from_coeffs(coeffs)


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
    deg g < u. Coefficient magnitude bounds are evaluated when the offset
    span is supplied; the dyadic divisibility claim is always checked.
    """
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

    dyadic_ok = all((Fraction(4) ** (u - i) * a[i]).denominator == 1
                    for i in range(u + 1))
    sqrt_ok = remainder_ok = None
    if span is not None:
        sqrt_ok = all(abs(a[u - k]) <= (k * u * span) ** k for k in range(1, u + 1))
        remainder_ok = all(
            abs(g.coeff(i)) <= 5 * Fraction(u) ** (4 * u - 2 * i) * Fraction(span) ** (2 * u - i)
            for i in range(u))
    return NearSquareDecomposition(
        poly=poly, sqrt_part=f, remainder=g, half_degree=u, span=span,
        checks=BoundChecks(dyadic_ok=dyadic_ok, sqrt_coeff_ok=sqrt_ok,
                           remainder_coeff_ok=remainder_ok),
    )


def offsets_near_square(offsets: Sequence[int]) -> NearSquareDecomposition:
    """Expand the offsets and decompose, with all bounds evaluated."""
    return near_square_decompose(expand_offset_poly(offsets), span=offsets[-1])


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

    The split vectors of 1, ..., x_limit + J come from sieve.parity_windows
    under B = isqrt(x_limit + J), so each value has at most one prime above
    B, its large tag, and that prime divides it once. P(x) is a square
    exactly when the word rows of the x + j XOR to zero and its 2u large
    tags pair up: sorted, each adjacent pair is equal (two values share a
    tag only when it divides a difference of offsets, so only when it is
    <= J). The tags are read only on rows whose XOR is zero. The rows of
    the x not yet searched, at most J of them between windows, are held
    and prepended to the next window, whose x are then searched up to the
    last x + J it holds. Memory is O(window + J) rows.

    Every hit is multiplied out and kept only if its integer square root
    squares back to the product; nothing is evaluated in floating point.
    Every point found must fall within the even-degree height bound
    (asserted).
    """
    expand_offset_poly(offsets)  # reuse the validation
    if x_limit < 1:
        raise RangeError("x_limit must be >= 1")
    u = len(offsets) // 2
    span = offsets[-1]
    bound = height_bound(u, span)
    top = x_limit + span
    out = []
    first = 1  # the least x not yet searched
    held = ()  # the rows of first, first + 1, ... read so far
    for _, large, words, _ in parity_windows(1, top + 1, isqrt(top)):
        if held:
            large, words = np.concatenate((held[0], large)), np.concatenate((held[1], words))
        # search the x whose x + J is among the rows
        count = max(0, min(len(large) - span, x_limit - first + 1))
        held = large[count:].copy(), words[count:].copy()
        for x in _square_rows(large, words, offsets, count):
            x += first
            m = prod(x + j for j in offsets)
            r = isqrt(m)
            if r * r == m:
                if x > bound:
                    raise AssertionError(f"integral point x = {x} exceeds height bound {bound}")
                out.append((x, r))
        first += count
    return out


def _square_rows(large: np.ndarray, words: np.ndarray, offsets: Sequence[int],
                 count: int) -> list[int]:
    """The rows x < count whose rows x + j, over the offsets, XOR to zero
    and have large tags that pair up."""
    acc = words[:count].copy()  # the offsets start at 0
    for j in offsets[1:]:
        acc ^= words[j:j + count]
    rows = np.flatnonzero(~acc.any(axis=1))
    if len(rows):
        tags = np.sort(large[rows[:, None] + np.array(offsets)], axis=1)
        rows = rows[(tags[:, 0::2] == tags[:, 1::2]).all(axis=1)]
    return rows.tolist()
