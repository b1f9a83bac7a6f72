"""Explicit height-bound machinery for integral points on product curves.

Covers the degenerate two-factor case (solved constructively through
divisor pairs, each emitted pair checked exactly), evaluation of the
explicit log-height bound for hyperelliptic integral points and its
specializations, selection of low-omega coefficients from a squarefree
system, and the exact squarefree/square decomposition x + j = b * z^2.

Bounds whose literature statements hide an O-constant take the constant as
an explicit argument; every report records which constant was used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Optional, Sequence

from .errors import DomainError, PreconditionError, RangeError, ResourceError, UsageError
from .sieve import PrimeCache, factorize_trial

_primes = PrimeCache()


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def pell_solutions(span: int) -> list[tuple[int, int]]:
    """All positive (x, y) with y^2 = x(x + span); every solution has x <= span^2.

    Solutions are generated constructively: with d = gcd(x, x + span), the
    coprime parts must both be squares, so d | span and the cofactor span/d
    factors as (b - a)(b + a). Every emitted pair is checked exactly; the
    brute-force oracle over x <= span^2 lives in the tests.
    """
    if span < 1:
        raise RangeError("span must be >= 1")
    sols = set()
    for d in _divisors(span):
        q = span // d
        for e in _divisors(q):
            f = q // e
            if e >= f or (e + f) % 2:
                continue
            a = (f - e) // 2
            b = (f + e) // 2
            sols.add((d * a * a, d * a * b))
    out = sorted(sols)
    for x, y in out:
        if not (0 < x <= span * span and y * y == x * (x + span)):
            raise AssertionError(f"({x}, {y}) does not solve y^2 = x(x + {span})")
    return out


@dataclass(frozen=True)
class HeightBoundReport:
    """A bound stated in the log-log domain (the bounds themselves overflow
    any fixed-width type). constant_policy records any O-constant choice."""

    context: str
    log_log_value: float
    inputs: dict
    constant_policy: str

    def to_json_dict(self) -> dict:
        return {
            "context": self.context,
            "log_log_value": float(f"{self.log_log_value:.15g}"),
            "inputs": {k: (v if isinstance(v, (int, str)) else float(v))
                       for k, v in self.inputs.items()},
            "constant_policy": self.constant_policy,
        }


def integral_point_log_bound(degree: int, height: int) -> HeightBoundReport:
    """log of the explicit bound on max(log x, log y) for y^2 = P(x),
    P squarefree of the given degree and coefficient height:
    212 n^4 ln(4n) + 50 n^4 ln H.
    """
    if degree < 3:
        raise DomainError(f"degree must be >= 3, got {degree}")
    if height < 1:
        raise DomainError("height must be >= 1")
    import mpmath  # imported here: most commands never need it

    with mpmath.workdps(30):
        n4 = mpmath.mpf(degree) ** 4
        v = 212 * n4 * mpmath.log(4 * degree) + 50 * n4 * mpmath.log(height)
        value = float(v)
    return HeightBoundReport(
        context="explicit log-height bound for integral points",
        log_log_value=value,
        inputs={"degree": degree, "height": height},
        constant_policy="explicit coefficients 212 and 50; no hidden constant",
    )


def few_offsets_log_bound(count: int, span: int,
                          constant: Optional[float] = None) -> HeightBoundReport:
    """Exponent bound for log x on y^2 = x(x+span) * prod(x+j_i) with
    `count` interior offsets.

    With an explicit constant the exponent is constant * count^5 * ln(span).
    Without one, the full explicit chain is expanded instead: the curve has
    degree count+2 and coefficient height at most span^(count+1), giving
    212 (count+2)^4 ln(4(count+2)) + 50 (count+2)^4 (count+1) ln(span).
    """
    if not (1 <= count < span):
        raise DomainError(f"need 1 <= count < span, got count={count}, span={span}")
    import mpmath  # imported here: most commands never need it

    with mpmath.workdps(30):
        if constant is not None:
            if constant < 0:
                raise DomainError("constant must be nonnegative")
            v = mpmath.mpf(constant) * mpmath.mpf(count) ** 5 * mpmath.log(span)
            policy = f"caller-supplied constant {constant!r} on count^5 ln(span)"
        else:
            d4 = mpmath.mpf(count + 2) ** 4
            v = 212 * d4 * mpmath.log(4 * (count + 2)) \
                + 50 * d4 * (count + 1) * mpmath.log(span)
            policy = ("expanded explicit chain: degree count+2, "
                      "coefficient height span^(count+1)")
        value = float(v)
    return HeightBoundReport(
        context="log-height exponent for a sparse offset system",
        log_log_value=value,
        inputs={"count": count, "span": span,
                "constant": "default" if constant is None else constant},
        constant_policy=policy,
    )


@dataclass(frozen=True)
class UnionCheck:
    r: int
    union_size: int
    lower_bound: float
    ok: bool


@dataclass(frozen=True)
class LowOmegaSelection:
    """Three indices with the fewest distinct prime factors, plus the exact
    union inequality |s_1 u ... u s_r| >= r|s_r| - r(r-1)/2 ln(span)
    evaluated at every r over the size-sorted supports."""

    indices: tuple[int, int, int]
    omegas: tuple[int, int, int]
    checks: tuple[UnionCheck, ...]

    def to_json_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "omegas": list(self.omegas),
            "checks": [{"r": c.r, "union_size": c.union_size,
                        "lower_bound": c.lower_bound, "ok": c.ok}
                       for c in self.checks],
        }


def select_low_omega(bs: Sequence[int], span: int) -> LowOmegaSelection:
    """Pick the three values with smallest omega from a squarefree system.

    Preconditions (checked, with the offender reported): at least three
    values, every prime factor <= span, pairwise gcd <= span.
    """
    if len(bs) < 3:
        raise UsageError(f"need at least 3 values, got {len(bs)}")
    supports = []
    for i, b in enumerate(bs):
        if b < 1:
            raise PreconditionError(f"b[{i}] = {b} is not positive", offending=(i, b))
        rec = factorize_trial(b, _primes.covering(b))
        if rec.p_plus > span:
            raise PreconditionError(
                f"b[{i}] = {b} has prime factor {rec.p_plus} > {span}",
                offending=(i, rec.p_plus))
        supports.append(frozenset(p for p, _ in rec.factors))
    for i in range(len(bs)):
        for j in range(i + 1, len(bs)):
            g = gcd(bs[i], bs[j])
            if g > span:
                raise PreconditionError(
                    f"gcd(b[{i}], b[{j}]) = {g} > {span}", offending=(i, j, g))

    order = sorted(range(len(bs)), key=lambda i: (-len(supports[i]), i))
    log_span = math.log(span) if span > 1 else 0.0
    checks = []
    union: set[int] = set()
    for r, idx in enumerate(order, start=1):
        union |= supports[idx]
        bound = r * len(supports[idx]) - r * (r - 1) / 2.0 * log_span
        checks.append(UnionCheck(r=r, union_size=len(union),
                                 lower_bound=bound, ok=len(union) >= bound))
    chosen = tuple(order[-3:][::-1])  # ascending omega
    return LowOmegaSelection(
        indices=chosen,
        omegas=tuple(len(supports[i]) for i in chosen),
        checks=tuple(checks),
    )


@dataclass(frozen=True)
class PellEntry:
    offset: int
    squarefree_part: int
    root: int


@dataclass(frozen=True)
class PellSystem:
    """Exact decomposition x + j = b * z^2 with b squarefree, per offset."""

    x: int
    entries: tuple[PellEntry, ...]

    def to_json_dict(self) -> dict:
        return {
            "x": self.x,
            "entries": [{"offset": e.offset, "squarefree_part": e.squarefree_part,
                         "root": e.root} for e in self.entries],
        }


def pell_system_decompose(x: int, offsets: Sequence[int], strict: bool = False,
                          factor_limit: int = 10 ** 12) -> PellSystem:
    """Split each x + j into squarefree part times square.

    offsets must be strictly increasing, start at 0, and contain the span
    as their largest member. With strict=True, a squarefree part containing
    a prime above the span is rejected: that cannot happen when the full
    product over the offsets is a square, so in pipeline use hitting it
    flags an invalid system rather than being silently repaired.
    """
    if x < 1:
        raise DomainError("x must be >= 1")
    if len(offsets) < 2 or offsets[0] != 0:
        raise DomainError("offsets must start at 0 and include the span")
    if any(b <= a for a, b in zip(offsets, offsets[1:])):
        raise DomainError("offsets must be strictly increasing")
    span = offsets[-1]
    if x + span > factor_limit:
        raise ResourceError(f"x + span = {x + span} exceeds factorization budget {factor_limit}")
    entries = []
    for j in offsets:
        rec = factorize_trial(x + j, _primes.covering(x + j))
        b = rec.squarefree_kernel
        if strict:
            for p, e in rec.factors:
                if e & 1 and p > span:
                    raise DomainError(
                        f"x + {j} = {x + j} has odd-multiplicity prime {p} > span {span}; "
                        f"the offset system cannot come from a square product")
        z = isqrt((x + j) // b)
        assert b * z * z == x + j
        entries.append(PellEntry(offset=j, squarefree_part=b, root=z))
    for i in range(len(entries)):
        for k in range(i + 1, len(entries)):
            assert gcd(entries[i].squarefree_part, entries[k].squarefree_part) <= span
    return PellSystem(x=x, entries=tuple(entries))


def tn_lower_bound_eval(n: int, constant: float = 1.0,
                        cross_check_limit: int = 10 ** 4) -> HeightBoundReport:
    """constant * (ln ln n)^(6/5) * (ln ln ln n)^(-1/5), the iterated-log
    lower bound shape for t_n on non-squares.

    For n within the scan range a report-only cross-check against the exact
    t_n is included in the inputs (never asserted).
    """
    if constant < 0:
        raise DomainError("constant must be nonnegative")
    if n < 16:
        raise DomainError(f"n must be >= 16 so the iterated logs are positive, got {n}")
    import mpmath  # imported here: most commands never need it

    with mpmath.workdps(40):
        ll = mpmath.log(mpmath.log(n))
        lll = mpmath.log(ll)
        value = float(constant * ll ** mpmath.mpf("1.2") * lll ** mpmath.mpf("-0.2"))
    inputs: dict = {"n": n, "constant": constant}
    if n <= cross_check_limit and isqrt(n) ** 2 != n:
        from .tn import compute_tn
        t = compute_tn(n, include_witness=False).t
        inputs["exact_t"] = t
        inputs["bound_holds"] = bool(t >= value)
    return HeightBoundReport(
        context="iterated-log lower bound for t_n",
        log_log_value=value,
        inputs=inputs,
        constant_policy=f"caller-supplied constant {constant!r}; "
                        "the effective constant is not specified by theory",
    )
