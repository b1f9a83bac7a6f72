"""Desk-scale t_n distribution tables, the exceptional set, and Dickman rho.

The distribution table counts, for each exponent c, how many n <= x have
t_n below the threshold floor(x^c) and how many are x^c-smooth; the two
counts agree up to the exceptional set (integers divisible by the square
of their largest prime factor) plus an error term, and that one-sided
inequality is exact and assertable at any scale.

rho is evaluated on a dyadic grid seeded with the closed forms on [0, 2],
marched forward with a fourth-order quadrature of the delay relation
u*rho(u) = integral of rho over [u-1, u], and interpolated cubically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import RangeError
from .sieve import SpfTable, build_spf_table
from .tn import TnResult, scan_t

RHO_MAX_U = 50.0
_GRID_STEP = 2.0 ** -10
_GRID_N = int(round(RHO_MAX_U / _GRID_STEP))
_STEPS_PER_UNIT = int(round(1.0 / _GRID_STEP))

_rho_grid: Optional[np.ndarray] = None


def _build_rho_grid() -> np.ndarray:
    """rho at u = i * 2^-10 for 0 <= u <= 50.

    [0,1] and [1,2] come from the exact closed forms (1 and 1 - ln u); from
    2 on, each step integrates g(t) = rho(t-1)/t with the fourth-order
    Adams-Moulton rule over nodes k-2..k+1 (the value at k+1 is delayed by
    a full unit, so it is always already known). The march proceeds in
    vectorized blocks of just under one unit.
    """
    h = _GRID_STEP
    one = _STEPS_PER_UNIT
    u = np.arange(_GRID_N + 3) * h
    rho = np.zeros(_GRID_N + 1)
    rho[:one + 1] = 1.0
    rho[one:2 * one + 1] = 1.0 - np.log(u[one:2 * one + 1])

    # g is piecewise smooth with knots exactly at integer t. A backward
    # stencil (nodes k-2..k+1) would straddle a knot on the first two steps
    # past it, so those steps use the mirrored forward rule (nodes k..k+3)
    # instead; both are exact for cubics.
    i = 2 * one
    block = one - 4
    while i < _GRID_N:
        j = min(i + block, _GRID_N)
        nodes = np.arange(i - 2, j + 3)
        g = rho[nodes - one] / u[nodes]
        ks = np.arange(i, j)
        off = ks - (i - 2)
        back = g[off - 2] - 5.0 * g[off - 1] + 19.0 * g[off] + 9.0 * g[off + 1]
        fwd = 9.0 * g[off] + 19.0 * g[off + 1] - 5.0 * g[off + 2] + g[off + 3]
        steps = (h / 24.0) * np.where(ks % one <= 1, fwd, back)
        rho[i + 1:j + 1] = rho[i] - np.cumsum(steps)
        i = j
    # Past u ~ 16 the true value sinks below the float64 absolute error
    # floor (~1e-13 here); clamp the noise so the tail stays a
    # non-negative, non-increasing sequence.
    np.maximum(rho, 0.0, out=rho)
    np.minimum.accumulate(rho, out=rho)
    return rho


def _rho() -> np.ndarray:
    global _rho_grid
    if _rho_grid is None:
        _rho_grid = _build_rho_grid()
    return _rho_grid


def dickman_rho(u: float) -> float:
    """Dickman-de Bruijn rho(u) for 0 <= u <= 50.

    Exact on [0, 2] (1, then 1 - ln u); cubic grid interpolation beyond,
    accurate to well under 1e-8 for u <= 10.
    """
    if not (0.0 <= u <= RHO_MAX_U):
        raise RangeError(f"u must lie in [0, {RHO_MAX_U:g}], got {u}")
    if u <= 1.0:
        return 1.0
    if u <= 2.0:
        return 1.0 - math.log(u)
    grid = _rho()
    pos = u / _GRID_STEP
    i = int(pos)
    lo = max(2 * _STEPS_PER_UNIT, min(i - 1, _GRID_N - 3))
    t = pos - lo
    y0, y1, y2, y3 = grid[lo:lo + 4]
    # cubic Lagrange on equally spaced nodes 0,1,2,3
    val = (
        y0 * (t - 1) * (t - 2) * (t - 3) / -6.0
        + y1 * t * (t - 2) * (t - 3) / 2.0
        + y2 * t * (t - 1) * (t - 3) / -2.0
        + y3 * t * (t - 1) * (t - 2) / 6.0
    )
    return max(float(val), 0.0)


def power_threshold(x: int, c: float) -> int:
    """Largest integer m with m <= x^c, computed in extended precision.

    Ties at exact integer powers resolve inclusively (a 1e-9 nudge guards
    against representation error in x^c).
    """
    import mpmath  # imported here: most commands never need it

    with mpmath.workdps(50):
        return int(mpmath.floor(mpmath.mpf(x) ** mpmath.mpf(c) + mpmath.mpf("1e-9")))


@dataclass(frozen=True)
class DistRow:
    c: float
    threshold: int
    count_tn: int
    count_smooth: int
    diff: int
    normalized_diff: float
    rho_prediction: float


@dataclass(frozen=True)
class DistributionTable:
    x: int
    rows: tuple[DistRow, ...]
    cap_excluded: int  # rows dropped from count_tn because their search capped out
    # below this c the asymptotic error term swamps the main term; rows are
    # still reported, this is informational only
    admissible_c_min: float

    CSV_HEADER = "c,count_tn,count_smooth,diff,normalized_diff,rho_prediction"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r.c!r},{r.count_tn},{r.count_smooth},{r.diff},"
                         f"{r.normalized_diff!r},{r.rho_prediction!r}")
        return "\n".join(lines) + "\n"


def distribution_table(x: int, cs: Sequence[float],
                       table: Optional[SpfTable] = None,
                       results: Optional[Sequence[TnResult]] = None) -> DistributionTable:
    """Counts of {t_n <= floor(x^c)} versus {P+(n) <= floor(x^c)} for n <= x.

    Rows are ordered by ascending c. t_n comes from scan_t(1, x); scan
    rows may be passed instead to amortize repeated tables over one scan,
    and they must be the rows of n = 1..x in order, as scan_tn(1, x)
    returns them.
    """
    if x < 2:
        raise RangeError("x must be >= 2")
    for c in cs:
        if not (0.0 < c <= 1.0):
            raise RangeError(f"each c must lie in (0, 1], got {c}")
    if table is None or table.limit < x:
        table = build_spf_table(x)
    if results is None:
        tvals = np.array(scan_t(1, x)[0], dtype=np.int64)
    elif len(results) != x or any(r.n != n for n, r in enumerate(results, 1)):
        raise RangeError(f"results must be the scan rows of n = 1..{x} in order")
    else:
        tvals = np.array([-1 if r.t is None else r.t for r in results], dtype=np.int64)
    excluded = int(np.count_nonzero(tvals < 0))
    tvals = tvals[tvals >= 0]
    lpf = table.largest_prime_factors()[1:x + 1]

    rows = []
    for c in sorted(cs):
        threshold = power_threshold(x, c)
        count_tn = int(np.count_nonzero(tvals <= threshold))
        count_smooth = int(np.count_nonzero(lpf <= threshold))
        diff = count_tn - count_smooth
        rows.append(DistRow(
            c=c, threshold=threshold,
            count_tn=count_tn, count_smooth=count_smooth, diff=diff,
            normalized_diff=diff * c * math.log(x) / x,
            rho_prediction=dickman_rho(1.0 / c),
        ))
    ll = math.log(math.log(x)) if x >= 16 else 1.0
    c_min = math.log(ll) ** 2 / ll if ll > 1 else 1.0
    return DistributionTable(x=x, rows=tuple(rows), cap_excluded=excluded,
                             admissible_c_min=c_min)


def exceptional_set(x: int, include_members: bool = True,
                    table: Optional[SpfTable] = None) -> tuple[int, Optional[list[int]]]:
    """Enumerate {2 <= n <= x : P+(n)^2 | n} exactly.

    n = 1 is excluded by convention: P+(1) = 1 would place it in the set
    vacuously, but the set is about large prime factors.
    """
    if x < 2:
        return 0, ([] if include_members else None)
    if table is None or table.limit < x:
        table = build_spf_table(x)
    lpf = table.largest_prime_factors()
    ns = np.arange(2, x + 1, dtype=np.int64)
    lp = lpf[2:x + 1]
    mask = ns % (lp * lp) == 0
    count = int(np.count_nonzero(mask))
    if not include_members:
        return count, None
    return count, [int(v) for v in ns[mask]]


@dataclass(frozen=True)
class ConjectureRow:
    n: int
    t: int
    ratio: float


@dataclass(frozen=True)
class ConjectureScanReport:
    """Empirical scan of t_n against (log n)^(1-c) over non-squares.

    Purely observational: reports the minimum ratio and where it occurs,
    with no pass/fail judgement.
    """

    x: int
    c: float
    scanned: int
    min_ratio: float
    argmin_n: int
    argmin_t: int
    rows: Optional[tuple[ConjectureRow, ...]]

    def to_json_dict(self) -> dict:
        d = {
            "x": self.x, "c": self.c, "scanned": self.scanned,
            "min_ratio": self.min_ratio,
            "argmin_n": self.argmin_n, "argmin_t": self.argmin_t,
        }
        if self.rows is not None:
            d["rows"] = [{"n": r.n, "t": r.t, "ratio": r.ratio} for r in self.rows]
        return d


def conjecture_scan(x: int, c: float,
                    detail_limit: int = 1000) -> ConjectureScanReport:
    """min over non-square n <= x of t_n / (log n)^(1-c)."""
    if x < 2:
        raise RangeError("x must be >= 2")
    if not (0.0 < c < 1.0):
        raise RangeError(f"c must lie in (0, 1), got {c}")
    rows = []  # made only up to the number a report keeps
    scanned = 0
    best = (math.inf, 0, 0)  # (ratio, n, t) of the first minimum
    # squares have t = 0 and capped rows t = -1
    for n, t in zip(range(2, x + 1), scan_t(2, x)[0]):
        if t <= 0:
            continue
        ratio = t / math.log(n) ** (1.0 - c)
        scanned += 1
        if scanned <= detail_limit:
            rows.append(ConjectureRow(n=n, t=t, ratio=ratio))
        if ratio < best[0]:
            best = (ratio, n, t)
    if not scanned:
        raise RangeError(f"no non-square integers in [2, {x}]")
    return ConjectureScanReport(
        x=x, c=c, scanned=scanned,
        min_ratio=best[0], argmin_n=best[1], argmin_t=best[2],
        rows=tuple(rows) if scanned <= detail_limit else None,
    )
