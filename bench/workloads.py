"""The four benchmark workloads: seeded inputs, timed operations, checks.

Each workload turns a seed into a fixed batch of operations. An operation
makes the public tnlab calls a README CLI command makes and renders the
result the way that command does; its check runs afterwards, outside the
timed region, and uses arithmetic of its own where it can instead of
trusting tnlab. Input sizes are jittered by the seed only a little around
fixed anchors, so that the work of a batch hardly depends on the seed.
"""

from __future__ import annotations

import json
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Optional

from tnlab import constructor, distribution, heights, intervals, runge, sieve, tn

from tracer import CountingSupplier, Tracer

CLI_SIEVE_LIMIT = 1 << 20  # the CLI's default table size

# dist: the README `dist` command near x = 10^5, one c per band.
DIST_X = 100_000
DIST_C_BANDS = ((0.30, 0.40), (0.40, 0.50), (0.50, 0.65), (0.70, 0.90))

# witness: P+(n) log-spaced from 10^4 to 1.5 * 10^5 (10^4 * 15^(i/4)).
WITNESS_P_ANCHORS = (10_000, 19_680, 38_730, 76_220, 150_000)

# curve: certificates near x = 10^6 sharing one table.
CURVE_X = 1_000_000
CURVE_CERTIFICATES = 2

# identities: kernel-mode intervals across scales, short brute-mode
# intervals as the oracle cross-check, Pell spans up to about 2000, and
# near-square offset sets of half degree 2..6. The smoothness bound y and
# the interval length set the cost of an interval check, J^2 that of a
# Pell span and the half degree that of a point search, so these are fixed
# or jittered only a little; the seed moves the positions.
INTERVAL_LO_ANCHORS = (1_000, 10_000, 50_000, 200_000, 500_000, 900_000)
INTERVAL_Y = (7, 11, 13, 7, 11, 13)
BRUTE_INTERVAL_Y = (5, 7, 11)
BRUTE_INTERVAL_LENGTH = 17
PELL_J_ANCHORS = (300, 800, 1_400, 1_900)
PELL_J_JITTER = 10
RUNGE_SETS = 16
RUNGE_SEARCHED_HALF_DEGREES = (2, 3, 4, 5)
RUNGE_SEARCH_LIMIT = 30_000


class Context:
    """What the operations of one phase share: the table built in set-up,
    and the tracer when the phase is traced."""

    def __init__(self, table: sieve.SpfTable, tracer: Optional[Tracer] = None):
        self.table = table
        self.tracer = tracer

    def supplier(self) -> tn.ParitySupplier:
        """A fresh parity supply, as each CLI command builds its own."""
        if self.tracer is None:
            return tn.ParitySupplier(self.table)
        return CountingSupplier(self.table, self.tracer)

    def render(self, fn: Callable[[], str]) -> str:
        """Run a rendering step as the `cli` layer."""
        if self.tracer is None:
            return fn()
        with self.tracer.span("cli.render"):
            text = fn()
        self.tracer.counters["cli.output_bytes"] += len(text.encode())
        return text


@dataclass
class Op:
    label: str
    units: int  # operations this call completes, in the workload's unit
    run: Callable[[Context], tuple[str, object]]  # -> (rendered output, result)
    check: Callable[[object], list[str]]  # -> problems found in the result


@dataclass
class Workload:
    name: str
    inputs: dict
    table_limit: int
    needs_lpf: bool  # whether the workload reads the P+ array
    ops: list[Op]


def build_table(workload: Workload, tracer: Optional[Tracer] = None) -> sieve.SpfTable:
    """The workload's set-up: the tables a CLI command would build."""
    table = sieve.build_spf_table(workload.table_limit)
    if workload.needs_lpf:
        with tracer.span("sieve.lpf_build") if tracer else nullcontext():
            table.largest_prime_factors()
    return table


# -- rendering, as the CLI writes its files ---------------------------------

def _csv_with_config(body: str, config: dict) -> str:
    return "".join(f"# {k}={config[k]}\n" for k in sorted(config)) + body


def _json_doc(payload: dict, config: dict) -> str:
    return json.dumps({"config": config, "result": payload}, sort_keys=True, indent=2) + "\n"


# -- independent arithmetic for the checks ----------------------------------

def _is_square(m: int) -> bool:
    return m >= 0 and isqrt(m) ** 2 == m


def _next_prime(m: int) -> int:
    def is_prime(k):
        return k >= 2 and all(k % d for d in range(2, isqrt(k) + 1))
    while not is_prime(m):
        m += 1
    return m


def _increasing(offsets) -> bool:
    return all(a < b for a, b in zip(offsets, offsets[1:]))


# -- dist --------------------------------------------------------------------

def _dist(rng: random.Random) -> Workload:
    x = DIST_X + rng.randrange(500)
    cs = [round(rng.uniform(lo, hi), 3) for lo, hi in DIST_C_BANDS]

    def run(ctx: Context):
        if ctx.tracer is None:
            table = distribution.distribution_table(x, cs, table=ctx.table)
        else:
            # The scan goes through the counting supply only when the
            # benchmark makes it and hands the rows over.
            rows = tn.scan_tn(1, x, use_shortcut=True, include_witness=False,
                              supplier=ctx.supplier())
            table = distribution.distribution_table(x, cs, table=ctx.table, results=rows)
        exc_count, _ = distribution.exceptional_set(x, include_members=False, table=ctx.table)

        def render():
            config = {"x": x, "c": cs, "workers": 1, "exceptional_count": exc_count,
                      "cap_excluded": table.cap_excluded,
                      "admissible_c_min": table.admissible_c_min}
            return _csv_with_config(table.to_csv(), config)
        return ctx.render(render), (table, exc_count)

    def check(result) -> list[str]:
        table, exc_count = result
        problems = []
        if table.cap_excluded != 0:
            problems.append(f"cap_excluded = {table.cap_excluded}")
        if [r.c for r in table.rows] != sorted(cs):
            problems.append("rows do not match the requested c values")
        for r in table.rows:
            if r.count_tn - r.count_smooth > exc_count:
                problems.append(f"c={r.c}: count_tn - count_smooth = "
                                f"{r.count_tn - r.count_smooth} > |E| = {exc_count}")
        return problems

    op = Op(f"dist x={x}", x, run, check)
    return Workload("dist", {"x": x, "c": cs}, x, True, [op])


# -- witness -----------------------------------------------------------------

def _witness_op(n: int, p: int) -> Op:
    def run(ctx: Context):
        supplier = ctx.supplier()
        r = tn.compute_tn(n, include_witness=True, supplier=supplier)
        verified = tn.verify_witness(n, r.witness, supplier)

        def render():
            witness = list(r.witness) if r.witness is not None else None
            line = f"n={r.n} t={r.t} shortcut_used={r.shortcut_used} witness={witness}\n"
            config = {"cap": None, "format": "csv", "n": n, "no_shortcut": False}
            return line + _csv_with_config(tn.render_results([r], "csv"), config)
        return ctx.render(render), (r, verified)

    def check(result) -> list[str]:
        r, verified = result
        problems = []
        if not verified:
            problems.append("verify_witness rejected the witness")
        if r.t != p or not r.shortcut_used:
            problems.append(f"t = {r.t}, expected the shortcut value {p}")
        w = r.witness or ()
        if not w or w[-1] != r.t or not _increasing(w) or w[0] < 1:
            problems.append(f"witness {w} is not increasing up to t")
        elif not _is_square(n * math.prod(n + j for j in w)):
            problems.append("n * prod(n + j) is not a square")
        return problems

    return Op(f"tn n={n}", 1, run, check)


def _witness(rng: random.Random) -> Workload:
    requests = []
    # n = k p with k = 1..5 stays below the table with its whole window
    # n+1..n+p, and k < p keeps P+(n) = p with the shortcut t_n = p. The
    # seed moves p only: k sets how many primes the window brings into the
    # basis, so drawing it would make peak RSS depend on the seed.
    for k, anchor in enumerate(WITNESS_P_ANCHORS, start=1):
        p = _next_prime(anchor + rng.randrange(anchor // 500))
        requests.append((k * p, p))
    ops = [_witness_op(n, p) for n, p in requests]
    return Workload("witness", {"requests": [list(r) for r in requests]},
                    CLI_SIEVE_LIMIT, False, ops)


# -- curve -------------------------------------------------------------------

def _curve_op(x: int, c: float, seed: int) -> Op:
    def run(ctx: Context):
        cert = constructor.construct_curve_point(x, c, seed=seed, table=ctx.table)
        verified = tn.verify_witness(cert.n, list(cert.all_offsets()), ctx.supplier())

        def render():
            config = {"c": c, "delta": 0.25, "family_size": 128, "seed": seed, "x": x}
            return _json_doc(cert.to_json_dict(), config)
        return ctx.render(render), (cert, verified)

    def check(result) -> list[str]:
        cert, verified = result
        problems = []
        offsets = cert.all_offsets()
        if not verified:
            problems.append("verify_witness rejected the certificate")
        if not _increasing(offsets) or offsets[0] < 1 or cert.N != len(cert.offsets):
            problems.append("offsets are not increasing from 1 to J")
        elif not _is_square(cert.n * math.prod(cert.n + j for j in offsets)):
            problems.append("n(n+J) prod(n+j_i) is not a square")
        if not (cert.interval[0] < cert.n and cert.n + cert.J <= cert.interval[1] <= x):
            problems.append("certificate leaves its interval")
        return problems

    return Op(f"curve-point x={x} c={c} seed={seed}", 1, run, check)


def _curve(rng: random.Random) -> Workload:
    x = CURVE_X + rng.randrange(10_000)
    certs = [(round(rng.uniform(0.3, 0.7), 3), rng.randrange(2 ** 31))
             for _ in range(CURVE_CERTIFICATES)]
    ops = [_curve_op(x, c, s) for c, s in certs]
    return Workload("curve", {"x": x, "certificates": [list(c) for c in certs]},
                    x, True, ops)


# -- identities --------------------------------------------------------------

def _report_text(report, kernel: bool) -> str:
    config = {"hi": report.hi, "kernel": kernel, "lo": report.lo, "y": report.y}
    return _json_doc(report.to_json_dict(), config)


def _report_problems(report) -> list[str]:
    problems = []
    if not report.identity_ok:
        problems.append(f"({report.lo}, {report.hi}]: subset count != 2^B")
    if not report.lower_bound_ok:
        problems.append(f"({report.lo}, {report.hi}]: B < smooth count - pi(y)")
    return problems


def _interval_op(lo: int, hi: int, y: int) -> Op:
    def run(ctx: Context):
        report = intervals.check_interval_identity(lo, hi, y, mode="kernel",
                                                   supplier=ctx.supplier())
        return ctx.render(lambda: _report_text(report, True)), report

    return Op(f"interval ({lo}, {hi}] y={y} kernel", 1, run, _report_problems)


def _brute_interval_op(lo: int, hi: int, y: int) -> Op:
    def run(ctx: Context):
        brute = intervals.check_interval_identity(lo, hi, y, mode="brute",
                                                  supplier=ctx.supplier())
        kernel = intervals.check_interval_identity(lo, hi, y, mode="kernel",
                                                   supplier=ctx.supplier())
        text = ctx.render(lambda: _report_text(brute, False) + _report_text(kernel, True))
        return text, (brute, kernel)

    def check(result) -> list[str]:
        brute, kernel = result
        problems = _report_problems(brute) + _report_problems(kernel)
        if (brute.square_subset_count, brute.closed_count) != \
                (kernel.square_subset_count, kernel.closed_count):
            problems.append(f"({lo}, {hi}]: brute and kernel counts differ")
        return problems

    return Op(f"interval ({lo}, {hi}] y={y} brute+kernel", 1, run, check)


def _pell_op(J: int) -> Op:
    def run(ctx: Context):
        sols = heights.pell_solutions(J)
        text = ctx.render(lambda: _json_doc({"solutions": [[x, y] for x, y in sols]},
                                            {"J": J, "search_limit": None}))
        return text, sols

    def check(sols) -> list[str]:
        problems = [f"J={J}: ({x}, {y}) is not a solution of y^2 = x(x+J) with x <= J^2"
                    for x, y in sols if not (0 < x <= J * J and y > 0 and y * y == x * (x + J))]
        if sols != sorted(set(sols)):
            problems.append(f"J={J}: solutions are not sorted and distinct")
        return problems

    return Op(f"pell J={J}", 1, run, check)


def _runge_op(offsets: list[int], limit: Optional[int]) -> Op:
    def run(ctx: Context):
        dec = runge.offsets_near_square(offsets)
        payload = {"height_bound": runge.height_bound(dec.half_degree, dec.span)}
        points = runge.search_integral_points(offsets, limit) if limit else None

        def render():
            payload.update(dec.to_json_dict())
            if points is not None:
                payload["integral_points"] = [[x, y] for x, y in points]
            config = {"offsets": ",".join(map(str, offsets)), "search_limit": limit}
            return _json_doc(payload, config)
        return ctx.render(render), (dec, points)

    def check(result) -> list[str]:
        dec, points = result
        problems = []
        f, g = dec.sqrt_part, dec.remainder
        if (f * f + g).coeffs != dec.poly.coeffs or g.degree >= dec.half_degree:
            problems.append(f"{offsets}: P != f^2 + g with deg g < u")
        if not dec.checks.all_ok():
            problems.append(f"{offsets}: a coefficient bound fails")
        for x, y in points or ():
            if not (0 < x <= limit and y * y == math.prod(x + j for j in offsets)):
                problems.append(f"{offsets}: ({x}, {y}) is not an integral point")
        return problems

    return Op(f"runge {offsets} limit={limit}", 1, run, check)


def _identities(rng: random.Random) -> Workload:
    kernel_intervals = []
    for anchor, y in zip(INTERVAL_LO_ANCHORS, INTERVAL_Y):
        lo = anchor + rng.randrange(anchor // 10)
        kernel_intervals.append((lo, lo + 440 + rng.randrange(20), y))
    brute_intervals = []
    for y in BRUTE_INTERVAL_Y:
        lo = rng.randint(1, 5_000)
        brute_intervals.append((lo, lo + BRUTE_INTERVAL_LENGTH, y))
    spans = [anchor + rng.randrange(PELL_J_JITTER) for anchor in PELL_J_ANCHORS]
    searched = len(RUNGE_SEARCHED_HALF_DEGREES)
    offset_sets = []
    for i in range(RUNGE_SETS):
        u = RUNGE_SEARCHED_HALF_DEGREES[i] if i < searched else rng.randint(2, 6)
        span = rng.randrange(2 * u - 1, 61)
        offset_sets.append([0] + sorted(rng.sample(range(1, span), 2 * u - 2)) + [span])

    ops = ([_interval_op(*iv) for iv in kernel_intervals]
           + [_brute_interval_op(*iv) for iv in brute_intervals]
           + [_pell_op(J) for J in spans]
           + [_runge_op(offs, RUNGE_SEARCH_LIMIT if i < searched else None)
              for i, offs in enumerate(offset_sets)])
    inputs = {"kernel_intervals": kernel_intervals, "brute_intervals": brute_intervals,
              "pell_J": spans, "runge_offsets": offset_sets,
              "runge_search_limit": RUNGE_SEARCH_LIMIT, "runge_searched": searched}
    return Workload("identities", inputs, CLI_SIEVE_LIMIT, False, ops)


BUILDERS = {"dist": _dist, "witness": _witness, "curve": _curve, "identities": _identities}


def make_workload(name: str, seed: int) -> Workload:
    """The workload's batch for `seed`; the same seed gives the same batch."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"))
