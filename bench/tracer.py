"""In-memory tracing of tnlab from outside the package.

Spans are recorded around calls into each tnlab module by replacing public
module attributes with timing wrappers for the duration of a traced run.
Boundaries that are crossed once per element (parity supply, per-row span
searches, rho lookups) are aggregated as a count plus busy time instead of
one span per call. Nothing here reads a private attribute of tnlab.

A layer is the tnlab module a boundary belongs to: the part of a trace name
before the first dot.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from tnlab import constructor, distribution, heights, intervals, runge, sieve, tn
from tnlab.errors import CapExceeded

LAYERS = ("sieve", "gf2", "tn", "intervals", "distribution", "constructor",
          "heights", "runge", "cli")


def upper_percentile(samples: list[float]) -> tuple[float, float]:
    """(q, value): the highest of the 99.9th, 99th, 90th and 50th
    percentiles (nearest rank) with at least ten samples above it, or the
    largest sample (q = 100) when there are fewer than twenty samples.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(samples)
    # q = 100 (1 - 1/tail); the nearest-rank q-th percentile has n // tail
    # samples above it.
    for tail, q in ((1000, 99.9), (100, 99.0), (10, 90.0), (2, 50.0)):
        if n // tail >= 10:
            return q, ordered[n - n // tail - 1]
    return 100.0, ordered[-1]


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    inner: float  # time of aggregated boundaries called directly inside


@dataclass
class Aggregate:
    count: int = 0
    busy: float = 0.0
    inner: float = 0.0  # time of traced calls nested directly inside


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of it covered
    by its child spans (overlapping children are counted once) and minus
    the aggregated boundaries called directly inside it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children[s.id]]
        covered = _covered([(a, b) for a, b in clipped if b > a])
        out[s.id] = (s.end - s.start) - covered - s.inner
    return out


def search_inserts(result: Optional[tn.TnResult], capped_at: Optional[int] = None) -> int:
    """Vectors inserted into the echelon basis by one compute_tn call.

    A finished search inserts t vectors, one per offset; a search that hit
    its cap inserted cap vectors; squares and shortcut rows served without
    a witness insert none.
    """
    if capped_at is not None:
        return capped_at
    if not result.t or (result.shortcut_used and result.witness is None):
        return 0
    return result.t


class Tracer:
    """Spans, aggregates and counters of one traced run, kept in memory."""

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.aggregates: dict[str, Aggregate] = defaultdict(Aggregate)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open frames: [inner, span id or None]
        self._next_id = 0
        self.requested: list[set[int]] = []  # distinct arguments, per supply method

    def _parent_span(self) -> Optional[int]:
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    @contextmanager
    def span(self, name: str):
        parent = self._parent_span()
        frame = [0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(frame[1], parent, name, start, end, frame[0]))
            if self._stack and self._stack[-1][1] is None:
                self._stack[-1][0] += end - start

    def wrap_span(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def wrap_aggregate(self, name: str, fn: Callable) -> Callable:
        stat = self.aggregates[name]
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stat.count += 1
                stat.busy += dur
                stat.inner += frame[0]
                if stack:
                    stack[-1][0] += dur
        return traced

    def supply_boundary(self, fn: Callable[[int], object]) -> Callable[[int], object]:
        """Wrap one method of a parity supply. Per call this is kept to two
        clock reads and a set insertion, because dist makes millions."""
        stat = self.aggregates["tn.supply"]
        stack = self._stack
        clock = self.clock
        requested: set[int] = set()
        self.requested.append(requested)
        remember = requested.add

        def traced(m):
            start = clock()
            try:
                remember(m)
                return fn(m)
            finally:
                dur = clock() - start
                stat.count += 1
                stat.busy += dur
                if stack:
                    stack[-1][0] += dur
        return traced

    def self_time(self, name: str) -> float:
        """Self time of every span and aggregate called `name`."""
        selfs = span_self_times(self.spans)
        total = sum(selfs[s.id] for s in self.spans if s.name == name)
        if name in self.aggregates:
            agg = self.aggregates[name]
            total += agg.busy - agg.inner
        return total

    def layer_self_times(self) -> dict[str, float]:
        selfs = span_self_times(self.spans)
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            if layer in out:
                out[layer] += selfs[s.id]
        for name, agg in self.aggregates.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += agg.busy - agg.inner
        return out

    def span_total(self, name: str) -> float:
        return sum((s.end - s.start for s in self.spans if s.name == name), 0.0)

    def to_json(self) -> dict:
        return {
            "spans": [[s.id, s.parent, s.name, s.start, s.end, s.inner] for s in self.spans],
            "aggregates": {k: [a.count, a.busy, a.inner] for k, a in self.aggregates.items()},
            "counters": dict(self.counters),
        }

    # -- tnlab boundaries -------------------------------------------------

    def _on_search(self, result: tn.TnResult) -> None:
        c = self.counters
        c["tn.rows"] += 1
        c["tn.shortcut_hits"] += result.shortcut_used
        inserted = search_inserts(result)
        c["tn.searches"] += inserted > 0
        c["gf2.inserts"] += inserted
        if result.t is not None:
            c["tn.largest_t"] = max(c["tn.largest_t"], result.t)

    def _traced_compute_tn(self, fn: Callable) -> Callable:
        inner = self.wrap_aggregate("gf2.search", fn)

        def compute_tn(*args, **kwargs):
            try:
                result = inner(*args, **kwargs)
            except CapExceeded as e:
                c = self.counters
                c["tn.rows"] += 1
                c["tn.searches"] += 1
                c["tn.capped_rows"] += 1
                c["gf2.inserts"] += search_inserts(None, capped_at=e.cap)
                raise
            self._on_search(result)
            return result
        return compute_tn

    def _traced_kernel_masks(self, fn: Callable) -> Callable:
        def kernel_masks(supports):
            with self.span("tn.supply"):
                supports = list(supports)
            self.counters["tn.supply_bulk"] += len(supports)
            with self.span("gf2.kernel"):
                masks = fn(supports)
            self.counters["gf2.kernel_calls"] += 1
            self.counters["gf2.kernel_dim_total"] += len(masks)
            return masks
        return kernel_masks

    def _traced_enumerate(self, fn: Callable) -> Callable:
        def enumerate_square_subsets(lo, hi, mode="brute", supplier=None):
            kernel = mode == "kernel"
            with self.span("gf2.kernel" if kernel else "intervals.enumerate"):
                result = fn(lo, hi, mode=mode, supplier=supplier)
            if kernel:
                self.counters["gf2.kernel_calls"] += 1
                self.counters["gf2.kernel_dim_total"] += len(result.kernel_basis)
            return result
        return enumerate_square_subsets

    def _on_certificate(self, cert) -> None:
        c = self.counters
        for stage in ("intervals", "kernel", "symdiff"):
            c[f"constructor.{stage}_s"] += cert.stage_seconds.get(stage, 0.0)
        c["constructor.certificates"] += 1
        c["constructor.family_size_total"] += cert.family_size
        c["constructor.meets_target"] += cert.meets_target

    def _replacements(self) -> list[tuple[object, str, Callable]]:
        compute = self._traced_compute_tn(tn.compute_tn)
        enum = self._traced_enumerate(intervals.enumerate_square_subsets)
        return [
            (sieve, "build_spf_table", self.wrap_span("sieve.spf_build", sieve.build_spf_table)),
            (tn, "compute_tn", compute),
            (intervals, "compute_tn", compute),
            (tn, "verify_witness", self.wrap_span("tn.verify", tn.verify_witness)),
            (tn, "scan_tn", self.wrap_span("tn.scan", tn.scan_tn)),
            (distribution, "distribution_table",
             self.wrap_span("distribution.table", distribution.distribution_table)),
            (distribution, "exceptional_set",
             self.wrap_span("distribution.exceptional", distribution.exceptional_set)),
            (distribution, "dickman_rho",
             self.wrap_aggregate("distribution.rho", distribution.dickman_rho)),
            (constructor, "construct_curve_point",
             self.wrap_span("constructor.curve_point", constructor.construct_curve_point,
                            self._on_certificate)),
            (constructor, "smooth_in_interval",
             self.wrap_span("sieve.smooth_enum", constructor.smooth_in_interval)),
            (constructor, "kernel_masks", self._traced_kernel_masks(constructor.kernel_masks)),
            (intervals, "check_interval_identity",
             self.wrap_span("intervals.check", intervals.check_interval_identity)),
            (intervals, "count_tn_closed",
             self.wrap_span("intervals.closed_count", intervals.count_tn_closed)),
            (intervals, "enumerate_square_subsets", enum),
            (heights, "pell_solutions", self.wrap_span("heights.pell", heights.pell_solutions)),
            (runge, "offsets_near_square",
             self.wrap_span("runge.decompose", runge.offsets_near_square)),
            (runge, "search_integral_points",
             self.wrap_span("runge.point_search", runge.search_integral_points)),
        ]

    @contextmanager
    def installed(self):
        """Route calls into tnlab's modules through this tracer."""
        saved = []
        try:
            for module, attr, wrapper in self._replacements():
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


class CountingSupplier(tn.ParitySupplier):
    """ParitySupplier whose requests are the hot `tn.supply` boundary of a
    tracer: counted, timed, and their distinct arguments kept."""

    def __init__(self, table, tracer: Tracer):
        super().__init__(table)
        self.support = tracer.supply_boundary(super().support)
        self.p_plus = tracer.supply_boundary(super().p_plus)


def layer_metrics(setup: Tracer, tracer: Tracer, traced_wall: list[float],
                  untraced_wall: list[float]) -> dict[str, float]:
    """The per-layer metrics of a traced run.

    `setup` traced the table builds, which happen once per run and are
    reported as measured. `tracer` traced the rounds, whose totals are
    divided by the number of rounds; `traced_wall` and `untraced_wall` are
    the raw round times with and without tracing.
    """
    rounds = len(traced_wall)
    c = tracer.counters
    per = 1.0 / rounds
    supply = tracer.aggregates.get("tn.supply", Aggregate())
    search = tracer.aggregates.get("gf2.search", Aggregate())
    supply_busy = supply.busy + tracer.span_total("tn.supply")
    supply_calls = supply.count + c["tn.supply_bulk"]
    supply_distinct = sum(map(len, tracer.requested)) + c["tn.supply_bulk"]
    search_self = search.busy - search.inner
    rho = tracer.aggregates.get("distribution.rho", Aggregate())
    certs = c["constructor.certificates"]
    kernel_calls = c["gf2.kernel_calls"]
    out = {
        "sieve.spf_build_s": setup.span_total("sieve.spf_build"),
        "sieve.lpf_build_s": setup.span_total("sieve.lpf_build"),
        "sieve.smooth_enum_s": tracer.span_total("sieve.smooth_enum") * per,
        "tn.rows": c["tn.rows"] * per,
        "tn.shortcut_hits": c["tn.shortcut_hits"] * per,
        "tn.searches": c["tn.searches"] * per,
        "tn.capped_rows": c["tn.capped_rows"] * per,
        "tn.largest_t": c["tn.largest_t"],
        "tn.search_busy_s": search.busy * per,
        "tn.supply_calls": supply_calls * per,
        "tn.supply_distinct": supply_distinct * per,
        "tn.supply_busy_s": supply_busy * per,
        "tn.supply_reuse_ratio": 1.0 - supply_distinct / supply_calls if supply_calls else 0.0,
        "tn.verify_s": tracer.span_total("tn.verify") * per,
        "gf2.inserts": c["gf2.inserts"] * per,
        "gf2.search_self_s": search_self * per,
        "gf2.inserts_per_s": c["gf2.inserts"] / search_self if search_self > 0 else 0.0,
        "gf2.kernel_s": tracer.self_time("gf2.kernel") * per,
        "gf2.kernel_dim": c["gf2.kernel_dim_total"] / kernel_calls if kernel_calls else 0.0,
        "constructor.intervals_s": c["constructor.intervals_s"] * per,
        "constructor.kernel_s": c["constructor.kernel_s"] * per,
        "constructor.symdiff_s": c["constructor.symdiff_s"] * per,
        "constructor.family_size": c["constructor.family_size_total"] / certs if certs else 0.0,
        "constructor.meets_target_ratio": c["constructor.meets_target"] / certs if certs else 0.0,
        "distribution.table_s": tracer.span_total("distribution.table") * per,
        "distribution.rho_grid_s": rho.busy * per,
        "distribution.exceptional_s": tracer.span_total("distribution.exceptional") * per,
        "intervals.closed_count_s": tracer.span_total("intervals.closed_count") * per,
        "intervals.enumerate_s": tracer.span_total("intervals.enumerate") * per,
        "heights.pell_s": tracer.span_total("heights.pell") * per,
        "runge.decompose_s": tracer.span_total("runge.decompose") * per,
        "runge.point_search_s": tracer.span_total("runge.point_search") * per,
        "cli.render_s": tracer.span_total("cli.render") * per,
        "cli.output_bytes": c["cli.output_bytes"] * per,
        "trace.overhead_ratio": statistics.median(traced_wall) / statistics.median(untraced_wall),
    }
    for layer, secs in tracer.layer_self_times().items():
        out[f"{layer}.self_s"] = secs * per
    return out
