"""Self-tests of the benchmark's own code: python3 -m pytest bench -q"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tnlab import sieve, tn  # noqa: E402
from tnlab.errors import CapExceeded  # noqa: E402

import run  # noqa: E402
from tracer import (Span, Tracer, layer_metrics, search_inserts,  # noqa: E402
                    span_self_times, upper_percentile)
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from workloads import BUILDERS, make_workload  # noqa: E402


def test_upper_percentile_needs_ten_samples_beyond_it():
    assert upper_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert upper_percentile([float(i) for i in range(19)]) == (100.0, 18.0)
    assert upper_percentile([float(i) for i in range(20)]) == (50.0, 9.0)
    assert upper_percentile([float(i) for i in range(100)]) == (90.0, 89.0)
    assert upper_percentile([float(i) for i in range(1000)]) == (99.0, 989.0)
    assert upper_percentile([float(i) for i in range(10000)]) == (99.9, 9989.0)
    with pytest.raises(ValueError):
        upper_percentile([])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, None, "a.root", 0.0, 10.0, inner=1.0),
        Span(1, 0, "b.x", 1.0, 4.0, inner=0.0),
        Span(2, 0, "b.y", 3.0, 6.0, inner=0.5),   # overlaps b.x on [3, 4)
        Span(3, 0, "c.z", 9.0, 12.0, inner=0.0),  # only [9, 10) lies in the parent
    ]
    selfs = span_self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 1.0) - 1.0)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(2.5)
    assert selfs[3] == pytest.approx(3.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_aggregates_are_subtracted_from_the_enclosing_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(dt):
        clock.now += dt

    def outer():
        clock.now += 1.0
        supply(2.0)
        supply(0.5)

    supply = tracer.supply_boundary(leaf)
    search = tracer.wrap_aggregate("gf2.search", outer)
    with tracer.span("bench.round"):
        search()
        clock.now += 4.0
        with tracer.span("cli.render"):
            clock.now += 0.25
    layers = tracer.layer_self_times()
    assert layers["gf2"] == pytest.approx(1.0)
    assert layers["tn"] == pytest.approx(2.5)
    assert layers["cli"] == pytest.approx(0.25)
    round_span = next(s for s in tracer.spans if s.name == "bench.round")
    assert span_self_times(tracer.spans)[round_span.id] == pytest.approx(4.0)
    assert tracer.aggregates["tn.supply"].count == 2
    assert tracer.requested == [{2.0, 0.5}]


def test_speed_scale_weights_time_by_measured_speed():
    probe = SpeedProbe()
    probe.samples = [REFERENCE_S, REFERENCE_S / 2, REFERENCE_S * 2]
    assert probe.scale() == pytest.approx((1.0 + 2.0 + 0.5) / 3)
    probe.reset()
    probe.sample()
    assert len(probe.samples) == 1 and probe.spent >= probe.samples[0] > 0


def test_search_inserts_formula():
    assert search_inserts(tn.TnResult(4, 0, ())) == 0
    assert search_inserts(tn.TnResult(14, 7, None, shortcut_used=True)) == 0
    assert search_inserts(tn.TnResult(14, 7, (1, 4, 6, 7), shortcut_used=True)) == 7
    assert search_inserts(None, capped_at=3) == 3


def test_traced_compute_tn_counts_inserts():
    supplier = tn.ParitySupplier(sieve.build_spf_table(1000))
    tracer = Tracer()
    original = tn.compute_tn
    with tracer.installed():
        assert tn.compute_tn(2, supplier=supplier).t == 4
        assert tracer.counters["gf2.inserts"] == 4
        assert tn.compute_tn(14, supplier=supplier).t == 7
        assert tracer.counters["gf2.inserts"] == 4 + 7
        tn.compute_tn(14, include_witness=False, supplier=supplier)
        assert tracer.counters["gf2.inserts"] == 4 + 7
        with pytest.raises(CapExceeded):
            tn.compute_tn(2, cap=2, use_shortcut=False, supplier=supplier)
    assert tn.compute_tn is original
    c = tracer.counters
    assert c["gf2.inserts"] == 4 + 7 + 2
    assert (c["tn.rows"], c["tn.searches"], c["tn.capped_rows"], c["tn.shortcut_hits"]) \
        == (4, 3, 1, 2)
    assert tracer.aggregates["gf2.search"].count == 4


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    empty = Tracer()
    per_layer = layer_metrics(empty, empty, [1.0], [1.0])
    assert list(per_layer) == [m["name"] for m in spec["per_layer"]]
    end_to_end, _ = run.end_to_end_metrics([0.5], [1.0, 2.0], 10, 0)
    assert list(end_to_end) == [m["name"] for m in spec["end_to_end"]]
    assert [w["name"] for w in spec["workloads"]] == list(BUILDERS) == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(BUILDERS))
def test_inputs_depend_only_on_the_seed(name):
    a, b, c = make_workload(name, 7), make_workload(name, 7), make_workload(name, 8)
    assert a.inputs == b.inputs
    assert a.inputs != c.inputs
    assert [op.label for op in a.ops] == [op.label for op in b.ops]


def test_ops_per_s_counts_completed_operations_only():
    metrics, _ = run.end_to_end_metrics([0.5], [1.0, 2.0, 3.0], 10, 4)
    assert metrics["ops_per_s"] == pytest.approx(1.0)
