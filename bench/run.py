"""tnlab benchmark: one seeded workload per run, end to end or traced.

    python3 bench/run.py --workload witness --seed 1 --seconds 15 --trace 0

Run from anywhere; the package is imported from the `src/` directory next
to this one. A run repeats the workload's batch of operations in rounds,
one caller at a time, until `--seconds` is spent and at least MIN_ROUNDS
rounds are done. With `--trace 0` it prints the end-to-end metrics; with
`--trace 1` it runs half the time untraced and half traced, at least
MIN_TRACED_ROUNDS rounds each, and prints the per-layer metrics. The last
line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` and `failed` count operations in the workload's unit, so
failed / attempted is the error rate. Spans, counters and run facts are
also written to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("dist", "witness", "curve", "identities")
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
SETUP_SAMPLES = 11
SETUP_PROBE_TIMEOUT_S = 60
# A set-up takes 0.2-0.6 s; samples this close track the machine's speed
# changes inside it.
SETUP_SAMPLE_INTERVAL_S = 0.03


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up the workload, print how long it took and exit "
                         "(how a run measures setup_s in a fresh process)")
    return ap.parse_args(argv)


def import_tnlab():
    """Import tnlab from this checkout's src/, or exit with status 2."""
    if not (SRC / "tnlab" / "__init__.py").is_file():
        print(f"bench: no tnlab package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import tnlab
    if Path(tnlab.__file__).resolve().parent != SRC / "tnlab":
        print(f"bench: tnlab was imported from {tnlab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def setup_probe(args) -> None:
    """One set-up in this fresh process: import tnlab, make the workload's
    inputs and build its tables. It is timed here, while the speed probe
    samples every SETUP_SAMPLE_INTERVAL_S, and the samples' own time is
    taken out. Prints the time and its speed scale as one JSON line."""
    from speed import SpeedProbe

    probe = SpeedProbe(SETUP_SAMPLE_INTERVAL_S)
    with probe:
        probe.sample()
        spent = probe.spent
        start = perf_counter()
        import_tnlab()
        from workloads import build_table, make_workload
        build_table(make_workload(args.workload, args.seed))
        took = perf_counter() - start - (probe.spent - spent)
        probe.sample()
    print(json.dumps({"setup_s": took, "scale": probe.scale()}), flush=True)


def measure_setup(args) -> dict[str, list[float]]:
    """Set-ups in fresh processes started one at a time: the time each
    reports (raw), its speed scale, and the wall time from starting the
    process until it reported, interpreter start-up included."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    found = {"raw_s": [], "speed_scale": [], "process_wall_s": []}
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            wall = perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=SETUP_PROBE_TIMEOUT_S)
        if proc.returncode != 0 or not line.startswith(b"{"):
            raise RuntimeError(f"setup probe failed with status {proc.returncode}")
        report = json.loads(line)
        found["raw_s"].append(report["setup_s"])
        found["speed_scale"].append(report["scale"])
        found["process_wall_s"].append(wall)
    return found


class Phase:
    """Rounds of one workload batch under one context, with their checks.

    The first round that any phase of the run completes is the reference:
    its results are checked, and every later output must equal it byte for
    byte. Checks run between rounds, outside the timed region.
    """

    def __init__(self, ops, reference=None):
        self.ops = ops
        self.reference = reference  # sha256 of each op's output, once known
        self.round_s: list[float] = []  # wall time, speed samples excluded
        self.scales: list[float] = []  # speed scale of each round, when sampled
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, ctx, budget_s: float, min_rounds: int, round_span=None,
            probe=None) -> None:
        start = perf_counter()
        while True:
            outcomes = []
            if probe:
                probe.reset()
                probe.sample()
            spent = probe.spent if probe else 0.0
            t0 = perf_counter()
            with round_span() if round_span else nullcontext():
                for op in self.ops:
                    try:
                        outcomes.append(op.run(ctx))
                    except Exception:
                        outcomes.append(traceback.format_exc())
            elapsed = perf_counter() - t0
            if probe:
                elapsed -= probe.spent - spent
                probe.sample()
                self.scales.append(probe.scale())
            self.round_s.append(elapsed)
            self._judge(outcomes)
            if len(self.round_s) >= min_rounds and \
                    perf_counter() - start + statistics.median(self.round_s) > budget_s:
                break

    def scaled_s(self) -> list[float]:
        """Round times at the reference machine speed."""
        return [t * k for t, k in zip(self.round_s, self.scales)]

    def _judge(self, outcomes) -> None:
        digests = []
        for op, outcome in zip(self.ops, outcomes):
            self.attempted += op.units
            if isinstance(outcome, str):  # the traceback of a failed call
                digests.append(None)
                self._fail(op, [outcome.strip().splitlines()[-1]])
                continue
            text, result = outcome
            digest = hashlib.sha256(text.encode()).hexdigest()
            digests.append(digest)
            if self.reference is None:
                try:
                    problems = op.check(result)
                except Exception:
                    problems = [traceback.format_exc().strip().splitlines()[-1]]
            elif digest != self.reference[len(digests) - 1]:
                problems = ["output differs from the first round"]
            else:
                problems = []
            if problems:
                self._fail(op, problems)
        if self.reference is None:
            self.reference = digests

    def _fail(self, op, problems) -> None:
        self.failed += op.units
        for p in problems:
            self.problems.append(f"{op.label}: {p}")
            print(f"bench: FAILED {op.label}: {p}", file=sys.stderr)


def round_digest(reference) -> str:
    return hashlib.sha256("\n".join(d or "-" for d in reference).encode()).hexdigest()


def machine_facts() -> dict:
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
    }


def source_facts() -> dict:
    h = hashlib.sha256()
    for path in sorted((SRC / "tnlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def end_to_end_metrics(setup_samples: list[float], round_s: list[float],
                       attempted: int, failed: int) -> tuple[dict[str, float], float]:
    """The end-to-end metrics of an untraced run, and the percentile that
    `wall_s_upper` reports."""
    from tracer import upper_percentile

    q, upper = upper_percentile(round_s)
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(round_s),
        "wall_s_upper": upper,
        "ops_per_s": (attempted - failed) / sum(round_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, q


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_tnlab()
    from tracer import Tracer, layer_metrics
    from speed import SpeedProbe
    from workloads import Context, build_table, make_workload

    workload = make_workload(args.workload, args.seed)

    load_before = os.getloadavg()
    facts = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "inputs": workload.inputs}
    facts["inputs_sha256"] = hashlib.sha256(
        json.dumps(workload.inputs, sort_keys=True).encode()).hexdigest()
    budget = args.seconds if args.trace == 0 else args.seconds / 2
    min_rounds = MIN_ROUNDS if args.trace == 0 else MIN_TRACED_ROUNDS

    if args.trace == 0:
        setup = measure_setup(args)
    probe = SpeedProbe()
    untraced = Phase(workload.ops)
    with probe:
        untraced.run(Context(build_table(workload)), budget, min_rounds, probe=probe)
    phases = [untraced]

    trace_dump = None
    if args.trace == 0:
        setup_s = [t * k for t, k in zip(setup["raw_s"], setup["speed_scale"])]
        metrics, q = end_to_end_metrics(setup_s, untraced.scaled_s(), untraced.attempted,
                                        untraced.failed)
        facts.update({f"setup_{k}": v for k, v in setup.items()})
        facts["wall_s_upper_percentile"] = q
    else:
        setup_tracer, tracer = Tracer(), Tracer()
        with setup_tracer.installed():
            table = build_table(workload, setup_tracer)
        traced = Phase(workload.ops, reference=untraced.reference)
        # No speed samples while tracing: a sample would land in a span.
        with tracer.installed():
            traced.run(Context(table, tracer), budget, min_rounds,
                       round_span=lambda: tracer.span("bench.round"))
        phases.append(traced)
        metrics = layer_metrics(setup_tracer, tracer, traced.round_s, untraced.round_s)
        facts["traced_round_s"] = traced.round_s
        facts["layer_self_share"] = {
            layer: secs / sum(traced.round_s)
            for layer, secs in tracer.layer_self_times().items()}
        trace_dump = {"setup": setup_tracer.to_json(), "rounds": tracer.to_json()}

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    facts.update({
        "round_raw_s": untraced.round_s,
        "round_speed_scale": untraced.scales,
        "rounds": len(untraced.round_s),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": [p for ph in phases for p in ph.problems][:20],
        "output_sha256": round_digest(untraced.reference),
        "machine": machine_facts(),
        "source": source_facts(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    })

    units = metric_units("end_to_end" if args.trace == 0 else "per_layer")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"error_rate = {facts['error_rate']:.6g} ratio ({failed} of {attempted} failed)")
    print(json.dumps({"facts": facts}, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"facts": facts, "metrics": metrics, "trace": trace_dump},
                                   sort_keys=True) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics that
    BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
