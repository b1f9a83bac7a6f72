"""Every operation of every benchmark workload, run once on this tree.

The benchmark under bench/ is frozen, and it reaches into the library
through public names, ParitySupplier subclassing and the tracer's
wrappers. Running each workload at one seed, untraced and traced, catches
a library change that breaks it before a benchmark run does.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from tracer import Tracer  # noqa: E402
from workloads import BUILDERS, Context, build_table, make_workload  # noqa: E402


@pytest.mark.parametrize("name", list(BUILDERS))
def test_every_workload_op_passes_its_check(name):
    workload = make_workload(name, 1)
    table = build_table(workload)
    tracer = Tracer()
    with tracer.installed():
        traced = [op.run(Context(table, tracer)) for op in workload.ops]
    untraced = [op.run(Context(table)) for op in workload.ops]
    for op, (text, result), (plain_text, _) in zip(workload.ops, traced, untraced):
        assert op.check(result) == [], op.label
        assert text == plain_text, op.label
    assert tracer.spans  # the tracer's wrappers ran
