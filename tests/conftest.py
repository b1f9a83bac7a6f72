import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import tnlab
from tnlab.sieve import build_spf_table
from tnlab.tn import ParitySupplier


@pytest.fixture(scope="session")
def table():
    return build_spf_table(1 << 16)


@pytest.fixture(scope="session")
def supplier(table):
    return ParitySupplier(table)


class InProcessPool:
    """Records the processes asked for and runs the map here."""

    asked: list[int] = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def in_process_pool(monkeypatch):
    """InProcessPool in place of the process pool, with its record cleared."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "asked", [])
    return InProcessPool.asked


# VmHWM is the peak of the child's own memory since its exec, in kB;
# getrusage's ru_maxrss would also count the test process it was forked from
PEAK_CHILD = """
import sys
def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
exec(sys.argv[1])
before = peak()
exec(sys.argv[2])
print((peak() - before) / 1024)
"""


@pytest.fixture
def peak_growth_mb():
    """peak_growth_mb(warm, code): how far the peak resident set of a fresh
    interpreter grows, in MB, while it runs the source `code` after the
    source `warm`, so that the imports, the prime array and whatever else
    `warm` leaves are not counted. Nothing is traced: the run costs what it
    costs outside the tests."""
    src = str(Path(tnlab.__file__).resolve().parents[1])

    def run(warm: str, code: str) -> float:
        out = subprocess.run([sys.executable, "-c", PEAK_CHILD, warm, code],
                             env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        return float(out.stdout)
    return run
