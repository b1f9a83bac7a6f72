import concurrent.futures
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

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
