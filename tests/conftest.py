"""Fixtures shared by the test modules."""

import pytest

from octodyson import simulate
from octodyson.blas import BlasThreads, find_openblas


@pytest.fixture
def cpus(monkeypatch):
    """A setter of the sampler's usable CPUs, so that ``thread_count(n)``
    reads that count for n >= 3.  Where no OpenBLAS thread control is
    loaded, a stand-in lets the sampler start its pool all the same."""
    if find_openblas() is None:
        monkeypatch.setattr(simulate, "find_openblas",
                            lambda: BlasThreads(lambda: 1, lambda k: None))
    return lambda k: monkeypatch.setattr(simulate, "usable_cpus", lambda: k)
