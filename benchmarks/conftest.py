"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one of the paper's tables/figures at a reduced
workload scale (``BENCH_SCALE``) and asserts the paper's *shape*: which
configuration wins, roughly by how much, and where the crossovers fall.
Absolute simulated numbers are reported for EXPERIMENTS.md.

Run with ``PYTHONPATH=src:. python -m pytest benchmarks --ignore=benchmarks/e2e``.
"""

import pytest

from repro.bench.experiments import perf_sweep, table7

#: workload scale for the benchmark suite (1.0 = the full bench runs)
BENCH_SCALE = 1.0


@pytest.fixture(scope="session")
def sweeps():
    """One Figure-3 ladder sweep shared by figure3/table3/table4 benches."""
    return perf_sweep(BENCH_SCALE)


@pytest.fixture(scope="session")
def table7_data():
    return table7(BENCH_SCALE)
