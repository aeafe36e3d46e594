"""Table 5: instrumentation statistics (static compile-time numbers).

Paper shape: sensitive callsites are a tiny fraction of all callsites
(26 / 7,017 for NGINX); no sensitive syscall is ever legitimately called
through a function pointer; ``ctx_write_mem`` dominates the
instrumentation mix.
"""

import pytest

from repro.bench.experiments import table5


@pytest.fixture(scope="module")
def stats():
    return table5()


def test_sensitive_fraction_tiny(stats):
    for app, row in stats.items():
        fraction = row["sensitive_callsites"] / row["total_callsites"]
        assert fraction < 0.35, (app, fraction)


def test_no_sensitive_syscall_called_indirectly(stats):
    """The paper's 'key finding' row is all zeroes."""
    for app, row in stats.items():
        assert row["sensitive_indirect_syscalls"] == 0, app


def test_direct_vs_indirect_split(stats):
    for app, row in stats.items():
        assert (
            row["direct_callsites"] + row["indirect_callsites"]
            == row["total_callsites"]
        )
        assert row["direct_callsites"] > row["indirect_callsites"]


def test_write_mem_dominates_instrumentation(stats):
    """Paper: NGINX has 5,226 ctx_write_mem vs 61 binds."""
    row = stats["nginx"]
    assert row["ctx_write_mem"] >= row["ctx_bind_mem"]


def test_instrumentation_counts_consistent(stats):
    for app, row in stats.items():
        assert row["total_instrumentation"] == (
            row["ctx_write_mem"] + row["ctx_bind_mem"] + row["ctx_bind_const"]
        )
