"""Monitor fast-path bench: the verdict cache must pay for itself."""

import pytest

from repro.bench.experiments import ablation_cache
from benchmarks.conftest import BENCH_SCALE


@pytest.fixture(scope="module")
def cache_rows():
    return ablation_cache(BENCH_SCALE)


def test_cache_on_no_worse_than_cache_off(cache_rows):
    """Steady-state overhead with the cache on must not exceed cache off."""
    for app, row in cache_rows.items():
        assert row["cache_on_overhead_pct"] <= row["cache_off_overhead_pct"], (
            app,
            row,
        )


def test_nginx_cache_wins_measurably(cache_rows):
    """The acceptance bar: a visible drop on the syscall-heavy server."""
    row = cache_rows["nginx"]
    assert row["cache_on_overhead_pct"] < row["cache_off_overhead_pct"]
    assert row["hit_rate"] > 0.3, row


def test_steady_state_hit_rates(cache_rows):
    """Repeated request loops hit warm entries; the cache actually engages."""
    for app, row in cache_rows.items():
        assert row["cache_hits"] > 0, (app, row)
        assert 0.0 < row["hit_rate"] <= 1.0, (app, row)


def test_seccomp_action_cache_engages(cache_rows):
    """Always-ALLOW syscalls skip the BPF engine on every config."""
    for app, row in cache_rows.items():
        assert row["seccomp_cache_hits"] > 0, (app, row)
