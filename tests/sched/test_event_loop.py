"""End-to-end: one epoll-driven NGINX worker multiplexing concurrent load.

The event-loop worker owns every connection in a single task —
nonblocking accept bursts, level-triggered ``epoll_wait``, pipelined
reads to EAGAIN — so these tests pin the properties the C10k benches
rely on: all requests served from one task, harvest batching (far fewer
``epoll_wait`` calls than requests), monitor verdicts independent of
the scheduler quantum, and the C10k claims of ``docs/c10k.md`` at test
size.
"""

import pytest

from repro.apps.nginx import NginxConfig
from repro.apps.workloads import ConcurrentWrkWorkload
from repro.bench.harness import run_app
from repro.sched import DEFAULT_QUANTUM
from tests.conftest import measured_fingerprint

CONNECTIONS = 6
REQUESTS_PER_CONNECTION = 4
REQUESTS = CONNECTIONS * REQUESTS_PER_CONNECTION

#: every completed syscall is counted/filtered/trace-stopped exactly once,
#: so a run preempted every cycle must reach the same verdicts as a
#: cooperative one
QUANTA = (1, 10**6)


def _workload():
    return ConcurrentWrkWorkload(
        connections=CONNECTIONS,
        requests_per_connection=REQUESTS_PER_CONNECTION,
        max_inflight=3,
    )


def _event_pool(workers=1):
    return NginxConfig(workers=workers, master_serves=False, event_loop=True)


def _run(config, quantum=DEFAULT_QUANTUM):
    return run_app(
        "nginx",
        config=config,
        app_config=_event_pool(),
        workload=_workload(),
        quantum=quantum,
    )


def _verdict_fingerprint(result):
    """Everything the monitor decided, nothing the scheduler charged."""
    return (
        result.work_units,
        dict(result.syscall_counts),
        dict(result.hook_counts),
        [str(v) for v in result.violations],
        dict(result.statuses),
    )


class TestEventLoopNginx:
    def test_single_task_serves_all_requests(self):
        result = _run("vanilla")
        assert result.ok
        assert result.work_units == REQUESTS
        assert result.sched_stats["spawned"] == 1
        assert len(result.statuses) == 2  # master + one event worker
        assert all(kind == "returned" for kind in result.statuses.values())
        assert result.throughput_mbps() > 0

    def test_event_loop_uses_epoll_not_blocking_accept(self):
        counts = _run("vanilla").syscall_counts
        assert counts["epoll_create1"] == 1
        assert counts["epoll_ctl"] >= CONNECTIONS  # ADD per conn + listener
        assert counts["fcntl"] == 1  # listener made nonblocking
        # harvest batching: many requests per wakeup, not one wait each
        assert counts["epoll_wait"] < REQUESTS

    def test_protected_event_loop_serves_cleanly(self):
        result = _run("cet_ct_cf_ai")
        assert result.ok
        assert result.violations == []
        assert result.work_units == REQUESTS
        assert result.latency["count"] == REQUESTS
        assert 0 < result.latency["p50"] <= result.latency["p99"]

    def test_protection_costs_cycles_not_requests(self):
        vanilla = _run("vanilla")
        bastion = _run("cet_ct_cf_ai")
        assert vanilla.work_units == bastion.work_units
        assert bastion.total_cycles > vanilla.total_cycles


class TestQuantumIndependence:
    def test_event_loop_verdicts_quantum_independent(self):
        fingerprints = {
            quantum: _verdict_fingerprint(_run("cet_ct_cf_ai", quantum=quantum))
            for quantum in QUANTA
        }
        assert fingerprints[QUANTA[0]] == fingerprints[QUANTA[1]]

    def test_vanilla_service_quantum_independent(self):
        fingerprints = {
            quantum: _verdict_fingerprint(_run("vanilla", quantum=quantum))
            for quantum in QUANTA
        }
        assert fingerprints[QUANTA[0]] == fingerprints[QUANTA[1]]


#: the C10k workload at test size: the in-flight cap equals the
#: connection count, 25% more connections churn through it (accept
#: bursts and teardown under pressure), each pipelining two requests
C10K_REQUESTS_PER_CONNECTION = 2


def _c10k_run(connections, config):
    workload = ConcurrentWrkWorkload(
        connections=connections + connections // 4,
        requests_per_connection=C10K_REQUESTS_PER_CONNECTION,
        max_inflight=connections,
    )
    result = run_app(
        "nginx",
        config=config,
        app_config=_event_pool(),
        workload=workload,
        quantum=DEFAULT_QUANTUM,
    )
    return result, workload


@pytest.fixture(scope="module")
def c10k():
    """``c10k(connections, config)``: one shared run per cell."""
    runs = {}

    def run(connections, config="cet_ct_cf_ai"):
        if (connections, config) not in runs:
            runs[connections, config] = _c10k_run(connections, config)
        return runs[connections, config]

    return run


class TestC10kShape:
    """The C10k claims (docs/c10k.md), under full BASTION."""

    @pytest.mark.parametrize("connections", (16, 64))
    def test_one_worker_holds_the_cap_in_flight(self, c10k, connections):
        result, workload = c10k(connections)
        assert result.ok
        assert result.violations == []
        assert workload.peak_inflight == connections
        churned = connections + connections // 4
        assert result.work_units == churned * C10K_REQUESTS_PER_CONNECTION
        latency = result.latency
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]

    def test_cycles_per_request_flat_under_load(self, c10k):
        small, _ = c10k(16)
        large, _ = c10k(64)
        small_cpr = small.steady_cycles / small.work_units
        large_cpr = large.steady_cycles / large.work_units
        assert large_cpr <= 2 * small_cpr

    def test_verdict_cache_pays_for_itself_under_pressure(self, c10k):
        cache_on, _ = c10k(64, "cache_on")
        cache_off, _ = c10k(64, "cache_off")
        assert cache_on.work_units == cache_off.work_units
        assert cache_on.steady_cycles < cache_off.steady_cycles

    def test_repeated_run_is_identical(self, c10k):
        first, _ = c10k(16)
        again, _ = _c10k_run(16, "cet_ct_cf_ai")
        assert measured_fingerprint(again) == measured_fingerprint(first)
