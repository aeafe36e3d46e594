"""End-to-end: NGINX master + clone()d worker pool under concurrent wrk."""

import pytest

from repro.apps.nginx import NginxConfig
from repro.apps.workloads import ConcurrentWrkWorkload
from repro.bench.harness import run_app
from repro.errors import KernelError
from repro.sched import DEFAULT_QUANTUM
from tests.conftest import measured_fingerprint

REQUESTS = 6 * 4  # connections * requests_per_connection


def _workload():
    return ConcurrentWrkWorkload(
        connections=6, requests_per_connection=4, max_inflight=3
    )


def _pool(workers):
    return NginxConfig(workers=workers, master_serves=False)


class TestMultiWorkerNginx:
    def test_four_workers_serve_all_requests(self):
        result = run_app(
            "nginx",
            config="cet_ct_cf_ai",
            app_config=_pool(4),
            workload=_workload(),
            quantum=DEFAULT_QUANTUM,
        )
        assert result.ok
        assert result.violations == []
        assert result.work_units == REQUESTS
        assert result.sched_stats["spawned"] == 4
        assert len(result.statuses) == 5  # master + 4 workers
        assert all(kind == "returned" for kind in result.statuses.values())
        assert result.throughput_mbps() > 0

    def test_latency_percentiles_populated(self):
        result = run_app(
            "nginx",
            config="vanilla",
            app_config=_pool(2),
            workload=_workload(),
            quantum=DEFAULT_QUANTUM,
        )
        latency = result.latency
        assert latency["count"] == REQUESTS
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        assert latency["p99"] <= latency["max"]
        assert result.latency_ms("p99") > 0

    def test_protection_costs_cycles_not_requests(self):
        vanilla = run_app(
            "nginx",
            config="vanilla",
            app_config=_pool(2),
            workload=_workload(),
            quantum=DEFAULT_QUANTUM,
        )
        bastion = run_app(
            "nginx",
            config="cet_ct_cf_ai",
            app_config=_pool(2),
            workload=_workload(),
            quantum=DEFAULT_QUANTUM,
        )
        assert vanilla.work_units == bastion.work_units
        assert bastion.total_cycles > vanilla.total_cycles

    def test_repeated_run_is_identical(self):
        """Scheduled runs repeat exactly: cycles, latency and syscalls."""

        def fingerprint():
            return measured_fingerprint(
                run_app(
                    "nginx",
                    config="cet_ct_cf_ai",
                    app_config=_pool(2),
                    workload=_workload(),
                    quantum=DEFAULT_QUANTUM,
                )
            )

        assert fingerprint() == fingerprint()

    def test_single_worker_pool_matches_request_count(self):
        result = run_app(
            "nginx",
            config="vanilla",
            app_config=_pool(1),
            workload=_workload(),
            quantum=DEFAULT_QUANTUM,
        )
        assert result.ok
        assert result.work_units == REQUESTS
        assert result.sched_stats["spawned"] == 1

    def test_api_run_scheduled(self):
        from repro.api import run

        result = run(
            "nginx",
            "cet_ct_cf_ai",
            workload=_workload(),
            app_config=_pool(2),
            scheduled=True,
        )
        assert result.ok
        assert result.latency["count"] == REQUESTS
        assert result.overhead_pct is None  # no baseline under a scheduler
        assert result.latency_ms("p50") > 0
        # a quantum is a cycle count: 0 is rejected, not read as the default
        with pytest.raises(KernelError, match="quantum"):
            run("nginx", "vanilla", workload=_workload(), app_config=_pool(2), quantum=0)

    def test_paper_faithful_single_process_unchanged(self):
        """The default config still serves from the master with no clones
        (the seed's paper-faithful path)."""
        from repro.bench.harness import run_app

        result = run_app("nginx", "vanilla", scale=0.1)
        assert result.ok
        assert result.work_units > 0
