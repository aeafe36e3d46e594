"""Tests for the benchmark harness and experiment generators."""


from repro.bench.harness import (
    CONFIGS,
    DefenseConfig,
    FIGURE3_LADDER,
    build_app,
    run_app,
)
from repro.bench.experiments import table5
from repro.monitor.policy import ContextPolicy


class TestConfigs:
    def test_ladder_configs_exist(self):
        for name in FIGURE3_LADDER:
            assert name in CONFIGS

    def test_table7_configs_exist(self):
        for name in ("fs_hook_only", "fs_fetch_state", "fs_full"):
            assert name in CONFIGS
            assert CONFIGS[name].extend_filesystem

    def test_cpu_options(self):
        assert CONFIGS["cet"].cpu_options().cet
        assert CONFIGS["llvm_cfi"].cpu_options().llvm_cfi
        assert CONFIGS["dfi"].cpu_options().dfi

    def test_modes(self):
        assert CONFIGS["fs_hook_only"].policy.mode == "hook_only"
        assert CONFIGS["fs_fetch_state"].policy.mode == "fetch_state"
        assert CONFIGS["bastion_inkernel"].policy.transport == "inkernel"


class TestRunApp:
    def test_module_cache(self):
        assert build_app("nginx") is build_app("nginx")

    def test_result_fields(self):
        result = run_app("nginx", "vanilla", scale=0.05)
        assert result.ok
        assert result.total_cycles > 0
        assert result.work_units > 0
        assert result.bytes_sent > 0
        assert "accept4" in result.syscall_counts
        assert result.hook_total == 0  # no monitor in vanilla
        assert "returned" in result.summary() or "nginx" in result.summary()

    def test_protected_run_has_monitor_stats(self):
        result = run_app("nginx", "cet_ct_cf_ai", scale=0.05)
        assert result.ok
        assert result.hook_total > 0
        assert result.metadata_stats["sensitive_callsites"] > 0
        assert result.avg_unwind_depth > 1
        assert not result.violations

    def test_overhead_computation(self):
        base = run_app("nginx", "vanilla", scale=0.05)
        protected = run_app("nginx", "cet_ct_cf_ai", scale=0.05)
        assert protected.overhead_pct(base) > 0

    def test_custom_defense_config(self):
        config = DefenseConfig("custom", cet=True, policy=ContextPolicy.ct_only())
        result = run_app("vsftpd", config, scale=0.2)
        assert result.ok
        assert result.config == "custom"

    def test_all_apps_protected_clean(self):
        for app in ("nginx", "sqlite", "vsftpd"):
            result = run_app(app, "cet_ct_cf_ai", scale=0.05)
            assert result.ok, (app, result.status)
            assert not result.violations, (app, result.violations[:1])

    def test_fs_extension_clean(self):
        for app in ("nginx", "sqlite", "vsftpd"):
            result = run_app(app, "fs_full", scale=0.05)
            assert result.ok, (app, result.status)
            assert not result.violations, (app, result.violations[:1])


class TestTable5Static:
    def test_zero_indirect_sensitive_everywhere(self):
        """The paper's key Table 5 finding holds for all three apps."""
        stats = table5()
        for app, row in stats.items():
            assert row["sensitive_indirect_syscalls"] == 0, app

    def test_instrumentation_footprint_small(self):
        """Instrumentation sites are a small fraction of the program."""
        stats = table5()
        for app, row in stats.items():
            module = build_app(app)
            assert row["total_instrumentation"] < module.instruction_count() / 4

    def test_sensitive_callsites_much_smaller_than_total(self):
        stats = table5()
        for app, row in stats.items():
            assert row["sensitive_callsites"] < row["total_callsites"] / 2
