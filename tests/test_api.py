"""Tests for the stable public API surface (repro.api)."""

import pathlib
import re

import pytest

import repro
from repro import api
from repro.api import ProtectConfig, RunResult, protect, run
from repro.apps.nginx import build_nginx
from repro.bench.harness import CONFIGS
from repro.apps.workloads import WrkWorkload
from repro.errors import ProcessKilled
from repro.monitor.monitor import SyscallIntegrityViolation
from repro.monitor.policy import ContextPolicy
from repro.monitor.verify import Violation

SCALE = 0.05


class TestExports:
    def test_top_level_exports(self):
        assert repro.ProtectConfig is ProtectConfig
        assert repro.run is run
        assert repro.protect is protect
        assert repro.RunResult is RunResult
        assert repro.SyscallIntegrityViolation is SyscallIntegrityViolation

    def test_package_version_matches_pyproject(self):
        # a regex, not tomllib: Python 3.10 has no TOML parser
        pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        match = re.search(
            r'^version = "([^"]+)"$', pyproject.read_text(), re.MULTILINE
        )
        assert match is not None
        assert match.group(1) == repro.__version__


class TestProtectConfig:
    def test_defaults_are_full_bastion(self):
        config = ProtectConfig()
        assert config.policy == ContextPolicy.full()
        assert config.policy.verdict_cache
        assert config.cet
        assert not config.extend_filesystem

    def test_defense_mapping(self):
        config = ProtectConfig(
            policy=ContextPolicy.ct_cf(), extend_filesystem=True, label="mine"
        )
        defense = config.defense()
        assert defense.name == "mine"
        assert defense.policy == ContextPolicy.ct_cf()
        assert defense.extend_filesystem


class TestFluentPolicy:
    def test_without_arg_integrity(self):
        policy = ContextPolicy.full().without("arg_integrity")
        assert not policy.arg_integrity
        assert policy.call_type and policy.control_flow

    def test_without_aliases_and_chaining(self):
        policy = ContextPolicy.full().without("ct", "cf")
        assert policy == ContextPolicy.ai_only()
        assert ContextPolicy.full().without("cache").verdict_cache is False

    def test_with_contexts_is_the_dual(self):
        policy = ContextPolicy.ai_only().with_contexts("cf")
        assert policy.control_flow and policy.arg_integrity

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError, match="unknown policy feature"):
            ContextPolicy.full().without("dfi")


class TestProtect:
    def test_protect_bare(self):
        artifact = protect(build_nginx())
        assert artifact.metadata.sensitive_set

    def test_protect_with_config(self):
        config = ProtectConfig(sensitive=("mprotect", "execve"))
        artifact = protect(build_nginx(), config)
        assert set(artifact.metadata.sensitive_set) == {"mprotect", "execve"}

    def test_protect_rejects_mixed_config_and_kwargs(self):
        with pytest.raises(ValueError):
            protect(build_nginx(), ProtectConfig(), extend_filesystem=True)


class TestRun:
    def test_run_default_is_full_bastion_with_cache(self):
        result = run("nginx", scale=SCALE)
        assert isinstance(result, RunResult)
        assert result.ok
        assert result.config == "bastion"
        assert result.violations == []
        assert result.overhead_pct is not None
        assert result.monitor_stats["cache_hits"] + result.monitor_stats[
            "cache_misses"
        ] == result.monitor_stats["hooks"]
        assert 0.0 <= result.monitor_stats["hit_rate"] <= 1.0
        assert result.work_units > 0
        assert result.total_cycles == result.init_cycles + result.steady_cycles

    def test_run_accepts_config_names_and_defense(self):
        by_name = run("nginx", "cet", scale=SCALE)
        assert by_name.config == "cet"
        by_obj = run("nginx", CONFIGS["cet"], scale=SCALE)
        assert by_obj.config == "cet"

    def test_baseline_memoized(self):
        api._baseline_cache.clear()
        run("nginx", scale=SCALE)
        assert len(api._baseline_cache) == 1
        run("nginx", "cet", scale=SCALE)
        assert len(api._baseline_cache) == 1  # reused

    def test_custom_workload_skips_baseline(self):
        workload = WrkWorkload(connections=2, requests_per_connection=2)
        result = run("nginx", workload=workload)
        assert result.overhead_pct is None
        assert result.baseline is None
        assert result.work_units == 4

    def test_run_rejects_custom_sensitive(self):
        with pytest.raises(ValueError, match="sensitive"):
            run("nginx", ProtectConfig(sensitive=("read",)), scale=SCALE)

    def test_run_rejects_bad_config_type(self):
        with pytest.raises(TypeError):
            run("nginx", 42)


class TestViolationException:
    def test_is_a_real_exception(self):
        assert issubclass(SyscallIntegrityViolation, Exception)
        assert issubclass(SyscallIntegrityViolation, ProcessKilled)

    def test_carries_the_violation_record(self):
        violation = Violation("arg-integrity", "execve", "path corrupted", 0x40)
        exc = SyscallIntegrityViolation(violation)
        assert exc.violation is violation
        assert exc.context == "arg-integrity"
        assert exc.syscall == "execve"
        assert "path corrupted" in exc.detail
        assert "execve" in str(exc)

    def test_raise_on_violation(self, monkeypatch):
        violation = Violation("control-flow", "mprotect", "bad edge", 0x44)
        real = api.run_app

        def violating(app, **kwargs):
            result = real(app, **kwargs)
            if kwargs.get("config") != "vanilla":
                result.violations = [violation]
            return result

        monkeypatch.setattr(api, "run_app", violating)
        with pytest.raises(SyscallIntegrityViolation) as excinfo:
            run("nginx", scale=SCALE, raise_on_violation=True)
        assert excinfo.value.violation is violation
        # without the flag the violations are just reported
        result = run("nginx", scale=SCALE)
        assert result.violations == [violation]


class TestMechanismSelector:
    """ProtectConfig(mechanism=...) — baselines through the stable API."""

    def test_every_registered_mechanism_runs(self):
        from repro.mechanisms import MECHANISM_NAMES

        for name in MECHANISM_NAMES:
            result = run(
                "nginx",
                ProtectConfig(mechanism=name),
                scale=SCALE,
                compare_baseline=False,
            )
            assert result.ok, name
            assert result.config == name

    @pytest.mark.parametrize(
        "name", ["seccomp_allowlist", "temporal", "debloat", "llvm_cfi", "dfi"]
    )
    def test_selector_matches_configs_path(self, name):
        """The mechanism selector must reproduce the CONFIGS verdicts and
        cycles exactly — it is a spelling, not a different defense."""
        via_api = run(
            "nginx",
            ProtectConfig(mechanism=name),
            scale=SCALE,
            compare_baseline=False,
        )
        via_configs = api.run_app("nginx", config=name, scale=SCALE)
        assert via_api.total_cycles == via_configs.total_cycles
        assert via_api.syscall_counts == via_configs.syscall_counts
        assert via_api.violations == list(via_configs.violations)

    def test_unknown_mechanism_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            ProtectConfig(mechanism="grsecurity")

    def test_non_bastion_mechanism_rejects_policy_customization(self):
        for bad in (
            ProtectConfig(mechanism="temporal", extend_filesystem=True),
            ProtectConfig(mechanism="dfi", sensitive=("read",)),
            ProtectConfig(
                mechanism="debloat", policy=ContextPolicy.full().without("cache")
            ),
        ):
            with pytest.raises(ValueError, match="BASTION"):
                bad.defense()

    def test_label_defaults_to_mechanism_name(self):
        assert ProtectConfig().defense().name == "bastion"
        assert ProtectConfig(mechanism="temporal").defense().name == "temporal"
        assert (
            ProtectConfig(mechanism="temporal", label="mine").defense().name
            == "mine"
        )


class TestRunResultStages:
    def test_stages_is_the_stage_cycles_view(self):
        result = run("nginx", scale=SCALE, compare_baseline=False)
        assert result.stages is result.stage_cycles
        assert result.stages.get("seccomp", 0) > 0
        # the monitor's verify sub-stages ride on the same bus
        assert any(key.startswith("verify") for key in result.stages)
