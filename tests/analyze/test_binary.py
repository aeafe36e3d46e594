"""Binary-level analyzer: recovery equivalence, soundness, stability."""

import json
import os

import pytest

from repro.analyze.binary import (
    audit_binary,
    binary_report,
    check_precision_regressions,
    precision_payload_json,
    recover_image_for,
    recovered_flow_metrics,
)
from repro.analyze.calltypes import recompute_call_types
from repro.analyze.waivers import SHIPPED_WAIVERS, apply_waivers
from repro.apps import SYNTHETIC_APPS, build_app_module
from repro.compiler.pipeline import BastionCompiler
from repro.ir.callgraph import build_callgraph

APPS = sorted(SYNTHETIC_APPS)

_artifacts = {}


def _artifact(app):
    if app not in _artifacts:
        _artifacts[app] = BastionCompiler().compile(build_app_module(app))
    return _artifacts[app]


class TestRecoveryEquivalence:
    """Presence-based recovery must equal the IR re-derivation exactly —
    the binary analyzer's self-check against compiler-visible truth."""

    @pytest.mark.parametrize("app", APPS)
    def test_present_call_types_match_ir(self, app):
        artifact = _artifact(app)
        recovery = recover_image_for(artifact.module)
        assert recovery.present_call_types == recompute_call_types(
            artifact.module
        )

    @pytest.mark.parametrize("app", APPS)
    def test_present_syscalls_match_used(self, app):
        artifact = _artifact(app)
        recovery = recover_image_for(artifact.module)
        assert recovery.present_syscalls == set(
            build_callgraph(artifact.module).syscall_sites
        )

    @pytest.mark.parametrize("app", APPS)
    def test_full_function_partition(self, app):
        """Every symbol boundary is rediscovered from padding + targets."""
        artifact = _artifact(app)
        recovery = recover_image_for(artifact.module)
        assert set(recovery.functions) == set(
            recovery.image.func_base.values()
        )

    @pytest.mark.parametrize("app", APPS)
    def test_wrapper_partition_matches_ir(self, app):
        artifact = _artifact(app)
        recovery = recover_image_for(artifact.module)
        func_base = recovery.image.func_base
        ir_wrappers = {
            func_base[f.name]
            for f in artifact.module.functions.values()
            if f.is_wrapper
        }
        assert set(recovery.wrappers) == ir_wrappers


class TestReachabilityTightening:
    """The enforced tables are sound subsets of the presence tables."""

    @pytest.mark.parametrize("app", APPS)
    def test_reachable_subset_of_present(self, app):
        recovery = recover_image_for(_artifact(app).module)
        assert recovery.reachable_syscalls <= recovery.present_syscalls
        for syscall, kinds in recovery.call_types.items():
            present = recovery.present_call_types[syscall]
            for kind, flag in kinds.items():
                assert not flag or present[kind]

    @pytest.mark.parametrize("app", APPS)
    def test_dead_system_surface_dropped(self, app):
        """system()'s fork/wait4 justify call types only from dead code;
        the recovered (enforced) table must not carry them."""
        recovery = recover_image_for(_artifact(app).module)
        for syscall in ("fork", "wait4"):
            assert recovery.present_call_types[syscall]["direct"]
            entry = recovery.call_types.get(syscall)
            assert entry is None or not entry["direct"]

    @pytest.mark.parametrize("app", APPS)
    def test_audit_findings_all_waived_on_shipped_apps(self, app):
        """Shipped apps only trip the intentionally-dead system() surface,
        which the shipped waiver table documents."""
        diagnostics, _metrics = audit_binary(_artifact(app))
        assert all(d.code == "unreachable-call-type" for d in diagnostics)
        assert all(d.func == "system" for d in diagnostics)
        kept, waived = apply_waivers(app, diagnostics, SHIPPED_WAIVERS)
        assert kept == []
        assert len(waived) == len(diagnostics)


def _flow_metrics(app, producer):
    """Flow metrics over one producer's program graph of ``app``."""
    from repro.analyze.flowgraph import analyze_flow

    artifact = _artifact(app)
    if producer == "flowgraph":
        return analyze_flow(artifact)[1]
    return recovered_flow_metrics(recover_image_for(artifact.module))


FLOW_CASES = [pytest.param(app, "binary", id=app) for app in APPS] + [
    pytest.param(app, "flowgraph", id="%s-flowgraph" % app) for app in APPS
]


class TestRecoveredFlow:
    @pytest.mark.parametrize("app, producer", FLOW_CASES)
    def test_flow_metrics_shape(self, app, producer):
        metrics = _flow_metrics(app, producer)
        assert set(metrics) == {
            "sensitive_sites",
            "chains",
            "attack_surface",
            "per_syscall",
        }
        for row in metrics["per_syscall"].values():
            assert row["sites"] >= 1
            assert row["surface"] == min(1_000_000, row["chains"] * row["args"])

    def test_binary_flow_no_looser_than_metadata(self):
        """Reachability can only remove sensitive sites, never add them."""
        from repro.analyze.flowgraph import analyze_flow

        artifact = _artifact("nginx")
        recovery = recover_image_for(artifact.module)
        binary = recovered_flow_metrics(recovery)
        _diags, metadata = analyze_flow(artifact)
        assert binary["sensitive_sites"] <= metadata["sensitive_sites"]


class TestPrecisionPayload:
    def test_byte_stable(self):
        one = precision_payload_json({a: binary_report(a)[1] for a in APPS})
        two = precision_payload_json({a: binary_report(a)[1] for a in APPS})
        assert one == two

    def test_matches_pinned_baseline(self):
        """The committed precision baseline is exactly reproducible.
        Regenerate with:
        ``python -m repro.analyze binary --all --write tests/fixtures/binary_precision.json``
        """
        path = os.path.join(
            os.path.dirname(__file__), "..", "fixtures", "binary_precision.json"
        )
        with open(path) as fh:
            pinned = fh.read()
        current = (
            precision_payload_json({a: binary_report(a)[1] for a in APPS})
            + "\n"
        )
        assert current == pinned

    def test_regression_check_self_clean(self):
        payload = {a: binary_report(a)[1] for a in APPS}
        baseline = json.loads(precision_payload_json(payload))
        assert check_precision_regressions(baseline, payload) == []

    def test_regression_check_catches_admitted_syscall(self):
        payload = {a: binary_report(a)[1] for a in ("nginx",)}
        baseline = json.loads(precision_payload_json(payload))
        baseline["nginx"]["syscalls"]["reachable"] = [
            s
            for s in baseline["nginx"]["syscalls"]["reachable"]
            if s != "mprotect"
        ]
        found = check_precision_regressions(baseline, payload)
        assert any("admits mprotect" in line for line in found)

    def test_regression_check_catches_lost_call_type(self):
        payload = {a: binary_report(a)[1] for a in ("nginx",)}
        baseline = json.loads(precision_payload_json(payload))
        baseline["nginx"]["call_types"]["recovered"]["chdir"] = ["direct"]
        found = check_precision_regressions(baseline, payload)
        assert any("chdir/direct lost" in line for line in found)


class TestBinaryCLI:
    def test_json_run_exits_clean(self, capsys):
        from repro.analyze.__main__ import main

        assert main(["binary", "nginx", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nginx"]["program"] == "nginx"
        assert payload["nginx"]["syscalls"]["reachable"]

    def test_text_run_mentions_waivers(self, capsys):
        from repro.analyze.__main__ import main

        assert main(["binary", "nginx"]) == 0
        out = capsys.readouterr().out
        assert "binary-level analysis" in out
        assert "[waived] unreachable-call-type" in out

    def test_no_waivers_fails(self, capsys):
        from repro.analyze.__main__ import main

        assert main(["binary", "nginx", "--no-waivers"]) == 1

    def test_check_against_fresh_write(self, tmp_path, capsys):
        from repro.analyze.__main__ import main

        baseline = tmp_path / "baseline.json"
        assert main(["binary", "nginx", "--json", "--write", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["binary", "nginx", "--json", "--check", str(baseline)]) == 0

    def test_unknown_app_rejected(self):
        from repro.analyze.__main__ import main

        with pytest.raises(SystemExit):
            main(["binary", "not-an-app"])
