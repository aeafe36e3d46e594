"""CLI (`python -m repro.analyze`) and tier-1 gate tests."""

import json

import pytest

from repro.analyze.__main__ import main


def test_all_apps_strict_exit_zero(capsys):
    """The tier-1 gate: every shipped app lints clean (waivers applied)."""
    assert main(["--all", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "verdict: clean" in out
    assert "FAIL" not in out


def test_single_app_text(capsys):
    assert main(["nginx"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("repro.analyze: ")
    assert "precision:" in out


def test_single_app_json(capsys):
    assert main(["nginx", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (program,) = payload.keys()
    report = payload[program]
    assert report["ok"] is True
    assert set(report["counts_by_pass"]) == {
        "completeness",
        "call-type",
        "flow",
        "consistency",
    }
    assert report["metrics"]["flow"]["sensitive_sites"] > 0


def test_multiple_apps(capsys):
    assert main(["nginx", "vsftpd"]) == 0
    out = capsys.readouterr().out
    assert out.count("repro.analyze: ") == 2


def test_no_waivers_surfaces_system_findings(capsys):
    # libc's system() warnings are waived by default; --no-waivers shows them
    assert main(["libc", "--no-waivers"]) == 0  # warnings: ok, not clean
    out = capsys.readouterr().out
    assert "unreachable-site" in out
    assert main(["libc", "--no-waivers", "--strict"]) == 1


def test_strict_honors_waivers(capsys):
    assert main(["libc", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "waived:" in out


def test_unknown_app_is_an_error():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-app"])
    assert exc.value.code == 2


def test_no_app_is_an_error():
    with pytest.raises(SystemExit):
        main([])


def test_api_analyze_matches_cli_verdict():
    from repro import api

    report = api.analyze("nginx")
    assert report.clean
    with pytest.raises(api.AnalysisFailure):
        api.analyze("nginx", waivers=(), strict=True)


def test_api_analyze_accepts_artifact_and_module():
    from repro import api
    from repro.apps import build_app_module
    from repro.compiler.pipeline import BastionCompiler

    module = build_app_module("vsftpd")
    report = api.analyze(module)
    assert report.metrics["flow"]["sensitive_sites"] > 0

    artifact = BastionCompiler().compile(build_app_module("vsftpd"))
    report2 = api.analyze(artifact)
    assert report2.metrics == report.metrics
