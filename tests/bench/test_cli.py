"""Tests for the two CLIs: repro.bench and repro.compiler."""

import json

import pytest

from repro import protect
from repro.apps import SYNTHETIC_APPS
from repro.apps.vsftpd import build_vsftpd
from repro.bench.__main__ import main as bench_main
from repro.compiler.__main__ import load_target, main as compiler_main, render_stats


class TestBenchCli:
    def test_table5(self, capsys):
        assert bench_main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "nginx" in out

    def test_table6(self, capsys):
        assert bench_main(["table6"]) == 0
        out = capsys.readouterr().out
        assert "17/17 rows match" in out

    def test_adaptive(self, capsys):
        assert bench_main(["adaptive"]) == 0
        out = capsys.readouterr().out
        assert "oracle_forger" in out

    def test_scaled_experiment(self, capsys):
        assert bench_main(["figure3", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "CET+CT+CF+AI" in out

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            bench_main(["not_a_table"])


class TestCompilerCli:
    def test_builtin_app_stats(self, capsys):
        assert compiler_main(["vsftpd", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "BASTION compile of vsftpd" in out
        assert "sensitive syscall callsites" in out

    def test_metadata_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "meta.json"
        assert compiler_main(["vsftpd", "--metadata", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["program"] == "vsftpd"
        assert payload["call_types"]

    def test_dump_ir(self, capsys):
        assert compiler_main(["browser", "--dump-ir"]) == 0
        out = capsys.readouterr().out
        assert "module browser" in out
        assert "@ctx_bind" in out  # instrumentation is visible

    def test_every_registered_app_loads(self):
        for name in SYNTHETIC_APPS:
            assert load_target(name).name == name

    def test_ir_file_target(self, tmp_path):
        from repro.ir.printer import format_module

        path = tmp_path / "prog.ir"
        path.write_text(format_module(build_vsftpd()))
        module = load_target(str(path))
        assert module.name == "vsftpd"

    def test_render_stats(self):
        artifact = protect(build_vsftpd())
        text = render_stats(artifact.metadata)
        assert "total instrumentation sites" in text

    def test_extend_fs_flag(self, capsys):
        assert compiler_main(["vsftpd", "--extend-fs", "--stats"]) == 0
        out = capsys.readouterr().out
        # sendfile becomes a protected syscall under the extension
        assert "sendfile" in out


class TestAnalysisExperiment:
    def test_analysis_text(self, capsys):
        assert bench_main(["analysis"]) == 0
        out = capsys.readouterr().out
        assert "syscall-flow precision" in out

    def test_analysis_json(self, capsys):
        assert bench_main(["analysis", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"nginx", "sqlite", "vsftpd"}
        assert payload["nginx"]["clean"] is True

    def test_json_rejected_for_other_experiments(self):
        with pytest.raises(SystemExit):
            bench_main(["table5", "--json"])


class TestStagesExperiment:
    def test_stages_text(self, capsys):
        assert bench_main(["stages", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "trace_stop (monitor)" in out
        assert "stack unwind" in out

    def test_stages_json_byte_stable(self, capsys):
        assert bench_main(["stages", "--scale", "0.1", "--json"]) == 0
        first = capsys.readouterr().out
        assert bench_main(["stages", "--scale", "0.1", "--json"]) == 0
        assert capsys.readouterr().out == first  # identical bytes, rerun
        payload = json.loads(first)
        bastion = payload["cet_ct_cf_ai"]["stage_cycles"]
        assert bastion["trace_stop"] > payload["vanilla"]["stage_cycles"].get(
            "trace_stop", 0
        )
        assert "verify.arg_integrity" in bastion
