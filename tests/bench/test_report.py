"""Tests for the report renderers (every experiment prints cleanly)."""


from repro.bench.report import (
    render_ablation_cache,
    render_ablation_dfi,
    render_adaptive,
    render_figure3,
    render_security_baselines,
    render_stages,
    render_table3,
    render_table4,
    render_table5,
    render_table6,
    render_table7,
    RENDERERS,
)

SCALE = 0.1


def test_render_figure3():
    text = render_figure3(SCALE)
    assert "Figure 3" in text
    assert "CET+CT+CF+AI" in text
    assert "LLVM CFI" in text


def test_render_table3():
    text = render_table3(SCALE)
    assert "NGINX (MB/s)" in text
    assert "Unprotected" in text


def test_render_table4():
    text = render_table4(SCALE)
    assert "accept4" in text
    assert "monitor hooks" in text
    assert "Call-depth" in text


def test_render_table5():
    text = render_table5()
    assert "ctx_write_mem()" in text
    assert "# sensitive system calls called indirectly" in text


def test_render_table6():
    text = render_table6()
    assert "17/17 rows match" in text
    assert "control_jujutsu" in text


def test_render_table7():
    text = render_table7(SCALE)
    assert "seccomp hook only" in text
    assert "in-kernel monitor" in text


def test_render_security_baselines():
    text = render_security_baselines()
    assert "BYPASSED" in text
    assert "blocked" in text


def test_render_ablation_cache():
    text = render_ablation_cache(SCALE)
    assert "verdict cache" in text
    assert "cache on" in text
    assert "hit rate" in text


def test_render_ablation_dfi():
    text = render_ablation_dfi(SCALE)
    assert "DFI" in text
    assert "BASTION (full)" in text


def test_render_adaptive():
    text = render_adaptive()
    assert "oracle_forger" in text
    assert "REACHED" in text  # the §11.1 theoretical bypass is visible


def test_render_stages():
    text = render_stages(SCALE)
    assert "trace_stop (monitor)" in text
    assert "arg-integrity" in text  # the verify.* drill-down is visible
    assert "pipeline total" in text
    assert "cet_ct_cf_ai" in text


def test_all_renderers_registered():
    assert set(RENDERERS) == {
        "figure3",
        "table3",
        "table4",
        "table5",
        "table6",
        "table7",
        "security_baselines",
        "ablation_cache",
        "ablation_dfi",
        "adaptive",
        "scheduler",
        "stages",
    }


def test_render_scheduler():
    from repro.bench.report import render_scheduler

    text = render_scheduler(0.1)
    assert "multi-worker NGINX" in text
    assert "p99 (ms)" in text
    assert "CET+CT+CF+AI" in text
    assert "full BASTION" in text


def test_render_analysis_columns(capsys):
    """The binary-precision table lives in ``python -m repro.analyze
    binary``; ``repro.bench`` keeps only the paper's experiments."""
    from repro.analyze.__main__ import main as analyze_main
    from repro.analyze.binary import binary_report

    assert not {"analysis", "binary", "fuzz"} & set(RENDERERS)
    assert analyze_main(["binary", "nginx"]) == 0
    out = capsys.readouterr().out
    metrics = binary_report("nginx")[1]
    funcs, syscalls = metrics["functions"], metrics["syscalls"]
    types = metrics["call_types"]
    assert "%d recovered (%d reachable," % (
        funcs["recovered"], funcs["reachable"]) in out
    assert "syscalls: %d present, %d reachable (%d tightened away)" % (
        syscalls["present"],
        len(syscalls["reachable"]),
        len(syscalls["tightened"]),
    ) in out
    assert "call types: %d recovered" % len(types["recovered"]) in out
    assert "%d kinds tightened" % sum(
        len(kinds) for kinds in types["tightened"].values()) in out
    assert "/ %d chains (binary)" % metrics["flow"]["binary"]["chains"] in out
    # the nginx row the removed bench table printed
    assert "89 recovered (47 reachable," in out
    assert "55 present, 20 reachable (35 tightened away)" in out
    assert "20 recovered, 22 in metadata, 2 kinds tightened" in out
    assert "12 sensitive sites / 17 chains (binary)" in out


def test_analysis_json_shape():
    """The invariants of the removed ``bench analysis --json`` payload,
    checked on the analyzer's own per-app report."""
    from repro.analyze import analyze_app

    for app in ("nginx", "sqlite", "vsftpd"):
        row = analyze_app(app).to_dict()
        assert row["ok"] is True
        assert set(row["counts_by_pass"]) == {
            "completeness",
            "call-type",
            "flow",
            "consistency",
        }
        flow = row["metrics"]["flow"]
        assert flow["sensitive_sites"] > 0
        assert flow["attack_surface"] >= flow["chains"]
        assert flow["per_syscall"]
