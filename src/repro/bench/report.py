"""Text rendering of the experiment results, mirroring the paper's tables."""

from repro.bench.experiments import (
    APPS,
    _TABLE5_ROWS,
    SCHEDULER_CONFIGS,
    TABLE7_ROWS,
    ablation_cache,
    ablation_dfi,
    figure3,
    perf_sweep,
    scheduler_sweep,
    security_baseline_comparison,
    stages,
    table4,
    table5,
    table6,
    table7,
)
from repro.bench.harness import FIGURE3_LADDER
from repro.syscalls.sensitive import SENSITIVE_SYSCALLS

_CONFIG_LABELS = {
    "vanilla": "Unprotected",
    "llvm_cfi": "LLVM CFI",
    "cet": "CET",
    "cet_ct": "CET+CT",
    "cet_ct_cf": "CET+CT+CF",
    "cet_ct_cf_ai": "CET+CT+CF+AI",
    "fs_hook_only": "+fs syscalls (seccomp hook only)",
    "fs_fetch_state": "+fs syscalls (fetch process state)",
    "fs_full": "+fs syscalls (full context checking)",
    "fs_full_inkernel": "+fs syscalls (in-kernel monitor, §11.2)",
    "cache_on": "BASTION + verdict cache",
    "cache_off": "BASTION (re-verify every stop)",
    "seccomp_allowlist": "seccomp allowlist",
    "temporal": "temporal filter",
    "debloat": "debloated binary",
    "binary_only": "binary-only (recovered)",
}


def _rule(width=76):
    return "-" * width


def render_figure3(scale=1.0):
    """Figure 3: performance overhead of each configuration (with bars)."""
    data, _sweeps = figure3(scale)
    peak = max(
        data[app][config] for app in APPS for config in FIGURE3_LADDER
    )
    peak = max(peak, 0.01)
    lines = [
        "Figure 3: Performance overhead vs unprotected baseline (%)",
        _rule(),
        "%-16s %10s %10s %10s" % ("config", *APPS),
        _rule(),
    ]
    for config in FIGURE3_LADDER:
        lines.append(
            "%-16s %10.2f %10.2f %10.2f"
            % (
                _CONFIG_LABELS[config],
                data["nginx"][config],
                data["sqlite"][config],
                data["vsftpd"][config],
            )
        )
    lines.append(_rule())
    lines.append("")
    for app in APPS:
        lines.append("%s:" % app)
        for config in FIGURE3_LADDER:
            value = data[app][config]
            bar = "#" * max(int(round(40 * value / peak)), 0)
            lines.append("  %-16s %6.2f%% |%s" % (_CONFIG_LABELS[config], value, bar))
    return "\n".join(lines)


def render_table3(scale=1.0):
    """Table 3: raw benchmark metrics per configuration."""
    sweeps = perf_sweep(scale)
    lines = [
        "Table 3: Raw benchmark numbers (simulated units)",
        _rule(),
        "%-16s %14s %14s %14s"
        % (
            "config",
            "NGINX (MB/s)",
            "SQLite (NOTPM)",
            "vsftpd (sec)",
        ),
        _rule(),
    ]
    lines.append(
        "%-16s %14.2f %14.1f %14.4f"
        % (
            "Unprotected",
            sweeps["nginx"].raw_metric(),
            sweeps["sqlite"].raw_metric(),
            sweeps["vsftpd"].raw_metric(),
        )
    )
    for config in FIGURE3_LADDER:
        lines.append(
            "%-16s %14.2f %14.1f %14.4f"
            % (
                _CONFIG_LABELS[config],
                sweeps["nginx"].raw_metric(config),
                sweeps["sqlite"].raw_metric(config),
                sweeps["vsftpd"].raw_metric(config),
            )
        )
    lines.append(_rule())
    return "\n".join(lines)


def render_table4(scale=1.0):
    """Table 4: sensitive syscall usage during benchmarking."""
    columns, depth_stats = table4(scale)
    lines = [
        "Table 4: Sensitive system call usage during benchmarking",
        _rule(),
        "%-18s %10s %10s %10s" % ("syscall", *APPS),
        _rule(),
    ]
    for name in SENSITIVE_SYSCALLS:
        lines.append(
            "%-18s %10d %10d %10d"
            % (name, *(columns[app][name] for app in APPS))
        )
    lines.append(_rule())
    lines.append(
        "%-18s %10d %10d %10d"
        % ("monitor hooks", *(columns[app]["total_hooks"] for app in APPS))
    )
    lines.append(_rule())
    lines.append("Call-depth at syscall stops (§9.2):")
    for app in APPS:
        lines.append(
            "  %-8s avg %.1f frames, max %d frames"
            % (app, depth_stats[app]["avg_depth"], depth_stats[app]["max_depth"])
        )
    return "\n".join(lines)


def render_table5():
    """Table 5: instrumentation statistics."""
    stats = table5()
    lines = [
        "Table 5: Instrumentation statistics",
        _rule(),
        "%-44s %9s %9s %9s" % ("", *APPS),
        _rule(),
    ]
    for key, label in _TABLE5_ROWS:
        lines.append(
            "%-44s %9d %9d %9d" % (label, *(stats[app][key] for app in APPS))
        )
    lines.append(_rule())
    return "\n".join(lines)


def render_table6():
    """Table 6: the attack matrix."""
    evaluations = table6()
    lines = [
        "Table 6: Exploits blocked by BASTION (Y = context blocks it)",
        _rule(88),
        "%-28s %-8s %3s %3s %3s  %-10s %s"
        % ("attack", "works?", "CT", "CF", "AI", "full", "matches paper"),
        _rule(88),
    ]
    category = None
    for ev in evaluations:
        if ev.spec.category != category:
            category = ev.spec.category
            lines.append("-- %s" % category)
        lines.append(
            "%-28s %-8s %3s %3s %3s  %-10s %s"
            % (
                ev.spec.name,
                "yes" if ev.valid else "NO",
                "Y" if ev.blocks("CT") else ".",
                "Y" if ev.blocks("CF") else ".",
                "Y" if ev.blocks("AI") else ".",
                "blocked" if ev.blocked_by_full else "BYPASSED",
                "yes" if ev.matches_paper() else "NO",
            )
        )
    lines.append(_rule(88))
    matched = sum(1 for ev in evaluations if ev.valid and ev.matches_paper())
    lines.append("%d/%d rows match the paper's Table 6" % (matched, len(evaluations)))
    return "\n".join(lines)


def render_table7(scale=1.0):
    """Table 7: the filesystem-extension decomposition."""
    table = table7(scale)
    lines = [
        "Table 7: Overhead when filesystem syscalls are protected",
        "(throughput degradation vs unprotected baseline)",
        _rule(86),
        "%-40s %13s %13s %13s" % ("configuration", *APPS),
        _rule(86),
    ]
    for config in TABLE7_ROWS + ("fs_full_inkernel",):
        cells = []
        for app in APPS:
            row = table[app]["rows"][config]
            cells.append("%6.2f%% (%4.1fx)" % (row["degradation_pct"], row["slowdown"]))
        lines.append("%-40s %13s %13s %13s" % (_CONFIG_LABELS[config], *cells))
    lines.append(_rule(86))
    return "\n".join(lines)


def render_security_baselines():
    """§10: LLVM CFI / CET / filtering family alone vs the attack catalog."""
    rows = security_baseline_comparison()
    lines = [
        "Baseline defenses vs the attack catalog (blocked / bypassed)",
        _rule(104),
        "%-28s %12s %12s %12s %12s %12s %12s"
        % ("attack", "LLVM CFI", "CET", "seccomp", "binary-only", "sfip",
           "sfip-origin"),
        _rule(104),
    ]
    for row in rows:
        def cell(blocked, bypassed):
            if blocked:
                return "blocked"
            return "BYPASSED" if bypassed else "fizzled"

        lines.append(
            "%-28s %12s %12s %12s %12s %12s %12s"
            % (
                row["attack"],
                cell(row["cfi_blocked"], row["cfi_bypassed"]),
                cell(row["cet_blocked"], row["cet_bypassed"]),
                cell(row["seccomp_blocked"], row["seccomp_bypassed"]),
                cell(row["binary_blocked"], row["binary_bypassed"]),
                cell(row["sfip_blocked"], row["sfip_bypassed"]),
                cell(row["sfip_origin_blocked"], row["sfip_origin_bypassed"]),
            )
        )
    lines.append(_rule(104))
    return "\n".join(lines)


def render_ablation_dfi(scale=0.5):
    """DESIGN.md §5: narrow argument integrity vs application-wide DFI."""
    rows = ablation_dfi(scale)
    lines = [
        "Ablation: application-wide DFI vs BASTION (overhead %)",
        _rule(),
        "%-10s %14s %20s" % ("app", "DFI", "BASTION (full)"),
        _rule(),
    ]
    for app in APPS:
        lines.append(
            "%-10s %13.2f%% %19.2f%%"
            % (app, rows[app]["dfi_overhead_pct"], rows[app]["bastion_overhead_pct"])
        )
    lines.append(_rule())
    return "\n".join(lines)


def render_adaptive():
    """§11.1: the adaptive-attacker study."""
    from repro.bench.experiments import adaptive_study_rows

    rows = adaptive_study_rows()
    lines = [
        "Adaptive attacker study (§11.1): arbitrary R/W vs BASTION",
        _rule(),
        "%-20s %-10s %-16s %8s  %s"
        % ("adversary", "goal", "blocked by", "writes", "notes"),
        _rule(),
    ]
    for outcome in rows:
        lines.append(
            "%-20s %-10s %-16s %8d  %s"
            % (
                outcome.name,
                "REACHED" if outcome.succeeded else "blocked",
                outcome.blocked_by or "-",
                outcome.attacker_writes,
                outcome.detail,
            )
        )
    lines.append(_rule())
    lines.append(
        "Matches §11.1: only an attacker with full shadow-layout knowledge\n"
        "and many consistent forgeries bypasses; static constraints and\n"
        "region hiding stop the rest."
    )
    return "\n".join(lines)


def render_ablation_cache(scale=0.5):
    """Monitor fast path: verdict cache on vs off, per app."""
    rows = ablation_cache(scale)
    lines = [
        "Ablation: monitor verdict cache (overhead % vs unprotected)",
        _rule(86),
        "%-10s %14s %14s %10s %12s %14s"
        % ("app", "cache off", "cache on", "hit rate", "invalidated", "seccomp hits"),
        _rule(86),
    ]
    for app in APPS:
        row = rows[app]
        lines.append(
            "%-10s %13.2f%% %13.2f%% %9.1f%% %12d %14d"
            % (
                app,
                row["cache_off_overhead_pct"],
                row["cache_on_overhead_pct"],
                100.0 * row["hit_rate"],
                row["invalidations"],
                row["seccomp_cache_hits"],
            )
        )
    lines.append(_rule(86))
    return "\n".join(lines)


def render_scheduler(scale=1.0):
    """Multi-worker NGINX latency/throughput under the preemptive scheduler."""
    sweep = scheduler_sweep(scale)
    lines = [
        "Scheduler: multi-worker NGINX under concurrent wrk",
        "(master + N clone()d workers, preemptive round-robin)",
        _rule(92),
        "%-8s %-18s %9s %9s %9s %9s %11s %6s"
        % ("workers", "config", "p50 (ms)", "p95 (ms)", "p99 (ms)", "mean", "MB/s", "resp"),
        _rule(92),
    ]
    for count in sorted(sweep):
        for config in SCHEDULER_CONFIGS:
            result = sweep[count][config]
            lines.append(
                "%-8d %-18s %9.3f %9.3f %9.3f %9.3f %11.2f %6d"
                % (
                    count,
                    _CONFIG_LABELS.get(config, config),
                    result.latency_ms("p50"),
                    result.latency_ms("p95"),
                    result.latency_ms("p99"),
                    result.latency_ms("mean"),
                    result.throughput_mbps(),
                    result.work_units,
                )
            )
        vanilla = sweep[count]["vanilla"]
        bastion = sweep[count]["cet_ct_cf_ai"]
        lines.append(
            "         -> full BASTION: %+.2f%% p99 latency, %.2fx throughput"
            % (
                100.0
                * (bastion.latency_ms("p99") - vanilla.latency_ms("p99"))
                / max(vanilla.latency_ms("p99"), 1e-9),
                bastion.throughput_mbps() / max(vanilla.throughput_mbps(), 1e-9),
            )
        )
    lines.append(_rule(92))
    return "\n".join(lines)


def analysis_data(apps=APPS):
    """Static-analyzer reports for the bench apps: ``{app: AnalysisReport}``."""
    from repro.analyze import analyze_app

    return {app: analyze_app(app) for app in apps}


def analysis_json(apps=APPS):
    """JSON-ready analyzer summary: per-pass finding counts + precision.

    This is the payload ``python -m repro.bench analysis --json`` prints and
    what dashboards should consume; the full per-diagnostic detail lives in
    ``python -m repro.analyze --format json``.
    """
    payload = {}
    for app, report in analysis_data(apps).items():
        flow = report.metrics.get("flow", {})
        payload[app] = {
            "program": report.program,
            "ok": report.ok,
            "clean": report.clean,
            "findings_by_pass": report.counts_by_pass(),
            "waived": len(report.waived),
            "precision": {
                "sensitive_sites": flow.get("sensitive_sites", 0),
                "chains": flow.get("chains", 0),
                "attack_surface": flow.get("attack_surface", 0),
            },
            "per_syscall_chains": {
                name: row["chains"]
                for name, row in flow.get("per_syscall", {}).items()
            },
        }
    return payload


def binary_precision_data(apps=APPS):
    """Binary-recovery precision payload for the bench apps (per-app
    ``{app: metrics}``, the ``repro.analyze.binary`` report shape)."""
    from repro.analyze.binary import binary_report

    return {app: binary_report(app)[1] for app in apps}


def binary_precision_json(apps=APPS):
    """JSON-ready recovered-vs-metadata summary — what
    ``python -m repro.bench binary --json`` prints."""
    return binary_precision_data(apps)


def render_binary_precision():
    """Recovered-vs-metadata precision for the bench apps."""
    data = binary_precision_data()
    lines = [
        "Binary-level recovery vs compiler metadata (precision per app)",
        _rule(86),
        "%-10s %7s %7s %8s %8s %7s %8s %9s %9s"
        % (
            "app",
            "funcs",
            "reach",
            "present",
            "allowed",
            "tight",
            "ctypes",
            "ct-tight",
            "chains",
        ),
        _rule(86),
    ]
    for app, metrics in data.items():
        funcs = metrics["functions"]
        syscalls = metrics["syscalls"]
        types = metrics["call_types"]
        flow = metrics["flow"]
        lines.append(
            "%-10s %7d %7d %8d %8d %7d %8d %9d %9d"
            % (
                app,
                funcs["recovered"],
                funcs["reachable"],
                syscalls["present"],
                len(syscalls["reachable"]),
                len(syscalls["tightened"]),
                len(types["recovered"]),
                sum(len(kinds) for kinds in types["tightened"].values()),
                flow["binary"]["chains"],
            )
        )
    lines.append(_rule(86))
    lines.append(
        "allowed = recovered-reachable syscalls (the binary_only filter); "
        "tight = present-but-dead syscalls dropped"
    )
    return "\n".join(lines)


def render_analysis():
    """Static-analysis soundness + precision columns for the bench apps."""
    data = analysis_data()
    lines = [
        "Static analysis: soundness findings and syscall-flow precision",
        _rule(86),
        "%-10s %6s %6s %6s %6s %7s %8s %8s %9s %8s"
        % (
            "app",
            "compl",
            "ctype",
            "flow",
            "consis",
            "waived",
            "sites",
            "chains",
            "surface",
            "verdict",
        ),
        _rule(86),
    ]
    for app in data:
        report = data[app]
        counts = report.counts_by_pass()
        flow = report.metrics.get("flow", {})
        verdict = "clean" if report.clean else ("ok" if report.ok else "FAIL")
        lines.append(
            "%-10s %6d %6d %6d %6d %7d %8d %8d %9d %8s"
            % (
                app,
                counts["completeness"],
                counts["call-type"],
                counts["flow"],
                counts["consistency"],
                len(report.waived),
                flow.get("sensitive_sites", 0),
                flow.get("chains", 0),
                flow.get("attack_surface", 0),
                verdict,
            )
        )
    lines.append(_rule(86))
    lines.append(
        "surface = sum over sensitive sites of legitimate chains x verified "
        "argument positions\n(smaller = tighter contexts; see docs/analyze.md)"
    )
    return "\n".join(lines)


#: stages-table display order: pipeline order, with the monitor's verify.*
#: drill-down (charged inside its trace stop) indented beneath it
_STAGE_DISPLAY = (
    ("block", "block"),
    ("count", "count"),
    ("seccomp", "seccomp (BPF filter)"),
    ("trace_stop", "trace_stop (monitor)"),
    ("verify.cache", "  > verdict cache"),
    ("verify.unwind", "  > stack unwind"),
    ("verify.call_type", "  > call-type check"),
    ("verify.control_flow", "  > control-flow check"),
    ("verify.arg_integrity", "  > arg-integrity check"),
    ("verify", "verify (kill verdicts)"),
    ("execute", "execute (handler)"),
    ("account", "account"),
)

#: top-level pipeline stages (the verify.* rows are subsets of trace_stop)
_TOP_STAGES = ("block", "count", "seccomp", "trace_stop", "verify", "execute", "account")


def stages_json(scale=1.0):
    """JSON-ready payload of :func:`repro.bench.experiments.stages`.

    ``{config: {work_units, total_cycles, stage_cycles}}`` — exactly the
    ``stage.cycles.*`` counters each run's telemetry bus accumulated.
    """
    return stages(scale)


def render_stages(scale=1.0):
    """Where the cycles go: per-stage attribution for nginx + wrk."""
    data = stages(scale)
    configs = list(data)
    width = 24 + 19 * len(configs)

    def row(label, values):
        return "%-24s" % label + "".join("%19s" % v for v in values)

    def mcyc(cycles):
        return "%.1f" % (cycles / 1e3)

    lines = [
        "Dispatch-stage cycle attribution: nginx + wrk (telemetry-bus data, kcycles)",
        _rule(width),
        row("stage", configs),
        _rule(width),
    ]
    for key, label in _STAGE_DISPLAY:
        values = [data[c]["stage_cycles"].get(key, 0) for c in configs]
        if not any(values):
            continue
        lines.append(row(label, [mcyc(v) for v in values]))
    lines.append(_rule(width))
    pipeline_totals = {
        c: sum(data[c]["stage_cycles"].get(s, 0) for s in _TOP_STAGES)
        for c in configs
    }
    lines.append(
        row("pipeline total", [mcyc(pipeline_totals[c]) for c in configs])
    )
    lines.append(row("run total", [mcyc(data[c]["total_cycles"]) for c in configs]))
    lines.append(
        row(
            "pipeline share",
            [
                "%.1f%%" % (100.0 * pipeline_totals[c] / data[c]["total_cycles"])
                if data[c]["total_cycles"]
                else "0.0%"
                for c in configs
            ],
        )
    )
    lines.append(row("work units", [data[c]["work_units"] for c in configs]))
    lines.append(_rule(width))
    lines.append(
        "'>' rows break down the monitor's trace stop (they are included in\n"
        "the trace_stop row): BASTION's overhead = BPF filtering + stack\n"
        "unwinding + the three context checks; the verdict cache trades the\n"
        "unwind+check columns for one cache probe per stop."
    )
    return "\n".join(lines)


def fuzz_data(corpus_path=None):
    """The fuzz subsystem's bench payload: divergence counts by mechanism
    pair from the pinned corpus, plus the live fault-detection matrix."""
    from repro.fuzz.engine import load_corpus
    from repro.fuzz.faults import run_fault_campaign

    corpus = load_corpus(corpus_path)
    pair_counts = {}
    for entry in corpus["divergences"]:
        for allowing, killing in entry["pairs"]:
            key = "%s>%s" % (allowing, killing)
            pair_counts[key] = pair_counts.get(key, 0) + 1
    return {
        "corpus": {
            "seed": corpus["seed"],
            "budget": corpus["budget"],
            "executed": corpus["executed"],
            "coverage_tokens": corpus["coverage_tokens"],
            "kept": len(corpus["kept"]),
            "divergences": len(corpus["divergences"]),
        },
        "divergence_pairs": pair_counts,
        "faults": run_fault_campaign(),
    }


def fuzz_json(corpus_path=None):
    return fuzz_data(corpus_path)


def render_fuzz():
    """ISSUE 9: the differential fuzzing + fault-injection summary."""
    data = fuzz_data()
    corpus = data["corpus"]
    lines = [
        "Coverage-guided differential fuzzing (pinned corpus, seed=%d)"
        % corpus["seed"],
        _rule(),
        "budget=%d executed=%d coverage_tokens=%d kept=%d divergences=%d"
        % (
            corpus["budget"],
            corpus["executed"],
            corpus["coverage_tokens"],
            corpus["kept"],
            corpus["divergences"],
        ),
        "",
        "Divergences by mechanism pair (allowing > killing):",
    ]
    for pair, count in sorted(
        data["divergence_pairs"].items(), key=lambda kv: (-kv[1], kv[0])
    ):
        lines.append("  %-36s %3d" % (pair, count))
    faults = data["faults"]
    mechanisms = faults["matrix"]
    width = max(len(m) for m in mechanisms) + 2
    lines += [
        "",
        "Dispatch-time fault detection (site@stage x mechanism):",
        _rule(),
        "%-28s" % "fault" + "".join("%-*s" % (width, m) for m in mechanisms),
        _rule(),
    ]
    for label in sorted(faults["cells"]):
        row = faults["cells"][label]
        lines.append(
            "%-28s" % label
            + "".join("%-*s" % (width, row[m]["class"]) for m in mechanisms)
        )
    lines += [
        _rule(),
        "caught = mechanism killed the process; crashed = the fault itself",
        "faulted the VM; missed = run completed but observably diverged from",
        "the clean reference; masked = bit-identical to the reference;",
        "not-reached = the injector had nothing to corrupt (no filter).",
        "Register-only argument flips are missed by every mechanism: the",
        "monitor verifies memory-resident shadow variables, not registers —",
        "the gap SFP-style hardware protection targets.",
    ]
    return "\n".join(lines)


RENDERERS = {
    "figure3": render_figure3,
    "fuzz": render_fuzz,
    "table3": render_table3,
    "table4": render_table4,
    "table5": render_table5,
    "table6": render_table6,
    "table7": render_table7,
    "security_baselines": render_security_baselines,
    "ablation_cache": render_ablation_cache,
    "ablation_dfi": render_ablation_dfi,
    "adaptive": render_adaptive,
    "analysis": render_analysis,
    "binary": render_binary_precision,
    "scheduler": render_scheduler,
    "stages": render_stages,
}
