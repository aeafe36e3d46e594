"""Per-table/figure experiment generators.

Each function returns plain data structures; :mod:`repro.bench.report`
renders them as text tables mirroring the paper's layout, and the
``benchmarks/`` pytest suite asserts their shapes.
"""

from dataclasses import dataclass, field

from repro.attacks.catalog import CATALOG
from repro.attacks.runner import run_attack, table6_matrix
from repro.bench.harness import (
    FIGURE3_LADDER,
    build_app,
    run_app,
    run_app_scheduled,
)
from repro.compiler.pipeline import BastionCompiler
from repro.syscalls.sensitive import SENSITIVE_SYSCALLS
from repro.vm.cpu import CPUOptions

APPS = ("nginx", "sqlite", "vsftpd")

#: per-app workload scales used by the full benchmark runs (vsftpd's unit
#: of work is large, so it runs at full scale even in quicker sweeps)
DEFAULT_SCALES = {"nginx": 0.6, "sqlite": 0.6, "vsftpd": 1.0}


def _scales(scale):
    if isinstance(scale, dict):
        return scale
    return {app: DEFAULT_SCALES[app] * scale for app in APPS}


# ---------------------------------------------------------------------------
# Figure 3 + Table 3
# ---------------------------------------------------------------------------


@dataclass
class PerfSweep:
    """One app's run across the Figure 3 ladder."""

    app: str
    baseline: object
    runs: dict = field(default_factory=dict)  # config -> RunResult

    def overhead(self, config):
        return self.runs[config].overhead_pct(self.baseline)

    def raw_metric(self, config=None):
        result = self.baseline if config is None else self.runs[config]
        if self.app == "nginx":
            return result.throughput_mbps()
        if self.app == "sqlite":
            return result.notpm()
        return result.transfer_seconds()

    @property
    def metric_name(self):
        return {
            "nginx": "MB/sec",
            "sqlite": "NOTPM",
            "vsftpd": "sec/transfer",
        }[self.app]


def perf_sweep(scale=1.0, configs=FIGURE3_LADDER, apps=APPS):
    """Run every app across the config ladder (Figure 3 / Table 3 data)."""
    scales = _scales(scale)
    sweeps = {}
    for app in apps:
        baseline = run_app(app, "vanilla", scale=scales[app])
        sweep = PerfSweep(app=app, baseline=baseline)
        for config in configs:
            sweep.runs[config] = run_app(app, config, scale=scales[app])
        sweeps[app] = sweep
    return sweeps


def figure3(scale=1.0):
    """Overhead percentages for the Figure 3 ladder."""
    sweeps = perf_sweep(scale)
    return {
        app: {config: sweep.overhead(config) for config in FIGURE3_LADDER}
        for app, sweep in sweeps.items()
    }, sweeps


def table3(scale=1.0):
    """Raw benchmark metrics (Table 3) for vanilla + the ladder."""
    sweeps = perf_sweep(scale)
    rows = {}
    for app, sweep in sweeps.items():
        rows[app] = {"vanilla": sweep.raw_metric()}
        for config in FIGURE3_LADDER:
            rows[app][config] = sweep.raw_metric(config)
    return rows, sweeps


# ---------------------------------------------------------------------------
# Scheduler sweep: multi-worker NGINX under concurrent load
# ---------------------------------------------------------------------------

SCHEDULER_WORKERS = (1, 2, 4)
#: BASTION vs SFIP vs the filtering baselines: one overhead table
SCHEDULER_CONFIGS = (
    "vanilla",
    "cet_ct_cf_ai",
    "seccomp_allowlist",
    "temporal",
    "debloat",
    "sfip",
    "sfip_origin",
)


def scheduler_sweep(scale=1.0, workers=SCHEDULER_WORKERS, configs=SCHEDULER_CONFIGS):
    """Multi-worker NGINX (master + N clone()d workers) under concurrent wrk.

    For each worker count, runs every config on the preemptive scheduler
    with a fresh :class:`ConcurrentWrkWorkload` (workloads are stateful,
    so each run gets its own instance).  Returns
    ``{workers: {config: RunResult}}`` with latency percentiles populated.
    """
    from repro.apps.nginx import NginxConfig
    from repro.apps.workloads import ConcurrentWrkWorkload

    connections = max(int(round(40 * scale)), 4)
    sweep = {}
    for count in workers:
        sweep[count] = {}
        for config in configs:
            workload = ConcurrentWrkWorkload(connections=connections)
            sweep[count][config] = run_app_scheduled(
                "nginx",
                config=config,
                app_config=NginxConfig(workers=count, master_serves=False),
                workload=workload,
            )
    return sweep


# ---------------------------------------------------------------------------
# Table 4: sensitive syscall usage + call-depth statistics
# ---------------------------------------------------------------------------


def table4(scale=1.0):
    """Sensitive-syscall invocation counts under full BASTION (Table 4)."""
    scales = _scales(scale)
    columns = {}
    depth_stats = {}
    for app in APPS:
        result = run_app(app, "cet_ct_cf_ai", scale=scales[app])
        counts = {
            name: result.syscall_counts.get(name, 0)
            for name in SENSITIVE_SYSCALLS
        }
        counts["total_hooks"] = result.hook_total
        columns[app] = counts
        depth_stats[app] = {
            "avg_depth": result.avg_unwind_depth,
            "max_depth": result.max_unwind_depth,
        }
    return columns, depth_stats


# ---------------------------------------------------------------------------
# Table 5: instrumentation statistics (static)
# ---------------------------------------------------------------------------

_TABLE5_ROWS = (
    ("total_callsites", "Total # application callsites"),
    ("direct_callsites", "Total # arbitrary direct callsites"),
    ("indirect_callsites", "Total # arbitrary in-direct callsites"),
    ("sensitive_callsites", "Total # sensitive callsites"),
    ("sensitive_indirect_syscalls", "# sensitive system calls called indirectly"),
    ("ctx_write_mem", "ctx_write_mem()"),
    ("ctx_bind_mem", "ctx_bind_mem()"),
    ("ctx_bind_const", "ctx_bind_const()"),
    ("total_instrumentation", "Total instrumentation sites"),
)


def table5():
    """Static instrumentation statistics per application (Table 5)."""
    stats = {}
    for app in APPS:
        module = build_app(app)
        artifact = BastionCompiler().compile(module)
        stats[app] = dict(artifact.metadata.stats)
    return stats


# ---------------------------------------------------------------------------
# Table 6: the security case study
# ---------------------------------------------------------------------------


def table6():
    """Run the full attack matrix (Table 6)."""
    return table6_matrix()


def security_baseline_comparison(catalog=None):
    """§10.2/§10.3 claims: LLVM CFI fails where BASTION succeeds.

    Runs every attack under (a) LLVM CFI alone, (b) CET alone, (c) the
    presence-based seccomp allowlist, (d) the binary-only mechanism
    (recovered allowlist + call-type checks), and (e) the two SFIP
    variants (syscall-flow transition graph, without and with origin
    checks), recording whether each baseline stopped it — BASTION vs
    binary-only vs SFIP is the filtering-family ladder in one table.
    """
    from repro.bench.harness import CONFIGS

    rows = []
    for spec in catalog or CATALOG:
        cfi = run_attack(
            spec, None, "llvm_cfi", cpu_options=CPUOptions(llvm_cfi=True)
        )
        cet = run_attack(spec, None, "cet", cpu_options=CPUOptions(cet=True))
        seccomp = run_attack(
            spec, None, "seccomp_allowlist",
            defense=CONFIGS["seccomp_allowlist"],
        )
        binary = run_attack(
            spec, None, "binary_only", defense=CONFIGS["binary_only"]
        )
        sfip = run_attack(spec, None, "sfip", defense=CONFIGS["sfip"])
        sfip_origin = run_attack(
            spec, None, "sfip_origin", defense=CONFIGS["sfip_origin"]
        )
        rows.append(
            {
                "attack": spec.name,
                "cfi_blocked": cfi.blocked and not cfi.succeeded,
                "cfi_bypassed": cfi.succeeded,
                "cet_blocked": cet.blocked and not cet.succeeded,
                "cet_bypassed": cet.succeeded,
                "seccomp_blocked": seccomp.blocked and not seccomp.succeeded,
                "seccomp_bypassed": seccomp.succeeded,
                "binary_blocked": binary.blocked and not binary.succeeded,
                "binary_bypassed": binary.succeeded,
                "sfip_blocked": sfip.blocked and not sfip.succeeded,
                "sfip_bypassed": sfip.succeeded,
                "sfip_origin_blocked": sfip_origin.blocked
                and not sfip_origin.succeeded,
                "sfip_origin_bypassed": sfip_origin.succeeded,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 7: filesystem-syscall extension decomposition
# ---------------------------------------------------------------------------

TABLE7_ROWS = ("fs_hook_only", "fs_fetch_state", "fs_full")


def table7(scale=1.0, include_inkernel=True):
    """The §11.2 extension: per-step cost of protecting filesystem syscalls.

    Returns, per app, the paper's three rows (seccomp hook only / fetch
    process state / full context checking) as throughput-degradation
    percentages plus raw metrics, optionally with the in-kernel ablation.
    """
    scales = _scales(scale)
    rows = TABLE7_ROWS + (("fs_full_inkernel",) if include_inkernel else ())
    table = {}
    for app in APPS:
        baseline = run_app(app, "vanilla", scale=scales[app])
        table[app] = {"baseline": baseline, "rows": {}}
        for config in rows:
            result = run_app(app, config, scale=scales[app])
            slowdown = result.steady_cycles / max(baseline.steady_cycles, 1)
            table[app]["rows"][config] = {
                "result": result,
                "slowdown": slowdown,
                "degradation_pct": 100.0 * (1 - 1 / slowdown),
                "overhead_pct": result.overhead_pct(baseline),
            }
    return table


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md §5)
# ---------------------------------------------------------------------------


def ablation_dfi(scale=0.5):
    """Argument-integrity scope vs application-wide DFI (§2.2 / §3.3)."""
    scales = _scales(scale)
    rows = {}
    for app in APPS:
        baseline = run_app(app, "vanilla", scale=scales[app])
        dfi = run_app(app, "dfi", scale=scales[app])
        bastion = run_app(app, "cet_ct_cf_ai", scale=scales[app])
        rows[app] = {
            "dfi_overhead_pct": dfi.overhead_pct(baseline),
            "bastion_overhead_pct": bastion.overhead_pct(baseline),
        }
    return rows


def ablation_cache(scale=0.5):
    """Monitor fast path: full BASTION with the verdict cache on vs off.

    Returns, per app, the steady-state overhead of ``cache_off`` (the
    paper's re-verify-everything monitor) and ``cache_on`` (memoized ALLOW
    verdicts + batched trace stops), plus the cache's own counters.
    """
    scales = _scales(scale)
    rows = {}
    for app in APPS:
        baseline = run_app(app, "vanilla", scale=scales[app])
        off = run_app(app, "cache_off", scale=scales[app])
        on = run_app(app, "cache_on", scale=scales[app])
        stats = on.monitor_stats
        rows[app] = {
            "cache_off_overhead_pct": off.overhead_pct(baseline),
            "cache_on_overhead_pct": on.overhead_pct(baseline),
            "hit_rate": stats.get("hit_rate", 0.0),
            "cache_hits": stats.get("cache_hits", 0),
            "cache_misses": stats.get("cache_misses", 0),
            "invalidations": stats.get("invalidations", 0),
            "seccomp_cache_hits": stats.get("seccomp_cache_hits", 0),
        }
    return rows


def adaptive_study_rows():
    """§11.1: BASTION under arbitrary read/write (oracle vs blind forger)."""
    from repro.attacks.adaptive import adaptive_study

    return adaptive_study()


def extended_table6():
    """Table 6 plus the extension scenarios (extra ROP variants)."""
    return table6_matrix(include_extra=True)


def ablation_unwind_depth(scale=0.5):
    """Stack-depth statistics for the §9.2 call-depth observation."""
    _columns, depth_stats = table4(scale)
    return depth_stats


# ---------------------------------------------------------------------------
# dispatch-stage cycle attribution (telemetry bus)
# ---------------------------------------------------------------------------

#: the configs whose contrast shows where BASTION's overhead goes:
#: plain seccomp filtering, the full monitor (re-verify everything), and
#: the monitor fast path
STAGES_CONFIGS = ("vanilla", "seccomp_allowlist", "cet_ct_cf_ai", "cache_on")


def stages(scale=1.0, app="nginx", configs=STAGES_CONFIGS):
    """Per-stage cycle attribution for one app, from the telemetry bus.

    Every run's dispatch pipeline attributes each stage's ledger delta to
    ``stage.cycles.*`` counters on the kernel's bus (the monitor adds the
    ``verify.*`` drill-down inside its trace stop); this experiment
    snapshots those counters per config, decomposing where a defense's
    cycles go — seccomp filtering vs stack unwinding vs argument
    integrity.

    Returns ``{config: {'work_units', 'total_cycles', 'stage_cycles'}}``.
    """
    app_scale = DEFAULT_SCALES[app] * scale
    rows = {}
    for config in configs:
        result = run_app(app, config, scale=app_scale)
        rows[config] = {
            "work_units": result.work_units,
            "total_cycles": result.total_cycles,
            "stage_cycles": dict(result.stage_cycles),
        }
    return rows
