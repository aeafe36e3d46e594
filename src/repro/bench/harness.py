"""The measurement harness: one function to run (app, workload, defense).

Measurement methodology mirrors §9.1: workloads run to completion under a
deterministic cycle model; throughput is computed over the *steady state*
(cycles after the first accepted connection), so initialization — where the
paper notes BASTION's cost is "on the order of ten to twenty milliseconds" —
is reported separately rather than polluting the steady-state overheads.
"""

from dataclasses import dataclass, field

from repro.apps.nginx import (
    CONF_PATH,
    DOC_ROOT,
    LOG_PATH,
    NginxConfig,
    PAGE_BYTES,
    UPGRADE_BINARY,
    build_nginx,
)
from repro.apps.sqlite import DB_PATH, JOURNAL_PATH, SqliteConfig, build_sqlite
from repro.apps.vsftpd import FILE_PATH, VsftpdConfig, build_vsftpd
from repro.apps.workloads import Dbt2Workload, DkftpbenchWorkload, WrkWorkload
from repro.kernel.kernel import Kernel
from repro.monitor.policy import ContextPolicy
from repro.vm.cpu import CPUOptions

#: simulated clock used to convert cycles into seconds for display
SIM_HZ = 3_000_000_000

#: size of the file dkftpbench downloads (paper: 100 MB; scaled for sim time)
FTP_FILE_BYTES = 5 * 1024 * 1024

#: prepopulated database size for mini-SQLite (256 pages x 512 B)
DB_BYTES = 256 * 512


@dataclass(frozen=True)
class DefenseConfig:
    """One column of Figure 3 / row of Table 7."""

    name: str
    cet: bool = False
    llvm_cfi: bool = False
    dfi: bool = False
    #: None = no monitor; otherwise the ContextPolicy to enforce
    policy: object = None
    #: run the BASTION-instrumented binary (vs the vanilla one)
    instrumented: bool = False
    #: compile/monitor with the §11.2 filesystem extension set
    extend_filesystem: bool = False
    #: non-BASTION software baseline: 'seccomp_allowlist' | 'temporal'
    #: | 'debloat' | 'binary_only' (None = static CPU flags only)
    baseline: str = None

    def cpu_options(self):
        return CPUOptions(cet=self.cet, llvm_cfi=self.llvm_cfi, dfi=self.dfi)

    def mechanism(self):
        """The :class:`ProtectionMechanism` implementing this config."""
        from repro.mechanisms import mechanism_for

        return mechanism_for(self)


def _full():
    """The paper's monitor re-verifies every stop: verdict caching off.

    The Figure 3 / Table 3 / Table 7 configs reproduce the published
    numbers, so they run the exact re-verify-everything monitor; the fast
    path is exposed separately through ``cache_on`` / ``cache_off``.
    """
    return ContextPolicy.full().without("cache")


CONFIGS = {
    "vanilla": DefenseConfig("vanilla"),
    "cet": DefenseConfig("cet", cet=True),
    "cet_ct": DefenseConfig(
        "cet_ct",
        cet=True,
        policy=ContextPolicy.ct_only().without("cache"),
        instrumented=True,
    ),
    "cet_ct_cf": DefenseConfig(
        "cet_ct_cf",
        cet=True,
        policy=ContextPolicy.ct_cf().without("cache"),
        instrumented=True,
    ),
    "cet_ct_cf_ai": DefenseConfig(
        "cet_ct_cf_ai", cet=True, policy=_full(), instrumented=True
    ),
    # Table 7: filesystem-syscall extension, decomposed
    "fs_hook_only": DefenseConfig(
        "fs_hook_only",
        cet=True,
        policy=_full().as_hook_only(),
        instrumented=True,
        extend_filesystem=True,
    ),
    "fs_fetch_state": DefenseConfig(
        "fs_fetch_state",
        cet=True,
        policy=_full().as_fetch_state(),
        instrumented=True,
        extend_filesystem=True,
    ),
    "fs_full": DefenseConfig(
        "fs_full", cet=True, policy=_full(), instrumented=True, extend_filesystem=True
    ),
    # §11.2 ablation: monitor inside the kernel
    "fs_full_inkernel": DefenseConfig(
        "fs_full_inkernel",
        cet=True,
        policy=_full().as_inkernel(),
        instrumented=True,
        extend_filesystem=True,
    ),
    "bastion_inkernel": DefenseConfig(
        "bastion_inkernel", cet=True, policy=_full().as_inkernel(), instrumented=True
    ),
    # monitor fast path: full BASTION with the verdict cache on/off
    "cache_on": DefenseConfig(
        "cache_on", cet=True, policy=ContextPolicy.full(), instrumented=True
    ),
    "cache_off": DefenseConfig(
        "cache_off", cet=True, policy=_full(), instrumented=True
    ),
}

# Every *named* non-BASTION mechanism (llvm_cfi, dfi, the filtering
# baselines, binary_only, sfip, sfip_origin) gets its config from the
# one registry — repro.mechanisms.registry is the source of truth, so a
# newly registered mechanism is benchmarkable and fuzzable without
# touching this dict (tests/baselines/test_registry.py pins that).


def _named_configs():
    from repro.mechanisms.registry import named_defense_configs

    return named_defense_configs()


CONFIGS.update(_named_configs())

#: the Figure 3 x-axis, in order
FIGURE3_LADDER = ("llvm_cfi", "cet", "cet_ct", "cet_ct_cf", "cet_ct_cf_ai")


@dataclass
class RunResult:
    """Everything a bench needs from one run."""

    app: str
    config: str
    status: object
    total_cycles: int = 0
    steady_cycles: int = 0
    init_cycles: int = 0
    work_units: int = 0
    bytes_sent: int = 0
    syscall_counts: dict = field(default_factory=dict)
    hook_counts: dict = field(default_factory=dict)
    hook_total: int = 0
    violations: list = field(default_factory=list)
    ledger_breakdown: dict = field(default_factory=dict)
    avg_unwind_depth: float = 0.0
    max_unwind_depth: int = 0
    metadata_stats: dict = field(default_factory=dict)
    #: MonitorStats.as_dict() plus seccomp action-cache counters
    monitor_stats: dict = field(default_factory=dict)
    #: scheduled runs only: LatencyStats.summary() (p50/p95/p99 in cycles)
    latency: dict = field(default_factory=dict)
    #: scheduled runs only: SchedStats.as_dict()
    sched_stats: dict = field(default_factory=dict)
    #: scheduled runs only: pid -> ExitStatus.kind for every task
    statuses: dict = field(default_factory=dict)
    #: telemetry-bus per-stage cycle attribution ('seccomp', 'trace_stop',
    #: 'verify.unwind', ... — see docs/telemetry.md)
    stage_cycles: dict = field(default_factory=dict)

    def latency_ms(self, which):
        """A latency percentile ('p50'|'p95'|'p99'|'mean') in milliseconds."""
        return 1000.0 * self.latency.get(which, 0) / SIM_HZ

    @property
    def ok(self):
        return self.status.ok

    @property
    def steady_seconds(self):
        return self.steady_cycles / SIM_HZ

    def throughput_mbps(self):
        """NGINX-style MB/s over the steady state."""
        if self.steady_cycles <= 0:
            return 0.0
        return (self.bytes_sent / 1e6) / self.steady_seconds

    def notpm(self):
        """SQLite-style new-order transactions per minute."""
        if self.steady_cycles <= 0:
            return 0.0
        return self.work_units / (self.steady_seconds / 60.0)

    def transfer_seconds(self):
        """vsftpd-style seconds per download."""
        if self.work_units <= 0:
            return 0.0
        return self.steady_seconds / self.work_units

    def overhead_pct(self, baseline):
        """Percent more steady-state cycles than ``baseline``."""
        if baseline.steady_cycles <= 0:
            return 0.0
        return (
            100.0
            * (self.steady_cycles - baseline.steady_cycles)
            / baseline.steady_cycles
        )

    def summary(self):
        return (
            "%s/%s: %s, %d work units, %.2f Mcycles steady, %d hooks, %d violations"
            % (
                self.app,
                self.config,
                self.status.kind,
                self.work_units,
                self.steady_cycles / 1e6,
                self.hook_total,
                len(self.violations),
            )
        )


# ---------------------------------------------------------------------------
# app environments
# ---------------------------------------------------------------------------


def _setup_nginx_env(kernel):
    kernel.vfs.makedirs("/bin")
    kernel.vfs.makedirs("/etc/nginx")
    kernel.vfs.makedirs("/var/www/html")
    kernel.vfs.makedirs("/var/log/nginx")
    kernel.vfs.makedirs("/usr/sbin")
    kernel.vfs.write_file(CONF_PATH, b"worker_processes 4;\n" * 8)
    kernel.vfs.write_file(DOC_ROOT, b"<html>" + b"x" * (PAGE_BYTES - 13) + b"</html>")
    kernel.vfs.write_file(LOG_PATH, b"")
    kernel.vfs.write_file(UPGRADE_BINARY, b"\x7fELF-new-nginx", mode=0o755)
    kernel.vfs.write_file("/bin/sh", b"\x7fELF-shell", mode=0o755)


def _setup_sqlite_env(kernel):
    kernel.vfs.makedirs("/bin")
    kernel.vfs.makedirs("/data")
    kernel.vfs.write_file(DB_PATH, b"\x00" * DB_BYTES)
    kernel.vfs.write_file(JOURNAL_PATH, b"")
    kernel.vfs.write_file("/bin/sh", b"\x7fELF-shell", mode=0o755)


def _setup_vsftpd_env(kernel, file_bytes=FTP_FILE_BYTES):
    kernel.vfs.makedirs("/bin")
    kernel.vfs.makedirs("/srv/ftp")
    kernel.vfs.write_file(FILE_PATH, b"\xabdata" * (file_bytes // 5 + 1))
    kernel.vfs.write_file("/bin/sh", b"\x7fELF-shell", mode=0o755)


#: app registry: builders, environment setup, default workloads
_APPS = {
    "nginx": {
        "build": build_nginx,
        "config_cls": NginxConfig,
        "env": _setup_nginx_env,
        "workload": lambda scale: WrkWorkload(
            connections=max(4, int(40 * scale)),
            requests_per_connection=max(6, int(58 * scale)),
        ),
        "work_units": lambda wl: wl.stats.responses,
    },
    "sqlite": {
        "build": build_sqlite,
        "config_cls": SqliteConfig,
        "env": _setup_sqlite_env,
        "workload": lambda scale: Dbt2Workload(
            terminals=max(2, int(8 * scale)),
            transactions_per_terminal=max(4, int(100 * scale)),
        ),
        "work_units": lambda wl: wl.stats.transactions,
    },
    "vsftpd": {
        "build": build_vsftpd,
        "config_cls": VsftpdConfig,
        "env": _setup_vsftpd_env,
        "workload": lambda scale: DkftpbenchWorkload(
            sessions=max(2, int(12 * scale)),
            files_per_session=max(2, int(6 * scale)),
        ),
        "work_units": lambda wl: wl.stats.transfers,
    },
}

_module_cache = {}


def build_app(app, app_config=None):
    """Build (and cache) an application module."""
    entry = _APPS[app]
    config = app_config or entry["config_cls"]()
    key = (app, config)
    if key not in _module_cache:
        _module_cache[key] = entry["build"](config)
    return _module_cache[key]


def _prepare(app, defense, app_config):
    """Shared launch plumbing: kernel + env + mechanism + root proc/cpu.

    Defense-agnostic by construction: every config — BASTION and all the
    baselines — launches through its :class:`ProtectionMechanism`.
    """
    entry = _APPS[app]
    module = build_app(app, app_config)

    kernel = Kernel()
    entry["env"](kernel)

    mechanism = defense.mechanism()
    proc, cpu = mechanism.launch(kernel, app, module)
    return entry, kernel, mechanism.monitor, proc, cpu


def _attach_monitor_stats(result, monitor, proc):
    result.hook_counts = dict(monitor.hook_counts)
    result.hook_total = monitor.hook_count
    result.violations = list(monitor.violations)
    result.avg_unwind_depth = monitor.average_unwind_depth
    result.max_unwind_depth = monitor.max_unwind_depth
    result.metadata_stats = dict(monitor.metadata.stats)
    result.monitor_stats = monitor.stats.as_dict()
    result.monitor_stats["seccomp_cache_hits"] = proc.seccomp_cache_hits
    result.monitor_stats["seccomp_cache_misses"] = proc.seccomp_cache_misses


def run_app(app, config="vanilla", scale=1.0, app_config=None, workload=None):
    """Run one (application, defense configuration) pair to completion.

    Args:
        app: 'nginx' | 'sqlite' | 'vsftpd'.
        config: a name from :data:`CONFIGS` or a :class:`DefenseConfig`.
        scale: workload size multiplier (tests use ~0.1, benches 1.0+).
        app_config: application build-time configuration override.
        workload: custom workload object (default: the app's stock
            workload at ``scale``).

    Returns:
        :class:`RunResult`
    """
    defense = CONFIGS[config] if isinstance(config, str) else config
    entry, kernel, monitor, proc, cpu = _prepare(app, defense, app_config)

    wl = workload or entry["workload"](scale)
    wl.attach(kernel, proc)

    status = cpu.run()

    steady_start = wl.steady_start_cycles or 0
    result = RunResult(
        app=app,
        config=defense.name,
        status=status,
        total_cycles=proc.ledger.cycles,
        steady_cycles=proc.ledger.cycles - steady_start,
        init_cycles=steady_start,
        work_units=entry["work_units"](wl),
        bytes_sent=kernel.net.bytes_sent,
        syscall_counts=dict(proc.syscall_counts),
        ledger_breakdown=dict(proc.ledger.by_category),
        stage_cycles=kernel.telemetry.stage_cycles(),
    )
    if monitor is not None:
        _attach_monitor_stats(result, monitor, proc)
    return result


def run_app_scheduled(
    app,
    config="vanilla",
    scale=1.0,
    app_config=None,
    workload=None,
    quantum=None,
):
    """Run one (app, defense) pair under the preemptive scheduler.

    The root process is enqueued on a :class:`repro.sched.Scheduler`;
    clone()d children run interleaved with it, blocking syscalls park
    their task, and time is the scheduler's global cycle clock.  Use a
    concurrent workload (e.g. ``ConcurrentWrkWorkload``) plus a
    ``master_serves=False`` app config to exercise a real worker pool.

    Returns a :class:`RunResult` whose ``latency`` (when the workload
    samples it), ``sched_stats``, and per-pid ``statuses`` are filled in;
    cycle totals are global-clock based and syscall counts / ledger
    breakdowns aggregate over the whole process tree.
    """
    from repro.sched import DEFAULT_QUANTUM, Scheduler

    defense = CONFIGS[config] if isinstance(config, str) else config
    entry, kernel, monitor, proc, cpu = _prepare(app, defense, app_config)

    wl = workload or entry["workload"](scale)
    wl.attach(kernel, proc)

    sched = Scheduler(kernel, quantum=quantum or DEFAULT_QUANTUM)
    sched.add(proc, cpu)
    statuses = sched.run()
    status = statuses[proc.pid]

    total = sched.now()
    steady_start = wl.steady_start_cycles or 0
    syscall_counts = {}
    breakdown = {}
    for p in kernel.processes.values():
        for name, count in p.syscall_counts.items():
            syscall_counts[name] = syscall_counts.get(name, 0) + count
        for category, cycles in p.ledger.by_category.items():
            breakdown[category] = breakdown.get(category, 0) + cycles
    result = RunResult(
        app=app,
        config=defense.name,
        status=status,
        total_cycles=total,
        steady_cycles=total - steady_start,
        init_cycles=steady_start,
        work_units=entry["work_units"](wl),
        bytes_sent=kernel.net.bytes_sent,
        syscall_counts=syscall_counts,
        ledger_breakdown=breakdown,
        sched_stats=sched.stats.as_dict(),
        statuses={pid: st.kind for pid, st in statuses.items()},
        stage_cycles=kernel.telemetry.stage_cycles(),
    )
    if getattr(wl, "latency", None) is not None:
        result.latency = wl.latency.summary()
    if monitor is not None:
        _attach_monitor_stats(result, monitor, proc)
    return result
