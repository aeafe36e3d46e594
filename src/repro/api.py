"""The stable public API: ``repro.api`` (also re-exported from ``repro``).

Two entry points cover the library's workflow:

- :func:`protect` compiles a module with BASTION protection, configured by
  a :class:`ProtectConfig` (or plain keyword arguments);
- :func:`run` measures an application under a configuration and returns a
  :class:`RunResult` with stable fields (``overhead_pct``, ``violations``,
  ``monitor_stats``).

Usage::

    from repro.api import ProtectConfig, run
    from repro import ContextPolicy

    result = run("nginx", scale=0.5)
    print(result.overhead_pct, result.monitor_stats["hit_rate"])

    relaxed = ProtectConfig(policy=ContextPolicy.full().without("arg_integrity"))
    result = run("nginx", relaxed, scale=0.5)

    # baselines are first-class: pick any repro.mechanisms name
    result = run("nginx", ProtectConfig(mechanism="seccomp_allowlist"))
    print(result.stages)  # per-stage cycle attribution

:func:`bench` measures the pinned performance-trajectory matrix and
returns exactly the records ``BENCH_<pr>.json`` serializes (see
``docs/perf.md``).
"""

from dataclasses import dataclass, field

from repro.bench.harness import (
    CONFIGS,
    DefenseConfig,
    SIM_HZ,
    run_app,
    run_app_scheduled,
)
from repro.compiler.pipeline import BastionCompiler
from repro.monitor.monitor import SyscallIntegrityViolation
from repro.monitor.policy import ContextPolicy


@dataclass(frozen=True)
class ProtectConfig:
    """Declarative protection settings consumed by :func:`protect` / :func:`run`.

    The default is full BASTION as shipped: all three contexts enforced,
    CET shadow stack on, and the monitor fast path (verdict cache) enabled.
    ``mechanism`` selects a different protection mechanism entirely — any
    name from :data:`repro.mechanisms.MECHANISM_NAMES` — so callers reach
    the software baselines through the stable API instead of
    ``bench.harness.CONFIGS``.
    """

    policy: ContextPolicy = field(default_factory=ContextPolicy.full)
    #: run with the CET-style shadow stack (the paper's deployment baseline)
    cet: bool = True
    #: override the protected syscall set (``protect`` only; ``run`` uses
    #: the paper's Table 1 set, optionally extended)
    sensitive: tuple = None
    #: add the §11.2 filesystem-syscall extension set
    extend_filesystem: bool = False
    #: display name used in results and reports (defaults to the
    #: mechanism's name)
    label: str = None
    #: which protection mechanism to run: 'bastion' (the default) or a
    #: repro.mechanisms baseline ('seccomp_allowlist', 'temporal',
    #: 'debloat', 'binary_only', 'llvm_cfi', 'dfi', 'sfip', 'sfip_origin')
    mechanism: str = "bastion"

    def __post_init__(self):
        from repro.mechanisms import MECHANISM_NAMES

        if self.mechanism not in MECHANISM_NAMES:
            raise ValueError(
                "unknown mechanism %r (expected one of %s)"
                % (self.mechanism, ", ".join(MECHANISM_NAMES))
            )

    def defense(self):
        """The equivalent bench-harness :class:`DefenseConfig`."""
        if self.mechanism != "bastion":
            if (
                self.sensitive is not None
                or self.extend_filesystem
                or self.policy != ContextPolicy.full()
            ):
                raise ValueError(
                    "policy/sensitive/extend_filesystem configure the "
                    "BASTION mechanism; they do not apply to mechanism=%r"
                    % (self.mechanism,)
                )
            from repro.mechanisms import defense_for_mechanism

            return defense_for_mechanism(self.mechanism, self.label)
        return DefenseConfig(
            self.label or "bastion",
            cet=self.cet,
            policy=self.policy,
            instrumented=True,
            extend_filesystem=self.extend_filesystem,
        )


def protect(module, config=None, *, sensitive=None, extend_filesystem=False):
    """Compile ``module`` with BASTION protection; returns the artifact.

    Accepts either a :class:`ProtectConfig` or the legacy keyword
    arguments (kept for ``repro.protect`` compatibility).
    """
    if config is not None:
        if sensitive is not None or extend_filesystem:
            raise ValueError("pass either a ProtectConfig or keyword arguments")
        sensitive = config.sensitive
        extend_filesystem = config.extend_filesystem
    return BastionCompiler(
        sensitive=sensitive, extend_filesystem=extend_filesystem
    ).compile(module)


@dataclass
class RunResult:
    """Stable result surface of :func:`run`.

    ``bench`` holds the raw bench-harness result for anything not promoted
    to a stable field; ``baseline`` is the vanilla run used for
    ``overhead_pct`` (``None`` when no baseline was run).
    """

    app: str
    config: str
    ok: bool
    #: percent more steady-state cycles than the unprotected baseline;
    #: ``None`` when no baseline comparison was possible
    overhead_pct: float
    violations: list
    monitor_stats: dict
    work_units: int
    bytes_sent: int
    syscall_counts: dict
    init_cycles: int
    steady_cycles: int
    total_cycles: int
    #: scheduled runs only: per-request latency summary in cycles
    #: (``{'count', 'p50', 'p95', 'p99', 'mean', 'max'}``), else empty
    latency: dict = field(default_factory=dict)
    #: telemetry-bus per-stage cycle attribution ('seccomp', 'trace_stop',
    #: 'verify.unwind', ... — see docs/telemetry.md), else empty
    stage_cycles: dict = field(default_factory=dict)
    bench: object = field(repr=False, default=None)
    baseline: object = field(repr=False, default=None)

    @property
    def stages(self):
        """Per-stage cycle attribution: a dict view over the telemetry bus.

        Keys are dispatch-pipeline stages ('seccomp', 'trace_stop', ...)
        plus the monitor's 'verify.*' sub-stages — see docs/telemetry.md.
        """
        return self.stage_cycles

    @property
    def steady_seconds(self):
        return self.steady_cycles / SIM_HZ

    def latency_ms(self, which="p99"):
        """A latency percentile ('p50'|'p95'|'p99'|'mean') in milliseconds."""
        return 1000.0 * self.latency.get(which, 0) / SIM_HZ

    def throughput_mbps(self):
        return self.bench.throughput_mbps()

    def notpm(self):
        return self.bench.notpm()

    def transfer_seconds(self):
        return self.bench.transfer_seconds()

    def summary(self):
        return self.bench.summary()


#: vanilla runs memoized per (app, scale, app_config)
_baseline_cache = {}


def _resolve_config(config):
    if config is None:
        config = ProtectConfig()
    if isinstance(config, ProtectConfig):
        if config.sensitive is not None:
            raise ValueError(
                "ProtectConfig.sensitive applies to protect(); run() always "
                "uses the paper's sensitive set (extend_filesystem aside)"
            )
        return config.defense()
    if isinstance(config, DefenseConfig):
        return config
    if isinstance(config, str):
        try:
            return CONFIGS[config]
        except KeyError:
            raise ValueError(
                "unknown config %r (expected one of %s)"
                % (config, ", ".join(sorted(CONFIGS)))
            ) from None
    raise TypeError("config must be a ProtectConfig, DefenseConfig, or name")


def run(
    app,
    config=None,
    *,
    scale=1.0,
    workload=None,
    app_config=None,
    compare_baseline=True,
    raise_on_violation=False,
    scheduled=False,
    quantum=None,
):
    """Run ``app`` under ``config`` and return a :class:`RunResult`.

    Args:
        app: 'nginx' | 'sqlite' | 'vsftpd'.
        config: ``None`` (full BASTION, fast path on), a
            :class:`ProtectConfig`, a bench :class:`DefenseConfig`, or a
            name from ``repro.bench.harness.CONFIGS``.
        scale: workload size multiplier.
        workload: custom workload object; disables the baseline comparison
            (workloads are stateful, so no identical second run exists).
        app_config: application build-time configuration override.
        compare_baseline: also run (and memoize) the vanilla baseline so
            ``overhead_pct`` is populated.
        raise_on_violation: re-raise the monitor's verdict as
            :class:`~repro.monitor.monitor.SyscallIntegrityViolation`.
        scheduled: drive the run with the :mod:`repro.sched` preemptive
            scheduler — clone()d children run interleaved with the parent,
            blocking syscalls park their process, and ``RunResult.latency``
            is populated when the workload samples per-request latency
            (``quantum`` implies ``scheduled=True``).
        quantum: preemption quantum in cycles (default
            ``repro.sched.DEFAULT_QUANTUM``).
    """
    defense = _resolve_config(config)
    if quantum is not None:
        scheduled = True
    if scheduled:
        bench = run_app_scheduled(
            app,
            config=defense,
            scale=scale,
            app_config=app_config,
            workload=workload,
            quantum=quantum,
        )
    else:
        bench = run_app(
            app, config=defense, scale=scale, app_config=app_config, workload=workload
        )

    baseline = None
    overhead = None
    if (
        compare_baseline
        and workload is None
        and not scheduled
        and defense.name != "vanilla"
    ):
        key = (app, scale, app_config)
        if key not in _baseline_cache:
            _baseline_cache[key] = run_app(
                app, config="vanilla", scale=scale, app_config=app_config
            )
        baseline = _baseline_cache[key]
        overhead = bench.overhead_pct(baseline)

    if raise_on_violation and bench.violations:
        raise SyscallIntegrityViolation(bench.violations[0])

    return RunResult(
        app=app,
        config=defense.name,
        ok=bench.ok,
        overhead_pct=overhead,
        violations=list(bench.violations),
        monitor_stats=dict(bench.monitor_stats),
        work_units=bench.work_units,
        bytes_sent=bench.bytes_sent,
        syscall_counts=dict(bench.syscall_counts),
        init_cycles=bench.init_cycles,
        steady_cycles=bench.steady_cycles,
        total_cycles=bench.total_cycles,
        latency=dict(bench.latency),
        stage_cycles=dict(bench.stage_cycles),
        bench=bench,
        baseline=baseline,
    )


def bench(
    *,
    workers=None,
    configs=None,
    scale=None,
    clock=None,
    calibration=None,
):
    """Measure the pinned performance-trajectory matrix.

    Returns the list of per-cell records that ``BENCH_<pr>.json``
    serializes (``python -m repro.bench trajectory`` — see docs/perf.md):
    deterministic cycle fields plus the spin-calibrated ``wall_index``.

    Args:
        workers: worker counts to sweep (default: the pinned matrix).
        configs: config names from ``bench.harness.CONFIGS`` or
            :class:`ProtectConfig` / DefenseConfig objects (default: the
            pinned matrix).
        scale: workload scale (default: the pinned trajectory scale).
        clock: injectable timer (tests); defaults to CPU process time.
        calibration: seconds-per-spin override (tests).
    """
    from repro.bench import trajectory

    kwargs = {}
    if workers is not None:
        kwargs["workers"] = tuple(workers)
    if configs is not None:
        kwargs["configs"] = tuple(_resolve_config(c) for c in configs)
    if scale is not None:
        kwargs["scale"] = scale
    if clock is not None:
        kwargs["clock"] = clock
    if calibration is not None:
        kwargs["calibration"] = calibration
    return trajectory.measure_cells(**kwargs)


def analyze(target, config=None, *, waivers=None, strict=False):
    """Run the static-analysis pass suite; returns an ``AnalysisReport``.

    Args:
        target: a registered app name ('nginx', ...), an IR ``Module``, or
            an already-compiled ``BastionArtifact``.
        config: optional :class:`ProtectConfig` controlling the compile
            (app-name and Module targets only).
        waivers: iterable of :class:`repro.analyze.Waiver`; defaults to the
            shipped table.  Pass ``()`` to disable waivers entirely.
        strict: raise :class:`AnalysisFailure` unless the report is clean
            (``False``: the report is returned regardless).
    """
    from repro.analyze import SHIPPED_WAIVERS, analyze_artifact
    from repro.compiler.pipeline import BastionArtifact

    if waivers is None:
        waivers = SHIPPED_WAIVERS
    if isinstance(target, BastionArtifact):
        artifact = target
    else:
        if isinstance(target, str):
            from repro.apps import build_app_module

            module = build_app_module(target)
        else:
            module = target
        cfg = config if config is not None else ProtectConfig()
        artifact = BastionCompiler(
            sensitive=cfg.sensitive,
            extend_filesystem=cfg.extend_filesystem,
        ).compile(module)
    report = analyze_artifact(artifact, waivers=waivers)
    if strict and not report.clean:
        raise AnalysisFailure(report)
    return report


class AnalysisFailure(AssertionError):
    """Raised by :func:`analyze(strict=True)` when findings survive waivers."""

    def __init__(self, report):
        super().__init__(report.render_text())
        self.report = report
