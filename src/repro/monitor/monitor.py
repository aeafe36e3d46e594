"""The BASTION monitor process (§7).

Lifecycle (§7.1):

1. **Load metadata** and resolve its symbolic program points against the
   binary image (the ELF/DWARF step of the paper).
2. **Launch** the protected application: create the process, seed the
   shadow-memory region in *its* address space (initial shadow copies of
   statically-identified sensitive globals), build and install the seccomp
   filter (ALLOW non-sensitive, KILL not-callable, TRACE sensitive), and
   attach as tracer.
3. **Handle syscall stops**: on each ``SECCOMP_RET_TRACE`` stop, fetch
   registers, unwind the stack, and verify Call-Type, then Control-Flow,
   then Argument-Integrity; kill the application on the first violation.

Step 1 runs once per artifact, not once per monitor: the resolved
metadata, with each callsite's verification plan, lives on the artifact
(:func:`resolved_metadata`), so the monitors of every launch share it and
a stop derives nothing the image and the metadata already fix.
"""

from dataclasses import dataclass, field

from repro.errors import ProcessKilled, PtraceError
from repro.kernel.ptrace import PtraceHandle
from repro.kernel.seccomp import (
    SECCOMP_RET_KILL_PROCESS,
    SECCOMP_RET_TRACE,
    build_action_filter,
)
from repro.monitor.cache import MonitorStats, VerdictCache, VerificationDeps
from repro.monitor.policy import ContextPolicy
from repro.monitor.unwind import code_sites, unwind_stack
from repro.monitor.verify import ContextVerifier, Violation, bind_plan
from repro.runtime.bastion_rt import BastionRuntime
from repro.syscalls.table import SYSCALLS
from repro.vm.costs import DEFAULT_COSTS
from repro.vm.cpu import CPU, CPUOptions


class SyscallIntegrityViolation(ProcessKilled):
    """The monitor's kill verdict, as a catchable exception.

    Raised by the kernel dispatcher when the monitor kills the protected
    application at a trace stop, so callers driving the kernel directly can
    ``except SyscallIntegrityViolation`` (``repro.api.run`` re-raises it on
    request via ``raise_on_violation=True``).  Carries the underlying
    :class:`~repro.monitor.verify.Violation` record.
    """

    def __init__(self, violation, message=None):
        super().__init__(
            message or str(violation), reason=getattr(violation, "context", None)
        )
        self.violation = violation

    @property
    def context(self):
        return self.violation.context

    @property
    def syscall(self):
        return self.violation.syscall

    @property
    def detail(self):
        return self.violation.detail


@dataclass
class MonitorSession:
    """Per-tracee monitor state (one per pid, created at its first stop).

    The paper's monitor ptrace-attaches to every process the application
    forks (§7.1) and fields stops from whichever tracee the kernel
    schedules next.  Policy, metadata, and the verdict cache are shared
    across the whole tree; what is *per-tracee* is the bookkeeping below —
    the shadow state itself lives in the (shared) address space, and the
    unwinder always walks the stopped pid's own stack because registers
    and stack slots are per-process.
    """

    pid: int
    #: syscall name -> stops fielded for this tracee
    stop_counts: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    killed: bool = False
    #: the monitor's ptrace handle on this tracee, made at its first stop
    pt: PtraceHandle = None


@dataclass
class _ResolvedMetadata:
    """Metadata with program points resolved to code addresses.

    Shared by every monitor of one artifact (:func:`resolved_metadata`)
    and never changed after it is built.
    """

    valid_callers: dict = field(default_factory=dict)  # func -> set(addr)
    indirect_sites: set = field(default_factory=set)
    callsites: dict = field(default_factory=dict)  # addr -> CallsiteMeta
    #: addr -> the callsite's binds as a plan for its own syscall
    #: (:func:`repro.monitor.verify.bind_plan`)
    plans: dict = field(default_factory=dict)
    #: syscall instruction addr -> (function, the syscalls its metadata
    #: lets it issue, whether the syscall is inline: not in a wrapper)
    syscall_sites: dict = field(default_factory=dict)
    address_taken: set = field(default_factory=set)
    global_field_slots: tuple = ()  # absolute addresses of sensitive fields


def resolved_metadata(artifact, image):
    """``artifact``'s metadata resolved against ``image``, the loaded image
    of its instrumented module: built once per artifact and image.

    Like the loader's derivations, it assumes the artifact's metadata is
    not edited after the artifact's first launch.
    """
    return artifact.derive(
        ("monitor.resolved", image), lambda artifact: _resolve(artifact.metadata, image)
    )


def _resolve(metadata, image):
    """Turn SiteKeys into code addresses using the program image."""
    resolved = _ResolvedMetadata()

    def addr(site_key):
        return image.addr_of(site_key.func, site_key.index)

    for callee, sites in metadata.valid_callers.items():
        resolved.valid_callers[callee] = {addr(s) for s in sites}
    resolved.indirect_sites = {addr(s) for s in metadata.indirect_sites}
    resolved.callsites = {addr(meta.site): meta for meta in metadata.callsites.values()}
    resolved.plans = {
        site: bind_plan(meta.binds, meta.syscall)
        for site, meta in resolved.callsites.items()
    }
    resolved.syscall_sites = {
        rip: _syscall_site(metadata, image, name) for rip, name in code_sites(image)[1].items()
    }
    resolved.address_taken = set(metadata.address_taken)
    resolved.global_field_slots = tuple(
        image.global_addr[name] + 8 * offset
        for name, offset in metadata.global_field_slots
        if name in image.global_addr
    )
    return resolved


def _syscall_site(metadata, image, func_name):
    return (
        func_name,
        metadata.syscall_functions.get(func_name, ()),
        not image.module.functions[func_name].is_wrapper,
    )


class BastionMonitor:
    """Runtime enforcement monitor for one protected application."""

    def __init__(self, artifact, policy=None, costs=DEFAULT_COSTS):
        self.artifact = artifact
        self.metadata = artifact.metadata
        self.policy = policy or ContextPolicy.full()
        self.costs = costs
        self.image = artifact.image()
        self.resolved = resolved_metadata(artifact, self.image)
        self.verifier = ContextVerifier(
            self.metadata, self.image, self.resolved, costs
        )
        self.verifier.charge_checks = self.policy.enforcing

        #: kernel consults these: hook-only mode skips the trace-stop cost,
        #: an in-kernel monitor never context-switches (§11.2 ablation)
        self.stops_at_trace = self.policy.mode != "hook_only"
        self.in_kernel = self.policy.transport == "inkernel"

        self.stats = MonitorStats()
        self.violations = []
        #: pid -> MonitorSession, created lazily at each tracee's first stop
        self.sessions = {}
        #: the fast path only memoizes *enforced* ALLOW verdicts — the
        #: fetch-state/hook-only accounting ablations never produce one
        self.cache = (
            VerdictCache(stats=self.stats)
            if self.policy.verdict_cache and self.policy.enforcing
            else None
        )

    # ------------------------------------------------------------------
    # initialization (§7.1)
    # ------------------------------------------------------------------

    def check_metadata_consistency(self):
        """Audit the loaded metadata against the program image and IR.

        Runs the :mod:`repro.analyze` consistency pass over this monitor's
        artifact and additionally confirms every ``SiteKey`` the monitor
        resolved maps to a real code address in the loaded image.  Returns
        the list of :class:`repro.analyze.Diagnostic` findings (empty when
        the metadata is exactly the one the IR derives).  Intended for
        launch-time self-checks and the ``repro.analyze`` CLI; the monitor
        itself never calls it on the hot path.
        """
        # Imported lazily: repro.analyze depends on the compiler package,
        # and the monitor must stay importable without it.
        from repro.analyze.consistency import check_consistency, PASS_NAME
        from repro.analyze.diagnostics import Diagnostic

        diagnostics, _metrics = check_consistency(
            self.artifact.module, self.metadata
        )
        image = self.image
        for site in sorted(
            {s for sites in self.metadata.valid_callers.values() for s in sites}
            | set(self.metadata.indirect_sites)
            | set(self.metadata.callsites)
        ):
            try:
                image.addr_of(site.func, site.index)
            except (KeyError, IndexError):
                diagnostics.append(
                    Diagnostic(
                        PASS_NAME,
                        "unresolvable-site",
                        "error",
                        "SiteKey does not resolve to a code address in the "
                        "loaded image",
                        func=site.func,
                        index=site.index,
                    )
                )
        return diagnostics

    def build_filter(self):
        """The seccomp-BPF program of §7.1.

        - not-callable syscalls (never used by the program): KILL;
        - used sensitive syscalls: TRACE (stop into this monitor);
        - everything else: ALLOW.
        """
        actions = {}
        used = self.metadata.call_types
        sensitive = set(self.metadata.sensitive_set)
        for entry in SYSCALLS:
            if entry.name not in used:
                # KILLing not-callable syscalls is the coarse half of the
                # call-type context; without CT the filter only TRACEs the
                # sensitive set so the other contexts still get their stops.
                if self.policy.call_type:
                    actions[entry.nr] = SECCOMP_RET_KILL_PROCESS
                elif entry.name in sensitive:
                    actions[entry.nr] = SECCOMP_RET_TRACE
            elif entry.name in sensitive:
                actions[entry.nr] = SECCOMP_RET_TRACE
        return build_action_filter(actions, label="bastion:%s" % self.metadata.program)

    def attach(self, kernel, proc):
        """Install this monitor on an existing process of ``kernel``.

        Sets up the BASTION runtime and shadow globals, installs the
        seccomp filter, registers as the process's tracer, and rebinds the
        monitor's stats view onto the kernel's telemetry bus (so every
        ``monitor.*`` counter lands on the one spine).
        """
        runtime = BastionRuntime(proc)
        runtime.initialize_globals(self.image, self.metadata.sensitive_globals)
        proc.bastion_runtime = runtime
        if self.cache is not None:
            runtime.subscribe(self)
        kernel.install_seccomp(proc, self.build_filter())
        proc.tracer = self
        self.stats.rebind(kernel.telemetry)
        return proc

    def launch(self, kernel, cpu_options=None):
        """Fork + set up the protected application; returns ``(proc, cpu)``.

        The caller drives ``cpu.run()``; the monitor fields syscall stops.
        """
        proc = kernel.create_process(self.metadata.program, self.image)
        self.attach(kernel, proc)
        options = cpu_options or CPUOptions(cet=True)
        cpu = CPU(self.image, proc, kernel, options)
        return proc, cpu

    # ------------------------------------------------------------------
    # syscall stops (§7.2–§7.4)
    # ------------------------------------------------------------------

    def on_syscall_stop(self, proc, syscall_name):
        """Called by the kernel at each SECCOMP_RET_TRACE stop.

        Returns ``True`` when the stop resolved on the fast path (a cached
        ALLOW verdict revalidated); the kernel then batches the trace-stop
        context-switch cost instead of charging a full round trip.
        """
        self.stats.count_hook(syscall_name)
        session = self.session_of(proc.pid)
        stop_counts = session.stop_counts
        stop_counts[syscall_name] = stop_counts.get(syscall_name, 0) + 1
        policy = self.policy
        if policy.mode == "hook_only":
            return False

        pt = session.pt
        if pt is None or pt.proc is not proc:
            pt = session.pt = PtraceHandle(proc, self.costs, transport=policy.transport)
        regs = pt.getregs()
        bus = self.stats.bus
        ledger = proc.ledger

        # -- fast path: memoized ALLOW verdict (cache.py) ------------------
        key = None
        if self.cache is not None:
            before = ledger.cycles
            try:
                key = VerdictCache.key_for(syscall_name, regs, proc.pid)
                pt.proc.ledger.charge(self.costs.verdict_cache_lookup, "monitor")
                entry = self.cache.lookup(key)
                if entry is not None and self.cache.probe_ok(entry, pt, regs):
                    # resident check: sensitive global struct fields are
                    # compared in place on every hit — data-only corruption of
                    # a cached callsite's globals is invisible to the
                    # register fingerprint but not to this sweep.
                    resident = None
                    if policy.arg_integrity:
                        resident = self.verifier.verify_global_fields(
                            pt, regs, syscall_name, True
                        )
                    if resident is None:
                        self.stats.cache_hits += 1
                        self.stats.trap_stops_batched += 1
                        return True
                    self.cache.invalidate_key(key)
                    self._verdict(pt, resident)
                    return False
            finally:
                bus.charge_stage("verify.cache", ledger.cycles - before)
            self.stats.cache_misses += 1
        self.stats.trap_stops_full += 1

        # -- slow path: full unwind + three-context verification -----------
        site = self.resolved.syscall_sites.get(regs.rip)
        if site is None:  # no syscall instruction of the image
            func_name = self.image.func_containing(regs.rip)
            if func_name is None:
                self._verdict(
                    pt,
                    Violation("call-type", syscall_name, "syscall outside text", regs.rip),
                )
                return False
            site = _syscall_site(self.metadata, self.image, func_name)
        func_name, known, inline = site
        if syscall_name not in known:
            self._verdict(
                pt,
                Violation(
                    "call-type",
                    syscall_name,
                    "syscall from unexpected function %s" % func_name,
                    regs.rip,
                ),
            )
            return False

        # Call-type alone only needs the invoking callsite (one frame); the
        # control-flow and argument-integrity contexts walk the whole stack.
        if policy.control_flow or policy.arg_integrity:
            max_frames = 64
        else:
            max_frames = 1
        before = ledger.cycles
        frames = unwind_stack(pt, regs, self.image, max_frames=max_frames)
        bus.charge_stage("verify.unwind", ledger.cycles - before)
        self.stats.sample_unwind(len(frames))

        enforce = policy.enforcing
        deps = VerificationDeps() if self.cache is not None else None
        self.verifier.deps = deps
        try:
            if policy.call_type:
                before = ledger.cycles
                verdict = self.verifier.verify_call_type(
                    pt, regs, syscall_name, frames, inline
                )
                bus.charge_stage("verify.call_type", ledger.cycles - before)
                if verdict is not None and enforce:
                    self._verdict(pt, verdict)
                    return False
            if policy.control_flow:
                before = ledger.cycles
                verdict = self.verifier.verify_control_flow(
                    pt, regs, syscall_name, frames
                )
                bus.charge_stage("verify.control_flow", ledger.cycles - before)
                if verdict is not None and enforce:
                    self._verdict(pt, verdict)
                    return False
            if policy.arg_integrity:
                before = ledger.cycles
                try:
                    verdict = self.verifier.verify_arg_integrity(
                        pt, regs, syscall_name, frames, inline, enforce
                    )
                except PtraceError as error:  # a pointee or parameter slot
                    verdict = Violation("arg-integrity", syscall_name, error.strerror, regs.rip)
                bus.charge_stage("verify.arg_integrity", ledger.cycles - before)
                if verdict is not None and enforce:
                    self._verdict(pt, verdict)
                    return False
        finally:
            self.verifier.deps = None

        if self.cache is not None:
            self.cache.store(key, frames, deps)
        return False

    # -- shadow-update notifications (BastionRuntime.subscribe) -------------

    def on_shadow_write(self, slot_addr):
        if self.cache is not None:
            self.cache.invalidate_shadow(slot_addr)

    def on_bind_write(self, callsite_addr):
        if self.cache is not None:
            self.cache.invalidate_callsite(callsite_addr)

    def session_of(self, pid):
        """The per-tracee session for ``pid`` (created on first use)."""
        session = self.sessions.get(pid)
        if session is None:
            session = self.sessions[pid] = MonitorSession(pid)
        return session

    def _verdict(self, pt, violation):
        """Record the violation and kill the *stopped tracee* (§7.2).

        Only the offending pid dies: siblings sharing the same filters and
        monitor keep running (asserted by the inheritance tests).
        """
        self.violations.append(violation)
        self.stats.violation_count += 1
        session = self.session_of(pt.proc.pid)
        session.violations.append(violation)
        session.killed = True
        pt.proc.pending_exception = SyscallIntegrityViolation(violation)
        pt.kill_tracee(str(violation))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def summary(self):
        lines = [
            "BASTION monitor [%s] for %s"
            % (self.policy.label(), self.metadata.program),
            "  hooks: %d  violations: %d" % (self.stats.hooks, len(self.violations)),
        ]
        if self.cache is not None:
            lines.append(
                "  cache: %d hits / %d misses (%.1f%%)  invalidations: %d"
                % (
                    self.stats.cache_hits,
                    self.stats.cache_misses,
                    100.0 * self.stats.hit_rate,
                    self.stats.invalidations,
                )
            )
        for name, count in sorted(self.stats.hook_counts.items(), key=lambda kv: -kv[1]):
            lines.append("  %-18s %d" % (name, count))
        return "\n".join(lines)
