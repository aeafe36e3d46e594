"""The reference monitor stop: every check re-derived at every stop.

This is the monitor stop as it was before its plans (docs/perf.md §7):
a fresh ptrace handle per stop that charges through
``CycleLedger.charge``, an unwinder that decodes the call before every
return address from the image (``Image.call_kind_at``, then
``func_containing``), shadow-table readers that probe through a
generator, metadata resolved per monitor and argument specs looked up per
stop.  It follows the planned stop's rules for the tracee state it
reads: the registers come from the syscall in flight, and a read the
tracee could not make fails, which ends the unwind at that frame and
fails argument integrity anywhere else.
:func:`reference_stops` swaps it in for
``BastionMonitor.on_syscall_stop``, so any run can be replayed through it
and diffed against the planned stop (``tests/monitor/test_stop_plans.py``).
"""

import contextlib
from dataclasses import dataclass, field

from repro.errors import MonitorError, PtraceError, SegmentationFault
from repro.kernel.errno import EFAULT, EIO
from repro.kernel.process import RegisterFile
from repro.monitor.cache import VerdictCache, VerificationDeps
from repro.monitor.monitor import BastionMonitor
from repro.monitor.unwind import Frame, callee_param_slot
from repro.monitor.verify import MAX_EXTENDED_SLOTS, Violation
from repro.runtime.shadow_table import BIND_MEM, BINDINGS_LAYOUT, COPIES_LAYOUT
from repro.syscalls.argspec import ArgKind, argspec_for
from repro.vm.loader import INSTR_STRIDE
from repro.vm.memory import WORD


class ReferencePtrace:
    """The ptrace handle, charging every access through ``ledger.charge``."""

    def __init__(self, proc, costs, transport="ptrace"):
        if transport not in ("ptrace", "inkernel"):
            raise MonitorError("unknown ptrace transport %r" % transport)
        self.proc = proc
        self.costs = costs
        self.transport = transport
        self.getregs_calls = 0
        self.peek_calls = 0
        self.readv_calls = 0
        self.words_read = 0

    def _charge(self, ptrace_cost, nwords=0):
        ledger = self.proc.ledger
        if self.transport == "inkernel":
            ledger.charge(self.costs.inkernel_state_access + nwords, "monitor")
        else:
            ledger.charge(ptrace_cost + self.costs.readv_per_word * nwords, "ptrace")

    def getregs(self):
        self.getregs_calls += 1
        self._charge(self.costs.ptrace_getregs)
        return RegisterFile.of(self.proc.syscall)

    def peekdata(self, addr):
        self.peek_calls += 1
        self.words_read += 1
        self._charge(self.costs.ptrace_peek, 1)
        try:
            return self.proc.memory.read(addr)
        except SegmentationFault as fault:
            raise PtraceError(EIO, "PTRACE_PEEKDATA: %s" % fault) from None

    def readv(self, addr, nwords):
        self.readv_calls += 1
        self.words_read += nwords
        self._charge(self.costs.readv_base, nwords)
        try:
            return self.proc.memory.read_block(addr, nwords)
        except SegmentationFault as fault:
            raise PtraceError(EFAULT, "process_vm_readv: %s" % fault) from None

    def read_vector(self, addr, max_entries=32):
        out = []
        for word in self.readv(addr, max_entries):
            if word == 0:
                break
            out.append(word)
        return out

    def kill_tracee(self, reason):
        self.proc.kill(reason)


class ReferenceReader:
    """A shadow-table reader probing through ``layout.probe_sequence``."""

    MAX_PROBES = 64

    def __init__(self, read_block, layout):
        self.read_block = read_block
        self.layout = layout

    def get(self, key):
        probes = 0
        for slot in self.layout.probe_sequence(key):
            probes += 1
            if probes > self.MAX_PROBES:
                return None
            addr = self.layout.entry_addr(slot)
            words = self.read_block(addr, self.layout.entry_words)
            if words[0] == key:
                return words[1:]
            if words[0] == 0:
                return None
        return None


def reference_unwind(pt, regs, image, max_frames=64):
    """The unwinder that decodes every hop from the image."""
    frames = []
    fp = regs.rbp
    func = image.func_containing(regs.rip)
    while len(frames) < max_frames:
        try:
            saved_fp, return_addr = pt.readv(fp, 2)
        except PtraceError:
            frames.append(Frame(func, fp, 0, None, None))
            break
        if return_addr == 0:
            frames.append(Frame(func, fp, 0, None, "bottom"))
            break
        callsite_addr = return_addr - INSTR_STRIDE
        kind = image.call_kind_at(callsite_addr)
        frames.append(Frame(func, fp, return_addr, callsite_addr, kind))
        if kind is None:
            break
        func = image.func_containing(callsite_addr)
        fp = saved_fp
        if func is None:
            break
    return frames


@dataclass
class ReferenceResolved:
    valid_callers: dict = field(default_factory=dict)
    indirect_sites: set = field(default_factory=set)
    callsites: dict = field(default_factory=dict)
    address_taken: set = field(default_factory=set)
    global_field_slots: tuple = ()


def reference_resolve(metadata, image):
    resolved = ReferenceResolved()

    def addr(site_key):
        return image.addr_of(site_key.func, site_key.index)

    for callee, sites in metadata.valid_callers.items():
        resolved.valid_callers[callee] = {addr(s) for s in sites}
    resolved.indirect_sites = {addr(s) for s in metadata.indirect_sites}
    resolved.callsites = {addr(meta.site): meta for meta in metadata.callsites.values()}
    resolved.address_taken = set(metadata.address_taken)
    resolved.global_field_slots = tuple(
        image.global_addr[name] + 8 * offset
        for name, offset in metadata.global_field_slots
        if name in image.global_addr
    )
    return resolved


class ReferenceVerifier:
    """The three context verifiers, deriving everything per stop."""

    def __init__(self, metadata, image, resolved, costs):
        self.metadata = metadata
        self.image = image
        self.resolved = resolved
        self.costs = costs
        self.charge_checks = True
        self.deps = None

    def _charge_check(self, pt):
        if self.charge_checks:
            pt.proc.ledger.charge(self.costs.monitor_check, "monitor")

    def verify_call_type(self, pt, regs, syscall_name, frames, inline):
        self._charge_check(pt)
        allowed = self.metadata.call_types.get(syscall_name)
        if not allowed:
            return Violation("call-type", syscall_name, "not-callable syscall invoked", regs.rip)
        if inline:
            if not allowed.get("direct"):
                return Violation(
                    "call-type",
                    syscall_name,
                    "inline syscall but only indirect use is permitted",
                    regs.rip,
                )
            return None
        frame0 = frames[0]
        kind = frame0.kind
        if kind in ("bottom", None):
            return None
        if kind == "direct":
            if not allowed.get("direct"):
                return Violation(
                    "call-type",
                    syscall_name,
                    "direct invocation of an indirect-only syscall",
                    regs.rip,
                )
            return None
        if not allowed.get("indirect"):
            return Violation(
                "call-type",
                syscall_name,
                "indirect invocation of a direct-only syscall",
                regs.rip,
            )
        self._charge_check(pt)
        if frame0.callsite_addr not in self.resolved.indirect_sites:
            return Violation(
                "call-type",
                syscall_name,
                "indirect call from an unknown callsite %#x" % frame0.callsite_addr,
                regs.rip,
            )
        return None

    def verify_control_flow(self, pt, regs, syscall_name, frames):
        for frame in frames:
            self._charge_check(pt)
            if frame.kind == "bottom":
                if (
                    frame.func != self.metadata.entry
                    and frame.func not in self.metadata.thread_entries
                ):
                    return Violation(
                        "control-flow",
                        syscall_name,
                        "stack bottoms out in %r, not %s or a thread entry"
                        % (frame.func, self.metadata.entry),
                        regs.rip,
                    )
                return None
            if frame.kind is None and frame.callsite_addr is None:
                return Violation(
                    "control-flow",
                    syscall_name,
                    "frame of %s at %#x cannot be read" % (frame.func, frame.fp),
                    regs.rip,
                )
            if frame.kind is None:
                return Violation(
                    "control-flow",
                    syscall_name,
                    "return address %#x does not follow a call" % frame.return_addr,
                    regs.rip,
                )
            if frame.kind == "indirect":
                if frame.callsite_addr not in self.resolved.indirect_sites:
                    return Violation(
                        "control-flow",
                        syscall_name,
                        "indirect callsite %#x not in the binary" % frame.callsite_addr,
                        regs.rip,
                    )
                if frame.func not in self.metadata.address_taken:
                    return Violation(
                        "control-flow",
                        syscall_name,
                        "function %r reached indirectly but never address-taken" % frame.func,
                        regs.rip,
                    )
                return None
            valid = self.resolved.valid_callers.get(frame.func)
            if not valid or frame.callsite_addr not in valid:
                return Violation(
                    "control-flow",
                    syscall_name,
                    "%s called from illegitimate callsite %s"
                    % (frame.func, self.image.describe(frame.callsite_addr)),
                    regs.rip,
                )
        return Violation("control-flow", syscall_name, "stack unwind exhausted", regs.rip)

    def verify_arg_integrity(self, pt, regs, syscall_name, frames, inline, enforce):
        copies = ReferenceReader(pt.readv, COPIES_LAYOUT)
        bindings = ReferenceReader(pt.readv, BINDINGS_LAYOUT)
        syscall_site = regs.rip if inline else frames[0].callsite_addr
        meta = self.resolved.callsites.get(syscall_site)
        if meta is None or meta.syscall is None:
            if enforce:
                return Violation(
                    "arg-integrity",
                    syscall_name,
                    "no binding metadata for syscall callsite %s"
                    % self.image.describe(syscall_site or 0),
                    regs.rip,
                )
            return None
        verdict = self._verify_syscall_site(
            pt, regs, syscall_name, syscall_site, meta, copies, bindings, enforce
        )
        if verdict is not None:
            return verdict
        verdict = self.verify_global_fields(pt, regs, syscall_name, enforce)
        if verdict is not None:
            return verdict
        for frame in frames[1:]:
            if frame.kind in ("bottom", None):
                break
            frame_meta = self.resolved.callsites.get(frame.callsite_addr)
            if frame_meta is None:
                continue
            verdict = self._verify_passthrough_site(
                pt, regs, syscall_name, frame, frame_meta, copies, enforce
            )
            if verdict is not None:
                return verdict
        return None

    def verify_global_fields(self, pt, regs, syscall_name, enforce):
        copies = ReferenceReader(pt.readv, COPIES_LAYOUT)
        for slot_addr in self.resolved.global_field_slots:
            self._charge_check(pt)
            shadow = self._shadow_value(copies, slot_addr)
            if shadow is None:
                continue
            actual = pt.peekdata(slot_addr)
            if enforce and actual != shadow:
                return Violation(
                    "arg-integrity",
                    syscall_name,
                    "sensitive global field at %#x corrupted (%d != shadow %d)"
                    % (slot_addr, actual, shadow),
                    regs.rip,
                )
        return None

    def _shadow_value(self, copies, addr):
        if self.deps is not None:
            self.deps.read_shadow(addr)
        entry = copies.get(addr)
        return None if entry is None else entry[0]

    def _verify_syscall_site(
        self, pt, regs, syscall_name, site_addr, meta, copies, bindings, enforce
    ):
        spec = argspec_for(syscall_name)
        if self.deps is not None:
            self.deps.read_bindings(site_addr)
        record = bindings.get(site_addr)
        for binding in meta.binds:
            self._charge_check(pt)
            actual = regs.arg(binding.position)
            if binding.kind == "const":
                if enforce and actual != binding.value:
                    return Violation(
                        "arg-integrity",
                        syscall_name,
                        "arg%d: constant %d corrupted to %d"
                        % (binding.position, binding.value, actual),
                        regs.rip,
                    )
            else:
                if record is None:
                    if enforce:
                        return Violation(
                            "arg-integrity",
                            syscall_name,
                            "no runtime binding record for callsite",
                            regs.rip,
                        )
                    continue
                kind = record[1 + (binding.position - 1) * 2]
                payload = record[2 + (binding.position - 1) * 2]
                if kind != BIND_MEM:
                    if enforce:
                        return Violation(
                            "arg-integrity",
                            syscall_name,
                            "arg%d: binding record missing/clobbered" % binding.position,
                            regs.rip,
                        )
                    continue
                expected = self._shadow_value(copies, payload)
                if enforce and expected is None:
                    return Violation(
                        "arg-integrity",
                        syscall_name,
                        "arg%d: bound variable has no shadow copy" % binding.position,
                        regs.rip,
                    )
                if enforce and expected != actual:
                    return Violation(
                        "arg-integrity",
                        syscall_name,
                        "arg%d: value %d, shadow copy %d" % (binding.position, actual, expected),
                        regs.rip,
                    )
            arg_kind = spec.kind(binding.position)
            if arg_kind in (ArgKind.EXTENDED, ArgKind.VECTOR) and actual > 0:
                if self.deps is not None:
                    self.deps.mark_volatile()
            if arg_kind == ArgKind.EXTENDED and actual > 0:
                verdict = self._verify_pointee(
                    pt, regs, syscall_name, binding.position, actual, copies, enforce
                )
                if verdict is not None:
                    return verdict
            elif arg_kind == ArgKind.VECTOR and actual > 0:
                for ptr in pt.read_vector(actual, 16):
                    verdict = self._verify_pointee(
                        pt, regs, syscall_name, binding.position, ptr, copies, enforce
                    )
                    if verdict is not None:
                        return verdict
        return None

    def _verify_pointee(self, pt, regs, syscall_name, position, pointer, copies, enforce):
        for i in range(MAX_EXTENDED_SLOTS):
            slot_addr = pointer + i * WORD
            actual = pt.peekdata(slot_addr)
            shadow = self._shadow_value(copies, slot_addr)
            if shadow is not None and enforce and shadow != actual:
                return Violation(
                    "arg-integrity",
                    syscall_name,
                    "arg%d: pointee slot %d corrupted (%d != shadow %d)"
                    % (position, i, actual, shadow),
                    regs.rip,
                )
            if actual == 0:
                break
        return None

    def _verify_passthrough_site(self, pt, regs, syscall_name, frame, meta, copies, enforce):
        bindings = ReferenceReader(pt.readv, BINDINGS_LAYOUT)
        if self.deps is not None:
            self.deps.read_bindings(frame.callsite_addr)
        record = bindings.get(frame.callsite_addr)
        for binding in meta.binds:
            self._charge_check(pt)
            actual = pt.peekdata(callee_param_slot(frame, binding.position))
            if binding.kind == "const":
                if enforce and actual != binding.value:
                    return Violation(
                        "arg-integrity",
                        syscall_name,
                        "frame %s arg%d: constant %d corrupted to %d"
                        % (frame.func, binding.position, binding.value, actual),
                        regs.rip,
                    )
                continue
            if record is None:
                continue
            kind = record[1 + (binding.position - 1) * 2]
            payload = record[2 + (binding.position - 1) * 2]
            if kind != BIND_MEM:
                continue
            expected = self._shadow_value(copies, payload)
            if enforce and expected is not None and expected != actual:
                return Violation(
                    "arg-integrity",
                    syscall_name,
                    "frame %s arg%d: value %d, shadow copy %d"
                    % (frame.func, binding.position, actual, expected),
                    regs.rip,
                )
        return None


def _reference_verifier(monitor):
    verifier = getattr(monitor, "_reference_verifier", None)
    if verifier is None:
        resolved = reference_resolve(monitor.metadata, monitor.image)
        verifier = ReferenceVerifier(monitor.metadata, monitor.image, resolved, monitor.costs)
        verifier.charge_checks = monitor.policy.enforcing
        monitor._reference_verifier = verifier
    return verifier


def reference_on_syscall_stop(self, proc, syscall_name):
    """``BastionMonitor.on_syscall_stop`` with every check re-derived."""
    verifier = _reference_verifier(self)
    self.stats.count_hook(syscall_name)
    stop_counts = self.session_of(proc.pid).stop_counts
    stop_counts[syscall_name] = stop_counts.get(syscall_name, 0) + 1
    policy = self.policy
    if policy.mode == "hook_only":
        return False

    pt = ReferencePtrace(proc, self.costs, transport=policy.transport)
    regs = pt.getregs()
    bus = self.stats.bus
    ledger = proc.ledger

    key = None
    if self.cache is not None:
        before = ledger.cycles
        try:
            key = VerdictCache.key_for(syscall_name, regs, proc.pid)
            pt.proc.ledger.charge(self.costs.verdict_cache_lookup, "monitor")
            entry = self.cache.lookup(key)
            if entry is not None and self.cache.probe_ok(entry, pt, regs):
                resident = None
                if policy.arg_integrity:
                    resident = verifier.verify_global_fields(pt, regs, syscall_name, True)
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

    func_name = self.image.func_containing(regs.rip)
    if func_name is None:
        self._verdict(
            pt, Violation("call-type", syscall_name, "syscall outside text", regs.rip)
        )
        return False
    known = self.metadata.syscall_functions.get(func_name, ())
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
    func = self.image.module.functions[func_name]
    inline = not func.is_wrapper

    max_frames = 64 if policy.control_flow or policy.arg_integrity else 1
    before = ledger.cycles
    frames = reference_unwind(pt, regs, self.image, max_frames=max_frames)
    bus.charge_stage("verify.unwind", ledger.cycles - before)
    self.stats.sample_unwind(len(frames))

    enforce = policy.enforcing
    deps = VerificationDeps() if self.cache is not None else None
    verifier.deps = deps
    try:
        if policy.call_type:
            before = ledger.cycles
            verdict = verifier.verify_call_type(pt, regs, syscall_name, frames, inline)
            bus.charge_stage("verify.call_type", ledger.cycles - before)
            if verdict is not None and enforce:
                self._verdict(pt, verdict)
                return False
        if policy.control_flow:
            before = ledger.cycles
            verdict = verifier.verify_control_flow(pt, regs, syscall_name, frames)
            bus.charge_stage("verify.control_flow", ledger.cycles - before)
            if verdict is not None and enforce:
                self._verdict(pt, verdict)
                return False
        if policy.arg_integrity:
            before = ledger.cycles
            try:
                verdict = verifier.verify_arg_integrity(
                    pt, regs, syscall_name, frames, inline, enforce
                )
            except PtraceError as error:
                verdict = Violation("arg-integrity", syscall_name, error.strerror, regs.rip)
            bus.charge_stage("verify.arg_integrity", ledger.cycles - before)
            if verdict is not None and enforce:
                self._verdict(pt, verdict)
                return False
    finally:
        verifier.deps = None

    if self.cache is not None:
        self.cache.store(key, frames, deps)
    return False


@contextlib.contextmanager
def reference_stops():
    """Within the block, every monitor stop takes the reference path."""
    planned = BastionMonitor.on_syscall_stop
    BastionMonitor.on_syscall_stop = reference_on_syscall_stop
    try:
        yield
    finally:
        BastionMonitor.on_syscall_stop = planned
