"""The three context verifiers (§7.2–§7.4).

Each verifier receives only what a real out-of-process monitor has: the
register file from PTRACE_GETREGS, the unwound frames, the program image
(for decoding call kinds at return addresses), the compiler metadata, and
ptrace-mediated reads of the tracee's memory and shadow region.

Verdicts are :class:`Violation` records naming the violated context; the
monitor turns a verdict into a kill (§7.2: "assumes this is an attack
attempt and immediately kills the protected application").

**Plans.**  What a check needs from the metadata alone is resolved once per
artifact (``resolved.plans``, built with :func:`bind_plan`): per callsite,
one tuple per bound argument with its register, constant and argument kind.
A stop then pays for its modeled work and little else: every ``readv``,
``peekdata`` and ``monitor_check`` is one inline ledger update, and every
shadow-table probe one step of :func:`repro.runtime.shadow_table.lookup`.
The reads, their order and their cycles are the ones the per-stop
derivation made.
"""

from dataclasses import dataclass

from repro.kernel.process import RegisterFile
from repro.monitor.unwind import callee_param_slot
from repro.runtime.shadow_table import (
    BIND_MEM,
    BINDINGS_LAYOUT,
    COPIES_LAYOUT,
    lookup,
)
from repro.syscalls.argspec import ArgKind, argspec_for
from repro.vm.memory import WORD


@dataclass
class Violation:
    """One detected context violation."""

    context: str  # 'call-type' | 'control-flow' | 'arg-integrity'
    syscall: str
    detail: str
    rip: int = 0

    def __str__(self):
        return "[%s] %s: %s (rip=%#x)" % (
            self.context,
            self.syscall,
            self.detail,
            self.rip,
        )


#: pointee verification bound for extended arguments (slots)
MAX_EXTENDED_SLOTS = 64

_ARG_ORDER = RegisterFile.ARG_ORDER


def bind_plan(binds, syscall):
    """The verification plan of a callsite's ``binds`` for ``syscall``.

    One tuple per bind: ``(position, register, const, value, kind_index,
    payload_index, arg_kind)``.  ``register`` names the argument register
    (None past the six: the stop reads ``regs.arg(position)`` and fails as
    it does), ``const`` tells a constant bind from a memory one, and the
    two indices locate the bind's ``(kind, payload)`` pair in a binding
    record.  ``arg_kind`` is ``argspec_for(syscall).kind(position)``.
    """
    spec = argspec_for(syscall)
    return tuple(
        (
            b.position,
            _ARG_ORDER[b.position - 1] if 1 <= b.position <= len(_ARG_ORDER) else None,
            b.kind == "const",
            b.value,
            1 + (b.position - 1) * 2,
            2 + (b.position - 1) * 2,
            spec.kind(b.position),
        )
        for b in binds
    )


class ContextVerifier:
    """Stateless-per-stop verification engine shared by the monitor."""

    def __init__(self, metadata, image, resolved, costs):
        """``resolved`` is the monitor's address-resolved metadata view.

        Required attributes: ``valid_callers`` (func -> set of callsite
        addresses), ``indirect_sites`` (set of addresses), ``callsites``
        (address -> CallsiteMeta), ``plans`` (address -> :func:`bind_plan`
        of its callsite for the callsite's own syscall), ``address_taken``
        (set of names), ``global_field_slots`` (addresses).
        """
        self.metadata = metadata
        self.image = image
        self.resolved = resolved
        self.costs = costs
        #: fetch-state mode performs the reads but not the comparisons;
        #: only enforcing runs charge the comparison cost (Table 7 rows 2/3)
        self.charge_checks = True
        #: optional :class:`~repro.monitor.cache.VerificationDeps` sink the
        #: monitor installs around a full verification so the verdict cache
        #: learns which shadow slots / binding records the verdict depends on
        self.deps = None

    def _charge_check(self, ledger):
        """One ``monitor_check``, when checks are charged (the per-frame
        and per-bind loops add it inline)."""
        if self.charge_checks:
            ledger.charge(self.costs.monitor_check, "monitor")

    # ------------------------------------------------------------------
    # §7.2 call-type context
    # ------------------------------------------------------------------

    def verify_call_type(self, pt, regs, syscall_name, frames, inline):
        """Check which call kind reached the syscall against the metadata."""
        self._charge_check(pt.proc.ledger)
        allowed = self.metadata.call_types.get(syscall_name)
        if not allowed:
            return Violation(
                "call-type", syscall_name, "not-callable syscall invoked", regs.rip
            )
        if inline:
            # An inline syscall instruction is by definition a direct use.
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
            # The wrapper was entered without a decodeable call (ROP's
            # return-into-wrapper).  The call-type context only reasons
            # about *how a call invokes* a syscall; a missing call is a
            # control-flow property and is caught there (Table 6 classifies
            # ROP as bypassing CT but caught by CF/AI).
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
        # indirect
        if not allowed.get("indirect"):
            return Violation(
                "call-type",
                syscall_name,
                "indirect invocation of a direct-only syscall",
                regs.rip,
            )
        self._charge_check(pt.proc.ledger)
        if frame0.callsite_addr not in self.resolved.indirect_sites:
            return Violation(
                "call-type",
                syscall_name,
                "indirect call from an unknown callsite %#x" % frame0.callsite_addr,
                regs.rip,
            )
        return None

    # ------------------------------------------------------------------
    # §7.3 control-flow context
    # ------------------------------------------------------------------

    def verify_control_flow(self, pt, regs, syscall_name, frames):
        """Edge-check every callee→caller hop until main or an indirect call."""
        ledger = pt.proc.ledger
        by_category = ledger.by_category
        charged, check = self.charge_checks, self.costs.monitor_check
        for frame in frames:
            if charged:
                if check < 0:
                    ledger.charge(check, "monitor")  # refuses it
                ledger.cycles += check
                by_category["monitor"] = by_category.get("monitor", 0) + check
            if frame.kind == "bottom":
                # main's sentinel — or a thread's: clone()-start routines
                # are legitimate stack bottoms (§7.1)
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
            if frame.kind is None:
                return Violation(
                    "control-flow",
                    syscall_name,
                    "return address %#x does not follow a call" % frame.return_addr
                    if frame.callsite_addr is not None
                    else "frame of %s at %#x cannot be read" % (frame.func, frame.fp),
                    regs.rip,
                )
            if frame.kind == "indirect":
                # Partial-trace termination (§7.3): the callsite must be a
                # legitimate indirect callsite and the callee address-taken.
                if frame.callsite_addr not in self.resolved.indirect_sites:
                    return Violation(
                        "control-flow",
                        syscall_name,
                        "indirect callsite %#x not in the binary"
                        % frame.callsite_addr,
                        regs.rip,
                    )
                if frame.func not in self.metadata.address_taken:
                    return Violation(
                        "control-flow",
                        syscall_name,
                        "function %r reached indirectly but never address-taken"
                        % frame.func,
                        regs.rip,
                    )
                return None
            # direct edge: caller callsite must be in the callee's list
            valid = self.resolved.valid_callers.get(frame.func)
            if not valid or frame.callsite_addr not in valid:
                return Violation(
                    "control-flow",
                    syscall_name,
                    "%s called from illegitimate callsite %s"
                    % (frame.func, self.image.describe(frame.callsite_addr)),
                    regs.rip,
                )
        return Violation(
            "control-flow", syscall_name, "stack unwind exhausted", regs.rip
        )

    # ------------------------------------------------------------------
    # §7.4 argument-integrity context
    # ------------------------------------------------------------------

    def verify_arg_integrity(self, pt, regs, syscall_name, frames, inline, enforce):
        """Verify bound arguments at the syscall callsite and up the stack."""
        resolved = self.resolved
        syscall_site = regs.rip if inline else frames[0].callsite_addr
        meta = resolved.callsites.get(syscall_site)
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

        plan = resolved.plans[syscall_site]
        if syscall_name != meta.syscall:
            plan = bind_plan(meta.binds, syscall_name)
        verdict = self._verify_syscall_site(
            pt, regs, syscall_name, syscall_site, plan, enforce
        )
        if verdict is not None:
            return verdict

        verdict = self.verify_global_fields(pt, regs, syscall_name, enforce)
        if verdict is not None:
            return verdict

        # Walk the remaining frames: pass-through callsites carrying
        # sensitive variables (Figure 2's foo -> bar flags binding).
        plans = resolved.plans
        for frame in frames[1:]:
            if frame.kind in ("bottom", None):
                break
            plan = plans.get(frame.callsite_addr)
            if plan is None:
                continue
            verdict = self._verify_passthrough_site(
                pt, regs, syscall_name, frame, plan, enforce
            )
            if verdict is not None:
                return verdict
        return None

    def verify_global_fields(self, pt, regs, syscall_name, enforce):
        """In-place verification of sensitive global struct fields (§7.4).

        This is what catches data-only corruption of e.g.
        ``ngx_exec_ctx_t.path`` performed entirely through legitimate
        control flow.  The monitor fast path re-runs this sweep on every
        cache *hit* (the resident check): the field lives in corruptible
        application memory, so no fingerprint can stand in for reading it.
        """
        ledger = pt.proc.ledger
        readv = pt.readv
        deps = self.deps
        for slot_addr in self.resolved.global_field_slots:
            self._charge_check(ledger)
            if deps is not None:
                deps.read_shadow(slot_addr)
            entry = lookup(readv, COPIES_LAYOUT, slot_addr)
            if entry is None:
                continue  # field not initialized yet on this path
            shadow = entry[0]
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

    def _verify_syscall_site(self, pt, regs, syscall_name, site_addr, plan, enforce):
        ledger = pt.proc.ledger
        readv = pt.readv
        deps = self.deps
        if deps is not None:
            deps.read_bindings(site_addr)
        record = lookup(readv, BINDINGS_LAYOUT, site_addr)
        by_category = ledger.by_category
        charged, check = self.charge_checks, self.costs.monitor_check
        for position, register, const, value, kind_at, payload_at, arg_kind in plan:
            if charged:
                if check < 0:
                    ledger.charge(check, "monitor")  # refuses it
                ledger.cycles += check
                by_category["monitor"] = by_category.get("monitor", 0) + check
            actual = getattr(regs, register) if register else regs.arg(position)
            if const:
                if enforce and actual != value:
                    return Violation(
                        "arg-integrity",
                        syscall_name,
                        "arg%d: constant %d corrupted to %d" % (position, value, actual),
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
                if record[kind_at] != BIND_MEM:
                    if enforce:
                        return Violation(
                            "arg-integrity",
                            syscall_name,
                            "arg%d: binding record missing/clobbered" % position,
                            regs.rip,
                        )
                    continue
                payload = record[payload_at]
                if deps is not None:
                    deps.read_shadow(payload)
                entry = lookup(readv, COPIES_LAYOUT, payload)
                expected = None if entry is None else entry[0]
                if enforce and expected is None:
                    return Violation(
                        "arg-integrity",
                        syscall_name,
                        "arg%d: bound variable has no shadow copy" % position,
                        regs.rip,
                    )
                if enforce and expected != actual:
                    return Violation(
                        "arg-integrity",
                        syscall_name,
                        "arg%d: value %d, shadow copy %d" % (position, actual, expected),
                        regs.rip,
                    )
            # Extended arguments: also verify pointee memory (§6.3.2).
            # Pointee bytes live in corruptible app memory the argument
            # fingerprint cannot see, so such verdicts are never cached.
            # OUT_SOCKADDR (§9.2 fast path): kernel-written output — the
            # pointer itself was verified above; the pointee is exempt.
            if actual > 0 and (arg_kind is ArgKind.EXTENDED or arg_kind is ArgKind.VECTOR):
                if deps is not None:
                    deps.mark_volatile()
                if arg_kind is ArgKind.EXTENDED:
                    pointers = (actual,)
                else:
                    pointers = pt.read_vector(actual, 16)
                for ptr in pointers:
                    verdict = self._verify_pointee(
                        pt, regs, syscall_name, position, ptr, enforce
                    )
                    if verdict is not None:
                        return verdict
        return None

    def _verify_pointee(self, pt, regs, syscall_name, position, pointer, enforce):
        """Compare pointee slots against their shadow copies.

        Slots without a shadow entry are not tracked (e.g. kernel-written or
        dynamically allocated data) and are skipped — statically identified
        buffers (sensitive globals, struct fields) are always tracked.
        """
        readv = pt.readv
        deps = self.deps
        for i in range(MAX_EXTENDED_SLOTS):
            slot_addr = pointer + i * WORD
            actual = pt.peekdata(slot_addr)
            if deps is not None:
                deps.read_shadow(slot_addr)
            entry = lookup(readv, COPIES_LAYOUT, slot_addr)
            if entry is not None and enforce and entry[0] != actual:
                return Violation(
                    "arg-integrity",
                    syscall_name,
                    "arg%d: pointee slot %d corrupted (%d != shadow %d)"
                    % (position, i, actual, entry[0]),
                    regs.rip,
                )
            if actual == 0:
                break  # NUL terminator / end of tracked buffer
        return None

    def _verify_passthrough_site(self, pt, regs, syscall_name, frame, plan, enforce):
        """Verify callee parameter slots against bound caller variables."""
        ledger = pt.proc.ledger
        readv = pt.readv
        deps = self.deps
        if deps is not None:
            deps.read_bindings(frame.callsite_addr)
        record = lookup(readv, BINDINGS_LAYOUT, frame.callsite_addr)
        for position, _register, const, value, kind_at, payload_at, _kind in plan:
            self._charge_check(ledger)
            actual = pt.peekdata(callee_param_slot(frame, position))
            if const:
                if enforce and actual != value:
                    return Violation(
                        "arg-integrity",
                        syscall_name,
                        "frame %s arg%d: constant %d corrupted to %d"
                        % (frame.func, position, value, actual),
                        regs.rip,
                    )
                continue
            if record is None:
                continue  # callsite never executed a bind on this path
            if record[kind_at] != BIND_MEM:
                continue
            payload = record[payload_at]
            if deps is not None:
                deps.read_shadow(payload)
            entry = lookup(readv, COPIES_LAYOUT, payload)
            if enforce and entry is not None and entry[0] != actual:
                return Violation(
                    "arg-integrity",
                    syscall_name,
                    "frame %s arg%d: value %d, shadow copy %d"
                    % (frame.func, position, actual, entry[0]),
                    regs.rip,
                )
        return None
