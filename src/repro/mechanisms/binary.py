"""Binary-only protection: BASTION's checks driven by a compiled policy.

The legacy-binary scenario (B-Side, sysfilter): no compiler metadata ships
with the program, so the policy is synthesized entirely from what
:mod:`repro.analyze.binary` recovers off the loaded image — and since the
repro.policy refactor the mechanism consumes the recovered tables as a
:class:`~repro.policy.CompiledPolicy` (the *binary producer*'s artifact)
instead of reaching into ``BinaryRecovery`` internals:

- the policy's **presence table** (the reachability-tightened syscall
  set) becomes a seccomp presence filter that KILLs every other table
  syscall (a deny list, ALLOW default: ROADMAP item 1) — tighter than the
  plain ``seccomp_allowlist`` baseline, whose presence-based set admits
  every syscall any linked-but-dead wrapper could issue, ``system()``'s
  fork/execve/wait4 included;
- the policy's **call kinds** back a dispatch-time check on sensitive
  syscalls: the hook classifies how the trapped wrapper was invoked —
  decode the call instruction at ``[rbp+8] - 4``, exactly the monitor's
  unwinder hop (:mod:`repro.monitor.unwind`) — and kills on any call
  kind the policy forbids.

The :class:`~repro.analyze.binary.BinaryRecovery` is still consulted at
dispatch time, but only for its *runtime lookups* (``wrapper_at``, the
image's ``call_kind_at``) — the classification machinery, not the policy
tables.

What it gives up relative to full BASTION: no CF context (no caller-chain
walk beyond the first hop) and no AI context (no argument bindings — those
need compiler-observed value provenance).  That is the degraded-but-sound
middle row between ``seccomp_allowlist`` and ``bastion`` in Table 6.
"""

from repro.analyze.binary import policy_for_image, recovery_for
from repro.errors import ProcessKilled, SegmentationFault
from repro.mechanisms.base import ProtectionMechanism
from repro.policy import build_presence_filter
from repro.syscalls.sensitive import is_sensitive
from repro.vm.loader import INSTR_STRIDE
from repro.vm.memory import WORD


class BinaryOnlyMechanism(ProtectionMechanism):
    """Seccomp allowlist + call-kind checks from binary recovery alone."""

    def __init__(self, defense):
        super().__init__(defense)
        self.policy = None
        self.recovery = None
        #: sensitive syscalls checked / killed by the call-type hook
        self.checks = 0
        self.kills = 0

    def install(self, kernel, proc, app, module):
        # ``launch`` stashed the image it loaded — recover from exactly
        # the bytes the process runs, nothing else.
        recovery = recovery_for(self.image)
        policy = policy_for_image(self.image)
        self.recovery = recovery
        self.policy = policy
        kernel.install_seccomp(
            proc, build_presence_filter(policy.presence, "binary_only")
        )

        costs = kernel.costs
        call_kinds = policy.call_kinds

        def call_type_check(ctx):
            # Runs after the kernel's seccomp stage: anything outside the
            # policy's presence table is already dead by now.
            if ctx.done or not is_sensitive(ctx.name):
                return
            target = ctx.proc
            self.checks += 1
            target.ledger.charge(costs.monitor_check, "binary_calltype")
            kind = self._classify(recovery, target)
            if kind is not None and kind in call_kinds.get(ctx.name, ()):
                return
            self.kills += 1
            ctx.verdict = "kill"
            kernel.telemetry.count("dispatch.verdict.kill")
            target.kill(
                "binary-calltype: %s via %s not in recovered table"
                % (ctx.name, kind or "no-callsite")
            )
            kernel.record(
                "binary_calltype_kill", target, syscall=ctx.name,
                call_kind=kind,
            )
            raise ProcessKilled(
                "binary-only call-type check killed pid %d on %s"
                % (target.pid, ctx.name),
                reason="binary-calltype",
            )

        kernel.pipeline.insert("seccomp", call_type_check)

    @staticmethod
    def _classify(recovery, proc):
        """Call type of the trapped syscall: 'direct' | 'indirect' | None.

        A syscall instruction outside any recovered wrapper is an inline
        (direct) issue.  Inside a wrapper, decode the call instruction one
        stride above the saved return address — the monitor unwinder's
        first hop — so a ROP return into the wrapper (no call instruction
        at the "callsite") classifies as None and dies.
        """
        regs = proc.regs
        if recovery.wrapper_at(regs.rip) is None:
            return "direct"
        try:
            return_addr = proc.memory.read(regs.rbp + WORD)
        except SegmentationFault:
            return None  # pivoted frame pointer: unreadable chain
        if return_addr == 0:
            return None  # bottom sentinel: nothing legitimately called us
        return recovery.image.call_kind_at(return_addr - INSTR_STRIDE)
