"""SFIP: syscall-flow-integrity protection as a dispatch-pipeline hook.

The strongest filtering-family rival BASTION is compared against
(Canella et al., "SFIP: Coarse-Grained Syscall-Flow-Integrity
Protection"): instead of asking *"may this program ever issue this
syscall?"* (the allowlist baselines), SFIP asks *"may this syscall
follow the previous one?"* — a per-process state machine over the
statically extracted syscall-transition graph, enforced in-kernel.

Both variants consume the **flowgraph-produced**
:class:`~repro.policy.CompiledPolicy` (metadata entry/thread-entry/
address-taken roots; the binary producer's coarser graph is the
precision contrast, not the enforced artifact) and install two things:

- the policy's **presence filter** at the seccomp stage (it KILLs the
  table syscalls outside the policy and ALLOWs the rest: ROADMAP item 1)
  (the filtering half — dead-surface syscalls never reach the hook);
- a **transition check** hook inserted at the ``seccomp`` stage (it
  runs after the kernel's own filter evaluation): look up the
  process's last-observed syscall, kill unless ``last -> current`` is in
  the graph.  ``sfip_origin`` additionally requires the *origin* — the
  function containing the trapped syscall instruction
  (``image.func_containing(rip)``) — to be one the analysis recorded for
  that edge, closing the "replay a legal adjacency from injected code"
  gap at one extra table probe per dispatch.

Scheduler correctness: per-pid state lives in a plain dict keyed by pid;
a clone()/fork() child *snapshots its parent's state at the spawn
dispatch* — the mechanism subscribes to the kernel telemetry bus and
copies state when the spawn event fires, which happens at the spawn
dispatch itself with or without the preemptive scheduler, so verdicts
are quantum-independent (the parent's state is already ``clone`` when
the hook advanced it at the seccomp stage, hence the engine's
``clone -> first(thread_entry)`` edges line up).

Cycle attribution: the check charges ``costs.sfip_check`` (or
``sfip_origin_check``) to the ``sfip`` ledger category, and — like every
pipeline hook — its cycles land on the ``stage.cycles.seccomp`` bus
counter, so ``bench stages`` attributes SFIP's dispatch cost per stage.

What SFIP gives up relative to BASTION (and what the differential
fuzzer hunts): no argument integrity and no caller-chain context — any
corruption that stays on a *legal adjacency* of the transition graph
(data-only attacks, mimicry within one state) is admitted.  Table 6 and
the pinned fuzz corpus carry the SFIP-allows/BASTION-kills witnesses.
"""

from repro.errors import ProcessKilled
from repro.mechanisms.base import ProtectionMechanism, artifact_for
from repro.policy import START, build_presence_filter


def sfip_policy_for(image):
    """The flowgraph-produced policy of ``image``'s *vanilla* module,
    compiled once per image.

    SFIP needs no instrumentation: the state machine only observes
    dispatches.  The metadata comes from the BASTION artifact of the
    same image; the flow engine runs over the vanilla module the
    mechanism actually loads (names and call structure are identical
    either way).
    """
    from repro.analyze import flowgraph

    return image.derive(
        "sfip-policy",
        lambda image: flowgraph.compile_policy(
            artifact_for(image), module=image.module
        ),
    )


class SfipMechanism(ProtectionMechanism):
    """Presence filter + per-process syscall-transition state machine."""

    #: sfip_origin overrides: also check the issuing function per edge
    check_origin = False
    #: kill-reason prefix (classify_blocking keys on it)
    reason = "sfip"

    def __init__(self, defense):
        super().__init__(defense)
        self.policy = None
        #: transition checks run / kills issued by the hook
        self.checks = 0
        self.kills = 0

    def install(self, kernel, proc, app, module):
        policy = sfip_policy_for(self.image)
        self.policy = policy
        kernel.install_seccomp(
            proc, build_presence_filter(policy.presence, self.reason)
        )

        # precomputed {prev: {next: frozenset(origins)}} probe table
        table = {
            prev: dict(nexts) for prev, nexts in policy.transitions.items()
        }
        state = {proc.pid: START}
        self._state = state
        costs = kernel.costs
        check_cost = (
            costs.sfip_origin_check if self.check_origin else costs.sfip_check
        )
        check_origin = self.check_origin
        image = self.image
        variant = self.reason

        def snapshot_child(event):
            # A spawned child inherits its parent's flow state at the
            # spawn dispatch — the bus event Kernel._spawn_child emits
            # whether or not a scheduler later runs the child.
            if event.kind != "kernel" or event.event not in ("clone", "fork"):
                return
            child_pid = (event.data or {}).get("child_pid")
            if child_pid is not None and event.pid in state:
                state[child_pid] = state[event.pid]

        kernel.telemetry.subscribe(snapshot_child)

        def transition_check(ctx):
            # Runs after the kernel's seccomp stage: anything outside the
            # presence table is already dead.  A short-circuited dispatch
            # (ctx.done) was still *issued* by the program, so it both
            # gets checked and advances the state — skipping it would
            # make the next observed adjacency skip a graph node.
            target = ctx.proc
            self.checks += 1
            target.ledger.charge(check_cost, "sfip")
            prev = state.get(target.pid, START)
            origins = table.get(prev, {}).get(ctx.name)
            ok = origins is not None
            if ok and check_origin:
                issuer = image.func_containing(ctx.rip)
                ok = issuer in origins
            if ok:
                state[target.pid] = ctx.name
                return
            self.kills += 1
            ctx.verdict = "kill"
            kernel.telemetry.count("dispatch.verdict.kill")
            target.kill(
                "%s: transition %s -> %s not in the flow graph"
                % (variant, prev, ctx.name)
                if origins is None
                else "%s: %s -> %s issued from %s, not a recorded origin"
                % (variant, prev, ctx.name, issuer or "no-function")
            )
            kernel.record(
                "sfip_kill",
                target,
                syscall=ctx.name,
                prev=prev,
                variant=variant,
            )
            raise ProcessKilled(
                "%s transition check killed pid %d on %s -> %s"
                % (variant, target.pid, prev, ctx.name),
                reason=variant,
            )

        kernel.pipeline.insert("seccomp", transition_check)


class SfipOriginMechanism(SfipMechanism):
    """SFIP with per-transition origin checks (rip-resolved issuer)."""

    check_origin = True
    reason = "sfip-origin"
