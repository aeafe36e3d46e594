"""The explicit syscall dispatch pipeline (``repro.kernel.dispatch``).

The seed threaded the syscall hot path ad-hoc through ``Kernel.dispatch``:
scheduler blocking, counting, seccomp, the trace stop, verdict enforcement,
the handler, and accounting were interleaved inline, and every protection
mechanism hooked in through its own special case.  This module makes the
path explicit: an ordered sequence of **stages**,

    block -> count -> seccomp -> trace_stop -> verify -> execute -> account

each a plain callable over one :class:`SyscallContext`.  The kernel
installs its canonical handlers; a :class:`~repro.mechanisms.base.
ProtectionMechanism` adds hooks with :meth:`DispatchPipeline.insert`
(rank-ordered, so a mechanism can never scramble the sequence), and the
pipeline attributes every stage's cycle delta to the kernel's telemetry
bus — the ``python -m repro.bench stages`` breakdown falls out of that for
free.

Stage semantics (behavior-identical to the seed's inline path):

- **block** — under a scheduler, raise ``WouldBlock`` for a syscall that
  cannot complete yet; runs *before* count/seccomp so a parked-and-
  restarted syscall is counted, filtered, and trace-stopped exactly once.
- **count** — the per-process, per-name count (``Process.syscall_counts``)
  and the bus's ``dispatch.syscalls`` total.
- **seccomp** — evaluate the attached filters; KILL raises, ERRNO
  short-circuits (``ctx.done``), TRACE/TRAP marks ``ctx.trace``.
- **trace_stop** — stop into the tracer and charge the context-switch
  round trip (batched on the monitor fast path).
- **verify** — enforce the tracer's verdict: re-raise the pending
  ``SyscallIntegrityViolation`` of a tracee the monitor killed.
- **execute** — run the syscall handler; sets ``ctx.result``.
- **account** — count the dispatch verdict (``dispatch.verdict.*``).
"""

from dataclasses import dataclass

from repro.errors import KernelError

#: canonical stage sequence; install order must respect these ranks
STAGE_ORDER = (
    "block",
    "count",
    "seccomp",
    "trace_stop",
    "verify",
    "execute",
    "account",
)

_RANK = {name: index for index, name in enumerate(STAGE_ORDER)}

#: the stage run the pipeline may collapse into one fused call
_FUSED_PREFIX = ("block", "count", "seccomp")


class StageOrderError(KernelError):
    """A stage was installed out of canonical order (or is unknown)."""


def cycle_free(fn):
    """Mark a stage handler as charging no ledger cycles.

    Only handlers carrying this mark are eligible for the fused fast path:
    the fused call attributes its whole ledger delta to the *last* fused
    stage, which is only identical to the unfused walk when every earlier
    fused handler is cycle-free.  The kernel's own ``block`` and ``count``
    handlers qualify (telemetry counters are free in the cost model).
    """
    fn.cycle_free = True
    return fn


def trace_only(fn):
    """Mark a stage handler as a no-op unless ``ctx.trace`` is set.

    The run loop skips marked handlers outright on untraced dispatches,
    saving the call and the ledger-delta bookkeeping on the hot path.
    This is a wall-clock-only optimization: a marked handler must behave
    identically to an unmarked one that begins with
    ``if not ctx.trace: return``.  The kernel's ``trace_stop`` and
    ``verify`` stages qualify; mechanism hooks are unmarked and always
    run.
    """
    fn.trace_only = True
    return fn


@dataclass
class SyscallContext:
    """Everything one in-flight syscall dispatch carries between stages."""

    proc: object
    name: str
    args: object
    #: seccomp said TRACE/TRAP: the trace_stop stage must fire
    trace: bool = False
    #: the tracer resolved the stop on its fast path (batched trap cost)
    fast: bool = False
    #: the syscall's return value once decided
    result: object = None
    #: short-circuit: skip every remaining stage except account
    done: bool = False
    #: dispatch outcome ('allow' | 'errno' | 'kill' | 'violation')
    verdict: str = "allow"

    def short_circuit(self, result, verdict):
        """Decide the syscall here; remaining stages (bar account) skip."""
        self.result = result
        self.verdict = verdict
        self.done = True
        return result


def _fuse(block_fn, count_fn, seccomp_fn):
    """One callable running the fused head with the walk's done-checks."""

    def fused(ctx):
        block_fn(ctx)
        if not ctx.done:
            count_fn(ctx)
        if not ctx.done:
            seccomp_fn(ctx)

    return fused


class DispatchPipeline:
    """Ordered, pluggable syscall stages with per-stage cycle telemetry."""

    def __init__(self, bus):
        self.bus = bus
        self._stages = []  # [(stage_name, callable), ...] in rank order
        #: wall-clock-only switch; False forces the unfused reference walk
        self._fusion_enabled = True
        #: [(stage, counter_key, callable)], possibly with a fused head
        self._plan = []
        self._fused = False

    def __len__(self):
        return len(self._stages)

    @property
    def stages(self):
        """The installed ``(stage, callable)`` sequence, in run order."""
        return tuple(self._stages)

    def stage_names(self):
        return tuple(stage for stage, _fn in self._stages)

    @staticmethod
    def _rank_of(stage):
        rank = _RANK.get(stage)
        if rank is None:
            raise StageOrderError(
                "unknown stage %r (expected one of %s)"
                % (stage, ", ".join(STAGE_ORDER))
            )
        return rank

    def install(self, stage, fn):
        """Append a stage handler; raises unless canonical order is kept.

        This is the strict builder the kernel uses for its own stages:
        installing ``verify`` and then ``seccomp`` is a programming error
        and raises :class:`StageOrderError`.
        """
        rank = self._rank_of(stage)
        if self._stages:
            last_stage = self._stages[-1][0]
            if rank < _RANK[last_stage]:
                raise StageOrderError(
                    "cannot install %r after %r: pipeline order is %s"
                    % (stage, last_stage, " -> ".join(STAGE_ORDER))
                )
        self._stages.append((stage, fn))
        self._rebuild_plan()
        return fn

    def insert(self, stage, fn):
        """Insert a hook at its canonical position (mechanism entry point).

        The hook runs *after* every already-installed handler of the same
        stage (and of earlier stages), keeping the sequence valid no
        matter when a mechanism attaches.
        """
        rank = self._rank_of(stage)
        index = len(self._stages)
        for i, (existing, _fn) in enumerate(self._stages):
            if _RANK[existing] > rank:
                index = i
                break
        self._stages.insert(index, (stage, fn))
        self._rebuild_plan()
        return fn

    def remove(self, fn):
        """Uninstall a previously-installed handler (by identity)."""
        self._stages = [(s, f) for s, f in self._stages if f is not fn]
        self._rebuild_plan()

    # ------------------------------------------------------------------
    # the fused fast path
    # ------------------------------------------------------------------

    @property
    def fused(self):
        """True when the block→count→seccomp head runs as one fused call."""
        return self._fused

    def set_fusion(self, enabled):
        """Enable/disable fusion (tests use this to diff the two walks)."""
        self._fusion_enabled = bool(enabled)
        self._rebuild_plan()

    def _rebuild_plan(self):
        """Precompute the run plan: counter keys, and the fused head.

        The head fuses exactly when the first three installed handlers are
        the canonical ``block``, ``count``, ``seccomp`` singletons — i.e.
        no mechanism hook sits between them (``insert`` lands a hook after
        its stage's handlers, so a hook at ``block`` or ``count`` breaks
        the prefix and de-fuses) — and the non-final fused handlers are
        marked :func:`cycle_free`.  Attribution is unchanged: block and
        count charge nothing, so the fused delta is the seccomp delta.
        """
        stages = self._stages
        fused = False
        if self._fusion_enabled and len(stages) >= 3:
            head = tuple(stage for stage, _fn in stages[:3])
            fused = (
                head == _FUSED_PREFIX
                and getattr(stages[0][1], "cycle_free", False)
                and getattr(stages[1][1], "cycle_free", False)
            )
        plan = []
        if fused:
            plan.append(
                (
                    "block",
                    "stage.cycles.seccomp",
                    _fuse(stages[0][1], stages[1][1], stages[2][1]),
                    False,
                )
            )
            rest = stages[3:]
        else:
            rest = stages
        for stage, fn in rest:
            plan.append(
                (
                    stage,
                    "stage.cycles." + stage,
                    fn,
                    getattr(fn, "trace_only", False),
                )
            )
        self._plan = plan
        self._fused = fused

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, ctx):
        """Drive ``ctx`` through every stage; returns the syscall result.

        Each stage's ledger delta is attributed to the bus under
        ``stage.cycles.<stage>`` — including when the stage raises (a
        seccomp KILL's cycles still land on the seccomp stage).  A stage
        that sets ``ctx.done`` skips everything after it except account.

        Runs the precomputed plan: counter keys are interned at plan-build
        time and the canonical block→count→seccomp head may be fused into
        one call (see :meth:`_rebuild_plan`) — both wall-clock-only
        optimizations with attribution identical to the reference walk.
        """
        ledger = ctx.proc.ledger
        counters = self.bus.counters
        for stage, key, fn, needs_trace in self._plan:
            if ctx.done and stage != "account":
                continue
            if needs_trace and not ctx.trace:
                continue
            before = ledger.cycles
            try:
                fn(ctx)
            finally:
                delta = ledger.cycles - before
                if delta:
                    counters[key] = counters.get(key, 0) + delta
        return ctx.result
