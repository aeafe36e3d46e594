"""The explicit syscall dispatch pipeline (``repro.kernel.dispatch``).

The seed threaded the syscall hot path ad-hoc through ``Kernel.dispatch``:
scheduler blocking, counting, seccomp, the trace stop, verdict enforcement,
the handler, and accounting were interleaved inline, and every protection
mechanism hooked in through its own special case.  This module makes the
path explicit: one walk over an ordered sequence of **stages**,

    block -> count -> seccomp -> trace_stop -> verify -> execute -> account

each a plain callable over one :class:`SyscallContext`.  The kernel and
every :class:`~repro.mechanisms.base.ProtectionMechanism` add handlers
with :meth:`DispatchPipeline.insert`, which places each by its stage's
rank (so nothing can scramble the sequence), and the pipeline attributes
every stage's cycle delta to the kernel's telemetry bus — the
``python -m repro.bench stages`` breakdown falls out of that for free.

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

#: canonical stage sequence; every handler runs at its stage's rank
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


def trace_only(fn):
    """Mark a stage handler as a no-op unless ``ctx.trace`` is set.

    The walk skips marked handlers outright on untraced dispatches,
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
    """The one record of an in-flight syscall, carried between stages."""

    proc: object
    name: str
    args: object
    #: the issuing CPU's registers at the syscall instruction
    rip: int = 0
    rbp: int = 0
    rsp: int = 0
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


class DispatchPipeline:
    """Ordered, pluggable syscall stages with per-stage cycle telemetry."""

    def __init__(self, bus):
        self.bus = bus
        #: [(stage, counter_key, callable, trace_only)] in rank order
        self._stages = []

    def stage_names(self):
        return tuple(entry[0] for entry in self._stages)

    def insert(self, stage, fn):
        """Insert a handler at its canonical position.

        The handler runs *after* every already-inserted handler of the same
        stage (and of earlier stages), keeping the sequence valid no matter
        when a mechanism attaches.  An unknown stage raises ``KernelError``.
        """
        rank = _RANK.get(stage)
        if rank is None:
            raise KernelError(
                "unknown stage %r (expected one of %s)"
                % (stage, ", ".join(STAGE_ORDER))
            )
        index = len(self._stages)
        for i, entry in enumerate(self._stages):
            if _RANK[entry[0]] > rank:
                index = i
                break
        self._stages.insert(
            index,
            (stage, "stage.cycles." + stage, fn, getattr(fn, "trace_only", False)),
        )
        return fn

    def run(self, ctx):
        """Drive ``ctx`` through every stage; returns the syscall result.

        Each stage's ledger delta is attributed to the bus under
        ``stage.cycles.<stage>`` — including when the stage raises (a
        seccomp KILL's cycles still land on the seccomp stage).  A stage
        that sets ``ctx.done`` skips everything after it except account.
        """
        ledger = ctx.proc.ledger
        counters = self.bus.counters
        for stage, key, fn, needs_trace in self._stages:
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
