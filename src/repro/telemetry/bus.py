"""The telemetry spine: one subscribable event bus per kernel.

Every observability surface in the system — the kernel event log, the
monitor's counters, scheduler statistics and the dispatch pipeline's
per-stage cycle attribution — feeds a single :class:`TelemetryBus`
instead of keeping its own collector.  Consumers (`KernelEventLog`,
`MonitorStats`, `SchedStats`, the bench reports) are *views* over the
bus; adding a new metric is one ``bus.count``/``bus.emit`` call plus a
reader, not a cross-cutting edit.

Two paths, two costs:

- **counters** (:meth:`count` / :meth:`record_max`) are plain dict
  updates.  They are what the hot paths use — a scheduler at ``quantum=1``
  ticks millions of slices and must not allocate an event object per tick.
  Counter increments charge **no simulated cycles**: telemetry is free in
  the cost model, which is what lets the parity fixtures pin
  ``total_cycles`` across the pipeline refactor.
- **events** (:meth:`emit`) are structured :class:`TelemetryEvent` records
  pushed synchronously to subscribers.  The bus publishes and keeps
  nothing: a subscriber that needs a history (``KernelEventLog``) keeps
  its own.

Stage cycle attribution uses the reserved counter prefix
``stage.cycles.<stage>`` (see :meth:`charge_stage` / :meth:`stage_cycles`);
the dispatch pipeline fills the top-level stages and the monitor adds
``verify.*`` sub-stages (unwind / call-type / control-flow / arg-integrity).
"""

from dataclasses import dataclass, field

#: counter-key prefix reserved for per-stage cycle attribution
STAGE_CYCLES_PREFIX = "stage.cycles."


@dataclass
class TelemetryEvent:
    """One structured record on the bus.

    Attributes:
        kind: the emitting subsystem ('kernel' | ...).
        event: what happened ('mmap_exec', 'clone', 'setuid', ...).
        pid: the process the event concerns (0 when not process-scoped).
        data: free-form payload (the kernel event ``details`` dict).
    """

    kind: str
    event: str
    pid: int = 0
    data: dict = field(default_factory=dict)


class TelemetryBus:
    """Subscribable :class:`TelemetryEvent` stream + cheap aggregate counters."""

    def __init__(self):
        #: additive counters — the hot-path (allocation-free) telemetry
        self.counters = {}
        #: max-merged gauges (e.g. deepest unwind seen)
        self.maxima = {}
        self._subscribers = []
        #: interned "stage.cycles.<stage>" keys — charge_stage runs on the
        #: monitor's per-hook path, so skip the string concat after the
        #: first attribution of each stage
        self._stage_keys = {}

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------

    def emit(self, kind, event, pid=0, data=None):
        """Publish one structured event to every subscriber; returns it."""
        record = TelemetryEvent(
            kind=kind,
            event=event,
            pid=pid,
            data=data if data is not None else {},
        )
        for subscriber in self._subscribers:
            subscriber(record)
        return record

    def subscribe(self, callback):
        """Register ``callback(event)``; called synchronously on every emit."""
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback):
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    # ------------------------------------------------------------------
    # counters (the allocation-free hot path)
    # ------------------------------------------------------------------

    def count(self, key, amount=1):
        """Add ``amount`` to counter ``key`` (creates it at 0)."""
        counters = self.counters
        counters[key] = counters.get(key, 0) + amount

    def get(self, key, default=0):
        return self.counters.get(key, default)

    def record_max(self, key, value):
        maxima = self.maxima
        if value > maxima.get(key, 0):
            maxima[key] = value

    def max_of(self, key, default=0):
        return self.maxima.get(key, default)

    def counters_with_prefix(self, prefix):
        """``{suffix: value}`` for every counter starting with ``prefix``."""
        start = len(prefix)
        return {
            key[start:]: value
            for key, value in self.counters.items()
            if key.startswith(prefix)
        }

    # ------------------------------------------------------------------
    # stage cycle attribution
    # ------------------------------------------------------------------

    def charge_stage(self, stage, cycles):
        """Attribute ``cycles`` of simulated time to a pipeline stage.

        Telemetry-only: nothing is charged to any ledger — the caller has
        already done that; this records *where* those cycles went.
        """
        if cycles:
            keys = self._stage_keys
            key = keys.get(stage)
            if key is None:
                key = keys[stage] = STAGE_CYCLES_PREFIX + stage
            counters = self.counters
            counters[key] = counters.get(key, 0) + cycles

    def stage_cycles(self):
        """``{stage: cycles}`` for every attributed stage and sub-stage."""
        return self.counters_with_prefix(STAGE_CYCLES_PREFIX)

    # ------------------------------------------------------------------
    # rebinding
    # ------------------------------------------------------------------

    def absorb(self, other):
        """Merge another bus's counters (added) and maxima (max-merged)
        into this one — used when a stats view created standalone is
        rebound to a kernel's bus at attach time."""
        if other is self:
            return self
        for key, value in other.counters.items():
            self.count(key, value)
        for key, value in other.maxima.items():
            self.record_max(key, value)
        return self
