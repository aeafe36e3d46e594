"""Counter-backed attribute views over a :class:`TelemetryBus`.

``MonitorStats``, ``SchedStats``, and friends keep their historical
attribute surface (``stats.cache_hits += 1`` keeps working, tests may even
assign tuples into them) but store nothing themselves: every read and
write goes to the owning bus's counter table, so one bus holds the whole
run's telemetry and the stats objects are disposable fronts.
"""

from repro.telemetry.bus import TelemetryBus


class BusCounter:
    """A data descriptor mapping one attribute to one bus counter."""

    def __init__(self, key):
        self.key = key

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj._bus.counters.get(self.key, 0)

    def __set__(self, obj, value):
        obj._bus.counters[self.key] = value


class BusMax:
    """A data descriptor mapping one attribute to one max-merged gauge."""

    def __init__(self, key):
        self.key = key

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj._bus.maxima.get(self.key, 0)

    def __set__(self, obj, value):
        obj._bus.maxima[self.key] = value


class BusView:
    """Base for stats views: owns (or borrows) a bus and can be rebound.

    A view constructed standalone gets a small private bus; when its
    subsystem attaches to a kernel the view is :meth:`rebind`-ed onto the
    kernel's bus, carrying any counters accumulated so far with it.
    """

    def __init__(self, bus=None):
        self._bus = bus if bus is not None else TelemetryBus()

    @property
    def bus(self):
        return self._bus

    def rebind(self, bus):
        """Move this view onto ``bus``, merging accumulated state into it."""
        if bus is not self._bus:
            bus.absorb(self._bus)
            self._bus = bus
        return self
