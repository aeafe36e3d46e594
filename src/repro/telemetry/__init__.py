"""One telemetry spine for the whole system (see ``docs/telemetry.md``).

Public surface:

- :class:`TelemetryBus` — subscribable event stream + aggregate counters;
- :class:`TelemetryEvent` — the structured record subscribers receive;
- :class:`BusView` / :class:`BusCounter` / :class:`BusMax` — the
  descriptor toolkit that turns legacy stats objects into bus views.
"""

from repro.telemetry.bus import STAGE_CYCLES_PREFIX, TelemetryBus, TelemetryEvent
from repro.telemetry.views import BusCounter, BusMax, BusView

__all__ = [
    "STAGE_CYCLES_PREFIX",
    "TelemetryBus",
    "TelemetryEvent",
    "BusCounter",
    "BusMax",
    "BusView",
]
