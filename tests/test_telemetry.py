"""Unit tests for the telemetry spine (bus, events, counters, views)."""

import gc
import weakref

from repro.kernel.kernel import Kernel
from repro.telemetry import (
    STAGE_CYCLES_PREFIX,
    BusCounter,
    BusMax,
    BusView,
    TelemetryBus,
)
from tests.conftest import run_main


class TestCounters:
    def test_count_and_get(self):
        bus = TelemetryBus()
        bus.count("x")
        bus.count("x", 4)
        assert bus.get("x") == 5
        assert bus.get("missing") == 0

    def test_record_max(self):
        bus = TelemetryBus()
        bus.record_max("depth", 3)
        bus.record_max("depth", 9)
        bus.record_max("depth", 5)
        assert bus.max_of("depth") == 9

    def test_counters_with_prefix(self):
        bus = TelemetryBus()
        bus.count("monitor.hook.open", 2)
        bus.count("monitor.hook.mmap", 1)
        bus.count("sched.slices", 7)
        assert bus.counters_with_prefix("monitor.hook.") == {"open": 2, "mmap": 1}

    def test_charge_stage(self):
        bus = TelemetryBus()
        bus.charge_stage("seccomp", 40)
        bus.charge_stage("seccomp", 0)  # zero-cost deltas are not recorded
        bus.charge_stage("verify.unwind", 10)
        assert bus.stage_cycles() == {"seccomp": 40, "verify.unwind": 10}
        assert STAGE_CYCLES_PREFIX + "seccomp" in bus.counters


class TestEventRing:
    """The event path: every emit reaches every subscriber."""

    def test_subscribers_see_every_event_in_order(self):
        bus = TelemetryBus()
        first, second = [], []
        bus.subscribe(lambda e: first.append(e.event))
        bus.subscribe(lambda e: second.append(e.event))
        for i in range(10):
            bus.emit("k", "e%d" % i)
        expected = ["e%d" % i for i in range(10)]
        assert first == expected
        assert second == expected

    def test_unsubscribe(self):
        bus = TelemetryBus()
        seen = []
        cb = bus.subscribe(lambda e: seen.append(e))
        bus.emit("k", "one")
        bus.unsubscribe(cb)
        bus.emit("k", "two")
        assert len(seen) == 1


def _getpid_setuid(f):
    for _ in range(5):
        f.syscall("getpid", [])
    f.syscall("setuid", [0])


class TestPublishRetainsNothing:
    """A kernel run publishes only security-relevant events, and the bus
    keeps none of them: subscribers are the only retention."""

    def test_dispatch_publishes_only_kernel_events(self):
        kernel = Kernel()
        seen = []
        kernel.telemetry.subscribe(seen.append)
        status, _proc, _cpu = run_main(_getpid_setuid, kernel=kernel)
        assert status.ok
        assert {e.kind for e in seen} == {"kernel"}
        assert [e.event for e in seen] == ["setuid"]
        assert len(seen) == kernel.events.total

    def test_published_events_are_not_kept_alive(self):
        kernel = Kernel()
        refs = []
        kernel.telemetry.subscribe(lambda e: refs.append(weakref.ref(e)))
        run_main(_getpid_setuid, kernel=kernel)
        gc.collect()
        assert refs
        assert all(ref() is None for ref in refs)
        assert kernel.events.events_of("setuid")


class TestAbsorb:
    def test_absorb_merges_counters_and_maxima(self):
        a, b = TelemetryBus(), TelemetryBus()
        a.count("x", 1)
        b.count("x", 2)
        b.count("y", 3)
        a.record_max("m", 5)
        b.record_max("m", 4)
        a.absorb(b)
        assert a.get("x") == 3
        assert a.get("y") == 3
        assert a.max_of("m") == 5

    def test_absorb_self_is_noop(self):
        bus = TelemetryBus()
        bus.count("x", 1)
        bus.absorb(bus)
        assert bus.get("x") == 1


class _Stats(BusView):
    hits = BusCounter("test.hits")
    deepest = BusMax("test.deepest")


class TestViews:
    def test_counter_descriptor_reads_and_writes_the_bus(self):
        stats = _Stats()
        assert stats.hits == 0
        stats.hits += 1
        stats.hits += 1
        assert stats.hits == 2
        assert stats.bus.get("test.hits") == 2

    def test_assignment_overwrites(self):
        stats = _Stats()
        stats.hits = 40
        assert stats.hits == 40

    def test_max_descriptor(self):
        stats = _Stats()
        stats.bus.record_max("test.deepest", 6)
        assert stats.deepest == 6
        stats.deepest = 2  # plain assignment, like the counters
        assert stats.deepest == 2

    def test_rebind_carries_accumulated_state(self):
        stats = _Stats()
        stats.hits = 7
        shared = TelemetryBus()
        shared.count("test.hits", 3)
        stats.rebind(shared)
        assert stats.bus is shared
        assert stats.hits == 10  # absorbed 7 into the pre-existing 3

    def test_two_views_one_bus_share_counters(self):
        shared = TelemetryBus()
        a = _Stats(bus=shared)
        b = _Stats(bus=shared)
        a.hits += 1
        assert b.hits == 1
