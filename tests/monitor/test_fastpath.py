"""The monitor fast path: verdict cache, invalidation, and soundness."""


from repro import protect
from repro.ir.builder import ModuleBuilder
from repro.kernel.kernel import Kernel
from repro.kernel.process import RegisterFile
from repro.kernel.ptrace import PtraceHandle
from repro.monitor.cache import MonitorStats, VerdictCache, VerificationDeps
from repro.monitor.monitor import BastionMonitor
from repro.monitor.policy import ContextPolicy
from repro.monitor.unwind import Frame
from repro.vm.costs import DEFAULT_COSTS
from repro.vm.cpu import CPUOptions
from tests.conftest import make_wrapper


# ---------------------------------------------------------------------------
# VerdictCache unit tests
# ---------------------------------------------------------------------------


def _frames():
    return [
        Frame("wrapper", 0x7FFF0040, 0x40_0010, 0x40_000C, "direct"),
        Frame("main", 0x7FFF0080, 0, None, "bottom"),
    ]


def _deps(shadow=(), callsites=(), volatile=False):
    deps = VerificationDeps()
    deps.shadow_addrs.update(shadow)
    deps.callsites.update(callsites)
    deps.volatile = volatile
    return deps


KEY = ("mprotect", 0x40_0020, 0x7FFF0040, (0x10000000, 4096, 1, 0, 0, 0))


class TestVerdictCache:
    def test_store_and_lookup(self):
        cache = VerdictCache()
        assert cache.lookup(KEY) is None
        entry = cache.store(KEY, _frames(), _deps(shadow={0x5000}))
        assert cache.lookup(KEY) is entry
        assert entry.probe == (0x7FFF0080, 0x40_0010)
        assert entry.depth == 2

    def test_unreadable_probe_frame_is_a_probe_failure(self):
        cache = VerdictCache()
        entry = cache.store(KEY, _frames(), _deps())
        pt = PtraceHandle(Kernel().create_process("t"), DEFAULT_COSTS)
        for rbp in (0x7FFF0043, -16):
            assert not cache.probe_ok(entry, pt, RegisterFile(rbp=rbp))
        assert cache.stats.probe_failures == 2
        assert pt.readv_calls == 2

    def test_volatile_verdicts_never_cached(self):
        cache = VerdictCache()
        assert cache.store(KEY, _frames(), _deps(volatile=True)) is None
        assert cache.lookup(KEY) is None

    def test_invalidate_shadow_drops_dependents(self):
        cache = VerdictCache()
        cache.store(KEY, _frames(), _deps(shadow={0x5000, 0x5008}))
        other = ("read",) + KEY[1:]
        cache.store(other, _frames(), _deps(shadow={0x6000}))
        cache.invalidate_shadow(0x5008)
        assert cache.lookup(KEY) is None
        assert cache.lookup(other) is not None
        assert cache.stats.invalidations == 1

    def test_invalidate_callsite_drops_dependents(self):
        cache = VerdictCache()
        cache.store(KEY, _frames(), _deps(callsites={0x40_000C}))
        cache.invalidate_callsite(0x40_000C)
        assert cache.lookup(KEY) is None

    def test_unrelated_invalidation_keeps_entry(self):
        cache = VerdictCache()
        cache.store(KEY, _frames(), _deps(shadow={0x5000}, callsites={0x40_000C}))
        cache.invalidate_shadow(0x9999)
        cache.invalidate_callsite(0x9999)
        assert cache.lookup(KEY) is not None
        assert cache.stats.invalidations == 0

    def test_fifo_eviction_at_capacity(self):
        cache = VerdictCache(capacity=2)
        keys = [("k%d" % i,) + KEY[1:] for i in range(3)]
        for key in keys:
            cache.store(key, _frames(), _deps())
        assert len(cache) == 2
        assert cache.lookup(keys[0]) is None  # oldest evicted
        assert cache.lookup(keys[2]) is not None
        assert cache.stats.cache_evictions == 1

    def test_stats_hit_rate(self):
        stats = MonitorStats()
        stats.cache_hits, stats.cache_misses = 3, 1
        assert stats.hit_rate == 0.75
        assert stats.as_dict()["hit_rate"] == 0.75


# ---------------------------------------------------------------------------
# integration: a loop over one sensitive callsite
# ---------------------------------------------------------------------------

ITERS = 6


def _loop_module():
    """main loops mprotect(addr, 4096, g_prot) from a single callsite."""
    mb = ModuleBuilder("loopy")
    make_wrapper(mb, "mprotect", 3)
    mb.global_var("g_prot", init=[1])

    f = mb.function("main")
    gp = f.addr_global("g_prot")

    def body(i):
        v = f.load(gp, dst="v")
        f.hook("pre")
        f.call("mprotect", [0x10000000, 4096, v])

    f.loop_range(f.const(ITERS), body)
    f.ret(0)
    return mb.build()


def _launch_loop(policy, hooks=None, module=None):
    artifact = protect(module or _loop_module())
    monitor = BastionMonitor(artifact, policy=policy)
    kernel = Kernel()
    proc, cpu = monitor.launch(kernel, cpu_options=CPUOptions(cet=True))
    proc.mm.do_mmap(0x10000000, 4096, 3, 0x30)
    if hooks:
        cpu.hooks.update(hooks)
    status = cpu.run()
    return status, proc, cpu, monitor


class TestFastPathIntegration:
    def test_steady_state_hits_after_first_miss(self):
        status, proc, _cpu, monitor = _launch_loop(ContextPolicy.full())
        assert status.kind == "returned"
        assert monitor.violations == []
        stats = monitor.stats
        assert stats.hooks == ITERS
        assert stats.cache_misses >= 1
        assert stats.cache_hits >= ITERS - 2
        assert stats.trap_stops_batched == stats.cache_hits
        # hits skip the unwinder entirely
        assert stats.unwind_samples == stats.cache_misses

    def test_cache_off_policy_bit_disables_cache(self):
        policy = ContextPolicy.full().without("cache")
        status, _proc, _cpu, monitor = _launch_loop(policy)
        assert status.kind == "returned"
        assert monitor.cache is None
        assert monitor.stats.cache_hits == 0
        assert monitor.stats.unwind_samples == ITERS

    def test_cache_on_is_cheaper(self):
        _s, proc_on, _c, _m = _launch_loop(ContextPolicy.full())
        _s2, proc_off, _c2, _m2 = _launch_loop(
            ContextPolicy.full().without("cache")
        )
        assert proc_on.ledger.cycles < proc_off.ledger.cycles
        assert proc_on.ledger.category("trap") < proc_off.ledger.category("trap")

    def test_corrupted_arg_after_warm_cache_still_killed(self):
        """A corrupted argument register changes the fingerprint: no hit."""
        calls = {"n": 0}

        def corrupt_last(cpu):
            calls["n"] += 1
            if calls["n"] == ITERS:
                cpu.proc.memory.write(cpu.local_addr("v"), 7)

        status, _proc, _cpu, monitor = _launch_loop(
            ContextPolicy.full(), hooks={"pre": corrupt_last}
        )
        assert status.kind == "killed"
        assert monitor.violations[0].context == "arg-integrity"
        # the warm entries never matched the corrupted fingerprint
        assert monitor.stats.cache_hits >= 1

    def test_shadow_write_invalidates_cached_verdict(self):
        """Regression: a ctx_write_mem changing a consulted shadow slot must
        drop the dependent entry, or a replayed stale argument would hit the
        warm cache and sail through."""
        mb = ModuleBuilder("replay")
        make_wrapper(mb, "mprotect", 3)
        mb.global_var("g_prot", init=[1])

        f = mb.function("main")
        gp = f.addr_global("g_prot")
        last = f.const(ITERS - 1, dst="last")

        def body(i):
            # legitimate update on the last iteration: the instrumented
            # store refreshes the shadow copy of g_prot (1 -> 4)
            f.if_then(f.eq(i, last), lambda: f.store(gp, 4))
            v = f.load(gp, dst="v")
            f.hook("pre")
            f.call("mprotect", [0x10000000, 4096, v])

        f.loop_range(f.const(ITERS), body)
        f.ret(0)
        module = mb.build()

        def replay_stale(cpu):
            # attacker rewrites the argument back to the stale value the
            # warm cache was keyed on
            if cpu.proc.memory.read(cpu.image.global_addr["g_prot"]) == 4:
                cpu.proc.memory.write(cpu.local_addr("v"), 1)

        status, _proc, _cpu, monitor = _launch_loop(
            ContextPolicy.full(), hooks={"pre": replay_stale}, module=module
        )
        assert status.kind == "killed"
        assert monitor.violations[0].context == "arg-integrity"
        assert monitor.stats.invalidations >= 1
        # warm phase really produced hits before the invalidation
        assert monitor.stats.cache_hits >= 1
