"""The monitor fast path: memoized ALLOW verdicts (SFIP-style).

BASTION's dominant runtime cost is re-deriving the same verdict thousands
of times: every ``SECCOMP_RET_TRACE`` stop fetches registers, unwinds the
rbp chain, and re-checks the three contexts even though a server's steady
state invokes each sensitive syscall from the same callsite, over the same
call chain, with the same argument pattern (§9.2's call-depth observation).
SFIP (Canella et al.) showed syscall-flow enforcement collapses to cheap
lookups once the verdict is precomputed; Linux itself caches seccomp
actions per syscall number for the same reason.

:class:`VerdictCache` memoizes ALLOW verdicts from the
:class:`~repro.monitor.verify.ContextVerifier`:

- **lookup key** — ``(syscall, rip, rbp, argument fingerprint)``: the
  trapped instruction, the frame the syscall fired in, and the exact six
  argument registers.  Any attacker-controlled argument value changes the
  fingerprint and forces a full re-verification.
- **chain probe** — a hit is only valid if the cached call chain still
  holds.  The entry stores the first frame's ``(saved_fp, return_addr)``
  pair plus an FNV hash of the whole unwound chain; the probe re-reads one
  frame (one ``process_vm_readv``) instead of re-walking the stack.  A
  pivoted stack (ROP) lands on a different ``rbp``/frame and misses.
- **dependencies** — every shadow-table slot and binding record the
  verifier consulted.  A ``ctx_write_mem`` / ``ctx_bind_*`` that *changes*
  one of those slots invalidates every dependent entry (the runtime
  notifies the monitor; see :class:`~repro.runtime.bastion_rt.BastionRuntime`).
- **volatile verdicts are never cached** — if the verifier compared live
  application memory beyond the registers (pointee verification of
  extended arguments like ``execve``'s path), the verdict depends on bytes
  the fingerprint cannot see, so it is recomputed every time.  In-place
  checks of sensitive global struct fields are *re-run on every hit* (the
  resident check), so data-only corruption of e.g. ``ngx_exec_ctx_t.path``
  is still caught with the cache enabled.

``MonitorStats`` aggregates the monitor's observability counters (hook
counts, cache hits/misses/invalidations, unwind depths, trap batching) and
is surfaced through the bench harness and ``repro.api.RunResult``.  It is a
*view* over the telemetry bus: standalone it carries a small private bus,
and when the monitor attaches to a kernel the view is rebound onto
``kernel.telemetry``, where the same numbers live under ``monitor.*``
counter keys.
"""

from dataclasses import dataclass

from repro.errors import PtraceError
from repro.telemetry import BusCounter, BusMax, BusView


def chain_hash(frames):
    """Deterministic FNV-1a fold of an unwound call chain."""
    h = 2166136261
    for frame in frames:
        for value in (frame.fp, frame.return_addr):
            h = ((h ^ (value & 0xFFFFFFFFFFFF)) * 16777619) & 0xFFFFFFFF
    return h


class MonitorStats(BusView):
    """Counters describing one monitor's lifetime (surfaced by the harness).

    Every attribute is backed by a ``monitor.*`` counter on the telemetry
    bus; reads and writes keep their historical shape while the storage
    lives on the spine.
    """

    HOOK_PREFIX = "monitor.hook."

    hooks = BusCounter("monitor.hooks")
    violation_count = BusCounter("monitor.violations")

    # verdict cache
    cache_hits = BusCounter("monitor.cache_hits")
    cache_misses = BusCounter("monitor.cache_misses")
    cache_stores = BusCounter("monitor.cache_stores")
    cache_evictions = BusCounter("monitor.cache_evictions")
    invalidations = BusCounter("monitor.invalidations")
    probe_failures = BusCounter("monitor.probe_failures")

    # unwinding (misses only: hits skip the walk)
    unwind_samples = BusCounter("monitor.unwind_samples")
    unwind_depth_total = BusCounter("monitor.unwind_depth_total")
    max_unwind_depth = BusMax("monitor.max_unwind_depth")

    # trace-stop accounting (full round trips vs batched continuations)
    trap_stops_full = BusCounter("monitor.trap_stops_full")
    trap_stops_batched = BusCounter("monitor.trap_stops_batched")

    @property
    def hook_counts(self):
        """Per-syscall hook counts, assembled from ``monitor.hook.*``."""
        return self._bus.counters_with_prefix(self.HOOK_PREFIX)

    def count_hook(self, syscall_name):
        bus = self._bus
        bus.count("monitor.hooks")
        bus.count(self.HOOK_PREFIX + syscall_name)

    def sample_unwind(self, depth):
        bus = self._bus
        bus.count("monitor.unwind_samples")
        bus.count("monitor.unwind_depth_total", depth)
        bus.record_max("monitor.max_unwind_depth", depth)

    @property
    def average_unwind_depth(self):
        if not self.unwind_samples:
            return 0.0
        return self.unwind_depth_total / self.unwind_samples

    @property
    def hit_rate(self):
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self):
        return {
            "hooks": self.hooks,
            "violations": self.violation_count,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_stores": self.cache_stores,
            "cache_evictions": self.cache_evictions,
            "invalidations": self.invalidations,
            "probe_failures": self.probe_failures,
            "hit_rate": self.hit_rate,
            "unwind_samples": self.unwind_samples,
            "avg_unwind_depth": self.average_unwind_depth,
            "max_unwind_depth": self.max_unwind_depth,
            "trap_stops_full": self.trap_stops_full,
            "trap_stops_batched": self.trap_stops_batched,
        }


class VerificationDeps:
    """What one full verification read, recorded for cache invalidation."""

    def __init__(self):
        self.shadow_addrs = set()  # copies-table keys consulted
        self.callsites = set()  # bindings-table keys consulted
        self.volatile = False  # compared live app memory beyond registers

    def read_shadow(self, addr):
        self.shadow_addrs.add(addr)

    def read_bindings(self, callsite_addr):
        self.callsites.add(callsite_addr)

    def mark_volatile(self):
        self.volatile = True


@dataclass
class CacheEntry:
    """One memoized ALLOW verdict."""

    key: tuple  # (syscall, rip, rbp, args fingerprint)
    probe: tuple  # (saved_fp, return_addr) of the first frame
    chain: int  # FNV hash of the full unwound chain
    depth: int  # frames the original unwind walked
    shadow_addrs: frozenset
    callsites: frozenset


class VerdictCache:
    """Bounded memo of ALLOW verdicts with inverted invalidation indexes."""

    def __init__(self, capacity=4096, stats=None):
        self.capacity = capacity
        self.stats = stats or MonitorStats()
        self._entries = {}  # key -> CacheEntry (insertion-ordered: FIFO evict)
        self._by_shadow = {}  # shadow addr -> set of keys
        self._by_callsite = {}  # callsite addr -> set of keys

    def __len__(self):
        return len(self._entries)

    @staticmethod
    def key_for(syscall_name, regs, pid=0):
        """The lookup key: tracee + trapped site + frame + exact argument
        registers.

        The pid matters once a scheduler multiplexes tracees: stack slots
        are recycled on process exit, so two different workers can trap at
        the *same* ``(rip, rbp, args)`` over their lifetimes — a verdict
        memoized for one pid must never shortcut verification for another.
        """
        return (pid, syscall_name, regs.rip, regs.rbp, regs.syscall_args())

    def lookup(self, key):
        return self._entries.get(key)

    def store(self, key, frames, deps):
        """Memoize an ALLOW verdict; refuses volatile verdicts."""
        if deps.volatile or not frames:
            return None
        if key in self._entries:
            self._remove(key)
        while len(self._entries) >= self.capacity:
            self._remove(next(iter(self._entries)))
            self.stats.cache_evictions += 1
        frame0 = frames[0]
        saved_fp = frames[1].fp if len(frames) > 1 else None
        entry = CacheEntry(
            key=key,
            probe=(saved_fp, frame0.return_addr),
            chain=chain_hash(frames),
            depth=len(frames),
            shadow_addrs=frozenset(deps.shadow_addrs),
            callsites=frozenset(deps.callsites),
        )
        self._entries[key] = entry
        for addr in entry.shadow_addrs:
            self._by_shadow.setdefault(addr, set()).add(key)
        for addr in entry.callsites:
            self._by_callsite.setdefault(addr, set()).add(key)
        self.stats.cache_stores += 1
        return entry

    def probe_ok(self, entry, pt, regs):
        """One ``readv`` re-validates the cached chain's first frame.

        The frame holds ``[saved_fp, return_addr]`` at ``[rbp, rbp+8]``; a
        hijacked return address, a repointed saved frame pointer or an
        unreadable frame breaks the probe and forces a full re-unwind.
        """
        try:
            saved_fp, return_addr = pt.readv(regs.rbp, 2)
        except PtraceError:
            saved_fp = return_addr = None
        expected_fp, expected_ret = entry.probe
        if return_addr != expected_ret or (
            expected_fp is not None and saved_fp != expected_fp
        ):
            self.stats.probe_failures += 1
            return False
        return True

    # -- invalidation ------------------------------------------------------

    def invalidate_shadow(self, addr):
        """A shadow copy changed: drop every verdict that consulted it."""
        self._invalidate_index(self._by_shadow, addr)

    def invalidate_callsite(self, callsite_addr):
        """A binding record changed: drop every verdict that consulted it."""
        self._invalidate_index(self._by_callsite, callsite_addr)

    def invalidate_key(self, key):
        if key in self._entries:
            self._remove(key)
            self.stats.invalidations += 1

    def clear(self):
        count = len(self._entries)
        self._entries.clear()
        self._by_shadow.clear()
        self._by_callsite.clear()
        self.stats.invalidations += count

    def _invalidate_index(self, index, addr):
        keys = index.get(addr)
        if not keys:
            return
        for key in tuple(keys):
            self._remove(key)
            self.stats.invalidations += 1

    def _remove(self, key):
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for addr in entry.shadow_addrs:
            keys = self._by_shadow.get(addr)
            if keys:
                keys.discard(key)
                if not keys:
                    del self._by_shadow[addr]
        for addr in entry.callsites:
            keys = self._by_callsite.get(addr)
            if keys:
                keys.discard(key)
                if not keys:
                    del self._by_callsite[addr]
