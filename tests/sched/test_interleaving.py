"""Quantum-independence of monitor verdicts (the PR's acceptance criterion).

A run preempted every cycle (``quantum=1``) and a run that is effectively
cooperative (``quantum=10**6``) visit very different interleavings, but the
kernel raises :class:`~repro.errors.WouldBlock` *before* syscall counting
and seccomp, so every completed syscall produces exactly one trace stop —
the monitor must reach identical verdicts either way.
"""

from repro import protect
from repro.ir.builder import ModuleBuilder
from repro.kernel.kernel import Kernel
from repro.monitor.monitor import BastionMonitor
from repro.monitor.policy import ContextPolicy
from repro.sched import Scheduler
from tests.conftest import make_wrapper

QUANTA = (1, 10**6)

#: pids are deterministic: root 1000, workers 1001/1002 in clone order
ROOT, WORKER_A, WORKER_B = 1000, 1001, 1002


def _pool_module(workers=2):
    """main mmaps a region, clones workers that mprotect it, reaps them."""
    mb = ModuleBuilder("sched-pool")
    make_wrapper(mb, "clone", 5)
    make_wrapper(mb, "wait4", 4)
    make_wrapper(mb, "mmap", 6)
    make_wrapper(mb, "mprotect", 3)

    w = mb.function("worker_start", params=["arg"])
    region = w.load(w.addr_global("g_region"))
    prot = w.const(1, dst="prot")
    w.hook("worker_vuln")
    w.burn(2_000)
    w.call("mprotect", [region, 4096, prot], void=True)
    w.ret(0)

    f = mb.function("main")
    region = f.call("mmap", [0, 8192, 3, 0x22, -1, 0])
    f.store(f.addr_global("g_region"), region)
    fn = f.funcaddr("worker_start")
    for i in range(workers):
        f.call("clone", [0, 0, fn, i, 0])
    f.hook("spawned")
    for _ in range(workers):
        f.call("wait4", [-1, 0, 0, 0], void=True)
    f.ret(0)
    mb.global_var("g_region", init=0)
    return mb.build()


def _run(quantum, corrupt=False):
    artifact = protect(_pool_module())
    monitor = BastionMonitor(artifact, policy=ContextPolicy.full())
    kernel = Kernel()
    proc, cpu = monitor.launch(kernel)
    sched = Scheduler(kernel, quantum=quantum)
    sched.add(proc, cpu)
    if corrupt:
        # Worker CPUs only exist once clone() ran; arm the corruption from
        # a parent hook that fires right after both spawns.
        def arm(_parent_cpu):
            victim = sched.tasks[WORKER_B].cpu
            victim.hooks["worker_vuln"] = lambda c: c.proc.memory.write(
                c.local_addr("prot"), 7
            )

        cpu.hooks["spawned"] = arm
    statuses = sched.run()
    return monitor, sched, statuses


def _verdict_fingerprint(monitor, statuses):
    return (
        dict(monitor.stats.hook_counts),
        [v.context for v in monitor.violations],
        {pid: status.kind for pid, status in statuses.items()},
        {
            pid: (session.killed, dict(session.stop_counts))
            for pid, session in sorted(monitor.sessions.items())
        },
    )


class TestQuantumIndependence:
    def test_clean_run_identical_verdicts(self):
        fingerprints = {}
        slices = {}
        for quantum in QUANTA:
            monitor, sched, statuses = _run(quantum)
            fingerprints[quantum] = _verdict_fingerprint(monitor, statuses)
            slices[quantum] = sched.stats.slices
        assert fingerprints[QUANTA[0]] == fingerprints[QUANTA[1]]
        # The interleavings really were different; only the verdicts match.
        assert slices[QUANTA[0]] > slices[QUANTA[1]]

    def test_violation_kills_only_offender_at_both_quanta(self):
        for quantum in QUANTA:
            monitor, sched, statuses = _run(quantum, corrupt=True)
            assert [v.context for v in monitor.violations] == ["arg-integrity"]
            assert statuses[WORKER_B].kind == "killed"
            assert statuses[WORKER_A].kind == "returned"
            assert statuses[ROOT].kind == "returned"
            assert monitor.sessions[WORKER_B].killed
            assert not monitor.sessions[WORKER_A].killed
            assert monitor.sessions[WORKER_A].violations == []

    def test_violation_fingerprints_match_across_quanta(self):
        runs = [_run(quantum, corrupt=True) for quantum in QUANTA]
        fingerprints = [
            _verdict_fingerprint(monitor, statuses)
            for monitor, _sched, statuses in runs
        ]
        assert fingerprints[0] == fingerprints[1]

    def test_sessions_track_per_pid_stops(self):
        monitor, _sched, _statuses = _run(QUANTA[1])
        assert set(monitor.sessions) >= {WORKER_A, WORKER_B}
        for pid in (WORKER_A, WORKER_B):
            assert monitor.sessions[pid].stop_counts.get("mprotect") == 1

    def test_verdict_cache_key_is_per_pid(self):
        from repro.kernel.process import RegisterFile
        from repro.monitor.cache import VerdictCache

        regs = RegisterFile(rip=0x1000, rbp=0x2000)
        key_a = VerdictCache.key_for("mprotect", regs, pid=WORKER_A)
        key_b = VerdictCache.key_for("mprotect", regs, pid=WORKER_B)
        assert key_a != key_b
