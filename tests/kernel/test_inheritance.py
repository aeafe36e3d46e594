"""Protection inheritance across fork/clone chains under the scheduler (§7.1).

Grandchildren spawned by clone()d workers must keep the root's seccomp
filters, the shared seccomp action cache, the tracer, and the BASTION
runtime; a worker that reaches a not-callable syscall dies at the inherited
filter without disturbing its siblings.
"""

from repro import protect
from repro.ir.builder import ModuleBuilder
from repro.kernel.kernel import Kernel
from repro.monitor.monitor import BastionMonitor
from repro.monitor.policy import ContextPolicy
from repro.sched import Scheduler
from repro.vm.cpu import CPUOptions
from repro.vm.memory import WORD
from tests.conftest import make_wrapper

ROOT, WORKER, GRANDCHILD = 1000, 1001, 1002


def _chain_module():
    """main clones a worker, which clones a grandchild that mprotects."""
    mb = ModuleBuilder("chain")
    make_wrapper(mb, "clone", 5)
    make_wrapper(mb, "wait4", 4)
    make_wrapper(mb, "mmap", 6)
    make_wrapper(mb, "mprotect", 3)

    g = mb.function("grandchild_start", params=["arg"])
    region = g.load(g.addr_global("g_region"))
    prot = g.const(1, dst="prot")
    g.call("mprotect", [region, 4096, prot], void=True)
    g.ret(0)

    w = mb.function("worker_start", params=["arg"])
    fn = w.funcaddr("grandchild_start")
    w.call("clone", [0, 0, fn, 0, 0])
    w.call("wait4", [-1, 0, 0, 0], void=True)
    w.ret(0)

    f = mb.function("main")
    region = f.call("mmap", [0, 8192, 3, 0x22, -1, 0])
    f.store(f.addr_global("g_region"), region)
    fn = f.funcaddr("worker_start")
    f.call("clone", [0, 0, fn, 0, 0])
    f.call("wait4", [-1, 0, 0, 0], void=True)
    f.ret(0)
    mb.global_var("g_region", init=0)
    return mb.build()


def _run_chain():
    artifact = protect(_chain_module())
    monitor = BastionMonitor(artifact, policy=ContextPolicy.full())
    kernel = Kernel()
    proc, cpu = monitor.launch(kernel)
    sched = Scheduler(kernel)
    sched.add(proc, cpu)
    statuses = sched.run()
    return kernel, monitor, proc, statuses


class TestCloneChainInheritance:
    def test_grandchild_keeps_filters_cache_and_tracer(self):
        kernel, monitor, root, statuses = _run_chain()
        grandchild = kernel.processes[GRANDCHILD]
        assert grandchild.parent.pid == WORKER
        assert len(grandchild.seccomp_filters) == len(root.seccomp_filters)
        assert all(
            inherited is original
            for inherited, original in zip(
                grandchild.seccomp_filters, root.seccomp_filters
            )
        )
        assert grandchild.seccomp_action_cache is root.seccomp_action_cache
        assert grandchild.tracer is monitor
        assert grandchild.bastion_runtime is root.bastion_runtime

    def test_grandchild_syscall_stops_into_the_monitor(self):
        kernel, monitor, root, statuses = _run_chain()
        assert all(status.kind == "returned" for status in statuses.values())
        assert monitor.sessions[GRANDCHILD].stop_counts.get("mprotect") == 1
        assert monitor.violations == []
        # every level of the chain was reaped by its own parent
        assert kernel.processes[WORKER].reaped
        assert kernel.processes[GRANDCHILD].reaped


def _sibling_module():
    """Two workers sharing worker_start; execve is linked but not callable."""
    mb = ModuleBuilder("siblings")
    make_wrapper(mb, "clone", 5)
    make_wrapper(mb, "wait4", 4)
    make_wrapper(mb, "mmap", 6)
    make_wrapper(mb, "mprotect", 3)
    make_wrapper(mb, "execve", 3)  # linked but never called

    w = mb.function("worker_start", params=["arg"])
    region = w.load(w.addr_global("g_region"))
    prot = w.const(1, dst="prot")
    w.call("mprotect", [region, 4096, prot], void=True)
    # the frame corruption fires *after* the monitored call, so the next
    # control transfer is the hijacked ret itself
    w.hook("go")
    w.ret(0)

    f = mb.function("main")
    region = f.call("mmap", [0, 8192, 3, 0x22, -1, 0])
    f.store(f.addr_global("g_region"), region)
    fn = f.funcaddr("worker_start")
    f.call("clone", [0, 0, fn, 0, 0])
    f.call("clone", [0, 0, fn, 1, 0])
    f.hook("spawned")
    f.call("wait4", [-1, 0, 0, 0], void=True)
    f.call("wait4", [-1, 0, 0, 0], void=True)
    f.ret(0)
    mb.global_var("g_region", init=0)
    return mb.build()


class TestNotCallableKillIsolation:
    def test_rogue_worker_killed_siblings_undisturbed(self):
        artifact = protect(_sibling_module())
        monitor = BastionMonitor(artifact, policy=ContextPolicy.full())
        kernel = Kernel()
        # cet=False so the return-address rewrite reaches the seccomp layer
        proc, cpu = monitor.launch(kernel, cpu_options=CPUOptions())
        sched = Scheduler(kernel)
        sched.add(proc, cpu)
        worker_a, worker_b = 1001, 1002

        def arm(_parent_cpu):
            victim = sched.tasks[worker_b].cpu

            def rogue(c):
                # Redirect worker_start's return into the never-called
                # execve wrapper: its syscall is not-callable -> KILL.
                fake = 0x7F45_0000_0000
                c.proc.memory.write(fake, 0)
                c.proc.memory.write(fake + WORD, 0)
                c.proc.memory.write(c.fp + WORD, c.image.func_base["execve"])
                c.proc.memory.write(c.fp, fake)

            victim.hooks["go"] = rogue

        cpu.hooks["spawned"] = arm
        statuses = sched.run()

        assert statuses[worker_b].kind == "killed"
        assert "seccomp" in statuses[worker_b].reason
        # Siblings and the master keep running to normal completion.
        assert statuses[worker_a].kind == "returned"
        assert statuses[proc.pid].kind == "returned"
        assert monitor.sessions[worker_a].stop_counts.get("mprotect") == 1
        assert not monitor.sessions[worker_a].killed
        # The dead worker's stack slot went back to the pool.
        assert kernel.stacks.released == kernel.stacks.allocated == 2
