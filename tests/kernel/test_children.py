"""Tests for running clone()d children under inherited protection (§7.1)."""


from repro import protect
from repro.ir.builder import ModuleBuilder
from repro.kernel.kernel import Kernel
from repro.monitor.monitor import BastionMonitor
from repro.monitor.policy import ContextPolicy
from repro.vm.cpu import CPU, CPUOptions
from tests.conftest import make_wrapper


def _threaded_module():
    """main clones a worker; the worker start routine uses mprotect."""
    mb = ModuleBuilder("threaded")
    make_wrapper(mb, "mprotect", 3)
    make_wrapper(mb, "clone", 5)
    make_wrapper(mb, "mmap", 6)

    worker = mb.function("worker_start", params=["region"])
    prot = worker.const(1, dst="prot")
    worker.hook("worker_vuln")
    rc = worker.call("mprotect", [worker.p("region"), 4096, prot])
    worker.ret(rc)

    f = mb.function("main")
    region = f.call("mmap", [0, 8192, 3, 0x22, -1, 0])
    fn = f.funcaddr("worker_start")
    f.call("clone", [0, 0, fn, 0, 0])
    g = f.addr_global("g_region")
    f.store(g, region)
    f.ret(0)
    mb.global_var("g_region", init=0)
    return mb.build()


def _launch():
    artifact = protect(_threaded_module())
    monitor = BastionMonitor(artifact, policy=ContextPolicy.full())
    kernel = Kernel()
    proc, cpu = monitor.launch(kernel)
    status = cpu.run()
    assert status.kind == "returned"
    (child,) = proc.children
    region = proc.memory.read(cpu.image.global_addr["g_region"])
    return kernel, monitor, proc, child, cpu.image, region


def _child_cpu(kernel, child, image, region):
    """A CPU for the clone()d child at its start routine, on its own stack."""
    return CPU(
        image,
        child,
        kernel,
        CPUOptions(),
        entry="worker_start",
        entry_args=[region],
        stack_base=kernel.stacks.allocate(child.pid),
    )


class TestChildExecution:
    def test_child_runs_start_routine(self):
        kernel, monitor, _proc, child, image, region = _launch()
        status = _child_cpu(kernel, child, image, region).run()
        assert status.kind == "returned"
        assert child.syscall_counts.get("mprotect") == 1

    def test_child_is_monitored(self):
        """The child's sensitive syscall stops into the same monitor."""
        kernel, monitor, _proc, child, image, region = _launch()
        before = monitor.stats.hook_counts.get("mprotect", 0)
        _child_cpu(kernel, child, image, region).run()
        assert monitor.stats.hook_counts["mprotect"] == before + 1
        assert monitor.violations == []

    def test_child_attack_blocked(self):
        """Corruption inside the child is caught like in the parent."""
        kernel, monitor, _proc, child, image, region = _launch()
        cpu = _child_cpu(kernel, child, image, region)

        def corrupt(c):
            c.proc.memory.write(c.local_addr("prot"), 7)

        cpu.hooks["worker_vuln"] = corrupt
        status = cpu.run()
        assert status.kind == "killed"
        assert monitor.violations
        assert monitor.violations[0].context == "arg-integrity"

    def test_child_shares_memory_with_parent(self):
        kernel, _monitor, proc, child, image, region = _launch()
        assert child.memory is proc.memory
        assert child.mm is proc.mm

    def test_child_not_callable_killed(self):
        """A child reaching a not-callable syscall dies at the inherited
        seccomp filter."""
        mb = ModuleBuilder("t2")
        make_wrapper(mb, "clone", 5)
        make_wrapper(mb, "execve", 3)  # linked but never called
        worker = mb.function("worker_start", params=["x"])
        worker.hook("go")
        worker.ret(0)
        f = mb.function("main")
        f.call("clone", [0, 0, 0, 0, 0])
        f.ret(0)
        artifact = protect(mb.build())
        monitor = BastionMonitor(artifact, policy=ContextPolicy.full())
        kernel = Kernel()
        proc, cpu = monitor.launch(kernel)
        assert cpu.run().kind == "returned"
        (child,) = proc.children

        from repro.vm.memory import WORD

        cpu2 = _child_cpu(kernel, child, monitor.image, 0)

        def rogue(c):
            fake = 0x7F45_0000_0000
            c.proc.memory.write(fake, 0)
            c.proc.memory.write(fake + WORD, 0)
            c.proc.memory.write(c.fp + WORD, c.image.func_base["execve"])
            c.proc.memory.write(c.fp, fake)

        cpu2.hooks["go"] = rogue
        status = cpu2.run()
        assert status.kind == "killed"
        assert "seccomp" in status.reason
