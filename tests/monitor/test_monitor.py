"""End-to-end monitor tests: filter construction and context enforcement."""

import pytest

from repro import protect
from repro.ir.builder import ModuleBuilder
from repro.kernel.kernel import Kernel
from repro.kernel.seccomp import evaluate_filters, SECCOMP_RET_ALLOW, SECCOMP_RET_KILL_PROCESS, SECCOMP_RET_TRACE
from repro.monitor.monitor import BastionMonitor
from repro.monitor.policy import ContextPolicy
from repro.syscalls.table import nr_of
from repro.vm.cpu import CPUOptions
from repro.vm.memory import WORD
from tests.conftest import make_wrapper


def _demo_module():
    """main -> do_protect -> mprotect(addr, len, prot) with a hook point."""
    mb = ModuleBuilder("demo")
    make_wrapper(mb, "mprotect", 3)
    make_wrapper(mb, "getpid", 0)
    make_wrapper(mb, "exit", 1)

    do_protect = mb.function("do_protect", params=["addr"])
    prot = do_protect.const(1, dst="prot")
    do_protect.hook("pre")
    rc = do_protect.call("mprotect", [do_protect.p("addr"), 4096, prot])
    do_protect.ret(rc)

    f = mb.function("main")
    f.call("getpid", [])
    r = f.call("do_protect", [0x10000000])
    f.intrinsic("trace", [r])
    f.ret(0)
    return mb.build()


def _launch(policy=None, module=None, hooks=None, cet=False):
    artifact = protect(module or _demo_module())
    monitor = BastionMonitor(artifact, policy=policy or ContextPolicy.full())
    kernel = Kernel()
    proc, cpu = monitor.launch(kernel, cpu_options=CPUOptions(cet=cet))
    proc.mm.do_mmap(0x10000000, 4096, 3, 0x30)
    if hooks:
        cpu.hooks.update(hooks)
    status = cpu.run()
    return status, proc, cpu, monitor


class TestFilterConstruction:
    def test_filter_actions(self):
        artifact = protect(_demo_module())
        monitor = BastionMonitor(artifact)
        filt = monitor.build_filter()
        # used + sensitive -> TRACE
        assert evaluate_filters([filt], nr_of("mprotect"))[0] == SECCOMP_RET_TRACE
        # used + non-sensitive -> ALLOW
        assert evaluate_filters([filt], nr_of("getpid"))[0] == SECCOMP_RET_ALLOW
        # never used -> KILL (call-type's coarse half)
        assert (
            evaluate_filters([filt], nr_of("execve"))[0]
            == SECCOMP_RET_KILL_PROCESS
        )

    def test_filter_without_ct_only_traces(self):
        artifact = protect(_demo_module())
        monitor = BastionMonitor(artifact, policy=ContextPolicy.ai_only())
        filt = monitor.build_filter()
        assert evaluate_filters([filt], nr_of("execve"))[0] == SECCOMP_RET_TRACE
        assert evaluate_filters([filt], nr_of("read"))[0] == SECCOMP_RET_ALLOW


class TestBenignRun:
    def test_clean_run_passes_all_contexts(self):
        status, proc, _cpu, monitor = _launch()
        assert status.kind == "returned"
        assert monitor.violations == []
        assert monitor.stats.hook_counts == {"mprotect": 1}
        assert proc.trace_log == [[0]]

    def test_unwind_depth_stats(self):
        _s, _p, _c, monitor = _launch()
        assert monitor.stats.average_unwind_depth >= 2
        assert monitor.stats.max_unwind_depth >= 2

    def test_summary_renders(self):
        _s, _p, _c, monitor = _launch()
        text = monitor.summary()
        assert "CT+CF+AI" in text and "mprotect" in text


class TestNotCallable:
    def test_seccomp_kills_unused_syscall(self):
        mb = ModuleBuilder("demo2")
        make_wrapper(mb, "mprotect", 3)
        f = mb.function("main")
        f.hook("go")
        f.ret(0)
        module = mb.build()

        def rogue(cpu):
            # jump straight into the (not-callable) wrapper via ret smash
            fake = 0x7F42_0000_0000
            cpu.proc.memory.write(fake, 0)
            cpu.proc.memory.write(fake + WORD, 0)
            cpu.proc.memory.write(cpu.fp + WORD, cpu.image.func_base["mprotect"])
            cpu.proc.memory.write(cpu.fp, fake)

        status, _p, _c, monitor = _launch(module=module, hooks={"go": rogue})
        assert status.kind == "killed"
        assert "seccomp" in status.reason


class TestCallTypeContext:
    def test_indirect_call_of_direct_only_blocked(self):
        mb = ModuleBuilder("demo3")
        make_wrapper(mb, "mprotect", 3)
        caller = mb.function("caller", params=["fn"])
        caller.hook("pre")
        caller.icall(caller.p("fn"), [0x10000000, 4096, 1], sig="fn3")
        caller.ret(0)
        helper = mb.function("helper", params=["a", "b", "c"], sig="fn3")
        helper.ret(0)
        f = mb.function("main")
        h = f.funcaddr("helper")
        f.call("caller", [h])
        f.call("mprotect", [0x10000000, 4096, 1])  # legitimate direct use
        f.ret(0)
        module = mb.build()

        def bend(cpu):
            cpu.proc.memory.write(
                cpu.local_addr("fn"), cpu.image.func_base["mprotect"]
            )

        status, _p, _c, monitor = _launch(
            policy=ContextPolicy.ct_only(), module=module, hooks={"pre": bend}
        )
        assert status.kind == "killed"
        assert monitor.violations[0].context == "call-type"
        assert "indirect invocation" in monitor.violations[0].detail


class TestControlFlowContext:
    def test_rop_into_wrapper_blocked(self):
        def rop(cpu):
            fake = 0x7F43_0000_0000
            mem = cpu.proc.memory
            mem.write(fake - WORD, 0x10000000)  # addr param
            mem.write(fake - 2 * WORD, 4096)
            mem.write(fake - 3 * WORD, 7)
            mem.write(fake, 0)
            mem.write(fake + WORD, 0)
            mem.write(cpu.fp + WORD, cpu.image.func_base["mprotect"])
            mem.write(cpu.fp, fake)

        status, _p, _c, monitor = _launch(
            policy=ContextPolicy.cf_only(), hooks={"pre": rop}
        )
        assert status.kind == "killed"
        assert monitor.violations[0].context == "control-flow"

    def test_corrupted_intermediate_edge_blocked(self):
        def smash_mid(cpu):
            # corrupt do_protect's saved return address so the unwound edge
            # claims do_protect was called from main's getpid callsite
            cpu.proc.memory.write(cpu.fp + WORD, cpu.image.addr_of("main", 1))

        status, _p, _c, monitor = _launch(
            policy=ContextPolicy.cf_only(), hooks={"pre": smash_mid}
        )
        assert status.kind == "killed"
        assert monitor.violations[0].context == "control-flow"


class TestArgIntegrityContext:
    def test_corrupted_local_blocked(self):
        def corrupt(cpu):
            cpu.proc.memory.write(cpu.local_addr("prot"), 7)

        status, _p, _c, monitor = _launch(
            policy=ContextPolicy.ai_only(), hooks={"pre": corrupt}
        )
        assert status.kind == "killed"
        violation = monitor.violations[0]
        assert violation.context == "arg-integrity"
        # 'prot' resolves to a constant bind, so the monitor reports the
        # corrupted constant directly
        assert "corrupted" in violation.detail

    def test_corrupted_param_blocked(self):
        def corrupt(cpu):
            cpu.proc.memory.write(cpu.local_addr("addr"), 0x600000)

        status, _p, _c, monitor = _launch(
            policy=ContextPolicy.ai_only(), hooks={"pre": corrupt}
        )
        assert status.kind == "killed"
        assert monitor.violations[0].context == "arg-integrity"

    def test_extended_pointee_corruption_blocked(self):
        mb = ModuleBuilder("demo4")
        make_wrapper(mb, "execve", 3)
        mb.global_string("g_bin", "/usr/bin/app")
        f = mb.function("main")
        p = f.addr_global("g_bin")
        f.hook("pre")
        f.call("execve", [p, 0, 0])
        f.ret(0)
        module = mb.build()

        def corrupt(cpu):
            # rewrite the tracked path string in place: "/bin/sh"
            cpu.proc.memory.write_cstr(
                cpu.image.global_addr["g_bin"], "/bin/sh"
            )

        artifact = protect(module)
        monitor = BastionMonitor(artifact, policy=ContextPolicy.ai_only())
        kernel = Kernel()
        kernel.vfs.makedirs("/usr/bin")
        kernel.vfs.write_file("/usr/bin/app", b"elf")
        kernel.vfs.makedirs("/bin")
        kernel.vfs.write_file("/bin/sh", b"elf")
        proc, cpu = monitor.launch(kernel, cpu_options=CPUOptions(cet=False))
        cpu.hooks["pre"] = corrupt
        status = cpu.run()
        assert status.kind == "killed"
        assert monitor.violations[0].context == "arg-integrity"
        assert "pointee" in monitor.violations[0].detail
        assert not kernel.events_of("execve")

    @pytest.mark.parametrize(
        "argv, detail",
        [
            (None, "PTRACE_PEEKDATA: unaligned access at 0x10003"),
            (0x10003, "process_vm_readv: unaligned access at 0x10003"),
        ],
    )
    @pytest.mark.parametrize("policy", ["full", "ai_only"])
    def test_unreadable_pointee_blocked(self, argv, detail, policy):
        """A bound pointer the monitor cannot read through fails the check
        instead of crashing the stop."""
        mb = ModuleBuilder("demo5")
        make_wrapper(mb, "execve", 3)
        mb.global_string("g_bin", "/usr/bin/app")
        f = mb.function("main")
        if argv is None:
            f.call("execve", [f.const(0x10003), 0, 0])
        else:
            f.call("execve", [f.addr_global("g_bin"), f.const(argv), 0])
        f.ret(0)
        status, _p, _c, monitor = _launch(
            policy=getattr(ContextPolicy, policy)(), module=mb.build()
        )
        assert status.kind == "killed"
        [violation] = monitor.violations
        assert (violation.context, violation.detail) == ("arg-integrity", detail)


class TestModes:
    def test_hook_only_counts_but_never_verifies(self):
        def corrupt(cpu):
            cpu.proc.memory.write(cpu.local_addr("prot"), 7)

        status, _p, _c, monitor = _launch(
            policy=ContextPolicy.full().as_hook_only(), hooks={"pre": corrupt}
        )
        assert status.kind == "returned"  # corruption sails through
        assert monitor.stats.hooks == 1
        assert monitor.violations == []

    def test_fetch_state_reads_but_never_kills(self):
        def corrupt(cpu):
            cpu.proc.memory.write(cpu.local_addr("prot"), 7)

        status, proc, _c, monitor = _launch(
            policy=ContextPolicy.full().as_fetch_state(), hooks={"pre": corrupt}
        )
        assert status.kind == "returned"
        assert monitor.violations == []
        assert proc.ledger.category("ptrace") > 0

    def test_inkernel_transport_charges_monitor_not_ptrace(self):
        status, proc, _c, _m = _launch(policy=ContextPolicy.full().as_inkernel())
        assert status.kind == "returned"
        assert proc.ledger.category("ptrace") == 0
        assert proc.ledger.category("trap") == 0
        assert proc.ledger.category("monitor") > 0

    def test_ct_only_unwinds_single_frame(self):
        _s, _p, _c, ct_monitor = _launch(policy=ContextPolicy.ct_only())
        _s2, _p2, _c2, full_monitor = _launch(policy=ContextPolicy.full())
        assert ct_monitor.stats.max_unwind_depth == 1
        assert full_monitor.stats.max_unwind_depth > 1
