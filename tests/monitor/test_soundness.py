"""Property-based soundness of full BASTION enforcement.

The core guarantee, fuzzed: for *any* single-word corruption of memory
feeding a sensitive syscall's arguments, either the monitor kills the
process before the syscall executes, or the syscall executes with exactly
the values the program legitimately computed (the corruption landed
somewhere harmless).  There is no third outcome — a sensitive syscall
executing with attacker-influenced arguments.
"""

from hypothesis import given, settings, strategies as st

from repro import protect
from repro.ir.builder import ModuleBuilder
from repro.kernel.kernel import Kernel
from repro.monitor.monitor import BastionMonitor
from repro.monitor.policy import ContextPolicy
from tests.conftest import make_wrapper

LEGIT_ADDR = 0x10000000
LEGIT_LEN = 4096
LEGIT_PROT = 1


def _module():
    mb = ModuleBuilder("sound")
    make_wrapper(mb, "mprotect", 3)
    mb.global_var("g_region", init=LEGIT_ADDR)

    inner = mb.function("apply_guard", params=["addr", "len_", "prot"])
    inner.hook("corrupt_here")
    rc = inner.call("mprotect", [inner.p("addr"), inner.p("len_"), inner.p("prot")])
    inner.ret(rc)

    f = mb.function("main")
    gp = f.addr_global("g_region")
    addr = f.load(gp)
    prot = f.const(LEGIT_PROT, dst="prot")
    r = f.call("apply_guard", [addr, LEGIT_LEN, prot])
    f.ret(r)
    return mb.build()


_ARTIFACT = protect(_module())

#: corruption targets: the callee's three parameter slots and the global
#: that feeds the address argument
_TARGETS = st.sampled_from(["addr", "len_", "prot", "g_region"])
_VALUES = st.integers(min_value=0, max_value=(1 << 48) - 1)


@settings(max_examples=120, deadline=None)
@given(target=_TARGETS, value=_VALUES)
def test_no_silent_argument_tampering(target, value):
    monitor = BastionMonitor(_ARTIFACT, policy=ContextPolicy.full())
    kernel = Kernel()
    proc, cpu = monitor.launch(kernel)
    proc.mm.do_mmap(LEGIT_ADDR, LEGIT_LEN, 3, 0x30)

    def corrupt(c):
        if target == "g_region":
            c.proc.memory.write(c.image.global_addr["g_region"], value)
        else:
            c.proc.memory.write(c.local_addr(target), value)

    cpu.hooks["corrupt_here"] = corrupt
    status = cpu.run()

    executed = kernel.events_of("mprotect_exec")
    dispatched = proc.syscall_counts.get("mprotect", 0)

    if status.kind == "killed":
        # blocked before the handler ran: no mprotect semantics applied
        assert monitor.violations
        assert not executed
        assert not proc.mm.has_wx_region()
    else:
        # the run survived: the syscall must have used the legitimate values
        assert dispatched == 1
        assert proc.syscall.name == "mprotect"
        assert list(proc.syscall.args) == [LEGIT_ADDR, LEGIT_LEN, LEGIT_PROT]


@settings(max_examples=60, deadline=None)
@given(value=_VALUES)
def test_shadow_region_scribbling_never_helps(value):
    """Blind writes into the shadow region may crash the run or trip a
    verdict, but can never make a *corrupted* argument pass."""
    from repro.runtime.shadow_table import COPIES_LAYOUT

    monitor = BastionMonitor(_ARTIFACT, policy=ContextPolicy.full())
    kernel = Kernel()
    proc, cpu = monitor.launch(kernel)
    proc.mm.do_mmap(LEGIT_ADDR, LEGIT_LEN, 3, 0x30)

    def corrupt(c):
        c.proc.memory.write(c.local_addr("prot"), 7)  # the actual attack
        # plus one blind scribble somewhere in the copies table
        slot = (value % COPIES_LAYOUT.capacity)
        c.proc.memory.write(COPIES_LAYOUT.entry_addr(slot), value)

    cpu.hooks["corrupt_here"] = corrupt
    status = cpu.run()
    wx = [e for e in kernel.events_of("mprotect_exec") if e.details.get("writable")]
    assert not wx  # PROT_RWX never lands
    assert status.kind == "killed"
