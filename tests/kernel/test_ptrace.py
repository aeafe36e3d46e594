"""Tests for the ptrace transport (and the in-kernel ablation transport)."""

import pytest

from repro.errors import MonitorError, PtraceError
from repro.kernel.errno import EFAULT, EIO
from repro.kernel.kernel import Kernel
from repro.kernel.ptrace import PtraceHandle
from repro.syscalls.table import nr_of
from repro.vm.costs import DEFAULT_COSTS


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def proc(kernel):
    return kernel.create_process("t")


def test_getregs_returns_copy(kernel, proc):
    kernel.dispatch(proc, "futex", [1, 2, 3, 4, 5, 6], rip=0x400000, rbp=0x7000, rsp=0x6000)
    pt = PtraceHandle(proc, DEFAULT_COSTS)
    regs = pt.getregs()
    assert regs.rax == nr_of("futex")
    assert regs.rdi == 1 and regs.r9 == 6
    assert regs.rip == 0x400000 and regs.rbp == 0x7000 and regs.rsp == 0x6000
    assert regs.arg(1) == 1 and regs.arg(6) == 6
    assert regs.syscall_args() == (1, 2, 3, 4, 5, 6)
    regs.rdi = 999
    assert proc.syscall.args[0] == 1  # copy, not alias
    assert pt.getregs().rdi == 1


def test_getregs_reads_the_dispatch_context(kernel, proc):
    """A pipeline hook's change to the syscall in flight is what GETREGS
    returns: there is no second copy for it to miss."""

    def flip(ctx):
        ctx.args = [ctx.args[0] ^ 4]

    kernel.pipeline.insert("count", flip)
    kernel.dispatch(proc, "close", [3], rip=0x400010)
    regs = PtraceHandle(proc, DEFAULT_COSTS).getregs()
    assert regs.syscall_args() == (7, 0, 0, 0, 0, 0)
    assert regs.rip == 0x400010


@pytest.mark.parametrize("addr", [0x5003, -16])
@pytest.mark.parametrize("transport", ["ptrace", "inkernel"])
def test_unreadable_address_fails_after_its_charge(proc, addr, transport):
    """Like process_vm_readv (EFAULT) and PTRACE_PEEKDATA (EIO), a read of
    a negative or unaligned address fails; the tracer pays for it first."""
    pt = PtraceHandle(proc, DEFAULT_COSTS, transport=transport)
    reads = (
        (lambda: pt.readv(addr, 2), EFAULT),
        (lambda: pt.peekdata(addr), EIO),
        (lambda: pt.read_vector(addr), EFAULT),
    )
    for read, expected in reads:
        before = proc.ledger.cycles
        with pytest.raises(PtraceError) as failed:
            read()
        assert failed.value.errno == expected
        assert proc.ledger.cycles > before
    assert pt.words_read == 2 + 1 + 32


def test_peek_and_readv(proc):
    proc.memory.write_block(0x5000, [10, 20, 30])
    pt = PtraceHandle(proc, DEFAULT_COSTS)
    assert pt.peekdata(0x5000) == 10
    assert pt.readv(0x5000, 3) == [10, 20, 30]
    assert pt.words_read == 4


def test_read_cstr_and_vector(proc):
    proc.memory.write_cstr(0x5000, "/bin/sh")
    pt = PtraceHandle(proc, DEFAULT_COSTS)
    assert pt.read_cstr(0x5000) == "/bin/sh"
    proc.memory.write_block(0x6000, [0x111, 0x222, 0])
    assert pt.read_vector(0x6000) == [0x111, 0x222]


def test_costs_charged_to_tracee_ledger(kernel, proc):
    kernel.dispatch(proc, "getpid", [])
    pt = PtraceHandle(proc, DEFAULT_COSTS)
    before = proc.ledger.cycles
    pt.getregs()
    pt.readv(0x5000, 10)
    charged = proc.ledger.cycles - before
    assert charged >= DEFAULT_COSTS.ptrace_getregs + DEFAULT_COSTS.readv_base
    assert proc.ledger.category("ptrace") == charged


def test_inkernel_transport_is_cheaper(proc):
    ptrace = PtraceHandle(proc, DEFAULT_COSTS, transport="ptrace")
    ptrace.readv(0x5000, 8)
    ptrace_cost = proc.ledger.category("ptrace")

    proc2 = Kernel().create_process("t2")
    inkernel = PtraceHandle(proc2, DEFAULT_COSTS, transport="inkernel")
    inkernel.readv(0x5000, 8)
    inkernel_cost = proc2.ledger.category("monitor")
    assert inkernel_cost < ptrace_cost // 5


def test_unknown_transport_rejected(proc):
    with pytest.raises(MonitorError):
        PtraceHandle(proc, DEFAULT_COSTS, transport="telepathy")


def test_kill_tracee(proc):
    pt = PtraceHandle(proc, DEFAULT_COSTS)
    pt.kill_tracee("violation")
    assert not proc.alive
    assert proc.kill_reason == "violation"
