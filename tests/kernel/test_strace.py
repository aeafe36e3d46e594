"""Tests for the strace-style kernel tap."""

from repro.fuzz.faults import FaultInjector, FaultSpec
from repro.kernel.kernel import Kernel
from repro.kernel.strace import attach_strace, format_arg, format_result
from repro.ir.builder import ModuleBuilder
from repro.vm.loader import Image
from repro.vm.cpu import CPU, CPUOptions


def _run_with_trace(only=None):
    mb = ModuleBuilder("t")
    mb.global_string("g_path", "/etc/conf")
    f = mb.function("main")
    p = f.addr_global("g_path")
    fd = f.syscall("open", [p, 0, 0])
    buf = f.const(0x7F00_0000_0000)
    f.syscall("read", [fd, buf, 64])
    f.syscall("mmap", [0, 8192, 3, 0x22, -1, 0])
    f.syscall("close", [fd])
    f.ret(0)
    module = mb.build()

    kernel = Kernel()
    kernel.vfs.makedirs("/etc")
    kernel.vfs.write_file("/etc/conf", b"data" * 20)
    trace = attach_strace(kernel, only=only)
    image = Image(module)
    proc = kernel.create_process("t", image)
    cpu = CPU(image, proc, kernel, CPUOptions())
    status = cpu.run()
    assert status.kind == "returned"
    return trace


def test_records_all_syscalls():
    trace = _run_with_trace()
    assert trace.counts() == {"open": 1, "read": 1, "mmap": 1, "close": 1}


def test_decodes_path_argument():
    trace = _run_with_trace()
    open_line = trace.lines()[0]
    assert 'open("/etc/conf", 0, 0) = ' in open_line


def test_decodes_prot_and_map_flags():
    trace = _run_with_trace()
    mmap_line = [l for l in trace.lines() if l.startswith("mmap")][0]
    assert "PROT_READ|PROT_WRITE" in mmap_line
    assert "MAP_PRIVATE|MAP_ANONYMOUS" in mmap_line
    assert mmap_line.split(" = ")[1].startswith("0x")


def test_filtering():
    trace = _run_with_trace(only=("mmap",))
    assert set(trace.counts()) == {"mmap"}


def test_errno_rendering():
    assert format_result("open", -2) == "-1 ENOENT"
    assert format_result("read", 42) == "42"


def test_format_arg_small_values():
    kernel = Kernel()
    proc = kernel.create_process("t")
    assert format_arg(proc, "close", 1, 3) == "3"
    assert format_arg(proc, "mprotect", 3, 5) == "PROT_READ|PROT_EXEC"


def test_str_renders_lines():
    trace = _run_with_trace()
    text = str(trace)
    assert text.count("\n") == 3


def test_records_the_syscall_the_handler_ran():
    """A number flip before seccomp turns the program's ``write`` into
    ``mmap``: the log shows the syscall that ran, not the one issued."""
    mb = ModuleBuilder("t")
    f = mb.function("main")
    f.syscall("write", [1, 0, 0])
    f.ret(0)
    image = Image(mb.build())
    kernel = Kernel()
    trace = attach_strace(kernel)
    proc = kernel.create_process("t", image)
    fault = FaultSpec(site="syscall_number", stage="pre_seccomp", occurrence=1)
    injector = FaultInjector(fault).install(kernel, proc)
    assert CPU(image, proc, kernel, CPUOptions()).run().kind == "returned"
    assert injector.detail == "write(1) -> mmap(9)"
    assert trace.counts() == {"mmap": 1}
