"""Tests for readv/writev, pipes, dup2, and file syscalls on non-files."""

import pytest

from repro.ir.builder import ModuleBuilder
from repro.kernel import errno
from repro.kernel.kernel import Kernel
from repro.kernel.vfs import S_IFIFO
from repro.vm.loader import Image
from repro.vm.memory import WORD


@pytest.fixture
def setup():
    kernel = Kernel()
    kernel.vfs.makedirs("/tmp")
    kernel.vfs.write_file("/tmp/data", b"abcdefghij")
    mb = ModuleBuilder("t")
    f = mb.function("main")
    f.ret(0)
    proc = kernel.create_process("t", Image(mb.build()))
    return kernel, proc


BUF = 0x7F20_0000_0000
IOV = 0x7F20_0010_0000
STR = 0x7F20_0020_0000


def _open(kernel, proc, path="/tmp/data", flags=0):
    proc.memory.write_cstr(STR, path)
    return kernel.dispatch(proc, "open", [STR, flags, 0o644])


class TestVectoredIO:
    def test_readv_scatters(self, setup):
        kernel, proc = setup
        fd = _open(kernel, proc)
        # two iovecs: 3 bytes then 4 bytes
        proc.memory.write_block(IOV, [BUF, 3, BUF + 0x1000 * WORD, 4])
        n = kernel.dispatch(proc, "readv", [fd, IOV, 2])
        assert n == 7
        assert proc.memory.read(BUF) == ord("a")
        assert proc.memory.read(BUF + 2 * WORD) == ord("c")
        assert proc.memory.read(BUF + 0x1000 * WORD) == ord("d")

    def test_writev_gathers(self, setup):
        kernel, proc = setup
        fd = _open(kernel, proc, "/tmp/out", flags=0o100)  # O_CREAT
        proc.memory.write_cstr(BUF, "he")
        proc.memory.write_cstr(BUF + 0x1000 * WORD, "llo")
        proc.memory.write_block(IOV, [BUF, 2, BUF + 0x1000 * WORD, 3])
        n = kernel.dispatch(proc, "writev", [fd, IOV, 2])
        assert n == 5
        assert kernel.vfs.lookup("/tmp/out").data == b"hello"

    def test_readv_stops_at_short_read(self, setup):
        kernel, proc = setup
        fd = _open(kernel, proc)
        proc.memory.write_block(IOV, [BUF, 8, BUF + 0x1000 * WORD, 8])
        n = kernel.dispatch(proc, "readv", [fd, IOV, 2])
        assert n == 10  # file is only 10 bytes

    def test_readv_bad_fd(self, setup):
        kernel, proc = setup
        proc.memory.write_block(IOV, [BUF, 4])
        assert kernel.dispatch(proc, "readv", [99, IOV, 1]) == -errno.EBADF


class TestPipe:
    def test_pipe_roundtrip(self, setup):
        kernel, proc = setup
        fds = BUF
        assert kernel.dispatch(proc, "pipe", [fds]) == 0
        read_fd = proc.memory.read(fds)
        write_fd = proc.memory.read(fds + WORD)
        proc.memory.write_cstr(BUF + 0x100 * WORD, "ping")
        assert kernel.dispatch(proc, "write", [write_fd, BUF + 0x100 * WORD, 4]) == 4
        n = kernel.dispatch(proc, "read", [read_fd, BUF + 0x200 * WORD, 16])
        assert n == 4
        assert proc.memory.read(BUF + 0x200 * WORD) == ord("p")

    def test_pipe_wrong_direction(self, setup):
        kernel, proc = setup
        fds = BUF
        kernel.dispatch(proc, "pipe", [fds])
        read_fd = proc.memory.read(fds)
        write_fd = proc.memory.read(fds + WORD)
        assert kernel.dispatch(proc, "write", [read_fd, BUF, 1]) < 0
        assert kernel.dispatch(proc, "read", [write_fd, BUF, 1]) < 0

    def test_empty_pipe_reads_zero(self, setup):
        kernel, proc = setup
        fds = BUF
        kernel.dispatch(proc, "pipe", [fds])
        read_fd = proc.memory.read(fds)
        assert kernel.dispatch(proc, "read", [read_fd, BUF + 0x100 * WORD, 8]) == 0


class TestDup2:
    def test_dup2_aliases(self, setup):
        kernel, proc = setup
        fd = _open(kernel, proc)
        assert kernel.dispatch(proc, "dup2", [fd, 42]) == 42
        n = kernel.dispatch(proc, "read", [42, BUF, 3])
        assert n == 3
        # shared offset: the original fd continues where the dup left off
        n = kernel.dispatch(proc, "read", [fd, BUF, 3])
        assert proc.memory.read(BUF) == ord("d")

    def test_dup2_bad_source(self, setup):
        kernel, proc = setup
        assert kernel.dispatch(proc, "dup2", [99, 5]) == -errno.EBADF


#: file syscalls on a pipe end or an epoll fd: (syscall, fd kind, args
#: after the fd, expected return).  ``sendfile_in`` passes the fd as
#: in_fd, ``sendfile_out`` as out_fd, with /tmp/data on the other side.
_NON_FILE_CASES = [
    (name, "epoll", rest, -errno.EINVAL)
    for name, rest in (
        ("read", [BUF, 4]),
        ("write", [BUF, 4]),
        ("readv", [IOV, 1]),
        ("writev", [IOV, 1]),
        ("recvfrom", [BUF, 4, 0]),
        ("sendto", [BUF, 4, 0]),
    )
] + [
    (name, kind, rest, -errno.ESPIPE)
    for kind in ("pipe_r", "pipe_w", "epoll")
    for name, rest in (
        ("pread64", [BUF, 4, 1]),
        ("pwrite64", [BUF, 4, 1]),
        ("lseek", [2, 0]),
    )
] + [
    ("fstat", kind, [BUF], 0) for kind in ("pipe_r", "pipe_w", "epoll")
] + [
    ("getdents", "epoll", [BUF, 64], -errno.EBADF),
    ("sendfile_out", "epoll", [4], -errno.EINVAL),
] + [
    ("sendfile_in", kind, [4], -errno.EINVAL)
    for kind in ("pipe_r", "pipe_w", "epoll")
]


class TestNonFileDescriptors:
    @pytest.mark.parametrize(
        "name,kind,rest,expected",
        _NON_FILE_CASES,
        ids=["%s-%s" % (case[0], case[1]) for case in _NON_FILE_CASES],
    )
    def test_file_syscall_returns_errno(self, setup, name, kind, rest, expected):
        """A file syscall on a pipe end or an epoll fd fails with an errno
        (or, for fstat, reports the fd's type) instead of crashing the
        dispatch."""
        kernel, proc = setup
        kernel.dispatch(proc, "pipe", [BUF + 0x800 * WORD])
        fds = {
            "pipe_r": proc.memory.read(BUF + 0x800 * WORD),
            "pipe_w": proc.memory.read(BUF + 0x801 * WORD),
            "epoll": kernel.dispatch(proc, "epoll_create1", [0]),
        }
        fd = fds[kind]
        proc.memory.write_block(IOV, [BUF, 4])
        if name == "sendfile_in":
            rc = kernel.dispatch(proc, "sendfile", [_open(kernel, proc), fd, 0] + rest)
        elif name == "sendfile_out":
            rc = kernel.dispatch(proc, "sendfile", [fd, _open(kernel, proc), 0] + rest)
        else:
            rc = kernel.dispatch(proc, name, [fd] + rest)
        assert rc == expected
        if name == "fstat":
            kind_bits = 0 if kind == "epoll" else S_IFIFO
            assert proc.memory.read_block(BUF, 2) == [kind_bits, 0]
