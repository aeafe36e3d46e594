"""Tests for the kernel's syscall dispatcher and handlers."""

import pytest

from repro.errors import ProcessKilled, WouldBlock
from repro.ir.builder import ModuleBuilder
from repro.kernel import errno
from repro.kernel.kernel import ELIDE_BYTES, Kernel
from repro.kernel.net import Connection
from repro.kernel.seccomp import (
    SECCOMP_RET_ERRNO,
    SECCOMP_RET_KILL_PROCESS,
    SECCOMP_RET_TRACE,
    build_action_filter,
)
from repro.kernel.vfs import O_CREAT
from repro.syscalls.table import nr_of
from repro.vm.loader import Image
from repro.vm.memory import WORD
from tests.conftest import make_wrapper, run_module


@pytest.fixture
def setup():
    """A kernel + process with a mapped image and some files."""
    kernel = Kernel()
    kernel.vfs.makedirs("/tmp")
    kernel.vfs.write_file("/tmp/data", b"0123456789" * 100)
    mb = ModuleBuilder("t")
    f = mb.function("main")
    f.ret(0)
    image = Image(mb.build())
    proc = kernel.create_process("t", image)
    return kernel, proc


def _cstr(proc, addr, text):
    proc.memory.write_cstr(addr, text)
    return addr


BUF = 0x7F20_0000_0000
STR = 0x7F20_0001_0000


class TestFileIO:
    def test_open_read_close(self, setup):
        kernel, proc = setup
        path = _cstr(proc, STR, "/tmp/data")
        fd = kernel.dispatch(proc, "open", [path, 0, 0])
        assert fd >= 3
        n = kernel.dispatch(proc, "read", [fd, BUF, 10])
        assert n == 10
        assert proc.memory.read(BUF) == ord("0")
        assert proc.memory.read(BUF + 9 * WORD) == ord("9")
        assert kernel.dispatch(proc, "close", [fd]) == 0
        assert kernel.dispatch(proc, "close", [fd]) == -errno.EBADF

    def test_open_missing(self, setup):
        kernel, proc = setup
        path = _cstr(proc, STR, "/none")
        assert kernel.dispatch(proc, "open", [path, 0, 0]) == -errno.ENOENT

    def test_open_creat_write(self, setup):
        kernel, proc = setup
        path = _cstr(proc, STR, "/tmp/new")
        fd = kernel.dispatch(proc, "open", [path, O_CREAT, 0o644])
        proc.memory.write(BUF, ord("A"))
        assert kernel.dispatch(proc, "write", [fd, BUF, 1]) == 1
        assert kernel.vfs.lookup("/tmp/new").data == b"A"

    def test_data_plane_elision(self, setup):
        """Large reads charge for the full size but materialize a prefix."""
        kernel, proc = setup
        kernel.vfs.write_file("/tmp/big", b"z" * 10000)
        path = _cstr(proc, STR, "/tmp/big")
        fd = kernel.dispatch(proc, "open", [path, 0, 0])
        before = proc.ledger.cycles
        n = kernel.dispatch(proc, "read", [fd, BUF, 10000])
        assert n == 10000
        assert proc.memory.read(BUF + (ELIDE_BYTES - 1) * WORD) == ord("z")
        assert proc.memory.read(BUF + ELIDE_BYTES * WORD) == 0
        assert proc.ledger.cycles - before >= 10000 * 0.3

    def test_stat_fstat(self, setup):
        kernel, proc = setup
        path = _cstr(proc, STR, "/tmp/data")
        assert kernel.dispatch(proc, "stat", [path, BUF]) == 0
        assert proc.memory.read(BUF + WORD) == 1000  # st_size
        fd = kernel.dispatch(proc, "open", [path, 0, 0])
        assert kernel.dispatch(proc, "fstat", [fd, BUF]) == 0
        assert proc.memory.read(BUF + WORD) == 1000

    def test_lseek_pread_pwrite(self, setup):
        kernel, proc = setup
        path = _cstr(proc, STR, "/tmp/data")
        fd = kernel.dispatch(proc, "open", [path, 0, 0])
        assert kernel.dispatch(proc, "lseek", [fd, 5, 0]) == 5
        n = kernel.dispatch(proc, "pread64", [fd, BUF, 3, 0])
        assert n == 3
        assert kernel.dispatch(proc, "lseek", [fd, 0, 1]) == 5  # pos unchanged
        proc.memory.write(BUF, ord("X"))
        assert kernel.dispatch(proc, "pwrite64", [fd, BUF, 1, 0]) == 1
        assert kernel.vfs.lookup("/tmp/data").data[:1] == b"X"

    def test_write_to_stdout_succeeds(self, setup):
        kernel, proc = setup
        assert kernel.dispatch(proc, "write", [1, BUF, 5]) == 5
        assert kernel.dispatch(proc, "write", [7, BUF, 5]) == -errno.EBADF

    def test_unlink_rename_mkdir_access(self, setup):
        kernel, proc = setup
        path = _cstr(proc, STR, "/tmp/data")
        assert kernel.dispatch(proc, "access", [path, 0]) == 0
        new_dir = _cstr(proc, STR + 0x100 * WORD, "/tmp/sub")
        assert kernel.dispatch(proc, "mkdir", [new_dir, 0o755]) == 0
        new_path = _cstr(proc, STR + 0x200 * WORD, "/tmp/sub/moved")
        assert kernel.dispatch(proc, "rename", [path, new_path]) == 0
        assert kernel.dispatch(proc, "unlink", [new_path]) == 0

    def test_open_log_records(self, setup):
        kernel, proc = setup
        path = _cstr(proc, STR, "/tmp/data")
        kernel.dispatch(proc, "open", [path, 0, 0])
        assert (proc.pid, "/tmp/data") in kernel.open_log


class TestMemorySyscalls:
    def test_mmap_mprotect_events(self, setup):
        kernel, proc = setup
        addr = kernel.dispatch(proc, "mmap", [0, 8192, 3, 0x22, -1, 0])
        assert addr > 0
        assert kernel.dispatch(proc, "mprotect", [addr, 4096, 7]) == 0
        events = kernel.events_of("mprotect_exec")
        assert events and events[0].details["writable"]
        assert kernel.mm_is_executable(proc, addr)

    def test_munmap_brk(self, setup):
        kernel, proc = setup
        addr = kernel.dispatch(proc, "mmap", [0, 4096, 3, 0x22, -1, 0])
        assert kernel.dispatch(proc, "munmap", [addr, 4096]) == 0
        brk = kernel.dispatch(proc, "brk", [0])
        assert kernel.dispatch(proc, "brk", [brk + 4096]) == brk + 4096

    def test_mremap_records_event(self, setup):
        kernel, proc = setup
        addr = kernel.dispatch(proc, "mmap", [0, 4096, 3, 0x22, -1, 0])
        new = kernel.dispatch(proc, "mremap", [addr, 4096, 8192, 0, 0])
        assert new > 0
        assert kernel.events_of("mremap")


class TestSockets:
    def _listening(self, kernel, proc, port=80):
        fd = kernel.dispatch(proc, "socket", [2, 1, 0])
        proc.memory.write_block(BUF, [2, port, 0])
        assert kernel.dispatch(proc, "bind", [fd, BUF, 16]) == 0
        assert kernel.dispatch(proc, "listen", [fd, 16]) == 0
        return fd

    def test_accept_flow(self, setup):
        kernel, proc = setup
        fd = self._listening(kernel, proc)
        conn = Connection(peer_port=5555)
        conn.deliver(b"GET /")
        kernel.net.backlog_provider = lambda sock: conn if sock.bound_port == 80 else None
        sa = BUF + 0x100 * WORD
        cfd = kernel.dispatch(proc, "accept4", [fd, sa, 0, 0])
        assert cfd >= 3
        assert proc.memory.read(sa + WORD) == 5555  # kernel-written sockaddr
        n = kernel.dispatch(proc, "read", [cfd, BUF, 100])
        assert n == 5
        assert kernel.dispatch(proc, "write", [cfd, BUF, 64]) == 64
        assert conn.bytes_out == 64
        assert kernel.net.bytes_sent == 64

    def test_accept_empty_backlog(self, setup):
        kernel, proc = setup
        fd = self._listening(kernel, proc)
        assert kernel.dispatch(proc, "accept", [fd, 0, 0]) == -errno.EAGAIN

    def test_accept_requires_listening(self, setup):
        kernel, proc = setup
        fd = kernel.dispatch(proc, "socket", [2, 1, 0])
        assert kernel.dispatch(proc, "accept", [fd, 0, 0]) == -errno.EINVAL

    def test_bind_conflict(self, setup):
        kernel, proc = setup
        self._listening(kernel, proc, 99)
        fd2 = kernel.dispatch(proc, "socket", [2, 1, 0])
        proc.memory.write_block(BUF, [2, 99, 0])
        assert kernel.dispatch(proc, "bind", [fd2, BUF, 16]) == -errno.EADDRINUSE

    def test_connect_records(self, setup):
        kernel, proc = setup
        fd = kernel.dispatch(proc, "socket", [2, 1, 0])
        proc.memory.write_block(BUF, [2, 4444, 0])
        assert kernel.dispatch(proc, "connect", [fd, BUF, 16]) == 0
        assert kernel.events_of("connect")[0].details["port"] == 4444

    def test_sendfile_to_socket(self, setup):
        kernel, proc = setup
        path = _cstr(proc, STR, "/tmp/data")
        file_fd = kernel.dispatch(proc, "open", [path, 0, 0])
        lfd = self._listening(kernel, proc)
        conn = Connection()
        kernel.net.backlog_provider = lambda sock: conn
        cfd = kernel.dispatch(proc, "accept", [lfd, 0, 0])
        sent = kernel.dispatch(proc, "sendfile", [cfd, file_fd, 0, 400])
        assert sent == 400
        assert conn.bytes_out == 400
        # second call continues from the file offset
        assert kernel.dispatch(proc, "sendfile", [cfd, file_fd, 0, 10000]) == 600
        assert kernel.dispatch(proc, "sendfile", [cfd, file_fd, 0, 10]) == 0

    def test_not_a_socket(self, setup):
        kernel, proc = setup
        path = _cstr(proc, STR, "/tmp/data")
        fd = kernel.dispatch(proc, "open", [path, 0, 0])
        assert kernel.dispatch(proc, "bind", [fd, BUF, 16]) == -errno.ENOTSOCK


class TestSendfileUnwritableOut:
    @pytest.mark.parametrize("out", ["directory", "pipe_read_end"])
    def test_fails_with_ebadf_moving_nothing(self, setup, out):
        """An out_fd not open for writing fails before in_fd is read: its
        offset, the ledger and the destination stay as they were."""
        kernel, proc = setup
        in_fd = kernel.dispatch(proc, "open", [_cstr(proc, STR, "/tmp/data"), 0, 0])
        if out == "directory":
            out_fd = kernel.dispatch(proc, "open", [_cstr(proc, STR, "/tmp"), 0, 0])
        else:
            kernel.dispatch(proc, "pipe", [BUF])
            out_fd = proc.memory.read(BUF)
        before = proc.ledger.cycles
        assert kernel.dispatch(proc, "sendfile", [out_fd, in_fd, 0, 4]) == -errno.EBADF
        assert proc.fdtable.get(in_fd).pos == 0
        assert proc.ledger.cycles == before
        if out == "pipe_read_end":
            assert proc.fdtable.get(out_fd).pipe.buffer == b""
        assert kernel.dispatch(proc, "read", [in_fd, BUF, 4]) == 4
        assert proc.memory.read(BUF) == ord("0")


#: (syscall, fd kind, args after the fd, Linux's errno): socket calls on an
#: fd that is not open, fcntl on one, and seeks on a socket
_DESCRIPTOR_ERRNO_CASES = [
    (name, "closed", rest, errno.EBADF)
    for name, rest in (
        ("fcntl", [1, 0]),
        ("bind", [BUF, 16]),
        ("listen", [16]),
        ("accept", [0, 0]),
        ("accept4", [0, 0, 0]),
        ("connect", [BUF, 16]),
        ("shutdown", [2]),
    )
] + [
    (name, "socket", rest, errno.ESPIPE)
    for name, rest in (
        ("lseek", [2, 0]),
        ("pread64", [BUF, 4, 1]),
        ("pwrite64", [BUF, 4, 1]),
    )
]


class TestDescriptorErrnos:
    @pytest.mark.parametrize(
        "name,kind,rest,expected",
        _DESCRIPTOR_ERRNO_CASES,
        ids=["%s-%s" % (case[0], case[1]) for case in _DESCRIPTOR_ERRNO_CASES],
    )
    def test_linux_errno(self, setup, name, kind, rest, expected):
        kernel, proc = setup
        fd = 999 if kind == "closed" else kernel.dispatch(proc, "socket", [2, 1, 0])
        proc.memory.write_block(BUF, [2, 80, 0])
        before = proc.ledger.cycles
        assert kernel.dispatch(proc, name, [fd] + rest) == -expected
        assert proc.ledger.cycles == before


class TestNegativeWriteCount:
    """A count negative as a signed register is above SSIZE_MAX: the write
    fails with EFAULT, as Linux's access_ok makes it, and charges nothing."""

    def _targets(self, kernel, proc):
        """stdout, a connected socket and a regular file."""
        lfd = TestSockets()._listening(kernel, proc)
        conn = Connection()
        kernel.net.backlog_provider = lambda sock: conn
        sock = kernel.dispatch(proc, "accept", [lfd, 0, 0])
        path = _cstr(proc, STR, "/tmp/out")
        file_fd = kernel.dispatch(proc, "open", [path, O_CREAT, 0o644])
        return {"stdout": 1, "socket": sock, "file": file_fd}, conn

    @pytest.mark.parametrize("target", ["stdout", "socket", "file"])
    @pytest.mark.parametrize("name", ["write", "pwrite64", "sendto"])
    def test_fails_without_charging(self, setup, name, target):
        kernel, proc = setup
        fds, conn = self._targets(kernel, proc)
        fd = fds[target]
        expected = -errno.EFAULT
        if name == "pwrite64" and target != "file":
            # pwrite64's fd checks come first: no fd at stdout, no seek on a socket
            expected = -errno.ESPIPE if target == "socket" else -errno.EBADF
        if name == "sendto" and target == "file":
            # sendto clamps the length, then finds no socket
            expected = -errno.ENOTSOCK
        before = proc.ledger.cycles
        args = [fd, BUF, -1, 0] if name == "pwrite64" else [fd, BUF, -1]
        assert kernel.dispatch(proc, name, args) == expected
        assert proc.ledger.cycles == before
        assert conn.bytes_out == 0 and kernel.net.bytes_sent == 0
        assert kernel.vfs.lookup("/tmp/out").data == b""

    def test_program_keeps_running(self):
        """``n = 0 - 1; write(1, &msg, n)`` returns -EFAULT to the program."""
        mb = ModuleBuilder("t")
        mb.global_string("msg", "hi")
        make_wrapper(mb, "write", 3)
        f = mb.function("main")
        n = f.sub(0, 1)
        f.ret(f.call("write", [1, f.addr_global("msg"), n]))
        status, _proc, _cpu = run_module(mb.build())
        assert (status.kind, status.code) == ("returned", -errno.EFAULT)


def _descriptors(kernel, proc):
    """One fd of each kind, by name: a regular file, a directory, both ends
    of a pipe holding 8 bytes, an epoll fd, a fresh and a listening socket
    (neither has a connection), and a connected socket holding 5 bytes."""
    fds = {"closed": 999}
    fds["file"] = kernel.dispatch(proc, "open", [_cstr(proc, STR, "/tmp/data"), 0, 0])
    fds["directory"] = kernel.dispatch(proc, "open", [_cstr(proc, STR, "/tmp"), 0, 0])
    kernel.dispatch(proc, "pipe", [BUF])
    fds["pipe_read"], fds["pipe_write"] = proc.memory.read_block(BUF, 2)
    assert kernel.dispatch(proc, "write", [fds["pipe_write"], BUF, 8]) == 8
    fds["epoll"] = kernel.dispatch(proc, "epoll_create1", [0])
    fds["socket"] = kernel.dispatch(proc, "socket", [2, 1, 0])
    fds["listening"] = TestSockets()._listening(kernel, proc)
    conn = Connection()
    conn.deliver(b"hello")
    kernel.net.backlog_provider = lambda sock: conn
    fds["connected"] = kernel.dispatch(proc, "accept", [fds["listening"], 0, 0])
    return fds, conn


#: (syscall, fd kind, args after the fd, Linux's errno), each checked on
#: Linux 6.18: a negative count fails with EFAULT (EINVAL for sendfile)
#: after the fd checks, I/O on a socket with no connection fails, and
#: sendto/recvfrom on a descriptor that is no socket fail with ENOTSOCK
_IO_ERRNO_CASES = [
    ("read", kind, [BUF, -1], expected)
    for kind, expected in (
        ("closed", errno.EBADF),
        ("pipe_write", errno.EBADF),
        ("epoll", errno.EINVAL),
        ("file", errno.EFAULT),
        ("directory", errno.EFAULT),
        ("pipe_read", errno.EFAULT),
        ("socket", errno.EFAULT),
        ("listening", errno.EFAULT),
        ("connected", errno.EFAULT),
    )
] + [
    ("read", "directory", [BUF, 4], errno.EISDIR),
    ("read", "socket", [BUF, 4], errno.ENOTCONN),
    ("read", "listening", [BUF, 4], errno.ENOTCONN),
    ("recvfrom", "socket", [BUF, 4, 0, 0, 0], errno.ENOTCONN),
    ("pread64", "closed", [BUF, -5, 0], errno.EBADF),
    ("pread64", "pipe_read", [BUF, -5, 0], errno.ESPIPE),
    ("pread64", "file", [BUF, -5, 0], errno.EFAULT),
    ("pread64", "directory", [BUF, -5, 0], errno.EFAULT),
    ("pread64", "file", [BUF, 4, -1], errno.EINVAL),
    ("pread64", "closed", [BUF, 4, -1], errno.EINVAL),
    ("pwrite64", "closed", [BUF, 4, -1], errno.EINVAL),
    ("write", "pipe_read", [BUF, -1], errno.EBADF),
    ("write", "epoll", [BUF, -1], errno.EINVAL),
    ("write", "socket", [BUF, -1], errno.EFAULT),
    ("write", "socket", [BUF, 4], errno.EPIPE),
    ("write", "listening", [BUF, 4], errno.EPIPE),
    ("sendto", "socket", [BUF, 4, 0, 0, 0], errno.EPIPE),
] + [
    # Linux imports the buffer with its length clamped to MAX_RW_COUNT (a
    # negative count passes for an ordinary buffer), then looks the socket
    # up: ENOTSOCK for an installed descriptor that is no socket
    (name, kind, [BUF, count, 0, 0, 0], errno.ENOTSOCK)
    for name in ("sendto", "recvfrom")
    for kind in ("file", "directory", "pipe_read", "pipe_write", "epoll")
    for count in ((4, -1) if kind == "file" else (4,))
] + [
    (name, "closed", [BUF, 4, 0, 0, 0], errno.EBADF) for name in ("sendto", "recvfrom")
]


class TestIOErrnos:
    """Failed reads and writes return Linux's errno in Linux's order, and
    move and charge nothing."""

    @staticmethod
    def _state(kernel, proc, fds, conn):
        return (
            proc.ledger.cycles,
            proc.fdtable.get(fds["file"]).pos,
            proc.fdtable.get(fds["pipe_read"]).pipe.buffer,
            conn.inbox,
            conn.bytes_out,
            kernel.net.bytes_sent,
            kernel.net.bytes_received,
            kernel.vfs.lookup("/tmp/data").data,
            proc.memory.read(BUF + 2 * WORD),
        )

    @pytest.mark.parametrize(
        "name,kind,rest,expected",
        _IO_ERRNO_CASES,
        ids=["%s-%s-%d" % (case[0], case[1], case[2][1]) for case in _IO_ERRNO_CASES],
    )
    def test_linux_errno(self, setup, name, kind, rest, expected):
        kernel, proc = setup
        fds, conn = _descriptors(kernel, proc)
        before = self._state(kernel, proc, fds, conn)
        assert kernel.dispatch(proc, name, [fds[kind]] + rest) == -expected
        assert self._state(kernel, proc, fds, conn) == before

    @pytest.mark.parametrize(
        "out,in_,count,expected",
        [
            ("socket", "file", 4, errno.EPIPE),
            ("listening", "file", 4, errno.EPIPE),
            ("socket", "file", -1, errno.EINVAL),
            ("closed", "file", -1, errno.EINVAL),
            ("socket", "closed", -1, errno.EBADF),
            ("connected", "file", -1, errno.EINVAL),
        ],
    )
    def test_sendfile(self, setup, out, in_, count, expected):
        """sendfile checks everything before in_fd is read: its offset,
        the ledger and the peer stay as they were."""
        kernel, proc = setup
        fds, conn = _descriptors(kernel, proc)
        before = self._state(kernel, proc, fds, conn)
        assert kernel.dispatch(proc, "sendfile", [fds[out], fds[in_], 0, count]) == -expected
        assert self._state(kernel, proc, fds, conn) == before

    def test_negative_count_on_an_empty_socket_does_not_block(self, setup):
        """The scheduler parks a read of an empty connected socket, but a
        negative count fails at once, as on Linux."""
        kernel, proc = setup
        fds, conn = _descriptors(kernel, proc)
        conn.take(5)
        kernel._maybe_block(proc, "read", [fds["connected"], BUF, -1])
        with pytest.raises(WouldBlock):
            kernel._maybe_block(proc, "read", [fds["connected"], BUF, 4])


class TestProcessSyscalls:
    def test_clone_creates_child(self, setup):
        kernel, proc = setup
        child_pid = kernel.dispatch(proc, "clone", [0, 0, 0, 0, 0])
        assert child_pid in kernel.processes
        child = kernel.processes[child_pid]
        assert child.parent is proc
        assert child.tracer is proc.tracer
        assert kernel.events_of("clone")

    def test_child_inherits_seccomp(self, setup):
        kernel, proc = setup
        filt = build_action_filter({nr_of("execve"): SECCOMP_RET_KILL_PROCESS})
        kernel.install_seccomp(proc, filt)
        child_pid = kernel.dispatch(proc, "fork", [])
        child = kernel.processes[child_pid]
        assert len(child.seccomp_filters) == 1

    def test_execve_records_event(self, setup):
        kernel, proc = setup
        kernel.vfs.makedirs("/bin")
        kernel.vfs.write_file("/bin/sh", b"elf")
        path = _cstr(proc, STR, "/bin/sh")
        argv = STR + 0x500 * WORD
        arg0 = _cstr(proc, STR + 0x600 * WORD, "sh")
        proc.memory.write_block(argv, [arg0, 0])
        assert kernel.dispatch(proc, "execve", [path, argv, 0]) == 0
        event = kernel.events_of("execve")[0]
        assert event.details["path"] == "/bin/sh"
        assert event.details["argv"] == ["sh"]

    def test_execve_missing_binary(self, setup):
        kernel, proc = setup
        path = _cstr(proc, STR, "/no/such")
        assert kernel.dispatch(proc, "execve", [path, 0, 0]) == -errno.ENOENT

    def test_exit(self, setup):
        kernel, proc = setup
        kernel.dispatch(proc, "exit", [3])
        assert not proc.alive
        assert proc.exited and proc.exit_code == 3

    def test_creds_syscalls(self, setup):
        kernel, proc = setup
        assert kernel.dispatch(proc, "getuid", []) == 0
        assert kernel.dispatch(proc, "setuid", [42]) == 0
        assert kernel.dispatch(proc, "getuid", []) == 42
        assert kernel.dispatch(proc, "setuid", [0]) == -errno.EPERM
        assert kernel.events_of("setuid")

    def test_chmod_records(self, setup):
        kernel, proc = setup
        path = _cstr(proc, STR, "/tmp/data")
        assert kernel.dispatch(proc, "chmod", [path, 0o777]) == 0
        assert kernel.events_of("chmod")[0].details["mode"] == 0o777

    def test_getpid(self, setup):
        kernel, proc = setup
        assert kernel.dispatch(proc, "getpid", []) == proc.pid

    def test_unknown_syscall_enosys(self, setup):
        kernel, proc = setup
        assert kernel.dispatch(proc, "eventfd2", [0, 0]) == -errno.ENOSYS


class TestSeccompIntegration:
    def test_kill_action_raises(self, setup):
        kernel, proc = setup
        filt = build_action_filter({nr_of("execve"): SECCOMP_RET_KILL_PROCESS})
        kernel.install_seccomp(proc, filt)
        with pytest.raises(ProcessKilled):
            kernel.dispatch(proc, "execve", [STR, 0, 0])
        assert not proc.alive
        assert kernel.events_of("seccomp_kill")

    def test_errno_action_short_circuits(self, setup):
        kernel, proc = setup
        filt = build_action_filter({nr_of("getpid"): SECCOMP_RET_ERRNO | errno.EPERM})
        kernel.install_seccomp(proc, filt)
        assert kernel.dispatch(proc, "getpid", []) == -errno.EPERM

    def test_trace_action_stops_into_tracer(self, setup):
        kernel, proc = setup
        filt = build_action_filter({nr_of("mprotect"): SECCOMP_RET_TRACE})
        kernel.install_seccomp(proc, filt)
        stops = []

        class Tracer:
            stops_at_trace = True

            def on_syscall_stop(self, p, name):
                stops.append(name)

        proc.tracer = Tracer()
        addr = kernel.dispatch(proc, "mmap", [0, 4096, 3, 0x22, -1, 0])
        kernel.dispatch(proc, "mprotect", [addr, 4096, 1])
        assert stops == ["mprotect"]
        assert proc.ledger.category("trap") > 0

    def test_tracer_kill_propagates(self, setup):
        kernel, proc = setup
        filt = build_action_filter({nr_of("mprotect"): SECCOMP_RET_TRACE})
        kernel.install_seccomp(proc, filt)

        class KillingTracer:
            stops_at_trace = True

            def on_syscall_stop(self, p, name):
                p.kill("tracer verdict")

        proc.tracer = KillingTracer()
        with pytest.raises(ProcessKilled):
            kernel.dispatch(proc, "mprotect", [0, 4096, 7])

    def test_hook_only_tracer_skips_trap_cost(self, setup):
        kernel, proc = setup
        filt = build_action_filter({nr_of("getpid"): SECCOMP_RET_TRACE})
        kernel.install_seccomp(proc, filt)

        class CountingTracer:
            stops_at_trace = False

            def on_syscall_stop(self, p, name):
                pass

        proc.tracer = CountingTracer()
        kernel.dispatch(proc, "getpid", [])
        assert proc.ledger.category("trap") == 0

    def test_syscall_counts_tracked(self, setup):
        kernel, proc = setup
        kernel.dispatch(proc, "getpid", [])
        kernel.dispatch(proc, "getpid", [])
        assert proc.syscall_counts["getpid"] == 2
