"""epoll semantics: level-triggered readiness, EAGAIN, fd lifecycle."""

import pytest

from repro.ir.builder import ModuleBuilder
from repro.kernel import errno
from repro.kernel.kernel import F_GETFL, F_SETFL, Kernel
from repro.kernel.net import (
    EPOLL_CTL_ADD,
    EPOLL_CTL_DEL,
    EPOLL_CTL_MOD,
    EPOLLHUP,
    EPOLLIN,
    Connection,
    Epoll,
    Socket,
)
from repro.kernel.vfs import O_CREAT, O_NONBLOCK
from repro.vm.loader import Image
from repro.vm.memory import WORD

EVBUF = 0x7F30_0000_0000
STR = 0x7F30_0001_0000


@pytest.fixture
def setup():
    kernel = Kernel()
    kernel.vfs.makedirs("/tmp")
    mb = ModuleBuilder("t")
    f = mb.function("main")
    f.ret(0)
    proc = kernel.create_process("t", Image(mb.build()))
    return kernel, proc


def _conn_fd(proc, inbox=b"", closed=False, nonblocking=False):
    """Install a connected socket, as accept4 would."""
    conn = Connection(inbox=inbox, closed=closed)
    sock = Socket(connection=conn, nonblocking=nonblocking)
    return proc.fdtable.install(sock), conn, sock


def _wait(kernel, proc, epfd, maxevents=8):
    """Nonblocking harvest; returns [(events, data)] read back from memory."""
    n = kernel.dispatch(proc, "epoll_wait", [epfd, EVBUF, maxevents, 0])
    assert n >= 0
    return [
        (
            proc.memory.read(EVBUF + 2 * i * WORD),
            proc.memory.read(EVBUF + (2 * i + 1) * WORD),
        )
        for i in range(n)
    ]


class TestEpollCtl:
    def test_create_add_wait_roundtrip(self, setup):
        kernel, proc = setup
        epfd = kernel.dispatch(proc, "epoll_create1", [0])
        assert isinstance(proc.fdtable.get(epfd), Epoll)
        fd, conn, _sock = _conn_fd(proc, inbox=b"GET /")
        # NULL event pointer defaults to (EPOLLIN, data=fd)
        assert kernel.dispatch(proc, "epoll_ctl", [epfd, EPOLL_CTL_ADD, fd, 0]) == 0
        assert _wait(kernel, proc, epfd) == [(EPOLLIN, fd)]

    def test_bad_descriptors(self, setup):
        kernel, proc = setup
        epfd = kernel.dispatch(proc, "epoll_create1", [0])
        fd, _conn, _sock = _conn_fd(proc)
        # missing epfd / target fd
        assert (
            kernel.dispatch(proc, "epoll_ctl", [999, EPOLL_CTL_ADD, fd, 0])
            == -errno.EBADF
        )
        assert (
            kernel.dispatch(proc, "epoll_ctl", [epfd, EPOLL_CTL_ADD, 999, 0])
            == -errno.EBADF
        )
        # an epfd that is not an epoll instance
        assert (
            kernel.dispatch(proc, "epoll_ctl", [fd, EPOLL_CTL_ADD, fd, 0])
            == -errno.EINVAL
        )
        # watching a regular file is refused, as on Linux
        proc.memory.write_cstr(STR, "/tmp/f")
        file_fd = kernel.dispatch(proc, "open", [STR, O_CREAT, 0o644])
        assert (
            kernel.dispatch(proc, "epoll_ctl", [epfd, EPOLL_CTL_ADD, file_fd, 0])
            == -errno.EPERM
        )

    def test_ctl_on_closed_fd_is_ebadf(self, setup):
        kernel, proc = setup
        epfd = kernel.dispatch(proc, "epoll_create1", [0])
        fd, _conn, _sock = _conn_fd(proc)
        assert kernel.dispatch(proc, "close", [fd]) == 0
        for op in (EPOLL_CTL_ADD, EPOLL_CTL_MOD, EPOLL_CTL_DEL):
            assert (
                kernel.dispatch(proc, "epoll_ctl", [epfd, op, fd, 0])
                == -errno.EBADF
            )

    def test_add_dup_mod_del(self, setup):
        kernel, proc = setup
        epfd = kernel.dispatch(proc, "epoll_create1", [0])
        fd, _conn, _sock = _conn_fd(proc)
        def ctl(op):
            return kernel.dispatch(proc, "epoll_ctl", [epfd, op, fd, 0])
        assert ctl(EPOLL_CTL_ADD) == 0
        assert ctl(EPOLL_CTL_ADD) == -errno.EEXIST
        assert ctl(EPOLL_CTL_MOD) == 0
        assert ctl(EPOLL_CTL_DEL) == 0
        assert ctl(EPOLL_CTL_DEL) == -errno.ENOENT
        assert ctl(EPOLL_CTL_MOD) == -errno.ENOENT


class TestLevelTriggered:
    def test_partial_read_keeps_fd_ready(self, setup):
        kernel, proc = setup
        epfd = kernel.dispatch(proc, "epoll_create1", [0])
        fd, conn, _sock = _conn_fd(proc, inbox=b"0123456789")
        kernel.dispatch(proc, "epoll_ctl", [epfd, EPOLL_CTL_ADD, fd, 0])
        assert _wait(kernel, proc, epfd) == [(EPOLLIN, fd)]
        # read only part of the inbox: level-triggered, still ready
        assert kernel.dispatch(proc, "read", [fd, EVBUF + 0x1000, 4]) == 4
        assert _wait(kernel, proc, epfd) == [(EPOLLIN, fd)]
        # drain it: no longer ready
        assert kernel.dispatch(proc, "read", [fd, EVBUF + 0x1000, 6]) == 6
        assert _wait(kernel, proc, epfd) == []

    def test_deliver_wakes_registered_fd(self, setup):
        kernel, proc = setup
        epfd = kernel.dispatch(proc, "epoll_create1", [0])
        fd, conn, _sock = _conn_fd(proc)
        kernel.dispatch(proc, "epoll_ctl", [epfd, EPOLL_CTL_ADD, fd, 0])
        assert _wait(kernel, proc, epfd) == []
        conn.deliver(b"ping")
        assert _wait(kernel, proc, epfd) == [(EPOLLIN, fd)]

    def test_close_reports_hangup(self, setup):
        kernel, proc = setup
        epfd = kernel.dispatch(proc, "epoll_create1", [0])
        fd, conn, _sock = _conn_fd(proc)
        kernel.dispatch(proc, "epoll_ctl", [epfd, EPOLL_CTL_ADD, fd, 0])
        conn.closed = True
        # hangup is also readable: read observes EOF without blocking
        assert _wait(kernel, proc, epfd) == [(EPOLLHUP | EPOLLIN, fd)]

    def test_peer_close_with_residual_bytes_stays_readable(self, setup):
        kernel, proc = setup
        epfd = kernel.dispatch(proc, "epoll_create1", [0])
        fd, conn, _sock = _conn_fd(proc, inbox=b"tail")
        kernel.dispatch(proc, "epoll_ctl", [epfd, EPOLL_CTL_ADD, fd, 0])
        conn.closed = True
        assert _wait(kernel, proc, epfd) == [(EPOLLHUP | EPOLLIN, fd)]
        # read drains the residue, then sees EOF
        assert kernel.dispatch(proc, "read", [fd, EVBUF + 0x1000, 16]) == 4
        assert kernel.dispatch(proc, "read", [fd, EVBUF + 0x1000, 16]) == 0


class TestNonblocking:
    def test_drained_nonblocking_read_is_eagain(self, setup):
        kernel, proc = setup
        fd, conn, _sock = _conn_fd(proc, inbox=b"xy", nonblocking=True)
        assert kernel.dispatch(proc, "read", [fd, EVBUF, 16]) == 2
        assert kernel.dispatch(proc, "read", [fd, EVBUF, 16]) == -errno.EAGAIN
        # a closed drained connection is EOF, not EAGAIN
        conn.closed = True
        assert kernel.dispatch(proc, "read", [fd, EVBUF, 16]) == 0

    def test_fcntl_toggles_nonblocking(self, setup):
        kernel, proc = setup
        fd, _conn, sock = _conn_fd(proc)
        assert kernel.dispatch(proc, "fcntl", [fd, F_GETFL, 0]) == 0
        assert kernel.dispatch(proc, "fcntl", [fd, F_SETFL, O_NONBLOCK]) == 0
        assert sock.nonblocking
        assert kernel.dispatch(proc, "fcntl", [fd, F_GETFL, 0]) == O_NONBLOCK
        assert kernel.dispatch(proc, "fcntl", [fd, F_SETFL, 0]) == 0
        assert not sock.nonblocking
        # open non-socket fds keep the historical always-0 fcntl; an fd
        # that is not open fails as in Linux
        epfd = kernel.dispatch(proc, "epoll_create1", [0])
        assert kernel.dispatch(proc, "fcntl", [epfd, F_GETFL, 0]) == 0
        assert kernel.dispatch(proc, "fcntl", [999, F_GETFL, 0]) == -errno.EBADF


class TestFdLifecycle:
    def test_fd_closed_without_del_is_auto_removed(self, setup):
        kernel, proc = setup
        epfd = kernel.dispatch(proc, "epoll_create1", [0])
        fd, conn, _sock = _conn_fd(proc)
        kernel.dispatch(proc, "epoll_ctl", [epfd, EPOLL_CTL_ADD, fd, 0])
        ep = proc.fdtable.get(epfd)
        assert ep.watches(fd)
        kernel.dispatch(proc, "close", [fd])
        # readiness arrives after the close: the stale entry must not fire
        conn.deliver(b"late")
        assert _wait(kernel, proc, epfd) == []
        assert not ep.watches(fd)
        assert ep.stale_drops == 1

    def test_fd_reuse_after_close_does_not_leak_events(self, setup):
        kernel, proc = setup
        epfd = kernel.dispatch(proc, "epoll_create1", [0])
        fd, old_conn, _sock = _conn_fd(proc, inbox=b"old")
        kernel.dispatch(proc, "epoll_ctl", [epfd, EPOLL_CTL_ADD, fd, 0])
        kernel.dispatch(proc, "close", [fd])
        # a NEW socket lands on a fresh fd (the table never reuses numbers
        # within a run), so the old registration can only go stale
        new_fd, new_conn, _sock2 = _conn_fd(proc, inbox=b"new")
        assert new_fd != fd
        kernel.dispatch(proc, "epoll_ctl", [epfd, EPOLL_CTL_ADD, new_fd, 0])
        assert _wait(kernel, proc, epfd) == [(EPOLLIN, new_fd)]

    def test_harvest_respects_maxevents(self, setup):
        kernel, proc = setup
        epfd = kernel.dispatch(proc, "epoll_create1", [0])
        fds = []
        for _ in range(5):
            fd, _conn, _sock = _conn_fd(proc, inbox=b"r")
            kernel.dispatch(proc, "epoll_ctl", [epfd, EPOLL_CTL_ADD, fd, 0])
            fds.append(fd)
        first = _wait(kernel, proc, epfd, maxevents=2)
        assert len(first) == 2
        # the rest are still ready (level-triggered): nothing lost
        rest = _wait(kernel, proc, epfd, maxevents=8)
        assert {data for _ev, data in first + rest} == set(fds)

    def test_epoll_wait_charges_per_event(self, setup):
        kernel, proc = setup
        epfd = kernel.dispatch(proc, "epoll_create1", [0])
        for _ in range(3):
            fd, _conn, _sock = _conn_fd(proc, inbox=b"r")
            kernel.dispatch(proc, "epoll_ctl", [epfd, EPOLL_CTL_ADD, fd, 0])
        before = proc.ledger.by_category.get("kernel", 0)
        assert len(_wait(kernel, proc, epfd)) == 3
        charged = proc.ledger.by_category.get("kernel", 0) - before
        assert charged == 3 * kernel.costs.epoll_per_event

    def test_wait_on_non_epoll_fd(self, setup):
        kernel, proc = setup
        fd, _conn, _sock = _conn_fd(proc)
        assert kernel.dispatch(proc, "epoll_wait", [999, EVBUF, 8, 0]) == -errno.EBADF
        assert kernel.dispatch(proc, "epoll_wait", [fd, EVBUF, 8, 0]) == -errno.EINVAL
