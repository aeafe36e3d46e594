"""The syscall dispatcher and handler table.

``Kernel.dispatch`` is the single entry point the CPU calls at a
``syscall`` instruction.  It drives one :class:`~repro.kernel.dispatch.SyscallContext`
through the explicit dispatch pipeline (``repro.kernel.dispatch``), whose
stage order matches Linux:

1. **block/count** — scheduler blocking, then syscall accounting;
2. **seccomp** — every attached filter runs (cycle cost scales with BPF
   length); the strictest action wins: KILL terminates, ERRNO
   short-circuits;
3. **trace_stop/verify** — TRACE stops the process into its tracer (two
   context switches) and the monitor may kill it;
4. **execute/account** — the handler runs, then its verdict is counted.

Protection mechanisms hook extra behavior into the pipeline via
``kernel.pipeline.insert`` instead of special cases here.

Handlers implement real (simulated) semantics — files change, sockets move
bytes, regions change protection, credentials change — so both the
legitimate workloads and the attack payloads behave faithfully.  Security-
relevant actions are emitted on ``kernel.telemetry`` and mirrored into the
``kernel.events`` ring; the attack catalog uses that log as its success
oracle.
"""

import warnings
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ProcessKilled, WouldBlock
from repro.kernel.dispatch import DispatchPipeline, SyscallContext, trace_only
from repro.kernel import errno
from repro.kernel.mm import (
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
    standard_layout,
)
from repro.kernel.net import (
    AF_INET,
    EPOLL_CTL_ADD,
    EPOLL_CTL_DEL,
    EPOLL_CTL_MOD,
    EPOLLIN,
    Epoll,
    NetStack,
    SOCK_NONBLOCK,
    Socket,
)
from repro.kernel.process import Process
from repro.kernel.seccomp import (
    SECCOMP_RET_ACTION_FULL,
    SECCOMP_RET_DATA,
    SECCOMP_RET_ERRNO,
    SECCOMP_RET_KILL_PROCESS,
    SECCOMP_RET_KILL_THREAD,
    SECCOMP_RET_TRACE,
    SECCOMP_RET_TRAP,
    compute_action_cache,
    evaluate_filters,
)
from repro.kernel.vfs import (
    FileSystem,
    O_APPEND,
    O_CREAT,
    O_NONBLOCK,
    O_TRUNC,
    OpenFile,
    S_IFDIR,
    S_IFIFO,
    S_IFREG,
    S_IFSOCK,
)
from repro.syscalls.table import SYSCALLS, nr_of
from repro.telemetry import TelemetryBus
from repro.vm.costs import DEFAULT_COSTS
from repro.vm.memory import WORD

#: Data-plane elision bound: at most this many bytes of file/socket payload
#: are materialized into simulated memory per transfer; cycle costs are
#: charged for the full size (DESIGN.md §2).
ELIDE_BYTES = 512

#: sockaddr layout in simulated memory: slot0=family, slot1=port, slot2=host.
SOCKADDR_SLOTS = 3

#: fcntl(2) commands (subset)
F_GETFL = 3
F_SETFL = 4

#: every syscall number, the domain of the seccomp ALLOW bitmap
_SYSCALL_NRS = tuple(entry.nr for entry in SYSCALLS)


class _Pipe:
    """The byte queue shared by a pipe's two ends."""

    def __init__(self):
        self.buffer = b""
        self.write_closed = False


class _PipeEnd:
    """One fd of a pipe(2) pair."""

    def __init__(self, pipe, readable):
        self.pipe = pipe
        self.readable = readable

    def read(self, count):
        chunk = self.pipe.buffer[:count]
        self.pipe.buffer = self.pipe.buffer[count:]
        return chunk

    def write(self, data):
        self.pipe.buffer += data
        return len(data)


@dataclass
class KernelEvent:
    """One security-relevant action (the attack-success oracle reads these)."""

    kind: str
    pid: int
    details: dict = field(default_factory=dict)


class KernelEventLog:
    """A bounded ring of :class:`KernelEvent` — newest ``capacity`` kept.

    Long concurrent benches emit events at every accept/clone/reap; the
    seed's plain list grew without bound.  The ring keeps ``events_of()``
    semantics over the retained window and counts what it sheds in
    ``dropped`` so oracles can tell a quiet run from a truncated one.

    The log is a *view* over the telemetry bus: when constructed with a
    ``bus`` it subscribes to ``kind='kernel'`` events and mirrors them as
    :class:`KernelEvent` records; standalone construction (plus direct
    :meth:`append`) still works for unit tests.
    """

    def __init__(self, capacity=65536, bus=None):
        if capacity < 1:
            raise ValueError("event log capacity must be >= 1")
        self.capacity = capacity
        self._ring = deque(maxlen=capacity)
        #: events evicted by the cap (total recorded = len(self) + dropped)
        self.dropped = 0
        self.total = 0
        self._warned_dropped = False
        #: per-ring warnings registry: ``warnings.warn`` dedups through the
        #: module-global ``__warningregistry__`` (same message/category/line),
        #: which silently swallowed the truncation warning for every ring
        #: after the first in a process.  ``warn_explicit`` against this
        #: instance-owned registry keeps the once-only behavior *per ring*.
        self._warn_registry = {}
        if bus is not None:
            bus.subscribe(self._on_telemetry)

    def _on_telemetry(self, record):
        if record.kind == "kernel":
            self.append(KernelEvent(record.event, record.pid, record.data))

    def append(self, event):
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        self.total += 1

    def events_of(self, kind, allow_dropped=False):
        """Events of ``kind`` in the retained window, oldest first.

        After the ring has shed events this answer is silently incomplete,
        which corrupts oracles that count occurrences.  Callers that can
        tolerate a truncated window opt in with ``allow_dropped=True``;
        everyone else gets a one-time warning telling them to either
        assert ``dropped == 0`` or raise ``events_capacity``.
        """
        if self.dropped and not allow_dropped and not self._warned_dropped:
            self._warned_dropped = True
            warnings.warn_explicit(
                "KernelEventLog dropped %d events; events_of(%r) sees only "
                "the newest %d. Assert `kernel.events.dropped == 0` in "
                "oracles, raise events_capacity, or pass allow_dropped=True."
                % (self.dropped, kind, self.capacity),
                RuntimeWarning,
                __file__,
                0,
                module=__name__,
                registry=self._warn_registry,
            )
        return [event for event in self._ring if event.kind == kind]

    def __len__(self):
        return len(self._ring)

    def __iter__(self):
        return iter(self._ring)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._ring)[index]
        return self._ring[index]

    def __bool__(self):
        return bool(self._ring)

    def clear(self):
        self._ring.clear()


#: interned "dispatch.verdict.<verdict>" counter keys (account hot path)
_VERDICT_KEYS = {
    verdict: "dispatch.verdict." + verdict
    for verdict in ("allow", "errno", "kill", "violation")
}


class Kernel:
    """The simulated kernel: processes, VFS, network, dispatcher."""

    def __init__(self, costs=DEFAULT_COSTS, events_capacity=65536):
        self.costs = costs
        self.vfs = FileSystem()
        self.net = NetStack()
        self.processes = {}
        self._next_pid = 1000
        #: the telemetry spine — every subsystem's counters land here and
        #: its events pass through to subscribers
        self.telemetry = TelemetryBus()
        self.events = KernelEventLog(events_capacity, bus=self.telemetry)
        #: the staged syscall path; mechanisms hook in via pipeline.insert
        self.pipeline = self._build_pipeline()
        #: set by repro.sched.Scheduler when it takes over clone/blocking
        self.scheduler = None
        #: collision-checked child stack regions (slot 0 = root at STACK_TOP)
        from repro.sched.stackalloc import StackSlotAllocator

        self.stacks = StackSlotAllocator()
        #: every path passed to open/openat/creat (information-disclosure
        #: oracle for the AOCR-style attacks)
        self.open_log = []
        self._rng_state = 0x2545F4914F6CDD1D

        self._handlers = {
            "read": self._sys_read,
            "write": self._sys_write,
            "open": self._sys_open,
            "openat": self._sys_openat,
            "creat": self._sys_creat,
            "close": self._sys_close,
            "stat": self._sys_stat,
            "fstat": self._sys_fstat,
            "lseek": self._sys_lseek,
            "sendfile": self._sys_sendfile,
            "pread64": self._sys_pread,
            "pwrite64": self._sys_pwrite,
            "readv": self._sys_readv,
            "writev": self._sys_writev,
            "getdents": self._sys_getdents,
            "pipe": self._sys_pipe,
            "dup2": self._sys_dup2,
            "mmap": self._sys_mmap,
            "mprotect": self._sys_mprotect,
            "munmap": self._sys_munmap,
            "mremap": self._sys_mremap,
            "remap_file_pages": self._sys_remap_file_pages,
            "brk": self._sys_brk,
            "socket": self._sys_socket,
            "bind": self._sys_bind,
            "listen": self._sys_listen,
            "accept": self._sys_accept,
            "accept4": self._sys_accept4,
            "connect": self._sys_connect,
            "sendto": self._sys_sendto,
            "recvfrom": self._sys_recvfrom,
            "setsockopt": self._sys_setsockopt,
            "shutdown": self._sys_shutdown,
            "epoll_create1": self._sys_epoll_create1,
            "epoll_ctl": self._sys_epoll_ctl,
            "epoll_wait": self._sys_epoll_wait,
            "epoll_pwait": self._sys_epoll_wait,
            "clone": self._sys_clone,
            "fork": self._sys_fork,
            "vfork": self._sys_fork,
            "execve": self._sys_execve,
            "execveat": self._sys_execveat,
            "exit": self._sys_exit,
            "exit_group": self._sys_exit,
            "wait4": self._sys_wait4,
            "getpid": lambda proc, args: proc.pid,
            "gettid": lambda proc, args: proc.pid,
            "getuid": lambda proc, args: proc.creds.uid,
            "geteuid": lambda proc, args: proc.creds.euid,
            "getgid": lambda proc, args: proc.creds.gid,
            "getegid": lambda proc, args: proc.creds.egid,
            "setuid": self._sys_setuid,
            "setgid": self._sys_setgid,
            "setreuid": self._sys_setreuid,
            "chmod": self._sys_chmod,
            "dup": self._sys_dup,
            "unlink": self._sys_unlink,
            "rename": self._sys_rename,
            "mkdir": self._sys_mkdir,
            "nanosleep": self._sys_nanosleep,
            "getrandom": self._sys_getrandom,
            "ptrace": lambda proc, args: -errno.EPERM,
            "seccomp": lambda proc, args: -errno.EINVAL,
            "prctl": lambda proc, args: 0,
            "uname": lambda proc, args: 0,
            "time": lambda proc, args: 1_688_000_000,
            "gettimeofday": lambda proc, args: 0,
            "clock_gettime": lambda proc, args: 0,
            "futex": lambda proc, args: 0,
            "rt_sigaction": lambda proc, args: 0,
            "rt_sigprocmask": lambda proc, args: 0,
            "fcntl": self._sys_fcntl,
            "fsync": lambda proc, args: 0,
            "ioctl": lambda proc, args: 0,
            "umask": lambda proc, args: 0o022,
            "setsid": lambda proc, args: proc.pid,
            "getcwd": lambda proc, args: 0,
            "chdir": lambda proc, args: 0,
            "access": self._sys_access,
            "madvise": lambda proc, args: 0,
        }

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------

    def create_process(self, name, image=None, costs=None):
        """Create a PCB; if ``image`` is given, map segments and globals."""
        pid = self._next_pid
        self._next_pid += 1
        proc = Process(pid=pid, name=name)
        proc.ledger_costs = costs or self.costs
        if image is not None:
            proc.mm = standard_layout(image)
            image.write_globals(proc.memory)
        self.processes[pid] = proc
        return proc

    def install_seccomp(self, proc, seccomp_filter):
        """Attach a filter (as the monitor does before releasing the app).

        Like Linux at ``SECCOMP_SET_MODE_FILTER`` time, the per-syscall
        ALLOW bitmap is recomputed over *all* attached filters so that
        always-allowed syscalls skip the BPF engine on the hot path; a
        chain whose programs equal one computed before reuses its bitmap.
        """
        proc.seccomp_filters.append(seccomp_filter)
        proc.seccomp_action_cache = compute_action_cache(
            proc.seccomp_filters, _SYSCALL_NRS
        )

    def record(self, kind, proc, **details):
        """Publish a security-relevant action on the telemetry bus.

        The ``kernel.events`` ring mirrors these via its bus subscription,
        so the attack oracles keep reading the log they always read.
        """
        self.telemetry.emit("kernel", kind, pid=proc.pid, data=details)

    def events_of(self, kind, allow_dropped=False):
        return self.events.events_of(kind, allow_dropped=allow_dropped)

    def clock(self):
        """Global cycle clock while a scheduler drives this kernel.

        Returns ``None`` in the legacy single-process mode, where each
        process's own ledger is the only meaningful timeline.
        """
        return self.scheduler.now() if self.scheduler is not None else None

    # ------------------------------------------------------------------
    # dispatcher (the staged syscall pipeline)
    # ------------------------------------------------------------------

    def dispatch(self, proc, name, args, rip=0, rbp=0, rsp=0):
        """Dispatch one syscall; its context stays on as ``proc.syscall``."""
        ctx = proc.syscall = SyscallContext(proc, name, args, rip, rbp, rsp)
        return self.pipeline.run(ctx)

    def _build_pipeline(self):
        pipeline = DispatchPipeline(self.telemetry)
        pipeline.insert("block", self._stage_block)
        pipeline.insert("count", self._stage_count)
        pipeline.insert("seccomp", self._stage_seccomp)
        pipeline.insert("trace_stop", self._stage_trace_stop)
        pipeline.insert("verify", self._stage_verify)
        pipeline.insert("execute", self._stage_execute)
        pipeline.insert("account", self._stage_account)
        return pipeline

    def _stage_block(self, ctx):
        """Under a scheduler, park a syscall that cannot complete yet."""
        if self.scheduler is not None and not self.scheduler.draining:
            self._maybe_block(ctx.proc, ctx.name, ctx.args)

    def _stage_count(self, ctx):
        ctx.proc.count_syscall(ctx.name)
        counters = self.telemetry.counters
        counters["dispatch.syscalls"] = counters.get("dispatch.syscalls", 0) + 1

    def _stage_seccomp(self, ctx):
        proc = ctx.proc
        if not proc.seccomp_filters:
            return
        name = ctx.name
        nr = nr_of(name)
        cache = proc.seccomp_action_cache
        if cache is not None and cache.allows(nr):
            # Linux's per-nr action bitmap: an always-ALLOW syscall
            # never enters the BPF engine — one bit test and go.
            proc.seccomp_cache_hits += 1
            proc.ledger.charge(self.costs.seccomp_cache_hit, "seccomp")
            return
        if cache is not None:
            proc.seccomp_cache_misses += 1
        action, insns = evaluate_filters(
            proc.seccomp_filters,
            nr,
            ip=ctx.rip,
            args=tuple(ctx.args) + (0,) * (6 - len(ctx.args)),
        )
        proc.ledger.charge(
            insns * self.costs.seccomp_per_bpf_instr_millicycles // 1000,
            "seccomp",
        )
        base = action & SECCOMP_RET_ACTION_FULL
        if base in (SECCOMP_RET_KILL_PROCESS, SECCOMP_RET_KILL_THREAD):
            ctx.verdict = "kill"
            self.telemetry.count("dispatch.verdict.kill")
            proc.kill("seccomp: %s not callable" % name)
            self.record("seccomp_kill", proc, syscall=name)
            raise ProcessKilled(
                "seccomp killed pid %d on %s" % (proc.pid, name),
                reason="seccomp",
            )
        if base == SECCOMP_RET_ERRNO:
            ctx.short_circuit(-(action & SECCOMP_RET_DATA), "errno")
            return
        if base in (SECCOMP_RET_TRACE, SECCOMP_RET_TRAP):
            ctx.trace = True

    @trace_only
    def _stage_trace_stop(self, ctx):
        proc = ctx.proc
        fast = False
        if proc.tracer is not None:
            fast = bool(proc.tracer.on_syscall_stop(proc, ctx.name))
        ctx.fast = fast
        # A trace stop costs two context switches — unless the tracer is
        # in hook-only accounting mode (Table 7 row 1 measures the seccomp
        # hook without the stop) or runs inside the kernel (§11.2:
        # in-kernel execution "completely resolves overhead incurred from
        # context switching").  A fast-path stop (memoized verdict) is
        # resumed in a batched continuation, amortizing the round trip
        # over ``costs.trace_stop_batch`` stops.
        if getattr(proc.tracer, "stops_at_trace", True) and not getattr(
            proc.tracer, "in_kernel", False
        ):
            full_trap = 2 * self.costs.context_switch
            proc.ledger.charge(
                full_trap // self.costs.trace_stop_batch if fast else full_trap,
                "trap",
            )

    @trace_only
    def _stage_verify(self, ctx):
        """Enforce the tracer's verdict: surface a monitor kill here."""
        proc = ctx.proc
        if proc.tracer is not None and not proc.alive:
            ctx.verdict = "violation"
            self.telemetry.count("dispatch.verdict.violation")
            pending, proc.pending_exception = (
                proc.pending_exception,
                None,
            )
            raise pending or ProcessKilled(
                "monitor killed pid %d on %s: %s"
                % (proc.pid, ctx.name, proc.kill_reason),
                reason=proc.kill_reason,
            )

    def _stage_execute(self, ctx):
        handler = self._handlers.get(ctx.name)
        if handler is None:
            ctx.result = -errno.ENOSYS
            return
        ctx.result = handler(ctx.proc, ctx.args)

    def _stage_account(self, ctx):
        key = _VERDICT_KEYS.get(ctx.verdict)
        self.telemetry.count(
            key if key is not None else "dispatch.verdict." + ctx.verdict
        )

    def _maybe_block(self, proc, name, args):
        """Raise :class:`WouldBlock` for a syscall that cannot complete yet.

        Runs *before* syscall counting and seccomp so that a parked-and-
        restarted syscall is counted, filtered, and trace-stopped exactly
        once — when it completes.  That single-stop property is what makes
        monitor verdicts independent of the scheduler's quantum.
        """
        if name in ("accept", "accept4"):
            sock = proc.fdtable.get(self._arg(args, 0))
            if (
                isinstance(sock, Socket)
                and sock.listening
                and not sock.nonblocking
                and self.net.poll_backlog(sock) == "later"
            ):
                raise WouldBlock(
                    "accept",
                    lambda: self.net.poll_backlog(sock) != "later",
                    "pid %d port %d" % (proc.pid, sock.bound_port),
                )
        elif name in ("read", "recvfrom"):
            sock = proc.fdtable.get(self._arg(args, 0))
            if (
                isinstance(sock, Socket)
                and not sock.nonblocking
                and self._arg(args, 2) >= 0  # a negative count fails at once
                and sock.connection is not None
                and not sock.connection.inbox
                and not sock.connection.closed
            ):
                conn = sock.connection
                raise WouldBlock(
                    "read",
                    lambda: bool(conn.inbox) or conn.closed,
                    "pid %d fd %d" % (proc.pid, self._arg(args, 0)),
                )
        elif name in ("epoll_wait", "epoll_pwait"):
            ep = proc.fdtable.get(self._arg(args, 0))
            if (
                isinstance(ep, Epoll)
                and self._arg(args, 3) != 0  # timeout 0 = nonblocking poll
                and not ep.poll(self.net, proc.fdtable, 1)
            ):
                fdtable = proc.fdtable
                raise WouldBlock(
                    "epoll",
                    lambda: bool(ep.poll(self.net, fdtable, 1)),
                    "pid %d epfd %d" % (proc.pid, self._arg(args, 0)),
                )
        elif name == "wait4":
            children = proc.children
            if children and not any(
                not child.alive and not child.reaped for child in children
            ) and any(child.alive for child in children):
                raise WouldBlock(
                    "child",
                    lambda: any(
                        not child.alive and not child.reaped
                        for child in children
                    ),
                    "pid %d" % proc.pid,
                )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _charge_io(self, proc, nbytes):
        proc.ledger.charge(
            nbytes * self.costs.io_per_byte_millicycles // 1000, "kernel"
        )

    def _charge_net(self, proc, nbytes):
        proc.ledger.charge(
            nbytes * self.costs.net_per_byte_millicycles // 1000, "kernel"
        )

    @staticmethod
    def _arg(args, i, default=0):
        return args[i] if i < len(args) else default

    def _copy_bytes_to_user(self, proc, addr, data):
        """Write up to ELIDE_BYTES of payload into memory, one byte per slot."""
        proc.memory.write_block(addr, data[:ELIDE_BYTES])

    def _read_bytes_from_user(self, proc, addr, count):
        """Read up to ELIDE_BYTES of payload; caller pads to full count."""
        words = proc.memory.read_block(addr, min(count, ELIDE_BYTES))
        return bytes([word & 0xFF for word in words])

    def _refresh_shadow(self, proc, addr, nslots):
        """Kernel-written user memory is a legitimate update: keep the
        BASTION shadow copies coherent (generalizing the §9.2 sockaddr
        handling to all kernel out-parameters)."""
        runtime = proc.bastion_runtime
        if runtime is not None and addr:
            runtime.ctx_write_mem(addr, nslots)

    def mm_is_executable(self, proc, addr):
        return proc.mm is not None and proc.mm.is_executable(addr)

    def record_arbitrary_code_execution(self, proc, addr):
        self.record("arbitrary_code_execution", proc, addr=addr)

    # ------------------------------------------------------------------
    # file I/O
    # ------------------------------------------------------------------

    def _sys_read(self, proc, args):
        """read(fd, buf, count).  The errnos come in Linux's order: EBADF
        (no such fd, or a pipe's write end), EINVAL (an epoll fd), EFAULT
        (a count negative as a signed register fails Linux's access_ok),
        then the description's own (EISDIR; ENOTCONN for a socket with no
        connection).  A failed read moves and charges nothing."""
        fd, buf, count = (self._arg(args, i) for i in range(3))
        desc = proc.fdtable.get(fd)
        if desc is None or (isinstance(desc, _PipeEnd) and not desc.readable):
            return -errno.EBADF
        if isinstance(desc, Epoll):
            return -errno.EINVAL
        if count < 0:
            return -errno.EFAULT
        if isinstance(desc, Socket):
            conn = desc.connection
            if conn is None:
                return -errno.ENOTCONN
            if desc.nonblocking and not conn.inbox and not conn.closed:
                return -errno.EAGAIN
            chunk = conn.take(count)
            self._copy_bytes_to_user(proc, buf, chunk)
            self.net.account_recv(len(chunk))
            self._charge_net(proc, len(chunk))
            return len(chunk)
        chunk = desc.read(count)
        if chunk is None:
            return -errno.EISDIR
        self._copy_bytes_to_user(proc, buf, chunk)
        self._charge_io(proc, len(chunk))
        return len(chunk)

    def _sys_write(self, proc, args):
        """write(fd, buf, count).  The errnos come in Linux's order: EBADF
        (no such fd, or a pipe's read end), EINVAL (an epoll fd), EFAULT
        (a count negative as a signed register, above SSIZE_MAX, fails
        Linux's access_ok), then EPIPE for a socket with no connection
        (SIGPIPE is not modeled).  A failed write charges nothing."""
        fd, buf, count = (self._arg(args, i) for i in range(3))
        desc = proc.fdtable.get(fd)
        if desc is None:
            # stdout/stderr: swallow but succeed
            if fd not in (1, 2):
                return -errno.EBADF
            if count < 0:
                return -errno.EFAULT
            self._charge_io(proc, count)
            return count
        if isinstance(desc, _PipeEnd) and desc.readable:
            return -errno.EBADF
        if isinstance(desc, Epoll):
            return -errno.EINVAL
        if count < 0:
            return -errno.EFAULT
        if isinstance(desc, Socket) and desc.connection is None:
            return -errno.EPIPE
        prefix = self._read_bytes_from_user(proc, buf, count)
        if isinstance(desc, Socket):
            self.net.account_send(count)
            self._charge_net(proc, count)
            desc.connection.server_write(count, prefix)
            return count
        data = prefix + b"\x00" * (count - len(prefix))
        rc = desc.write(data)
        if rc < 0:
            return rc
        self._charge_io(proc, count)
        return count

    def _sys_open(self, proc, args):
        path_ptr, flags, mode = (self._arg(args, i) for i in range(3))
        path = proc.memory.read_cstr(path_ptr)
        return self._open_common(proc, path, flags, mode)

    def _sys_openat(self, proc, args):
        _dirfd, path_ptr, flags, mode = (self._arg(args, i) for i in range(4))
        path = proc.memory.read_cstr(path_ptr)
        return self._open_common(proc, path, flags, mode)

    def _sys_creat(self, proc, args):
        path_ptr, mode = (self._arg(args, i) for i in range(2))
        path = proc.memory.read_cstr(path_ptr)
        return self._open_common(proc, path, O_CREAT | O_TRUNC, mode)

    def _open_common(self, proc, path, flags, mode):
        self.open_log.append((proc.pid, path))
        if flags & O_CREAT:
            node = self.vfs.create(path, mode or 0o644)
            if node is None:
                return -errno.ENOENT
        else:
            node = self.vfs.lookup(path)
            if node is None:
                return -errno.ENOENT
        if flags & O_TRUNC and node.kind == "file":
            node.data = b""
        desc = OpenFile(node=node, flags=flags, path=path)
        if flags & O_APPEND:
            desc.pos = len(node.data)
        return proc.fdtable.install(desc)

    def _sys_close(self, proc, args):
        return proc.fdtable.close(self._arg(args, 0))

    def _write_stat(self, proc, statbuf, node):
        kind_bits = S_IFREG if node.kind == "file" else S_IFDIR
        proc.memory.write_block(
            statbuf, (kind_bits | node.mode, node.size, node.uid, node.gid)
        )
        self._refresh_shadow(proc, statbuf, 4)
        return 0

    def _sys_stat(self, proc, args):
        path_ptr, statbuf = (self._arg(args, i) for i in range(2))
        node = self.vfs.lookup(proc.memory.read_cstr(path_ptr))
        if node is None:
            return -errno.ENOENT
        return self._write_stat(proc, statbuf, node)

    def _sys_fstat(self, proc, args):
        fd, statbuf = (self._arg(args, i) for i in range(2))
        desc = proc.fdtable.get(fd)
        if desc is None:
            return -errno.EBADF
        if not isinstance(desc, OpenFile):
            # no VFS node: type bits only (epoll's anonymous inode has none)
            kind_bits = {Socket: S_IFSOCK, _PipeEnd: S_IFIFO}.get(type(desc), 0)
            proc.memory.write_block(statbuf, (kind_bits, 0))
            return 0
        return self._write_stat(proc, statbuf, desc.node)

    def _sys_lseek(self, proc, args):
        fd, offset, whence = (self._arg(args, i) for i in range(3))
        desc = proc.fdtable.get(fd)
        if desc is None:
            return -errno.EBADF
        if not isinstance(desc, OpenFile):
            return -errno.ESPIPE
        return desc.seek(offset, whence)

    def _sys_pread(self, proc, args):
        """pread64(fd, buf, count, offset).  Linux's errno order: EINVAL
        (negative offset), EBADF, ESPIPE, EFAULT (negative count), EISDIR."""
        fd, buf, count, offset = (self._arg(args, i) for i in range(4))
        if offset < 0:
            return -errno.EINVAL
        desc = proc.fdtable.get(fd)
        if desc is None:
            return -errno.EBADF
        if not isinstance(desc, OpenFile):
            return -errno.ESPIPE
        if count < 0:
            return -errno.EFAULT
        saved = desc.pos
        desc.pos = offset
        chunk = desc.read(count)
        desc.pos = saved
        if chunk is None:
            return -errno.EISDIR
        self._copy_bytes_to_user(proc, buf, chunk)
        self._charge_io(proc, len(chunk))
        return len(chunk)

    def _sys_pwrite(self, proc, args):
        fd, buf, count, offset = (self._arg(args, i) for i in range(4))
        if offset < 0:
            return -errno.EINVAL  # as in _sys_pread
        desc = proc.fdtable.get(fd)
        if desc is None:
            return -errno.EBADF
        if not isinstance(desc, OpenFile):
            return -errno.ESPIPE
        if count < 0:
            return -errno.EFAULT  # as in _sys_write
        prefix = self._read_bytes_from_user(proc, buf, count)
        saved = desc.pos
        desc.pos = offset
        rc = desc.write(prefix + b"\x00" * (count - len(prefix)))
        desc.pos = saved
        if rc < 0:
            return rc
        self._charge_io(proc, count)
        return count

    def _read_iovec(self, proc, iov_ptr, iovcnt):
        """Decode a ``struct iovec`` array: (base, len) pairs, one slot each."""
        words = proc.memory.read_block(iov_ptr, 2 * min(iovcnt, 64))
        return [(words[i], max(words[i + 1], 0)) for i in range(0, len(words), 2)]

    def _sys_readv(self, proc, args):
        fd, iov_ptr, iovcnt = (self._arg(args, i) for i in range(3))
        total = 0
        for base, length in self._read_iovec(proc, iov_ptr, iovcnt):
            if length == 0:
                continue
            n = self._sys_read(proc, [fd, base, length])
            if n < 0:
                return n if total == 0 else total
            total += n
            if n < length:
                break
        return total

    def _sys_writev(self, proc, args):
        fd, iov_ptr, iovcnt = (self._arg(args, i) for i in range(3))
        total = 0
        for base, length in self._read_iovec(proc, iov_ptr, iovcnt):
            if length == 0:
                continue
            n = self._sys_write(proc, [fd, base, length])
            if n < 0:
                return n if total == 0 else total
            total += n
        return total

    def _sys_pipe(self, proc, args):
        """pipe(fds): an in-memory byte queue behind two fds."""
        fds_ptr = self._arg(args, 0)
        pipe = _Pipe()
        read_fd = proc.fdtable.install(_PipeEnd(pipe, readable=True))
        write_fd = proc.fdtable.install(_PipeEnd(pipe, readable=False))
        proc.memory.write_block(fds_ptr, (read_fd, write_fd))
        return 0

    def _sys_dup2(self, proc, args):
        old_fd, new_fd = self._arg(args, 0), self._arg(args, 1)
        obj = proc.fdtable.get(old_fd)
        if obj is None:
            return -errno.EBADF
        proc.fdtable.close(new_fd)
        proc.fdtable._table[new_fd] = obj
        return new_fd

    def _sys_sendfile(self, proc, args):
        """sendfile(out_fd, in_fd, offset, count).  As in Linux, every check
        comes before a byte moves: EBADF for a bad in_fd, EINVAL for a
        count negative as a signed register, EBADF for an out_fd not open
        for writing (a directory, a pipe's read end), EINVAL for an in_fd
        that is not a regular file or an epoll out_fd, and EPIPE for a
        socket with no connection (SIGPIPE is not modeled)."""
        out_fd, in_fd, _off_ptr, count = (self._arg(args, i) for i in range(4))
        src = proc.fdtable.get(in_fd)
        if src is None:
            return -errno.EBADF
        if count < 0:
            return -errno.EINVAL
        dst = proc.fdtable.get(out_fd)
        if (
            dst is None
            or (isinstance(dst, _PipeEnd) and dst.readable)
            or (isinstance(dst, OpenFile) and dst.node.kind != "file")
        ):
            return -errno.EBADF
        if (
            not isinstance(src, OpenFile)
            or src.node.kind != "file"
            or isinstance(dst, Epoll)
        ):
            return -errno.EINVAL
        if isinstance(dst, Socket) and dst.connection is None:
            return -errno.EPIPE
        chunk = src.read(count)
        nbytes = len(chunk)
        self._charge_io(proc, nbytes)
        if isinstance(dst, Socket):
            self.net.account_send(nbytes)
            self._charge_net(proc, nbytes)
            dst.connection.server_write(nbytes, chunk[:ELIDE_BYTES])
        else:
            dst.write(chunk)
            self._charge_io(proc, nbytes)
        return nbytes

    def _sys_getdents(self, proc, args):
        """getdents(fd, dirp, count): simplified directory entries.

        Entries are written as consecutive NUL-terminated names (one char
        per slot); ``count`` bounds the slots written.  The description's
        offset tracks how many entries have been consumed, so repeated
        calls page through the directory and finally return 0.
        """
        fd, dirp, count = (self._arg(args, i) for i in range(3))
        desc = proc.fdtable.get(fd)
        if desc is None or not isinstance(desc, OpenFile):
            return -errno.EBADF
        if desc.node.kind != "dir":
            return -errno.ENOTDIR
        names = sorted(desc.node.children)
        written = 0
        index = desc.pos
        while index < len(names):
            name = names[index]
            needed = len(name) + 1
            if written + needed > count:
                break
            proc.memory.write_cstr(dirp + written * WORD, name)
            written += needed
            index += 1
        desc.pos = index
        self._charge_io(proc, written)
        return written

    def _sys_access(self, proc, args):
        path_ptr = self._arg(args, 0)
        node = self.vfs.lookup(proc.memory.read_cstr(path_ptr))
        return 0 if node is not None else -errno.ENOENT

    def _sys_dup(self, proc, args):
        return proc.fdtable.dup(self._arg(args, 0))

    def _sys_unlink(self, proc, args):
        return self.vfs.unlink(proc.memory.read_cstr(self._arg(args, 0)))

    def _sys_rename(self, proc, args):
        old = proc.memory.read_cstr(self._arg(args, 0))
        new = proc.memory.read_cstr(self._arg(args, 1))
        return self.vfs.rename(old, new)

    def _sys_mkdir(self, proc, args):
        path = proc.memory.read_cstr(self._arg(args, 0))
        return self.vfs.mkdir(path, self._arg(args, 1, 0o755))

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------

    def _sys_mmap(self, proc, args):
        addr, length, prot, flags, fd, offset = (
            self._arg(args, i) for i in range(6)
        )
        result = proc.mm.do_mmap(addr, length, prot, flags)
        if result > 0 and prot & PROT_EXEC:
            self.record("mmap_exec", proc, addr=result, length=length, prot=prot)
        return result

    def _sys_mprotect(self, proc, args):
        addr, length, prot = (self._arg(args, i) for i in range(3))
        rc = proc.mm.do_mprotect(addr, length, prot)
        if rc == 0 and prot & PROT_EXEC:
            self.record(
                "mprotect_exec",
                proc,
                addr=addr,
                length=length,
                prot=prot,
                writable=bool(prot & PROT_WRITE),
            )
        return rc

    def _sys_munmap(self, proc, args):
        return proc.mm.do_munmap(self._arg(args, 0), self._arg(args, 1))

    def _sys_mremap(self, proc, args):
        old_addr, old_len, new_len = (self._arg(args, i) for i in range(3))
        region = proc.mm.region_at(old_addr)
        prot = region.prot if region else PROT_READ | PROT_WRITE
        proc.mm.do_munmap(old_addr, old_len)
        self.record("mremap", proc, old=old_addr, new_len=new_len)
        return proc.mm.do_mmap(0, new_len, prot, 0, tag="mremap")

    def _sys_remap_file_pages(self, proc, args):
        self.record("remap_file_pages", proc, addr=self._arg(args, 0))
        return 0

    def _sys_brk(self, proc, args):
        return proc.mm.do_brk(self._arg(args, 0))

    # ------------------------------------------------------------------
    # networking
    # ------------------------------------------------------------------

    def _sys_socket(self, proc, args):
        domain, type_, protocol = (self._arg(args, i) for i in range(3))
        return proc.fdtable.install(Socket(domain, type_, protocol))

    @staticmethod
    def _not_a_socket(desc):
        """The errno of a socket call on a non-socket fd: EBADF if it is not
        open, ENOTSOCK if it is."""
        return -errno.EBADF if desc is None else -errno.ENOTSOCK

    def _read_sockaddr(self, proc, addr_ptr):
        return proc.memory.read_block(addr_ptr, SOCKADDR_SLOTS)

    def _sys_bind(self, proc, args):
        fd, addr_ptr = self._arg(args, 0), self._arg(args, 1)
        sock = proc.fdtable.get(fd)
        if not isinstance(sock, Socket):
            return self._not_a_socket(sock)
        _family, port, _host = self._read_sockaddr(proc, addr_ptr)
        if not self.net.bind(sock, port):
            return -errno.EADDRINUSE
        return 0

    def _sys_listen(self, proc, args):
        fd, backlog = self._arg(args, 0), self._arg(args, 1)
        sock = proc.fdtable.get(fd)
        if not isinstance(sock, Socket):
            return self._not_a_socket(sock)
        self.net.listen(sock, backlog)
        return 0

    def _sys_accept(self, proc, args):
        return self._accept_common(proc, args, flags=0)

    def _sys_accept4(self, proc, args):
        return self._accept_common(proc, args, flags=self._arg(args, 3))

    def _accept_common(self, proc, args, flags):
        fd, addr_ptr, _len_ptr = (self._arg(args, i) for i in range(3))
        sock = proc.fdtable.get(fd)
        if not isinstance(sock, Socket):
            return self._not_a_socket(sock)
        if not sock.listening:
            return -errno.EINVAL
        conn = self.net.next_connection(sock)
        if conn is None:
            return -errno.EAGAIN
        conn_sock = Socket(sock.domain, sock.type, sock.protocol, connection=conn)
        if flags & SOCK_NONBLOCK:
            conn_sock.nonblocking = True
        new_fd = proc.fdtable.install(conn_sock)
        if addr_ptr:
            # kernel-written out-parameter (§9.2's struct sockaddr)
            proc.memory.write_block(addr_ptr, (AF_INET, conn.peer_port, conn.peer_host))
            self._refresh_shadow(proc, addr_ptr, SOCKADDR_SLOTS)
        return new_fd

    def _sys_connect(self, proc, args):
        fd, addr_ptr = self._arg(args, 0), self._arg(args, 1)
        sock = proc.fdtable.get(fd)
        if not isinstance(sock, Socket):
            return self._not_a_socket(sock)
        _family, port, _host = self._read_sockaddr(proc, addr_ptr)
        sock.connected_port = port
        self.record("connect", proc, port=port)
        return 0

    def _sys_sendto(self, proc, args):
        """sendto(fd, buf, len, ...): ``write`` on a socket.  Linux imports
        the user buffer first, with its length clamped to MAX_RW_COUNT (so
        a negative one passes for a buffer this model can name), then
        looks the socket up: an installed descriptor that is no socket
        fails with ENOTSOCK before a byte moves.  A missing fd takes the
        ``write`` path (EBADF, or stdout's swallow)."""
        desc = proc.fdtable.get(self._arg(args, 0))
        if desc is not None and not isinstance(desc, Socket):
            return -errno.ENOTSOCK
        return self._sys_write(proc, args[:3])

    def _sys_recvfrom(self, proc, args):
        """recvfrom(fd, buf, len, ...): ``read`` on a socket, with
        ``sendto``'s ENOTSOCK for an installed non-socket descriptor."""
        desc = proc.fdtable.get(self._arg(args, 0))
        if desc is not None and not isinstance(desc, Socket):
            return -errno.ENOTSOCK
        return self._sys_read(proc, args[:3])

    def _sys_setsockopt(self, proc, args):
        return 0

    def _sys_shutdown(self, proc, args):
        sock = proc.fdtable.get(self._arg(args, 0))
        if not isinstance(sock, Socket):
            return self._not_a_socket(sock)
        if sock.connection is not None:
            sock.connection.closed = True
        return 0

    # ------------------------------------------------------------------
    # event multiplexing (epoll)
    # ------------------------------------------------------------------

    def _sys_epoll_create1(self, proc, args):
        return proc.fdtable.install(Epoll())

    def _sys_epoll_ctl(self, proc, args):
        """epoll_ctl(epfd, op, fd, event): maintain the interest set.

        ``struct epoll_event`` is two slots in simulated memory:
        slot0 = events mask, slot1 = user data (apps conventionally store
        the fd there).  A NULL event pointer defaults to EPOLLIN with the
        fd as data, which is what DEL (which ignores the event) passes.
        """
        epfd, op, fd, event_ptr = (self._arg(args, i) for i in range(4))
        ep = proc.fdtable.get(epfd)
        if ep is None:
            return -errno.EBADF
        if not isinstance(ep, Epoll):
            return -errno.EINVAL
        target = proc.fdtable.get(fd)
        if target is None:
            return -errno.EBADF
        if op == EPOLL_CTL_DEL:
            return 0 if ep.remove(fd) else -errno.ENOENT
        if not isinstance(target, Socket):
            # regular files are always ready; Linux refuses them
            return -errno.EPERM
        mask, data = EPOLLIN, fd
        if event_ptr:
            mask, data = proc.memory.read_block(event_ptr, 2)
        if op == EPOLL_CTL_ADD:
            return 0 if ep.add(fd, target, mask, data) else -errno.EEXIST
        if op == EPOLL_CTL_MOD:
            return 0 if ep.modify(fd, mask, data) else -errno.ENOENT
        return -errno.EINVAL

    def _sys_epoll_wait(self, proc, args):
        """epoll_wait(epfd, events, maxevents, timeout): harvest readiness.

        Blocking (timeout != 0 with nothing ready) is handled by
        ``_maybe_block`` before this handler runs; by execute time there
        is either something ready or the scheduler is draining.  Each
        harvested event is written as an (events, data) slot pair and
        charged ``costs.epoll_per_event``.
        """
        epfd, events_ptr, maxevents, _timeout = (
            self._arg(args, i) for i in range(4)
        )
        ep = proc.fdtable.get(epfd)
        if ep is None:
            return -errno.EBADF
        if not isinstance(ep, Epoll) or maxevents <= 0:
            return -errno.EINVAL
        ready = ep.poll(self.net, proc.fdtable, maxevents)
        if ready:
            proc.ledger.charge(
                len(ready) * self.costs.epoll_per_event, "kernel"
            )
            proc.memory.write_block(
                events_ptr, [word for _fd, events, data in ready for word in (events, data)]
            )
            # kernel-written out-parameter, like the accept4 sockaddr
            self._refresh_shadow(proc, events_ptr, 2 * len(ready))
            self.telemetry.count("epoll.events", len(ready))
        self.telemetry.count("epoll.waits")
        return len(ready)

    def _sys_fcntl(self, proc, args):
        """fcntl(fd, cmd, arg): F_GETFL/F_SETFL drive O_NONBLOCK on sockets.

        An fd that is not open fails with EBADF; everything else keeps the
        historical always-0 behavior (the apps only probe status flags).
        """
        fd, cmd, arg = (self._arg(args, i) for i in range(3))
        desc = proc.fdtable.get(fd)
        if desc is None:
            return -errno.EBADF
        if isinstance(desc, Socket):
            if cmd == F_GETFL:
                return O_NONBLOCK if desc.nonblocking else 0
            if cmd == F_SETFL:
                desc.nonblocking = bool(arg & O_NONBLOCK)
                return 0
        return 0

    # ------------------------------------------------------------------
    # processes, exec, credentials
    # ------------------------------------------------------------------

    def _spawn_child(self, proc, kind):
        child = Process(pid=self._next_pid, name="%s-child" % proc.name)
        self._next_pid += 1
        child.parent = proc
        child.creds = proc.creds.clone()
        child.mm = proc.mm
        child.memory = proc.memory
        # fd numbers carry over (the worker's inherited listen fd); the
        # open file descriptions behind them are shared, fork(2)-style
        child.fdtable = proc.fdtable.fork()
        # seccomp filters, the tracer, and the (shared-shadow-region)
        # BASTION runtime are inherited (§7.1)
        child.seccomp_filters = list(proc.seccomp_filters)
        child.seccomp_action_cache = proc.seccomp_action_cache
        child.tracer = proc.tracer
        child.bastion_runtime = proc.bastion_runtime
        child.ledger_costs = proc.ledger_costs
        proc.children.append(child)
        self.processes[child.pid] = child
        self.record(kind, proc, child_pid=child.pid)
        return child.pid

    def _sys_clone(self, proc, args):
        child_pid = self._spawn_child(proc, "clone")
        if self.scheduler is not None:
            # glibc clone convention in our apps: args[2] is the start
            # routine, args[3] its argument.  Under a scheduler the child
            # is *enqueued* and runs interleaved with the parent; without
            # one it keeps its PCB and never runs (DESIGN.md §6).
            fn_addr = self._arg(args, 2)
            if fn_addr:
                self.scheduler.spawn(
                    proc,
                    self.processes[child_pid],
                    fn_addr,
                    self._arg(args, 3),
                )
        return child_pid

    def _sys_fork(self, proc, args):
        return self._spawn_child(proc, "fork")

    def _sys_execve(self, proc, args):
        path_ptr, argv_ptr, _envp_ptr = (self._arg(args, i) for i in range(3))
        path = proc.memory.read_cstr(path_ptr)
        argv = []
        if argv_ptr:
            for ptr in proc.memory.read_vector(argv_ptr):
                argv.append(proc.memory.read_cstr(ptr))
        node = self.vfs.lookup(path)
        self.record("execve", proc, path=path, argv=argv, found=node is not None)
        if node is None:
            return -errno.ENOENT
        # The simulation records the exec and lets the caller continue —
        # real execve does not return on success (documented deviation).
        return 0

    def _sys_execveat(self, proc, args):
        _dirfd, path_ptr, argv_ptr, envp_ptr, _flags = (
            self._arg(args, i) for i in range(5)
        )
        return self._sys_execve(proc, [path_ptr, argv_ptr, envp_ptr])

    def _sys_exit(self, proc, args):
        proc.exit(self._arg(args, 0))
        return 0

    def _sys_wait4(self, proc, args):
        if self.scheduler is None:
            # Unscheduled mode: clone()d children never run, so there is
            # nothing to wait for — report the newest child's pid.
            if proc.children:
                return proc.children[-1].pid
            return -errno.ESRCH
        # Scheduler mode: reap the first unreaped zombie, POSIX-style.
        status_ptr = self._arg(args, 1)
        for child in proc.children:
            if not child.alive and not child.reaped:
                child.reaped = True
                child.state = "reaped"
                if status_ptr:
                    # wstatus word: exit code in bits 8..15, signal in 0..6
                    word = (
                        (child.exit_code & 0xFF) << 8 if child.exited else 137
                    )
                    proc.memory.write(status_ptr, word)
                    self._refresh_shadow(proc, status_ptr, 1)
                self.record(
                    "reap", proc, child_pid=child.pid, exit_code=child.exit_code
                )
                return child.pid
        if not proc.children:
            return -errno.ECHILD
        # Children exist but are still running (only reachable in drain
        # mode, where blocking is disabled): report "try again".
        return -errno.EAGAIN

    def _sys_setuid(self, proc, args):
        uid = self._arg(args, 0)
        rc = proc.creds.setuid(uid)
        self.record("setuid", proc, uid=uid, rc=rc)
        return rc

    def _sys_setgid(self, proc, args):
        gid = self._arg(args, 0)
        rc = proc.creds.setgid(gid)
        self.record("setgid", proc, gid=gid, rc=rc)
        return rc

    def _sys_setreuid(self, proc, args):
        ruid, euid = self._arg(args, 0), self._arg(args, 1)
        rc = proc.creds.setreuid(ruid, euid)
        self.record("setreuid", proc, ruid=ruid, euid=euid, rc=rc)
        return rc

    def _sys_chmod(self, proc, args):
        path_ptr, mode = self._arg(args, 0), self._arg(args, 1)
        path = proc.memory.read_cstr(path_ptr)
        rc = self.vfs.chmod(path, mode)
        self.record("chmod", proc, path=path, mode=mode, rc=rc)
        return rc

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def _sys_nanosleep(self, proc, args):
        proc.ledger.charge(100, "kernel")
        return 0

    def _sys_getrandom(self, proc, args):
        buf, count = self._arg(args, 0), self._arg(args, 1)
        take = min(count, ELIDE_BYTES)
        out = []
        state = self._rng_state
        for _ in range(take):
            state = (state * 6364136223846793005 + 1442695040888963407) & (
                (1 << 64) - 1
            )
            out.append((state >> 33) & 0xFF)
        self._rng_state = state
        self._copy_bytes_to_user(proc, buf, bytes(out))
        return count
