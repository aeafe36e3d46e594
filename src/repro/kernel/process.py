"""Process control blocks, and the registers a tracer reads at a stop."""

from dataclasses import dataclass, field

from repro.kernel import errno
from repro.kernel.cred import Credentials
from repro.syscalls.table import nr_of
from repro.vm.costs import DEFAULT_COSTS, CycleLedger
from repro.vm.memory import Memory


@dataclass
class RegisterFile:
    """The registers the monitor sees through PTRACE_GETREGS at a stop.

    On x86-64, syscall arguments arrive in rdi, rsi, rdx, r10, r8, r9 with
    the syscall number in rax; rip points at the syscall instruction, rbp
    is the frame pointer the monitor's unwinder walks.
    """

    rax: int = 0
    rdi: int = 0
    rsi: int = 0
    rdx: int = 0
    r10: int = 0
    r8: int = 0
    r9: int = 0
    rip: int = 0
    rbp: int = 0
    rsp: int = 0

    ARG_ORDER = ("rdi", "rsi", "rdx", "r10", "r8", "r9")

    @classmethod
    def of(cls, ctx):
        """The registers at the syscall of dispatch context ``ctx``."""
        args = tuple(ctx.args) + (0,) * (6 - len(ctx.args))
        return cls(nr_of(ctx.name), *args[:6], ctx.rip, ctx.rbp, ctx.rsp)

    def syscall_args(self):
        return tuple(getattr(self, reg) for reg in self.ARG_ORDER)

    def arg(self, position):
        """1-based syscall argument."""
        return getattr(self, self.ARG_ORDER[position - 1])


class FDTable:
    """Per-process file descriptor table."""

    #: RLIMIT_NOFILE stand-in, sized for the C10k event-loop benches
    #: (10k concurrent connections + listener + epoll fd headroom)
    MAX_FDS = 16384

    def __init__(self):
        self._table = {}
        self._next = 3  # 0/1/2 reserved for std streams

    def install(self, obj):
        if len(self._table) >= self.MAX_FDS:
            return -errno.EMFILE
        fd = self._next
        while fd in self._table:
            fd += 1
        self._table[fd] = obj
        self._next = fd + 1
        return fd

    def get(self, fd):
        return self._table.get(fd)

    def close(self, fd):
        if fd in self._table:
            del self._table[fd]
            return 0
        return -errno.EBADF

    def dup(self, fd):
        obj = self._table.get(fd)
        if obj is None:
            return -errno.EBADF
        return self.install(obj)

    def fork(self):
        """fork(2) semantics: same fd numbers, shared open descriptions."""
        table = FDTable()
        table._table = dict(self._table)
        table._next = self._next
        return table

    def __len__(self):
        return len(self._table)


@dataclass
class Process:
    """A simulated process: memory, fds, creds, seccomp, tracer."""

    pid: int
    name: str = "app"
    memory: Memory = field(default_factory=Memory)
    fdtable: FDTable = field(default_factory=FDTable)
    creds: Credentials = field(default_factory=Credentials)
    mm: object = None  # AddressSpace, set at load time
    seccomp_filters: list = field(default_factory=list)
    #: per-syscall-nr ALLOW bitmap (SeccompActionCache), rebuilt on every
    #: filter install; None while any installed filter is arg/ip-dependent
    seccomp_action_cache: object = None
    seccomp_cache_hits: int = 0
    seccomp_cache_misses: int = 0
    tracer: object = None  # BastionMonitor (or any on_syscall_stop object)
    #: the SyscallContext of the syscall in flight (or the last one)
    syscall: object = None
    #: exception the dispatcher should raise for this process (set by the
    #: monitor's kill verdict so callers can catch SyscallIntegrityViolation)
    pending_exception: object = None
    parent: object = None
    children: list = field(default_factory=list)

    alive: bool = True
    exited: bool = False
    exit_code: int = 0
    kill_reason: str = None
    #: scheduler lifecycle: runnable | running | blocked | zombie | reaped
    state: str = "runnable"
    #: set once a wait4 has collected this process's exit status
    reaped: bool = False

    #: cycle accounting for this run (CPU + kernel + monitor all charge here)
    ledger: CycleLedger = field(default_factory=CycleLedger)
    ledger_costs: object = DEFAULT_COSTS

    #: per-syscall dispatch counts (Table 4's ground truth)
    syscall_counts: dict = field(default_factory=dict)
    trace_log: list = field(default_factory=list)

    #: BASTION pieces attached by the monitor at launch
    bastion_runtime: object = None
    cpu: object = None

    def kill(self, reason):
        self.alive = False
        self.kill_reason = reason

    def exit(self, code):
        self.alive = False
        self.exited = True
        self.exit_code = code

    def count_syscall(self, name):
        self.syscall_counts[name] = self.syscall_counts.get(name, 0) + 1
