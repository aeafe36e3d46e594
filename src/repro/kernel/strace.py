"""An strace-style syscall tracer for the simulated kernel.

Records every syscall that reaches its dispatch verdict with decoded
arguments — string pointees for path arguments, flag names for
protections — producing output a Linux user would recognize::

    openat(AT_FDCWD, "/etc/nginx/nginx.conf", O_RDONLY) = 3
    mmap(NULL, 16384, PROT_READ|PROT_WRITE, MAP_PRIVATE|MAP_ANONYMOUS, -1, 0) = 0x7f0000000000

Used for debugging workloads and in DESIGN.md-level sanity checks; it is a
*kernel-side* tap (sees the truth after seccomp), not part of BASTION.
"""

from dataclasses import dataclass, field

from repro.kernel import errno
from repro.syscalls.argspec import ArgKind, argspec_for

_PROT_NAMES = ((1, "PROT_READ"), (2, "PROT_WRITE"), (4, "PROT_EXEC"))
_MAP_NAMES = ((1, "MAP_SHARED"), (2, "MAP_PRIVATE"), (0x10, "MAP_FIXED"), (0x20, "MAP_ANONYMOUS"))


def _flags(value, table, zero="0"):
    names = [name for bit, name in table if value & bit]
    return "|".join(names) if names else zero


def format_arg(proc, syscall_name, position, value):
    """Decode one argument the way strace would."""
    kind = argspec_for(syscall_name).kind(position)
    if kind in (ArgKind.EXTENDED,) and value > 0:
        return '"%s"' % proc.memory.read_cstr(value, max_slots=64)
    if syscall_name in ("mmap", "mprotect") and position == 3:
        return _flags(value, _PROT_NAMES, "PROT_NONE")
    if syscall_name == "mmap" and position == 4:
        return _flags(value, _MAP_NAMES)
    if value == 0 and position == 1 and syscall_name == "mmap":
        return "NULL"
    if value > 0x10000:
        return hex(value)
    return str(value)


def format_result(syscall_name, result):
    if result < 0:
        return "-1 %s" % errno.errno_name(-result)
    if syscall_name in ("mmap", "brk", "mremap") and result > 0x10000:
        return hex(result)
    return str(result)


@dataclass
class TraceEntry:
    """One recorded syscall."""

    name: str
    args: tuple
    rendered_args: tuple
    result: int = None

    def __str__(self):
        result = "?" if self.result is None else format_result(self.name, self.result)
        return "%s(%s) = %s" % (self.name, ", ".join(self.rendered_args), result)


@dataclass
class Strace:
    """Attachable syscall log; install with :func:`attach_strace`."""

    entries: list = field(default_factory=list)
    filter_names: frozenset = None  # None = everything

    def record(self, ctx):
        name, args = ctx.name, ctx.args
        if self.filter_names is not None and name not in self.filter_names:
            return
        nargs = argspec_for(name)
        shown = args[: max(len(nargs.kinds), len(args))]
        rendered = tuple(
            format_arg(ctx.proc, name, i + 1, value) for i, value in enumerate(shown)
        )
        self.entries.append(TraceEntry(name, tuple(args), rendered, ctx.result))

    def lines(self):
        return [str(entry) for entry in self.entries]

    def counts(self):
        out = {}
        for entry in self.entries:
            out[entry.name] = out.get(entry.name, 0) + 1
        return out

    def __str__(self):
        return "\n".join(self.lines())


def attach_strace(kernel, only=None):
    """Tap the kernel's dispatch pipeline; returns the :class:`Strace` log.

    An ``account`` hook records the syscall the handler ran, or an ERRNO
    short-circuit; a killed or parked syscall never reaches ``account``.
    """
    trace = Strace(filter_names=frozenset(only) if only else None)
    kernel.pipeline.insert("account", trace.record)
    return trace
