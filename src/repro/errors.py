"""Exception hierarchy shared across the repro package."""


class ReproError(Exception):
    """Base class for every error raised by this package."""


class IRError(ReproError):
    """Malformed IR: unknown operand, bad label, duplicate function, ..."""


class IRValidationError(IRError):
    """Raised by the IR validator when a module breaks a structural rule."""


class LoaderError(ReproError):
    """Raised when a module cannot be laid out into an executable image."""


class VMFault(ReproError):
    """A hardware-style fault raised by the interpreter CPU.

    Subclasses mirror the processor/OS events the paper's threat model
    relies on (DEP faults, shadow-stack mismatches, bad fetches).
    """

    def __init__(self, message, rip=None):
        super().__init__(message)
        self.rip = rip


class SegmentationFault(VMFault):
    """Access to unmapped memory or a permission violation."""


class ExecutionFault(VMFault):
    """Instruction fetch from a non-executable address (DEP/NX)."""


class ShadowStackFault(VMFault):
    """CET shadow-stack mismatch on return (control-protection fault)."""


class CFIFault(VMFault):
    """LLVM-CFI equivalence-class violation at an indirect callsite."""


class ProcessKilled(ReproError):
    """The process was terminated (seccomp KILL, monitor verdict, signal)."""

    def __init__(self, message, reason=None):
        super().__init__(message)
        self.reason = reason


class WouldBlock(ReproError):
    """A syscall cannot complete yet; the scheduler should park the process.

    Raised by the kernel dispatcher *before* seccomp runs (so a restarted
    syscall stops into the monitor exactly once, when it can complete) and
    only while a :class:`repro.sched.Scheduler` is driving the kernel.  The
    CPU leaves ``rip`` on the syscall instruction, ERESTARTSYS-style: the
    syscall re-executes when the wake predicate turns true.
    """

    def __init__(self, kind, wake, detail=""):
        super().__init__("%s would block%s" % (kind, ": " + detail if detail else ""))
        #: what the process waits on: 'accept' | 'read' | 'child'
        self.kind = kind
        #: zero-argument predicate: True once the syscall can make progress
        self.wake = wake
        self.detail = detail


class KernelError(ReproError):
    """Internal kernel invariant violation (a bug in the simulation)."""


class MonitorError(ReproError):
    """BASTION monitor misconfiguration (bad metadata, missing tracee)."""


class AttackError(ReproError):
    """An attack script could not even be staged (target symbol missing)."""
