"""A simulated Linux kernel — the substrate BASTION's prototype runs on.

Implements just enough of Linux for the paper's experiments to be faithful:

- :mod:`repro.kernel.errno` — error numbers;
- :mod:`repro.kernel.bpf` — a classic-BPF (cBPF) instruction VM;
- :mod:`repro.kernel.seccomp` — seccomp-BPF filter attach/evaluate with
  Linux action precedence (KILL > TRAP > ERRNO > TRACE > ALLOW);
- :mod:`repro.kernel.vfs` — an in-memory filesystem with per-process fds;
- :mod:`repro.kernel.net` — sockets, listening queues, byte accounting
  (the throughput numbers of Table 3 come from here);
- :mod:`repro.kernel.mm` — mmap/mprotect region tracking (DEP + the
  memory-permission attack goals of Table 1);
- :mod:`repro.kernel.cred` — uid/gid credentials (privilege escalation);
- :mod:`repro.kernel.process` — process control blocks and the GETREGS register file;
- :mod:`repro.kernel.ptrace` — the tracing transport the monitor uses
  (PTRACE_GETREGS / PTRACE_PEEKDATA / process_vm_readv), with an
  "in-kernel" transport variant for the §11.2 ablation;
- :mod:`repro.kernel.kernel` — the syscall dispatcher tying it together.
"""

from repro.kernel.kernel import Kernel
from repro.kernel.process import Process, RegisterFile
from repro.kernel.seccomp import (
    SeccompFilter,
    SECCOMP_RET_ALLOW,
    SECCOMP_RET_ERRNO,
    SECCOMP_RET_KILL_PROCESS,
    SECCOMP_RET_TRACE,
    SECCOMP_RET_TRAP,
    build_action_filter,
)
from repro.kernel.ptrace import PtraceHandle
from repro.kernel import errno

__all__ = [
    "Kernel",
    "Process",
    "RegisterFile",
    "SeccompFilter",
    "SECCOMP_RET_ALLOW",
    "SECCOMP_RET_ERRNO",
    "SECCOMP_RET_KILL_PROCESS",
    "SECCOMP_RET_TRACE",
    "SECCOMP_RET_TRAP",
    "build_action_filter",
    "PtraceHandle",
    "errno",
]
