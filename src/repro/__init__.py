"""repro — a reproduction of BASTION (ASPLOS '23): System Call Integrity.

BASTION enforces the correct use of (sensitive) system calls through three
contexts — Call-Type, Control-Flow, and Argument Integrity — implemented as a
compiler pass plus an out-of-process runtime monitor built on seccomp-BPF and
ptrace.

This package rebuilds the whole stack on a simulated substrate:

- :mod:`repro.ir` — a small typed IR in which the workload applications are
  written (the stand-in for C + LLVM IR).
- :mod:`repro.vm` — an interpreter CPU with corruptible simulated memory,
  frame pointers and return addresses on a simulated stack, and an optional
  CET-style shadow stack.
- :mod:`repro.kernel` — a simulated Linux kernel: VFS, sockets, memory
  regions, credentials, a classic-BPF engine, seccomp, and ptrace.
- :mod:`repro.compiler` — the BASTION compiler pass: call-type analysis,
  control-flow context analysis, argument-integrity analysis, and
  instrumentation.
- :mod:`repro.runtime` — the BASTION runtime library (shadow memory table,
  ``ctx_write_mem`` / ``ctx_bind_*`` intrinsics).
- :mod:`repro.monitor` — the BASTION runtime monitor process.
- :mod:`repro.mechanisms` — BASTION and the defenses it is compared
  against (seccomp allowlisting, temporal filtering, debloating, LLVM CFI,
  DFI, binary-only, SFIP) behind one launch interface.
- :mod:`repro.apps` — mini-NGINX, mini-SQLite, mini-vsftpd and their
  workload generators (wrk / DBT2 / dkftpbench stand-ins).
- :mod:`repro.attacks` — the Table 6 attack catalog.
- :mod:`repro.bench` — harnesses regenerating every table and figure in the
  paper's evaluation.

Quickstart::

    from repro import ProtectConfig, run

    result = run("nginx", scale=0.5)      # full BASTION, fast path on
    print("overhead: %.2f%%" % result.overhead_pct)
    print("cache hit rate: %.0f%%" % (100 * result.monitor_stats["hit_rate"]))

Compiling a module directly::

    from repro import protect
    from repro.apps.nginx import build_nginx

    artifact = protect(build_nginx())     # compile + instrument + metadata
    artifact.metadata.stats               # Table 5's static statistics
"""

from repro.api import (
    AnalysisFailure,
    ProtectConfig,
    RunResult,
    analyze,
    protect,
    run,
)
from repro.compiler.pipeline import BastionCompiler, BastionArtifact
from repro.monitor.cache import MonitorStats, VerdictCache
from repro.monitor.policy import ContextPolicy
from repro.monitor.monitor import BastionMonitor, SyscallIntegrityViolation

__version__ = "1.1.0"

__all__ = [
    "BastionCompiler",
    "BastionArtifact",
    "ProtectConfig",
    "RunResult",
    "analyze",
    "AnalysisFailure",
    "protect",
    "run",
    "ContextPolicy",
    "BastionMonitor",
    "MonitorStats",
    "VerdictCache",
    "SyscallIntegrityViolation",
    "__version__",
]
