"""Compiled policy artifacts: the analysis → mechanism seam.

Static analyses *produce* a :class:`CompiledPolicy`; protection mechanisms
*consume* one.  Before this package, each mechanism reached into the
private tables of whichever analysis happened to back it (the
``binary_only`` mechanism read ``BinaryRecovery.reachable_syscalls`` and
``.call_types`` directly).  Now both producers —

- :func:`repro.analyze.flowgraph.compile_policy` (compiler metadata +
  module IR: the SFIP-style syscall-flow extraction), and
- :func:`repro.analyze.binary.compile_policy` (metadata-free binary
  recovery, B-Side style)

— emit the same artifact: a presence table, per-syscall call kinds, and
an origin-annotated syscall-transition graph, serialized byte-stably with
provenance so CI can pin it (``tests/fixtures/sfip_precision.json``).

Consumers: :class:`repro.mechanisms.sfip.SfipMechanism` enforces the
transition graph as a per-process state machine at the dispatch pipeline's
seccomp stage; :class:`repro.mechanisms.binary.BinaryOnlyMechanism`
synthesizes its KILL-by-default filter and call-kind checks from the
binary-produced policy.  See ``docs/mechanisms.md``.
"""

from repro.policy.artifact import (
    SCHEMA,
    START,
    CompiledPolicy,
    build_presence_filter,
    policy_json,
)
from repro.policy.flow import (
    ProgramGraph,
    build_transition_graph,
    sensitive_sites,
)

__all__ = [
    "SCHEMA",
    "START",
    "CompiledPolicy",
    "ProgramGraph",
    "build_presence_filter",
    "build_transition_graph",
    "policy_json",
    "sensitive_sites",
]
