"""The :class:`CompiledPolicy` artifact and its byte-stable serialization.

A compiled policy is everything a syscall-filtering mechanism needs,
decoupled from the analysis that derived it:

- **presence** — the syscall allowlist (KILL anything else in-kernel);
- **call_kinds** — per sensitive syscall, the invocation kinds
  (``direct`` / ``indirect``) legitimate code can produce;
- **transitions** — the syscall-transition graph: for each predecessor
  state (a syscall name, or :data:`START` for "no syscall issued yet"),
  the legal successor syscalls, each annotated with the *origins* — the
  functions whose code can issue that successor on a path where the
  predecessor was the last syscall.  ``clone`` additionally carries the
  first syscalls of every thread entry (a spawned child's state is
  snapshotted from its parent at the clone dispatch, so its first syscall
  is checked against ``clone``'s successors).

Serialization is plain dicts/lists/strings under ``json.dumps(indent=2,
sort_keys=True)`` — byte-stable, so CI pins it exactly like the
binary-precision payload.  ``provenance`` records which producer emitted
the artifact and the sizes of the analysis context it was derived from
(never wall-clock or environment data, which would break the pinning).
"""

import json
from dataclasses import dataclass, field

SCHEMA = "repro-policy/v1"

#: the predecessor token for "process has not issued a syscall yet"
START = "^"


@dataclass(frozen=True)
class CompiledPolicy:
    """One analysis-produced, mechanism-consumable policy artifact."""

    producer: str  # 'flowgraph' | 'binary'
    program: str
    entry: str
    #: sorted tuple of syscall names any legitimate execution can issue
    presence: tuple
    #: syscall -> tuple of legal call kinds ('direct', 'indirect')
    call_kinds: dict
    #: prev -> {next: tuple of sorted origin function names}
    transitions: dict
    #: producer-specific derivation context (counts only, byte-stable)
    provenance: dict = field(default_factory=dict)
    schema: str = SCHEMA

    # -- queries (the mechanisms' hot path precomputes from these) ------

    def successors(self, prev):
        """``{next: origins}`` legal after ``prev`` (empty dict if none)."""
        return self.transitions.get(prev, {})

    def allows_transition(self, prev, nxt):
        return nxt in self.transitions.get(prev, {})

    def origins_of(self, prev, nxt):
        """Origin tuple for ``prev -> nxt``, or None when illegal."""
        return self.transitions.get(prev, {}).get(nxt)

    @property
    def start_syscalls(self):
        """Syscalls legal as a root process's first dispatch."""
        return tuple(sorted(self.transitions.get(START, {})))

    # -- metrics (what the sfip precision fixture pins) -----------------

    def edge_count(self):
        return sum(len(nexts) for nexts in self.transitions.values())

    def origin_count(self):
        return sum(
            len(origins)
            for nexts in self.transitions.values()
            for origins in nexts.values()
        )

    def density_pct(self):
        """Transition-graph density vs the complete graph over presence —
        SFIP's headline precision number (lower = tighter)."""
        nodes = len(self.presence)
        possible = nodes * nodes + nodes  # + the START row
        if possible == 0:
            return 0.0
        return round(100.0 * self.edge_count() / possible, 2)

    # -- serialization --------------------------------------------------

    def to_payload(self):
        return {
            "schema": self.schema,
            "producer": self.producer,
            "program": self.program,
            "entry": self.entry,
            "presence": sorted(self.presence),
            "call_kinds": {
                name: sorted(kinds)
                for name, kinds in sorted(self.call_kinds.items())
            },
            "transitions": {
                prev: {
                    nxt: sorted(origins)
                    for nxt, origins in sorted(nexts.items())
                }
                for prev, nexts in sorted(self.transitions.items())
            },
            "provenance": self.provenance,
        }

    @classmethod
    def from_payload(cls, payload):
        if payload.get("schema") != SCHEMA:
            raise ValueError(
                "not a %s payload (schema=%r)"
                % (SCHEMA, payload.get("schema"))
            )
        return cls(
            producer=payload["producer"],
            program=payload["program"],
            entry=payload["entry"],
            presence=tuple(payload["presence"]),
            call_kinds={
                name: tuple(kinds)
                for name, kinds in payload["call_kinds"].items()
            },
            transitions={
                prev: {
                    nxt: tuple(origins)
                    for nxt, origins in nexts.items()
                }
                for prev, nexts in payload["transitions"].items()
            },
            provenance=dict(payload.get("provenance", {})),
        )


def policy_json(policy):
    """The canonical byte-stable serialization (what CI fixtures pin)."""
    return json.dumps(policy.to_payload(), indent=2, sort_keys=True)


#: frozenset of allowed syscall names -> the shared BPFProgram
_presence_programs = {}


def build_presence_filter(syscalls, label):
    """Deny-list seccomp filter that KILLs the table syscalls not named.

    Despite the "allowlist" it stands for, the program is a deny list:
    one ``JEQ nr -> KILL`` per ``repro.syscalls.table`` entry outside
    ``syscalls`` and an ALLOW default, so a number outside the table
    passes (ROADMAP item 1 plans the KILL-default shape).

    The one allowlist builder: the ``sfip`` and ``binary_only``
    mechanisms pass a policy's presence table (anything outside it dies
    in-kernel before the transition check ever runs), the
    ``seccomp_allowlist`` and ``temporal`` baselines the syscalls their
    own analyses collect.  ``label`` names the filter in kill records.
    The program is built once per set of syscalls; each call returns a
    fresh filter.
    """
    from repro.kernel.seccomp import (
        SECCOMP_RET_ALLOW,
        SECCOMP_RET_KILL_PROCESS,
        SeccompFilter,
        build_action_filter,
    )
    from repro.syscalls.table import SYSCALLS

    allowed = frozenset(syscalls)
    program = _presence_programs.get(allowed)
    if program is None:
        actions = {
            entry.nr: SECCOMP_RET_KILL_PROCESS
            for entry in SYSCALLS
            if entry.name not in allowed
        }
        program = _presence_programs[allowed] = build_action_filter(
            actions, default_action=SECCOMP_RET_ALLOW
        ).program
    return SeccompFilter(program, label=label)
