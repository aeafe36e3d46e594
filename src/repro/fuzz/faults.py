"""Dispatch-time fault injection (SFP-style, Schilling et al.).

A :class:`FaultInjector` is a dispatch-pipeline hook — installed through
the existing ``insert()`` API of :mod:`repro.kernel.dispatch` — that flips
a single chosen bit in one of three fault sites on the Nth dispatch of a
chosen syscall:

- ``syscall_number``  the number the rest of the pipeline dispatches on
  (``write`` with bit 3 becomes ``mmap``: an allowed, boring syscall turns
  into a sensitive one mid-flight);
- ``arg_register``    one argument register;
- ``filter_state``    the ``k`` constant of the first JEQ in the process's
  first attached seccomp-BPF filter (persistent state corruption).

The ``stage`` picks where in the pipeline the flip lands, which decides
who still sees the corrupt value:

- ``pre_seccomp``   (hook at ``count``)   seccomp, the monitor, and the
  syscall handler all see the flipped value;
- ``post_seccomp``  (hook at ``seccomp``) the filter checked the original,
  the monitor and handler see the flip;
- ``pre_execute``   (hook at ``verify``)  every check passed on the
  original; only the handler executes the flip.

Fault campaigns run benign workloads through the same differential matrix
as the fuzzer and classify each (mechanism, fault) cell:

- ``caught``       a mechanism killed the process (fail-stop);
- ``crashed``      the VM faulted — the fault itself took the process down;
- ``missed``       the run completed but observably differs from the clean
  reference (the corruption propagated, nothing noticed);
- ``masked``       the run completed bit-identical to the reference;
- ``not-reached``  the injector never fired (e.g. a filter-state fault
  under a mechanism that installs no filter).

Notable honest physics: the monitor compares dispatched arguments with
their shadow copies, so only a ``pre_execute`` flip of a sensitive
syscall's bound argument gets past it — the gap SFP's hardware protection
targets.  The pinned ``arg_register`` row flips ``write``: never stopped on.
"""

import dataclasses

from repro.attacks.catalog import AttackSpec
from repro.fuzz.oracle import MATRIX, _run_mechanism
from repro.kernel.bpf import BPF_JEQ, BPF_JMP, BPF_K, BPFProgram
from repro.kernel.errno import ENOSYS
from repro.kernel.seccomp import SeccompFilter
from repro.syscalls.table import SYSCALL_BY_NR, nr_of

FAULT_SITES = ("syscall_number", "arg_register", "filter_state")

#: fault stage -> pipeline insert() point (the hook runs after that
#: stage's installed handlers)
FAULT_STAGES = {
    "pre_seccomp": "count",
    "post_seccomp": "seccomp",
    "pre_execute": "verify",
}


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One single-bit dispatch-time fault."""

    site: str  # FAULT_SITES
    stage: str  # FAULT_STAGES key
    syscall: str = "write"  # fault the Nth dispatch of this syscall
    occurrence: int = 3
    bit: int = 3
    arg_index: int = 2

    def label(self):
        return "%s@%s" % (self.site, self.stage)


class FaultInjector:
    """The pipeline hook that performs one fault, once."""

    def __init__(self, spec):
        self.spec = spec
        self.fired = False
        self.detail = None
        self._count = 0
        self._kernel = None
        self._proc = None

    def install(self, kernel, proc):
        self._kernel = kernel
        self._proc = proc
        kernel.pipeline.insert(FAULT_STAGES[self.spec.stage], self._hook)
        return self

    def _hook(self, ctx):
        if self.fired or ctx.done or ctx.proc is not self._proc:
            return
        if ctx.name != self.spec.syscall:
            return
        self._count += 1
        if self._count != self.spec.occurrence:
            return
        site = self.spec.site
        if site == "syscall_number":
            self._flip_number(ctx)
        elif site == "arg_register":
            self._flip_arg(ctx)
        else:
            self._flip_filter(ctx)
        if self.fired:
            self._kernel.telemetry.count("fault.injected")

    def _flip_number(self, ctx):
        nr = nr_of(ctx.name)
        flipped = nr ^ (1 << self.spec.bit)
        entry = SYSCALL_BY_NR.get(flipped)
        self.fired = True
        if entry is None:
            self.detail = "%s(%d) -> sys_%d (ENOSYS)" % (ctx.name, nr, flipped)
            ctx.short_circuit(-ENOSYS, "errno")
        else:
            self.detail = "%s(%d) -> %s(%d)" % (ctx.name, nr, entry.name, flipped)
            ctx.name = entry.name

    def _flip_arg(self, ctx):
        args = list(ctx.args)
        index = self.spec.arg_index
        if index >= len(args):
            self.detail = "arg%d absent" % index
            return
        old = args[index]
        args[index] = old ^ (1 << self.spec.bit)
        ctx.args = tuple(args)
        self.fired = True
        self.detail = "arg%d %#x -> %#x" % (index, old, args[index])

    def _flip_filter(self, ctx):
        filters = ctx.proc.seccomp_filters
        if not filters:
            self.detail = "no filter installed"
            return
        filt = filters[0]
        insns = list(filt.program.instructions)
        jeq = BPF_JMP | BPF_JEQ | BPF_K
        for i, ins in enumerate(insns):
            if ins.code == jeq:
                new_k = (ins.k ^ (1 << self.spec.bit)) & 0xFFFFFFFF
                insns[i] = dataclasses.replace(ins, k=new_k)
                # copy-on-fault: the original program object may be shared
                # with a cached artifact — never mutate it in place
                filters[0] = SeccompFilter(
                    program=BPFProgram(insns), label=filt.label + "+fault"
                )
                self.fired = True
                self.detail = "JEQ@%d k %#x -> %#x" % (i, ins.k, new_k)
                return
        self.detail = "no JEQ in filter"


# ---------------------------------------------------------------------------
# The fault campaign: benign runs x mechanisms x fault specs
# ---------------------------------------------------------------------------

#: the pinned campaign matrix: every fault site at every pipeline stage
CAMPAIGN_SPECS = tuple(
    FaultSpec(site=site, stage=stage)
    for site in FAULT_SITES
    for stage in FAULT_STAGES
)

CLASSIFICATIONS = ("caught", "crashed", "missed", "masked", "not-reached")


def _benign_spec(name, sink):
    """A no-op 'attack' spec: nothing staged, oracle always false — the
    target just runs its benign workload.  ``sink`` receives the AttackEnv
    so the campaign can profile the run and install injectors."""

    def stage(env):
        sink.append(env)

    return AttackSpec(
        name=name,
        category="Fault injection",
        target="nginx",
        description="benign nginx+wrk run for the fault campaign",
        expected={},
        stage=stage,
        oracle=lambda env: False,
        extra=True,
        refs="repro.fuzz.faults",
    )


def _fault_spec(fault, sink):
    def stage(env):
        env.extra_injector = FaultInjector(fault).install(env.kernel, env.proc)
        sink.append(env)

    return AttackSpec(
        name="fault_%s_%s" % (fault.site, fault.stage),
        category="Fault injection",
        target="nginx",
        description="benign nginx+wrk run with %s" % fault.label(),
        expected={},
        stage=stage,
        oracle=lambda env: False,
        extra=True,
        refs="repro.fuzz.faults",
    )


def _profile(env, outcome):
    """Everything observable about a completed run, for masked-vs-missed."""
    kernel = env.kernel
    counts = {}
    for proc in kernel.processes.values():
        for name, value in proc.syscall_counts.items():
            counts[name] = counts.get(name, 0) + value
    return (
        outcome.status.kind,
        env.proc.kill_reason,
        tuple(sorted(counts.items())),
        kernel.net.bytes_sent,
        tuple(e.details.get("path") for e in kernel.events_of("execve")),
        env.proc.mm is not None and env.proc.mm.has_wx_region(),
    )


def _classify(injector, outcome, profile, reference):
    if not injector.fired:
        return "not-reached"
    if outcome.blocked:
        return "caught"
    if outcome.status.kind == "fault":
        return "crashed"
    if profile != reference:
        return "missed"
    return "masked"


def run_fault_campaign(mechanisms=None, specs=None):
    """The mechanism x fault-site detection matrix.

    Returns ``{"matrix": [...], "cells": {fault_label: {mechanism:
    {"class": ..., "detail": ..., "blocked_by": ...}}}}`` — deterministic,
    derived entirely from pinned benign runs.
    """
    mechanisms = tuple(mechanisms or ("undefended",) + MATRIX)
    specs = tuple(specs or CAMPAIGN_SPECS)

    references = {}
    for mechanism in mechanisms:
        sink = []
        outcome = _run_mechanism(_benign_spec("fault_reference", sink), mechanism)
        references[mechanism] = _profile(sink[0], outcome)

    cells = {}
    for fault in specs:
        row = {}
        for mechanism in mechanisms:
            sink = []
            outcome = _run_mechanism(_fault_spec(fault, sink), mechanism)
            env = sink[0]
            injector = env.extra_injector
            profile = _profile(env, outcome)
            row[mechanism] = {
                "class": _classify(
                    injector, outcome, profile, references[mechanism]
                ),
                "detail": injector.detail,
                "blocked_by": (
                    str(outcome.blocked_by)
                    if outcome.blocked_by is not None
                    else None
                ),
            }
        cells[fault.label()] = row
    return {
        "matrix": list(mechanisms),
        "sites": list(FAULT_SITES),
        "stages": list(FAULT_STAGES),
        "cells": cells,
    }
