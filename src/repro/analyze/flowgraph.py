"""Syscall-flow precision pass (SFIP-style, §6.2 cross-check).

Builds the *syscall-flow graph*: for each sensitive syscall callsite, the
set of legitimate call chains that can reach it under the control-flow
context the compiler emitted (``valid_callers`` + ``indirect_sites`` +
``address_taken``).  From it we compute the precision metrics SFIP reports
for static syscall-flow extraction:

- **chains per syscall** — how many distinct legitimate paths from the
  program entry (or a thread entry) end at a callsite of that syscall.
  Fewer chains = a tighter control-flow context = less room for an
  attacker to mimic a legitimate stack.
- **attack surface** — ``sum(chains(site) * reachable_args(syscall))``
  over all sensitive sites: the number of (path, argument) pairs an
  attacker could try to abuse while staying within policy.

Chain counting walks caller edges backward with memoization; recursive
cycles are cut at the first repeated function on the current path (a
recursive frame adds no *new* stack shape the monitor could distinguish),
and counts saturate at :data:`CHAIN_CAP` so pathological graphs stay
finite.  Sites whose function no legitimate chain reaches are reported as
``unreachable-site`` warnings — protected code the control-flow context
says can never run is a precision loss, not a soundness hole.

:class:`ChainCounter` and :func:`flow_metrics` run over a
:class:`~repro.policy.ProgramGraph`, so the binary analyzer
(:mod:`repro.analyze.binary`) reports the same metrics over the graph it
recovers from an image.
"""

from repro.analyze.completeness import find_sensitive_sites
from repro.analyze.diagnostics import Diagnostic
from repro.policy import CompiledPolicy, ProgramGraph, build_transition_graph
from repro.syscalls import argspec_for

PASS_NAME = "flow"

#: chain counts saturate here; beyond this precision differences are noise
CHAIN_CAP = 1_000_000


def program_graph(artifact, module=None):
    """The :class:`~repro.policy.ProgramGraph` of a compiled artifact.

    Functions come from the module IR (``module`` overrides the
    artifact's own build, see :func:`compile_policy`); the entry, thread
    entries, address-taken set, caller edges (``valid_callers``) and
    indirect callsites come from the compiler metadata.
    """
    module = module if module is not None else artifact.module
    metadata = artifact.metadata
    functions = {
        name: (name, tuple(fn.body)) for name, fn in module.functions.items()
    }
    return ProgramGraph(
        functions=functions,
        entry=metadata.entry,
        thread_entries=tuple(metadata.thread_entries),
        address_taken=tuple(metadata.address_taken),
        resolve=lambda name: name if name in functions else None,
        callers={
            callee: tuple(site.func for site in sites)
            for callee, sites in metadata.valid_callers.items()
        },
        indirect_sites=len(metadata.indirect_sites),
    )


class ChainCounter:
    """Memoized backward chain counter over a program graph's caller edges."""

    def __init__(self, graph):
        self.graph = graph
        self.roots = {graph.entry} | set(graph.thread_entries or ())
        self.address_taken = set(graph.address_taken)
        self._memo = {}

    def chains_to(self, fid):
        """Number of legitimate call chains from a root to ``fid``."""
        return self._count(fid, ())

    def _count(self, fid, path):
        if fid in path:
            return 0  # recursion: cut the cycle
        memoized = self._memo.get(fid)
        if memoized is not None:
            return memoized
        total = 1 if fid in self.roots else 0
        path = path + (fid,)
        for caller in self.graph.callers.get(fid, ()):
            total += self._count(caller, path)
            if total >= CHAIN_CAP:
                total = CHAIN_CAP
                break
        if total < CHAIN_CAP and fid in self.address_taken:
            # §6.2: a partial stack ending at a legitimate indirect callsite
            # is valid when the callee there is address-taken — each indirect
            # callsite is therefore a chain terminus of its own.
            total = min(CHAIN_CAP, total + self.graph.indirect_sites)
        self._memo[fid] = total
        return total


def reachable_args(syscall):
    """Argument positions the monitor verifies for ``syscall``."""
    return len(argspec_for(syscall).kinds)


def flow_metrics(graph, sites):
    """Chains / attack-surface statistics over either producer's graph.

    ``sites`` maps ``(fid, position)`` to the sensitive syscall issued
    there.  Returns ``(metrics, unreachable)``: the metrics dict and the
    sorted ``((fid, position), syscall)`` sites no chain reaches.
    """
    counter = ChainCounter(graph)
    unreachable = []
    per_syscall = {}
    total_chains = 0
    attack_surface = 0
    for site, syscall in sorted(sites.items()):
        chains = counter.chains_to(site[0])
        if chains == 0:
            unreachable.append((site, syscall))
        args = reachable_args(syscall)
        entry = per_syscall.setdefault(
            syscall, {"sites": 0, "chains": 0, "args": args, "surface": 0}
        )
        entry["sites"] += 1
        entry["chains"] = min(CHAIN_CAP, entry["chains"] + chains)
        entry["surface"] = min(CHAIN_CAP, entry["surface"] + chains * args)
        total_chains = min(CHAIN_CAP, total_chains + chains)
        attack_surface = min(CHAIN_CAP, attack_surface + chains * args)

    metrics = {
        "sensitive_sites": len(sites),
        "chains": total_chains,
        "attack_surface": attack_surface,
        "per_syscall": {name: dict(v) for name, v in sorted(per_syscall.items())},
    }
    return metrics, unreachable


def analyze_flow(artifact):
    """Compute syscall-flow precision metrics for a compiled artifact.

    Returns ``(diagnostics, metrics)``.
    """
    sites = find_sensitive_sites(artifact.module, artifact.metadata.sensitive_set)
    metrics, unreachable = flow_metrics(program_graph(artifact), sites)
    diagnostics = [
        Diagnostic(
            PASS_NAME,
            "unreachable-site",
            "warning",
            "no legitimate call chain reaches this %s callsite under "
            "the emitted control-flow context" % syscall,
            func=func_name,
            index=index,
            syscall=syscall,
        )
        for (func_name, index), syscall in unreachable
    ]
    return diagnostics, metrics


def compile_policy(artifact, module=None):
    """Compile a :class:`~repro.policy.CompiledPolicy` from the metadata.

    The *flowgraph producer*: runs the shared transition-flow engine
    (:mod:`repro.policy.flow`) over the module IR, rooted at the
    metadata's entry point and thread entries, with the metadata's
    address-taken set as the indirect fan-out.  Pass ``module`` to
    analyze a different build of the same program (the ``sfip``
    mechanisms run the *vanilla* module — function names and call
    structure are identical across instrumentation, so the policy is
    interchangeable; the zero-false-kill tests pin that).
    """
    metadata = artifact.metadata
    graph = program_graph(artifact, module)
    flow = build_transition_graph(graph)
    call_kinds = {
        syscall: tuple(k for k in ("direct", "indirect") if entry.get(k))
        for syscall, entry in sorted(metadata.call_types.items())
        if any(entry.get(k) for k in ("direct", "indirect"))
    }
    return CompiledPolicy(
        producer="flowgraph",
        program=metadata.program,
        entry=metadata.entry,
        presence=flow.nodes,
        call_kinds=call_kinds,
        transitions=flow.transitions,
        provenance={
            "source": "compiler-metadata",
            "functions": len(graph.functions),
            "reachable_functions": len(flow.reachable),
            "indirect_targets": len(metadata.address_taken),
            "thread_entries": sorted(metadata.thread_entries),
        },
    )
