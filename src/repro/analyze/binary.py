"""Binary-level static analysis over a loaded image (B-Side style).

Everything in this module consumes only what a stripped binary ships: the
text segment :class:`repro.vm.loader.Image` lays out — code addresses,
decodable instructions, and the relocated targets call/funcaddr operands
carry.  It never touches ``module.metadata``, compiler provenance, or the
builder's ``is_wrapper`` hints.  Four recovery passes:

1. **Function partition** (code scanning).  A linear sweep decodes every
   text address; inter-function alignment padding faults on fetch (the
   image's DEP/NX behavior), so maximal decodable runs bound the
   partition, and every address referenced as a direct-call or
   address-taken target (plus the program entry) refines it.  Two
   adjacent functions whose padding gap vanishes *and* whose boundary is
   never referenced may merge — a classic binary-analysis coarsening
   that only ever widens the recovered tables (soundness is preserved;
   precision is what the report measures).
2. **Wrapper partition**.  Purely structural: a recovered function whose
   run starts with a ``Syscall`` and is stub-sized is a syscall wrapper
   (:func:`repro.ir.callgraph.is_structural_wrapper`).
3. **Call types + reachable syscall set**.  A fixpoint reachability walk
   from the entry point: taking a function's address is itself an act of
   *reachable* code, so address-taken targets join the root set only
   once some reachable function takes them — and every address-taken
   function is assumed indirectly callable from any indirect callsite
   (the sound over-approximation for indirect flow).  Call types are
   then derived exactly like the IR pass, but restricted to reachable
   code: statically present *dead* surface (libc's never-called
   ``system()`` and every unused wrapper) drops out of the tables.
4. **Flow graph**.  :func:`program_graph` turns the recovery into the
   same :class:`~repro.policy.ProgramGraph` the metadata pass builds, so
   the one chain counter and flow-metrics function of
   :mod:`repro.analyze.flowgraph` yield comparable chains /
   attack-surface numbers for the recovered control-flow context, and
   the one transition engine compiles the binary-produced policy.

The recovered tables are *load-bearing*: the ``binary_only`` mechanism
(:mod:`repro.mechanisms.binary`) synthesizes its seccomp allowlist and
call-type checks from a :class:`BinaryRecovery`, and
:func:`binary_precision` diffs recovery against the compiler metadata per
app (the ``analysis-precision`` CI gate pins that payload).
"""

import bisect
from dataclasses import dataclass

from repro.analyze.diagnostics import Diagnostic
from repro.errors import ExecutionFault
from repro.ir.callgraph import (
    is_structural_wrapper,
    wrapped_syscalls,
    wrapper_map,
)
from repro.ir.instructions import Call, CallIndirect, FuncAddr, Syscall
from repro.policy import CompiledPolicy, ProgramGraph, build_transition_graph
from repro.syscalls.sensitive import SENSITIVE_SYSCALLS
from repro.vm.loader import INSTR_STRIDE, TEXT_BASE, Image

PASS_NAME = "binary"
_KINDS = ("direct", "indirect")


@dataclass(frozen=True)
class RecoveredFunction:
    """One function recovered by the code scan, identified by address."""

    base: int
    instrs: tuple

    @property
    def end(self):
        """First address past the recovered run."""
        return self.base + len(self.instrs) * INSTR_STRIDE

    def contains(self, addr):
        return self.base <= addr < self.end


@dataclass
class BinaryRecovery:
    """Everything the binary-level passes recovered from one image."""

    image: object
    entry: int
    #: base address -> :class:`RecoveredFunction` (the partition)
    functions: dict
    #: wrapper base -> wrapped syscall names (structural detection only)
    wrappers: dict
    #: callee base -> [(caller base, callsite addr), ...] (whole image)
    direct_callers: dict
    #: callsite addresses of every CallIndirect (whole image)
    indirect_sites: tuple
    #: function base -> address-taken target bases (whole image)
    funcaddr_targets: dict
    #: bases reachable from the entry under the fixpoint walk
    reachable: set
    #: bases whose address reachable code takes (the indirect root set)
    address_taken: set
    #: presence-based tables (what a filter synthesized from *statically
    #: present* code admits — comparable to the IR re-derivation)
    present_syscalls: set
    present_call_types: dict
    #: reachability-tightened tables (what the binary_only mechanism
    #: actually enforces)
    reachable_syscalls: set
    call_types: dict

    # -- runtime lookups (the binary_only mechanism's hot path) ---------

    def function_at(self, addr):
        """Base of the recovered function containing ``addr`` (or None)."""
        bases = self._sorted_bases
        pos = bisect.bisect_right(bases, addr) - 1
        if pos < 0:
            return None
        base = bases[pos]
        if self.functions[base].contains(addr):
            return base
        return None

    def wrapper_at(self, addr):
        """Wrapped syscall names when ``addr`` sits in a recovered
        wrapper, else None."""
        base = self.function_at(addr)
        if base is None:
            return None
        return self.wrappers.get(base)

    @property
    def _sorted_bases(self):
        bases = getattr(self, "_bases_cache", None)
        if bases is None:
            bases = sorted(self.functions)
            self._bases_cache = bases
        return bases

    def symbolize(self, base):
        """Presentation-only symbol for a recovered base (``sub_<hex>``
        when the image carries no covering symbol)."""
        name = self.image.func_containing(base)
        return name if name is not None else "sub_%x" % base


# ---------------------------------------------------------------------------
# pass 1: code scan + function partition
# ---------------------------------------------------------------------------


def _scan_text(image):
    """Linear sweep: ``{addr: instruction}`` for every decodable address."""
    code = {}
    addr = TEXT_BASE
    while addr < image.text_end:
        try:
            code[addr] = image.instruction_at(addr)
        except ExecutionFault:
            pass  # alignment padding between functions
        addr += INSTR_STRIDE
    return code


def _resolve_target(image, name):
    """A call/funcaddr operand is a relocated immediate: resolve it the
    way the loader's relocation records do (no metadata involved)."""
    return image.func_base.get(name)


def _partition(image, code):
    """Split the decodable runs into functions.

    Starts = run boundaries (an address whose predecessor is padding)
    plus every referenced target: the program entry, direct-call targets,
    and address-taken targets.
    """
    starts = {image.entry_addr}
    for addr in code:
        if addr - INSTR_STRIDE not in code:
            starts.add(addr)
    for instr in code.values():
        if isinstance(instr, Call):
            target = _resolve_target(image, instr.callee)
        elif isinstance(instr, FuncAddr):
            target = _resolve_target(image, instr.func)
        else:
            continue
        if target is not None:
            starts.add(target)

    ordered = sorted(starts)
    functions = {}
    for i, base in enumerate(ordered):
        stop = ordered[i + 1] if i + 1 < len(ordered) else None
        instrs = []
        addr = base
        while addr in code and (stop is None or addr < stop):
            instrs.append(code[addr])
            addr += INSTR_STRIDE
        if instrs:
            functions[base] = RecoveredFunction(base=base, instrs=tuple(instrs))
    return functions


# ---------------------------------------------------------------------------
# passes 2+3: wrappers, call graph, fixpoint reachability, call types
# ---------------------------------------------------------------------------


def recover_image(image):
    """Run all four recovery passes; returns a :class:`BinaryRecovery`."""
    code = _scan_text(image)
    functions = _partition(image, code)

    wrappers = {}
    for base, func in functions.items():
        if is_structural_wrapper(func.instrs):
            names = wrapped_syscalls(func.instrs)
            if names:
                wrappers[base] = names

    direct_callers = {}  # callee base -> [(caller base, site addr)]
    direct_targets = {}  # caller base -> set of callee bases
    funcaddr_targets = {}  # holder base -> set of taken bases
    indirect_sites = []
    inline_sites = {}  # (holder base, site addr) -> syscall name
    syscalls_in = {}  # holder base -> [syscall names]
    for base, func in functions.items():
        addr = base
        for instr in func.instrs:
            if isinstance(instr, Call):
                target = _resolve_target(image, instr.callee)
                if target is not None:
                    direct_targets.setdefault(base, set()).add(target)
                    direct_callers.setdefault(target, []).append((base, addr))
            elif isinstance(instr, FuncAddr):
                target = _resolve_target(image, instr.func)
                if target is not None:
                    funcaddr_targets.setdefault(base, set()).add(target)
            elif isinstance(instr, CallIndirect):
                indirect_sites.append(addr)
            elif isinstance(instr, Syscall):
                syscalls_in.setdefault(base, []).append(instr.name)
                if base not in wrappers:
                    inline_sites[(base, addr)] = instr.name
            addr += INSTR_STRIDE

    # fixpoint reachability: address-taken roots join only once reachable
    # code takes the address (taking an address is an act of execution).
    reachable = set()
    address_taken = set()
    queue = [image.entry_addr]
    while queue:
        base = queue.pop()
        if base in reachable:
            continue
        reachable.add(base)
        queue.extend(direct_targets.get(base, ()))
        for target in funcaddr_targets.get(base, ()):
            if target not in address_taken:
                address_taken.add(target)
                queue.append(target)

    present_address_taken = set()
    for targets in funcaddr_targets.values():
        present_address_taken.update(targets)

    def _mark(table, syscall, kind):
        entry = table.setdefault(
            syscall, {"direct": False, "indirect": False}
        )
        entry[kind] = True

    present_call_types = {}
    call_types = {}
    for base, names in wrappers.items():
        callers = direct_callers.get(base, ())
        if callers:
            for name in names:
                _mark(present_call_types, name, "direct")
        if any(caller in reachable for caller, _site in callers):
            for name in names:
                _mark(call_types, name, "direct")
        if base in present_address_taken:
            for name in names:
                _mark(present_call_types, name, "indirect")
        if base in address_taken:
            for name in names:
                _mark(call_types, name, "indirect")
    for (holder, _site), name in inline_sites.items():
        _mark(present_call_types, name, "direct")
        if holder in reachable:
            _mark(call_types, name, "direct")

    present_syscalls = set()
    reachable_syscalls = set()
    for base, names in syscalls_in.items():
        present_syscalls.update(names)
        if base in reachable:
            reachable_syscalls.update(names)

    return BinaryRecovery(
        image=image,
        entry=image.entry_addr,
        functions=functions,
        wrappers=wrappers,
        direct_callers=direct_callers,
        indirect_sites=tuple(indirect_sites),
        funcaddr_targets=funcaddr_targets,
        reachable=reachable,
        address_taken=address_taken,
        present_syscalls=present_syscalls,
        present_call_types=present_call_types,
        reachable_syscalls=reachable_syscalls,
        call_types=call_types,
    )


# ---------------------------------------------------------------------------
# the binary policy producer
# ---------------------------------------------------------------------------


def program_graph(recovery):
    """The :class:`~repro.policy.ProgramGraph` of a recovered image.

    Functions are the recovered runs keyed by base address, symbolized
    for origin annotations.  A stripped binary records no thread
    entries, so ``thread_entries`` is None.  Only reachable code counts
    as a legitimate caller or indirect callsite.
    """
    image = recovery.image
    reachable = recovery.reachable
    return ProgramGraph(
        functions={
            base: (recovery.symbolize(base), func.instrs)
            for base, func in recovery.functions.items()
        },
        entry=recovery.entry,
        thread_entries=None,
        address_taken=tuple(sorted(recovery.address_taken)),
        resolve=lambda name: _resolve_target(image, name),
        callers={
            callee: tuple(caller for caller, _site in sites if caller in reachable)
            for callee, sites in recovery.direct_callers.items()
        },
        indirect_sites=sum(
            1
            for site in recovery.indirect_sites
            if recovery.function_at(site) in reachable
        ),
    )


def compile_policy(recovery, program=None):
    """Compile a :class:`~repro.policy.CompiledPolicy` from recovery alone.

    The *binary producer*: the same transition-flow engine the metadata
    pass runs (:mod:`repro.policy.flow`), over recovered instruction runs
    instead of IR functions.  Differences forced by the missing metadata:

    - fids are recovered base addresses; origins are ``symbolize``d;
    - no thread-entry records exist, so every address-taken function is
      conservatively treated as a potential clone() start routine;
    - presence and call kinds come from the reachability passes verbatim
      (``reachable_syscalls`` / ``call_types``) — exactly the tables the
      ``binary_only`` mechanism has always enforced, now carried by the
      artifact instead of reached into.
    """
    flow = build_transition_graph(program_graph(recovery))
    return CompiledPolicy(
        producer="binary",
        program=program if program is not None else recovery.image.module.name,
        entry=recovery.symbolize(recovery.entry),
        presence=tuple(sorted(recovery.reachable_syscalls)),
        call_kinds={
            syscall: tuple(kinds)
            for syscall, kinds in _table_as_lists(recovery.call_types).items()
        },
        transitions=flow.transitions,
        provenance={
            "source": "binary-recovery",
            "functions": len(recovery.functions),
            "reachable_functions": len(flow.reachable),
            "indirect_targets": len(recovery.address_taken),
            "thread_entries": "address-taken (conservative)",
        },
    )


_policy_cache = {}


def policy_for_image(module):
    """Compile (and cache) the binary-produced policy for a module."""
    key = id(module)
    cached = _policy_cache.get(key)
    if cached is None or cached[0] is not module:
        recovery = recover_image_for(module)
        cached = (module, compile_policy(recovery))
        _policy_cache[key] = cached
    return cached[1]


# ---------------------------------------------------------------------------
# pass 4: recovered flow graph (chains / attack surface)
# ---------------------------------------------------------------------------


def recovered_flow_metrics(recovery):
    """Chains / attack-surface statistics over the recovered flow graph,
    shaped like the metadata-driven flow pass's metrics."""
    from repro.analyze.flowgraph import flow_metrics

    sensitive = set(SENSITIVE_SYSCALLS)
    hot_wrappers = {
        base: [s for s in names if s in sensitive][0]
        for base, names in recovery.wrappers.items()
        if any(s in sensitive for s in names)
    }

    sites = {}  # (holder base, site addr) -> syscall
    for base, func in recovery.functions.items():
        if base in recovery.wrappers or base not in recovery.reachable:
            continue
        addr = base
        for instr in func.instrs:
            if isinstance(instr, Call):
                target = _resolve_target(recovery.image, instr.callee)
                if target in hot_wrappers:
                    sites[(base, addr)] = hot_wrappers[target]
            elif isinstance(instr, Syscall) and instr.name in sensitive:
                sites[(base, addr)] = instr.name
            addr += INSTR_STRIDE
    return flow_metrics(program_graph(recovery), sites)[0]


# ---------------------------------------------------------------------------
# audit: recovered tables vs compiler metadata
# ---------------------------------------------------------------------------


def _dead_justifier(recovery, syscall, kind):
    """Symbol of an *unreachable* function that justifies the metadata's
    claim — the evidence the diagnostic anchors to (e.g. ``system``)."""
    candidates = set()
    for base, names in recovery.wrappers.items():
        if syscall not in names:
            continue
        if kind == "direct":
            for caller, _site in recovery.direct_callers.get(base, ()):
                if caller not in recovery.reachable:
                    candidates.add(recovery.symbolize(caller))
        else:
            for holder, targets in recovery.funcaddr_targets.items():
                if base in targets and holder not in recovery.reachable:
                    candidates.add(recovery.symbolize(holder))
    if kind == "direct":
        # inline sites: a dead non-wrapper function issuing the syscall
        for base, func in recovery.functions.items():
            if base in recovery.wrappers or base in recovery.reachable:
                continue
            if syscall in wrapped_syscalls(func.instrs):
                candidates.add(recovery.symbolize(base))
    return min(candidates) if candidates else None


def audit_binary(artifact):
    """Diff binary recovery against the compiler metadata.

    Returns ``(diagnostics, metrics)`` in the pass-suite currency.  Three
    failure directions:

    - ``over-permissive`` (error): the metadata allows a call type not
      even *statically present* code can produce — the same gap the IR
      call-type audit hunts, confirmed here without reading the IR.
    - ``missing-call-type`` (error): the binary can produce a call type
      the metadata forbids; the monitor would kill a legitimate run.
    - ``unreachable-call-type`` (error): the metadata's claim is
      justified *only* by provably-unreachable code.  The IR-level
      passes cannot flag this — the call edge genuinely exists — so the
      recovered tables are strictly tighter.  Shipped apps hit this on
      libc's deliberately-dead ``system()`` surface (waived, see
      :mod:`repro.analyze.waivers`).
    """
    recovery = recover_image_for(artifact.module)
    published = artifact.metadata.call_types
    diagnostics = []

    every = sorted(
        set(published)
        | set(recovery.present_call_types)
        | set(recovery.call_types)
    )
    for syscall in every:
        have = published.get(syscall, {})
        present = recovery.present_call_types.get(
            syscall, {"direct": False, "indirect": False}
        )
        tight = recovery.call_types.get(
            syscall, {"direct": False, "indirect": False}
        )
        for kind in _KINDS:
            if have.get(kind) and not present[kind]:
                diagnostics.append(
                    Diagnostic(
                        PASS_NAME,
                        "over-permissive",
                        "error",
                        "metadata classifies %s as %sly-callable but no "
                        "recovered code construct can issue it that way"
                        % (syscall, kind),
                        syscall=syscall,
                    )
                )
            elif present[kind] and not have.get(kind):
                diagnostics.append(
                    Diagnostic(
                        PASS_NAME,
                        "missing-call-type",
                        "error",
                        "the binary can issue %s %sly but the metadata "
                        "would have the monitor kill it" % (syscall, kind),
                        syscall=syscall,
                    )
                )
            elif have.get(kind) and present[kind] and not tight[kind]:
                diagnostics.append(
                    Diagnostic(
                        PASS_NAME,
                        "unreachable-call-type",
                        "error",
                        "metadata allows %s %sly but every justifying "
                        "construct is unreachable from the entry point — "
                        "the recovered policy drops it" % (syscall, kind),
                        func=_dead_justifier(recovery, syscall, kind),
                        syscall=syscall,
                    )
                )

    metrics = _precision_metrics(recovery, artifact)
    return diagnostics, metrics


# ---------------------------------------------------------------------------
# precision report
# ---------------------------------------------------------------------------

_recovery_cache = {}


def recover_image_for(module):
    """Recover (and cache) the binary tables for a module's image."""
    key = id(module)
    cached = _recovery_cache.get(key)
    if cached is None or cached.image.module is not module:
        cached = recover_image(Image(module))
        _recovery_cache[key] = cached
    return cached


def _kind_list(entry):
    return [k for k in _KINDS if entry.get(k)]


def _table_as_lists(table):
    return {
        syscall: _kind_list(entry)
        for syscall, entry in sorted(table.items())
        if _kind_list(entry)
    }


def _precision_metrics(recovery, artifact):
    """The per-app recovered-vs-metadata payload (byte-stable under
    ``json.dumps(..., sort_keys=True)``: plain dicts/lists/ints only)."""
    module = artifact.module
    metadata = artifact.metadata
    image = recovery.image

    recovered_types = _table_as_lists(recovery.call_types)
    metadata_types = _table_as_lists(metadata.call_types)
    tightened_types = {}
    matches = 0
    for syscall in sorted(set(metadata_types) | set(recovered_types)):
        meta_kinds = set(metadata_types.get(syscall, ()))
        tight_kinds = set(recovered_types.get(syscall, ()))
        matches += len(meta_kinds & tight_kinds)
        dropped = sorted(meta_kinds - tight_kinds)
        if dropped:
            tightened_types[syscall] = dropped

    aligned = sum(
        1 for base in recovery.functions if base in image.func_base.values()
    )
    return {
        "functions": {
            "symbols": len(module.functions),
            "recovered": len(recovery.functions),
            "aligned": aligned,
            "reachable": len(recovery.reachable),
            "wrappers_recovered": len(recovery.wrappers),
            "wrappers_ir": len(wrapper_map(module)),
        },
        "syscalls": {
            "present": len(recovery.present_syscalls),
            "reachable": sorted(recovery.reachable_syscalls),
            "tightened": sorted(
                recovery.present_syscalls - recovery.reachable_syscalls
            ),
        },
        "call_types": {
            "recovered": recovered_types,
            "metadata": metadata_types,
            "tightened": tightened_types,
            "matching_kinds": matches,
        },
        "flow": {
            "binary": {
                key: value
                for key, value in recovered_flow_metrics(recovery).items()
                if key != "per_syscall"
            },
        },
    }


def binary_report(app):
    """Analyze one registered app: ``(diagnostics, precision_payload)``.

    Compiles the app with the BASTION pipeline (the metadata side of the
    diff), recovers tables from the *instrumented* image the metadata
    describes, and attaches the metadata-driven flow metrics so the
    precision table can compare both flow graphs.
    """
    from repro.analyze.flowgraph import analyze_flow
    from repro.apps import build_app_module
    from repro.compiler.pipeline import BastionCompiler

    artifact = BastionCompiler().compile(build_app_module(app))
    diagnostics, metrics = audit_binary(artifact)
    _flow_diags, flow_metrics = analyze_flow(artifact)
    metrics["flow"]["metadata"] = {
        key: value
        for key, value in flow_metrics.items()
        if key != "per_syscall"
    }
    metrics["program"] = artifact.metadata.program
    return diagnostics, metrics


def precision_payload_json(payload):
    """The canonical byte-stable serialization of an ``{app: metrics}``
    payload — what ``--json`` prints, ``--write`` pins, and the CI gate
    diffs.  Plain dicts/lists/ints/strings only, fully sorted."""
    import json

    return json.dumps(payload, indent=2, sort_keys=True)


def check_precision_regressions(baseline, current):
    """Directional regression check for the ``analysis-precision`` gate.

    Returns a list of human-readable regression descriptions (empty =
    pass).  Two directions fail, matching the soundness/precision split:

    - a syscall in the current *reachable* set the baseline excluded —
      the recovered filter got looser (a new false syscall admitted);
    - a (syscall, kind) in the baseline's *recovered* call-type table
      missing from the current one — a legitimate call type was lost
      (the mechanism would kill a benign execution the baseline allowed).
    """
    regressions = []
    for app in sorted(baseline):
        if app not in current:
            regressions.append("%s: app missing from current payload" % app)
            continue
        base = baseline[app]
        cur = current[app]
        base_reach = set(base["syscalls"]["reachable"])
        cur_reach = set(cur["syscalls"]["reachable"])
        for syscall in sorted(cur_reach - base_reach):
            regressions.append(
                "%s: recovered allowlist admits %s (baseline excluded it)"
                % (app, syscall)
            )
        base_types = base["call_types"]["recovered"]
        cur_types = cur["call_types"]["recovered"]
        for syscall in sorted(base_types):
            for kind in base_types[syscall]:
                if kind not in cur_types.get(syscall, ()):
                    regressions.append(
                        "%s: legitimate call type %s/%s lost from the "
                        "recovered table" % (app, syscall, kind)
                    )
    return regressions
