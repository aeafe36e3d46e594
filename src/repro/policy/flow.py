"""The program graph both policy producers build, and the transition engine.

Both policy producers — the metadata-driven flowgraph pass and the
metadata-free binary analyzer — reduce their program view to one
:class:`ProgramGraph`: the functions (a flat instruction run each), the
entry point, the thread entries, the address-taken set, a callee
resolver, the direct caller edges and the indirect-callsite count.
:func:`repro.analyze.flowgraph.program_graph` builds it from module IR
plus compiler metadata, :func:`repro.analyze.binary.program_graph` from
a recovered image.  Chain counting
(:class:`repro.analyze.flowgraph.ChainCounter`),
:func:`sensitive_sites` and :func:`build_transition_graph` then run over
either.

The transition engine is one compositional interprocedural dataflow:

- per function, a CFG is rebuilt from the flat run by
  :func:`repro.ir.dataflow.build_block_graph`;
- the block state is the set of syscalls that can be the *last one
  issued* at that point (plus a bottom token for "none yet since
  function entry");
- calls compose through per-callee summaries — FIRST (the (syscall,
  origin) pairs a call can issue first), LAST (the syscalls it can issue
  last), EMPTY (whether a syscall-free path exists) — iterated to a
  global fixpoint, so recursive wrappers and mutual recursion converge
  without path enumeration;
- every discovered adjacency is recorded as ``prev -> next`` annotated
  with its *origin*: the function whose body contains the ``next``
  syscall instruction (what the ``sfip_origin`` variant checks against
  ``image.func_containing(rip)`` at dispatch time).

Soundness: states and summaries only ever grow, indirect calls fan out
to every address-taken target, and unresolvable callees are treated as
syscall-free pass-throughs — the graph over-approximates every syscall
sequence a legitimate execution can produce, so enforcing it can only
kill sequences no benign run reaches.  Precision is what the sfip
fixture (``tests/fixtures/sfip_precision.json``) pins.

Spawned children: the kernel runs clone() children from a thread entry,
and :class:`repro.mechanisms.sfip.SfipMechanism` seeds a child's state
from its parent's (which is ``clone`` at that instant) — so the engine
adds ``clone -> first(thread_entry)`` edges rather than modelling child
streams separately.
"""

from dataclasses import dataclass, field

from repro.ir.dataflow import build_block_graph
from repro.ir.instructions import Call, CallIndirect, Syscall

#: block-state token for "no syscall issued yet since function entry"
_BOT = None


@dataclass(frozen=True)
class ProgramGraph:
    """One program's call graph and code, as both policy producers see it.

    A *fid* is any hashable function identity: the symbol name for IR
    functions, the base address for recovered binary runs.
    """

    #: fid -> (symbol, instruction run); the symbol is the presentation
    #: name used for origin annotations — it must match what
    #: ``image.func_containing`` returns at runtime for origin
    #: enforcement to line up
    functions: dict
    entry: object
    #: fids a clone()d child can start at; ``None`` when the producer has
    #: no thread-entry records (a stripped binary).  The transition
    #: engine then treats every address-taken function as a potential
    #: start routine, while chain counting roots at the entry alone.
    thread_entries: tuple
    #: fids any indirect callsite may reach
    address_taken: tuple
    #: direct-call operand name -> fid, or None when unresolvable
    resolve: object
    #: callee fid -> caller fid per legitimate direct callsite
    callers: dict = field(default_factory=dict)
    #: number of legitimate indirect callsites
    indirect_sites: int = 0

    @property
    def spawn_entries(self):
        """The fids the transition engine treats as thread entries."""
        if self.thread_entries is None:
            return self.address_taken
        return self.thread_entries


def sensitive_sites(graph, wrappers, sensitive_names):
    """``{(fid, index): syscall}`` for every sensitive callsite in ``graph``.

    A sensitive callsite is a direct call (operand resolved through
    ``graph.resolve``) to a wrapper of a sensitive syscall, or a sensitive
    ``Syscall`` issued inline outside the wrappers.  ``wrappers`` maps
    wrapper fids to the syscall names they issue; a wrapper counts as its
    first sensitive one.  The analyzer passes the IR's
    :func:`~repro.ir.callgraph.wrapper_map`, the binary analyzer its
    structurally recovered wrappers — one definition, so the two levels
    cannot disagree on what a site is.
    """
    sensitive = set(sensitive_names)
    hot_wrappers = {}
    for fid, names in wrappers.items():
        hot = [name for name in names if name in sensitive]
        if hot:
            hot_wrappers[fid] = hot[0]
    sites = {}
    for fid, (_symbol, instrs) in graph.functions.items():
        if fid in wrappers:
            continue
        for index, instr in enumerate(instrs):
            if isinstance(instr, Call):
                syscall = hot_wrappers.get(graph.resolve(instr.callee))
                if syscall is not None:
                    sites[(fid, index)] = syscall
            elif isinstance(instr, Syscall) and instr.name in sensitive:
                sites[(fid, index)] = instr.name
    return sites


def _flow_blocks(instrs, resolve, indirect_targets):
    """One function's ``(blocks, direct callees, has indirect call)``.

    Each block is ``(events, successor block ids, is_exit)``; an event is
    ``("sys", name)`` or ``("call", callee fids)``.
    """
    graph = build_block_graph(instrs)
    callees = set()
    has_indirect = False
    blocks = []
    for block in graph.blocks:
        events = []
        for ins in instrs[block.start:block.end]:
            if isinstance(ins, Syscall):
                events.append(("sys", ins.name))
            elif isinstance(ins, Call):
                callee = resolve(ins.callee)
                if callee is not None:
                    callees.add(callee)
                    events.append(("call", (callee,)))
                else:
                    # unresolvable target: a syscall-free pass-through
                    events.append(("call", ()))
            elif isinstance(ins, CallIndirect):
                has_indirect = True
                events.append(("call", indirect_targets))
        blocks.append(
            (
                tuple(events),
                tuple(graph.succs[block.index]),
                block.index in graph.exits,
            )
        )
    return blocks, callees, has_indirect


@dataclass
class TransitionGraph:
    """What :func:`build_transition_graph` returns."""

    #: prev -> {next: frozenset of origin symbols}
    transitions: dict
    #: sorted syscall names appearing as a transition target (the
    #: presence set the flow engine can justify)
    nodes: tuple
    #: fids the engine found reachable from the roots
    reachable: frozenset


def build_transition_graph(program):
    """Run the interprocedural flow fixpoint over a :class:`ProgramGraph`;
    see the module docstring."""
    functions = program.functions
    entry = program.entry
    indirect_targets = tuple(t for t in program.address_taken if t in functions)
    thread_entries = tuple(t for t in program.spawn_entries if t in functions)

    def resolver(name):
        fid = program.resolve(name)
        return fid if fid in functions else None

    flows = {}

    def flow_of(fid):
        flow = flows.get(fid)
        if flow is None:
            flow = _flow_blocks(functions[fid][1], resolver, indirect_targets)
            flows[fid] = flow
        return flow

    # -- function-level reachability ------------------------------------
    reachable = set()
    queue = [entry] + list(thread_entries)
    while queue:
        fid = queue.pop()
        if fid in reachable or fid not in functions:
            continue
        reachable.add(fid)
        _blocks, callees, has_indirect = flow_of(fid)
        queue.extend(callees)
        if has_indirect:
            queue.extend(indirect_targets)

    # -- global summary fixpoint ----------------------------------------
    first = {fid: set() for fid in reachable}  # fid -> {(syscall, origin)}
    last = {fid: set() for fid in reachable}  # fid -> {syscall}
    empty = {fid: False for fid in reachable}  # syscall-free path exists?
    transitions = {}  # prev -> {next: set(origins)}

    def record(prev, nxt, origin):
        origins = transitions.setdefault(prev, {}).setdefault(nxt, set())
        if origin not in origins:
            origins.add(origin)
            return True
        return False

    def analyze(fid):
        """One per-function block fixpoint; True if anything grew."""
        symbol = functions[fid][0]
        blocks = flow_of(fid)[0]
        changed = False
        if not blocks:
            if not empty[fid]:
                empty[fid] = True
                changed = True
            return changed
        block_in = [set() for _ in blocks]
        block_in[0].add(_BOT)
        work = [0]
        while work:
            bid = work.pop()
            events, succs, is_exit = blocks[bid]
            state = set(block_in[bid])
            for event in events:
                if event[0] == "sys":
                    name = event[1]
                    for token in state:
                        if token is _BOT:
                            if (name, symbol) not in first[fid]:
                                first[fid].add((name, symbol))
                                changed = True
                        else:
                            changed |= record(token, name, symbol)
                    state = {name}
                else:
                    callees = [c for c in event[1] if c in reachable]
                    callee_first = set()
                    callee_last = set()
                    callee_empty = not callees
                    for callee in callees:
                        callee_first |= first[callee]
                        callee_last |= last[callee]
                        callee_empty |= empty[callee]
                    for name, origin in callee_first:
                        for token in state:
                            if token is _BOT:
                                if (name, origin) not in first[fid]:
                                    first[fid].add((name, origin))
                                    changed = True
                            else:
                                changed |= record(token, name, origin)
                    new_state = set(callee_last)
                    if callee_empty:
                        new_state |= state
                    state = new_state
            if is_exit:
                for token in state:
                    if token is _BOT:
                        if not empty[fid]:
                            empty[fid] = True
                            changed = True
                    elif token not in last[fid]:
                        last[fid].add(token)
                        changed = True
            for succ in succs:
                if not state <= block_in[succ]:
                    block_in[succ] |= state
                    work.append(succ)
        return changed

    ordered = sorted(reachable, key=lambda fid: functions[fid][0])
    while True:
        grew = False
        for fid in ordered:
            grew |= analyze(fid)
        if not grew:
            break

    # -- roots: the START row, and clone -> thread-entry firsts ---------
    if entry in reachable:
        from repro.policy.artifact import START

        for name, origin in first[entry]:
            record(START, name, origin)
    nodes = {nxt for nexts in transitions.values() for nxt in nexts}
    if thread_entries and "clone" in nodes:
        for te in thread_entries:
            for name, origin in first[te]:
                record("clone", name, origin)
        nodes = {nxt for nexts in transitions.values() for nxt in nexts}

    return TransitionGraph(
        transitions={
            prev: {nxt: frozenset(origins) for nxt, origins in nexts.items()}
            for prev, nexts in transitions.items()
        },
        nodes=tuple(sorted(nodes)),
        reachable=frozenset(reachable),
    )
