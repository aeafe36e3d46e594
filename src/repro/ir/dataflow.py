"""Dataflow utilities over the flat-list IR.

The IR keeps each function as a flat instruction list with labels and
branches, which is convenient for the interpreter but awkward for static
analysis.  This module recovers the classical structures the analysis
passes (:mod:`repro.analyze`) and the validator need:

- :func:`build_block_graph` — basic blocks plus predecessor/successor edges;
- :func:`dominators` — per-block dominator sets (iterative fixpoint);
- :func:`def_use_chains` — per-variable definition and use positions;
- :func:`definitely_assigned` — forward "definitely assigned on every path"
  analysis, used to flag uses of virtual registers that some path reaches
  before any definition.

Locals are memory-backed in the VM, so a variable whose address is taken
(:class:`~repro.ir.instructions.AddrLocal`) can legitimately be initialized
through memory; the definite-assignment analysis treats such variables as
assigned from function entry, exactly like parameters.
"""

from dataclasses import dataclass, field

from repro.ir.instructions import AddrLocal, Branch, Jump, Label, Ret, Var


@dataclass
class Block:
    """One basic block: instruction indices ``[start, end)`` of the body."""

    index: int  # block number, in body order
    start: int
    end: int

    def __contains__(self, instr_index):
        return self.start <= instr_index < self.end


@dataclass
class BlockGraph:
    """Basic blocks of one function plus the edges between them."""

    func: object  # the Function, or the bare instruction run, split here
    blocks: list = field(default_factory=list)
    succs: dict = field(default_factory=dict)  # block index -> [block index]
    preds: dict = field(default_factory=dict)  # block index -> [block index]
    #: blocks control can leave the function from (see build_block_graph)
    exits: set = field(default_factory=set)

    def block_of(self, instr_index):
        """The :class:`Block` containing body position ``instr_index``."""
        for block in self.blocks:
            if instr_index in block:
                return block
        raise IndexError("no block contains index %d" % instr_index)

    def entry(self):
        return self.blocks[0]

    def reachable(self):
        """Block indices reachable from the entry block."""
        seen = set()
        stack = [0] if self.blocks else []
        while stack:
            idx = stack.pop()
            if idx in seen:
                continue
            seen.add(idx)
            stack.extend(self.succs.get(idx, ()))
        return seen


def build_block_graph(code):
    """Split a function body into basic blocks and connect them.

    ``code`` is a :class:`~repro.ir.function.Function` or a bare
    instruction sequence (a run recovered from a binary image).  Leaders
    are: position 0, every :class:`Label`, and every instruction following
    a terminator.  A block falls through to the next one unless it ends in
    an unconditional transfer (``Jump``/``Ret``).

    ``exits`` collects the blocks control can leave the function from: a
    ``Ret``, falling off the end of the run, or a jump to a label the run
    does not contain.  A label that appears more than once makes every
    copy a successor.  Validated IR has neither missing nor repeated
    labels; recovered runs can have both.
    """
    body = getattr(code, "body", code)
    graph = BlockGraph(code)
    if not body:
        return graph

    leaders = {0}
    for idx, instr in enumerate(body):
        if isinstance(instr, Label):
            leaders.add(idx)
        if getattr(instr, "is_terminator", False) and idx + 1 < len(body):
            leaders.add(idx + 1)
    starts = sorted(leaders)
    label_blocks = {}  # label name -> [block index of each copy]
    for bi, start in enumerate(starts):
        end = starts[bi + 1] if bi + 1 < len(starts) else len(body)
        graph.blocks.append(Block(bi, start, end))
        if isinstance(body[start], Label):
            label_blocks.setdefault(body[start].name, []).append(bi)

    for block in graph.blocks:
        last = body[block.end - 1]
        targets = []
        if isinstance(last, Jump):
            labels = (last.label,)
        elif isinstance(last, Branch):
            labels = (last.then_label, last.else_label)
        else:
            labels = ()
        for name in labels:
            copies = label_blocks.get(name)
            if copies:
                targets.extend(copies)
            else:
                graph.exits.add(block.index)
        if isinstance(last, Ret):
            graph.exits.add(block.index)
        elif not getattr(last, "is_terminator", False):
            if block.index + 1 < len(graph.blocks):
                targets.append(block.index + 1)
            else:
                graph.exits.add(block.index)
        graph.succs[block.index] = targets
        for t in targets:
            graph.preds.setdefault(t, []).append(block.index)
    for block in graph.blocks:
        graph.preds.setdefault(block.index, [])
    return graph


def dominators(graph):
    """Per-block dominator sets: ``{block index: {dominating block indices}}``.

    Standard iterative dataflow; unreachable blocks dominate nothing and are
    reported as dominated only by themselves.
    """
    n = len(graph.blocks)
    if n == 0:
        return {}
    reachable = graph.reachable()
    all_blocks = set(range(n))
    dom = {0: {0}}
    for i in range(1, n):
        dom[i] = set(all_blocks) if i in reachable else {i}
    changed = True
    while changed:
        changed = False
        for i in range(1, n):
            if i not in reachable:
                continue
            preds = [p for p in graph.preds.get(i, ()) if p in reachable]
            if not preds:
                new = {i}
            else:
                new = set.intersection(*(dom[p] for p in preds)) | {i}
            if new != dom[i]:
                dom[i] = new
                changed = True
    return dom


def def_use_chains(func):
    """``(defs, uses)``: variable name -> sorted body positions.

    ``defs`` records every position whose instruction defines the variable;
    ``uses`` every position reading it as an operand.
    """
    defs, uses = {}, {}
    for idx, instr in enumerate(func.body):
        for name in instr.defs():
            if name is not None:
                defs.setdefault(name, []).append(idx)
        for op in instr.uses():
            if isinstance(op, Var):
                uses.setdefault(op.name, []).append(idx)
    return defs, uses


@dataclass(frozen=True)
class UnassignedUse:
    """One use of a virtual register that some path reaches undefined."""

    func: str
    block: int
    index: int
    var: str

    def __str__(self):
        return "%s[%d] (block %d): %%%s used before any definition" % (
            self.func,
            self.index,
            self.block,
            self.var,
        )


def definitely_assigned(func, graph=None):
    """Uses of virtual registers not defined on every path from entry.

    Parameters and address-taken locals (which may be initialized through
    memory — they are real frame slots) count as assigned at entry.  Only
    reachable blocks are checked.  Returns a list of :class:`UnassignedUse`.
    """
    graph = graph or build_block_graph(func)
    if not graph.blocks:
        return []

    entry_assigned = set(func.params)
    for instr in func.body:
        if isinstance(instr, AddrLocal):
            entry_assigned.add(instr.var)

    body = func.body
    reachable = graph.reachable()

    def transfer(assigned, block, record=None):
        out = set(assigned)
        for idx in range(block.start, block.end):
            instr = body[idx]
            if record is not None:
                for op in instr.uses():
                    if isinstance(op, Var) and op.name not in out:
                        record.append(
                            UnassignedUse(func.name, block.index, idx, op.name)
                        )
            for name in instr.defs():
                if name is not None:
                    out.add(name)
        return out

    every = {name for instr in body for name in instr.defs() if name is not None}
    every |= entry_assigned
    in_sets = {
        b.index: (set(entry_assigned) if b.index == 0 else set(every))
        for b in graph.blocks
    }
    out_sets = {}
    changed = True
    while changed:
        changed = False
        for block in graph.blocks:
            if block.index not in reachable:
                continue
            preds = [p for p in graph.preds.get(block.index, ()) if p in reachable]
            if block.index == 0:
                # the virtual function-start edge carries only entry_assigned,
                # so the meet is entry_assigned even when entry is a loop head
                new_in = set(entry_assigned)
            elif preds:
                new_in = set.intersection(*(out_sets.get(p, every) for p in preds))
            else:
                new_in = set(entry_assigned)
            new_out = transfer(new_in, block)
            if new_in != in_sets[block.index] or new_out != out_sets.get(block.index):
                in_sets[block.index] = new_in
                out_sets[block.index] = new_out
                changed = True

    violations = []
    for block in graph.blocks:
        if block.index not in reachable:
            continue
        transfer(in_sets[block.index], block, record=violations)
    return violations
