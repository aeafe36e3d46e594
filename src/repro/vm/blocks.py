"""Compiled basic blocks: the interpreter's wall-clock fast path.

``CPU._step`` is the reference interpreter: it decodes one instruction per
call.  This module turns each straight-line run of a function, from any
index where execution can resume through the first jump, branch, call,
ret, syscall or block-ending intrinsic, into one generated Python
function.  Frame-slot offsets, immediates, jump targets, callee frame
sizes, global addresses and cycle charges are baked into its source, so
a block pays no decoding, one ledger update and one set of loop checks
for all its instructions.
An indirect call looks its callee's frame size and arity up in the
image's code maps (``CPU._callees``) keyed by the target address.

**Sharing.**  A block takes ``(cpu, words, ledger, by_category, stats,
fp)`` as arguments and captures nothing: it has no closure cells, and its
globals are one module-level dict of helpers.  One compiled block serves
every CPU and every run of the same code, and adds no reference cycle to
a run.  :func:`function_code` memoizes a function's blocks by all
that the source bakes in: the body object and its ``version``, the image
layout (function bases, global addresses, every function's frame size
and arity, struct layouts), the ``CostModel`` and the CET/DFI/LLVM-CFI
flags.  Identical block source compiles once.  The lookups that lead a
CPU to a block, from a code address to its function's blocks, from an
indirect-call target to its callee's frame, from a return address to the
caller's destination slot, are :class:`CodeMaps` kept per image and
context (:func:`code_maps`), so every CPU and run on one loaded image
fills them once.

**Intrinsics.**  A ``cycle_burn`` of a constant amount, a
``ctx_write_mem`` of a constant size and every ``ctx_bind_*`` continue
the block (BASTION-instrumented code calls them between most
statements): their cycles are static, so they count in the block's
guard like any other instruction's.  Before calling the BASTION runtime
the block commits ``rip``, steps and cycles, so a runtime error leaves
what ``_step`` leaves; after the call it reads frame slots afresh.  A
computed size or amount, ``trace``, ``hook`` and ``halt`` end the
block.

**Exactness.**  ``CPU.run_slice`` runs a block only when every
instruction in it would pass the reference loop's per-instruction checks
(step budget, quantum, frame pointer, breakpoints); otherwise it takes one
``_step``.  Inside a block, an instruction that would fault at run time
(a negative or unaligned computed load/store address, a call whose stack
pointer would fault, an indirect call to an address that is no
instruction) or raise (a ``//``/``%`` whose float division could
overflow, a negative ``cycle_burn``) ends the block early: the block
commits the completed prefix's ``rip``, steps and cycles and hands that
one instruction to ``_step``, which raises the exact fault (or kills)
after the exact charges.  What the compiler cannot prove safe
(``CallIndirect`` under LLVM-CFI, ``halt``, unknown labels, structs,
globals or callees, malformed operands, negative costs) is left to
``_step`` and ends the block before it, so an instruction that never runs
never raises.
"""

import builtins
import hashlib
import weakref

from repro.errors import ExecutionFault, IRError
from repro.ir.instructions import (
    AddrGlobal,
    AddrLocal,
    BinOp,
    Branch,
    Call,
    CallIndirect,
    Const,
    CTX_BIND_CONST,
    CTX_BIND_MEM,
    CTX_WRITE_MEM,
    FuncAddr,
    Gep,
    Imm,
    Index,
    Intrinsic,
    Jump,
    Label,
    Load,
    Move,
    Ret,
    Store,
    Syscall,
    Var,
)
from repro.ir.validate import module_stamp
from repro.vm.loader import INSTR_STRIDE
from repro.vm.memory import WORD

_HALF = 1 << 63
_MASK = (1 << 64) - 1

_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")

#: image layout -> small id, so a memo key hashes cheaply
_layouts = {}
#: Function -> {context (see :func:`context_key`): FunctionCode}
_codes = weakref.WeakKeyDictionary()
#: digest of a block's source -> its function
_compiled = weakref.WeakValueDictionary()
#: Image -> {(CostModel, cet, dfi, cfi): CodeMaps}
_maps = weakref.WeakKeyDictionary()


def context_key(image, costs, cet, dfi, cfi):
    """Everything a block bakes in beyond its own function's body."""
    module = image.module
    layout = (
        tuple(image.func_base.items()),
        tuple(image.global_addr.items()),
        tuple(
            (func.frame_size, len(func.params), bool(func.body))
            for func in module.functions.values()
        ),
        tuple(module.types.structs.values()),
    )
    return (_layouts.setdefault(layout, len(_layouts)), costs, bool(cet), bool(dfi), bool(cfi))


class CodeMaps:
    """The code lookups shared by every CPU on one image and context.

    ``codes`` maps a function name to its :class:`FunctionCode`,
    ``entries`` a code address that control lands on to ``(FunctionCode,
    Function)``, ``callees`` an indirect-call target to ``(frame size,
    arity)`` and ``ret_sites`` a return address to the caller's
    destination frame offset (0: none); CPUs fill them as they run.
    ``context`` is the :func:`context_key` their blocks compile under.
    The maps hold for the module state (``stamp``) and the block memo
    (``memo``) they were filled from.
    """

    __slots__ = ("stamp", "memo", "context", "codes", "entries", "callees", "ret_sites")

    def __init__(self, stamp, context):
        self.stamp = stamp
        self.memo = _codes
        self.context = context
        self.codes = {}
        self.entries = {}
        self.callees = {}
        self.ret_sites = {}


def code_maps(image, costs, cet, dfi, cfi):
    """The :class:`CodeMaps` of ``image`` under a context: fresh when the
    module changed since they were filled (a new local moves frame
    offsets) or the block memo was swapped (``tests.conftest.
    reference_steps``)."""
    per_image = _maps.get(image)
    if per_image is None:
        per_image = _maps[image] = {}
    key = (costs, bool(cet), bool(dfi), bool(cfi))
    stamp = module_stamp(image.module)
    maps = per_image.get(key)
    if maps is None or maps.memo is not _codes or maps.stamp != stamp:
        maps = per_image[key] = CodeMaps(stamp, context_key(image, costs, cet, dfi, cfi))
    return maps


def function_code(func, base, context):
    """The shared :class:`FunctionCode` of ``func`` at ``base`` under ``context``."""
    per_context = _codes.get(func)
    if per_context is None:
        per_context = _codes[func] = {}
    code = per_context.get(context)
    if code is None or code.body is not func.body or code.version != func.version:
        code = per_context[context] = FunctionCode(func, base, context)
    return code


class FunctionCode:
    """One function's blocks under one context, each compiled on first use.

    ``blocks[i]`` is None until the block starting at instruction ``i`` is
    built, then False (instruction ``i`` takes ``_step``) or ``(fn, steps,
    pre, depth, lo, hi)``: the block function, its instruction count, the
    static cycles of all but its last instruction, the deepest frame-slot
    offset it touches, and the code addresses of its first and last
    instructions.
    """

    __slots__ = ("body", "version", "base", "end", "context", "blocks")

    def __init__(self, func, base, context):
        self.body = func.body
        self.version = func.version
        self.base = base
        self.end = base + len(func.body) * INSTR_STRIDE
        self.context = context
        self.blocks = [None] * len(func.body)

    def compile(self, index, func, image):
        entry = self.blocks[index] = _compile_block(func, image, self.base, self.context, index)
        return entry


def _compile_block(func, image, base, context, start):
    costs = context[1]
    if not all(type(cost) is int and cost >= 0 for cost in vars(costs).values()):
        return False  # ``ledger.charge`` must raise on a negative cost
    writer = _BlockWriter(func, image, base, costs, *context[2:])
    if not writer.write(start):
        return False
    source = "def block(cpu, words, ledger, by_category, stats, fp):\n%s\n" % "\n".join(
        writer.lines
    )
    key = hashlib.blake2b(source.encode(), digest_size=16).digest()
    fn = _compiled.get(key)
    if fn is None:
        namespace = {}
        exec(compile(source, "<repro.vm.blocks>", "exec"), _GLOBALS, namespace)
        fn = _compiled[key] = namespace["block"]
    first = base + start * INSTR_STRIDE
    return (fn, writer.count, writer.pre, writer.depth, first, writer.last)


# ----------------------------------------------------------------------
# helpers the generated code calls (the only globals a block sees)
# ----------------------------------------------------------------------


def _wrap(value):
    """``repro.vm.cpu._wrap``: signed 64-bit semantics."""
    value &= _MASK
    if value >= _HALF:
        value -= 1 << 64
    return value


def _bail(cpu, ledger, stats, index, rip, steps, charges):
    """Commit a block's completed prefix, then run instruction ``index``
    with the reference ``_step`` (which raises its exact fault)."""
    cpu.rip = rip
    stats.steps += steps
    for category, amount in charges:
        ledger.charge(amount, category)
    return cpu._step(cpu._cur_func.body[index])


def _return(cpu, words, return_addr, saved_fp, value, here):
    """The end of ``CPU._do_ret`` at code address ``here``: stop at the
    entry's sentinel, or deliver ``value`` to the caller's destination."""
    if return_addr == 0:
        from repro.vm.cpu import ExitStatus

        cpu.rip = here
        return ExitStatus("returned", value)
    offset = cpu._ret_sites.get(return_addr)
    if offset is None:
        offset = cpu._ret_sites[return_addr] = _ret_site(cpu.image, return_addr)
    if offset:
        addr = saved_fp - offset
        if addr >= 0 and not addr & 7:
            words[addr] = value
        else:
            cpu.rip = here
            cpu.proc.memory.write(addr, value)  # raises the exact fault
    cpu.rip = return_addr
    return None


def _ret_site(image, return_addr):
    """Frame offset of the destination of the call before ``return_addr``
    (0: none), as ``CPU._do_ret`` decodes it."""
    try:
        caller, index = image.resolve_code(return_addr - INSTR_STRIDE)
    except ExecutionFault:
        return 0
    instr = caller.body[index]
    if isinstance(instr, (Call, CallIndirect)) and instr.dst is not None:
        return WORD * (caller.local_slot(instr.dst) + 1)
    return 0


def _callee(cpu, target):
    """``(frame size, arity)`` of the function holding code address
    ``target``, memoized in ``cpu._callees`` (the image's code maps);
    None if ``target`` is no instruction address (``_step`` raises the
    fetch fault, or kills)."""
    try:
        func, _index = cpu.image.resolve_code(target)
    except ExecutionFault:
        return None
    callee = cpu._callees[target] = (func.frame_size, len(func.params))
    return callee


def _set_result(cpu, words, offset, result):
    """Like ``CPU._set_var`` for a syscall's destination, addressed from
    the frame pointer the handler left."""
    result = _wrap(result)
    addr = cpu.fp - offset
    if addr >= 0 and not addr & 7:
        words[addr] = result
    else:
        cpu.proc.memory.write(addr, result)


_GLOBALS = {
    "__builtins__": builtins,
    "_bail": _bail,
    "_callee": _callee,
    "_return": _return,
    "_set_result": _set_result,
    "_wrap": _wrap,
    "_DIV_SAFE": 1 << 1000,  # below this, ``int(a / b)`` cannot overflow
}


# ----------------------------------------------------------------------
# the block compiler
# ----------------------------------------------------------------------


class _Unsupported(Exception):
    """Compile-time signal: leave this instruction to ``CPU._step``."""


def _src(value):
    """Source text of an operand: a local name or an int literal."""
    if isinstance(value, str):
        return value
    return "%d" % value if value >= 0 else "(%d)" % value


def _plus(value, delta):
    """``value + delta``, folded when ``value`` is known."""
    if isinstance(value, int):
        return value + delta
    return "%s + %d" % (value, delta) if delta else value


class _BlockWriter:
    """Generates one block's source, mirroring ``CPU._step`` arm by arm.

    Operands are ints (known at compile time) or names of Python locals.
    Frame slots written in the block are forwarded to later reads until a
    computed store might alias them.
    """

    def __init__(self, func, image, base, costs, cet, dfi, cfi):
        self.func = func
        self.image = image
        self.base = base
        self.costs = costs
        self.cet = cet
        self.dfi = dfi
        self.cfi = cfi
        self.lines = []
        self.count = 0  # instructions in the block so far
        self.done = 0  # instructions whose steps are committed
        self.static = 0  # static cycles charged so far, committed or not
        self.pre = 0  # static cycles before the last instruction
        self.depth = 0
        self.last = base
        self.index = 0
        self.charges = {}  # category -> [static cycles, dynamic terms]
        self.known = {}  # frame offset -> operand holding the slot's value
        self.exact = set()  # names known to hold signed 64-bit values
        self.names = 0

    # -- emission ------------------------------------------------------

    def emit(self, line, indent=1):
        self.lines.append("    " * indent + line)

    def fresh(self):
        self.names += 1
        return "v%d" % self.names

    def addr(self, index):
        return self.base + index * INSTR_STRIDE

    def slot(self, name):
        return WORD * (self.func.local_slot(name) + 1)

    def read(self, operand):
        """Like ``CPU._value``: the operand's raw value."""
        if isinstance(operand, Imm):
            if type(operand.value) is not int:
                raise _Unsupported(operand)
            return operand.value
        if isinstance(operand, Var):
            off = self.slot(operand.name)
            self.depth = max(self.depth, off)
            name = self.known.get(off)
            if name is None:
                name = self.known[off] = self.fresh()
                self.emit("%s = words.get(fp - %d, 0)" % (name, off))
            return name
        raise _Unsupported(operand)

    def assign(self, expr):
        """A fresh local holding ``expr``."""
        name = self.fresh()
        self.emit("%s = %s" % (name, expr))
        return name

    def wrapped(self, value):
        """``value`` (an operand or an expression) wrapped to 64 bits."""
        if isinstance(value, int):
            return _wrap(value)
        if value in self.exact:
            return value
        if not value.isidentifier():
            value = self.assign(value)
        # a range check is cheaper than the wrap's big-int arithmetic; the
        # class check turns a bool a hook stored into an int, as _wrap does
        name = self.assign(
            "%s if %d <= %s < %d and %s.__class__ is int else _wrap(%s)"
            % (value, -_HALF, value, _HALF, value, value)
        )
        self.exact.add(name)
        return name

    def set_local(self, dst, value):
        """Like ``CPU._set_var``."""
        value = self.wrapped(value)
        off = self.slot(dst)
        self.depth = max(self.depth, off)
        self.emit("words[fp - %d] = %s" % (off, _src(value)))
        self.known[off] = value

    def charge(self, category, amount):
        entry = self.charges.setdefault(category, [0, []])
        if isinstance(amount, int):
            entry[0] += amount
            self.static += amount
        else:
            entry[1].append(amount)

    def bail(self, indent=2):
        """Leave the current instruction to ``_step``, prefix committed."""
        charges = tuple((cat, entry[0]) for cat, entry in self.charges.items())
        self.emit(
            "return _bail(cpu, ledger, stats, %d, %d, %d, %r)"
            % (self.index, self.addr(self.index), self.count - self.done, charges),
            indent,
        )

    def commit(self, rip=None):
        """Emit the pending ``rip``, step count and ledger charges."""
        if rip is not None:
            self.emit("cpu.rip = %s" % _src(rip))
        if self.count > self.done:
            self.emit("stats.steps += %d" % (self.count - self.done))
            self.done = self.count
        total = [str(sum(entry[0] for entry in self.charges.values()))]
        for entry in self.charges.values():
            total.extend(entry[1])
        if total != ["0"]:
            self.emit("ledger.cycles += %s" % " + ".join(total))
        for cat, (static, terms) in self.charges.items():
            amount = " + ".join([str(static)] + terms if static or not terms else terms)
            self.emit("by_category[%r] = by_category.get(%r, 0) + %s" % (cat, cat, amount))
        self.charges.clear()

    # -- instructions ---------------------------------------------------

    def write(self, start):
        """Emit the block starting at ``start``; False if it is empty."""
        body = self.func.body
        index = start
        while index < len(body):
            instr = body[index]
            mark = (
                len(self.lines),
                self.depth,
                dict(self.known),
                {cat: [e[0], list(e[1])] for cat, e in self.charges.items()},
                self.done,
                self.static,
            )
            self.index = index
            self.count += 1
            pre = self.static
            try:
                ends = self.instruction(instr)
            except (_Unsupported, IRError, LookupError, TypeError, AttributeError):
                # a malformed or fault-bound instruction: ``_step`` runs it
                # (and raises then, if at all)
                self.count -= 1
                del self.lines[mark[0]:]
                self.depth, self.known, self.charges, self.done, self.static = mark[1:]
                break
            self.pre = pre
            self.last = self.addr(index)
            index += 1
            if ends:
                return True
        if not self.count:
            return False
        self.commit(self.addr(index))
        return True

    def instruction(self, instr):
        """Emit one instruction; True if it ends the block."""
        kind = type(instr)
        costs = self.costs
        if kind is Label:
            return False
        if kind is Const:
            if not isinstance(instr.value, int):
                raise _Unsupported(instr)
            self.set_local(instr.dst, int(instr.value))
        elif kind is Move:
            self.set_local(instr.dst, self.read(instr.src))
        elif kind is BinOp:
            self.binop(instr)
        elif kind is Load:
            addr = self.address(instr.addr)
            if self.dfi:
                self.charge("dfi", costs.dfi_per_access)
            value = self.fresh()
            self.emit("%s = words.get(%s, 0)" % (value, _src(addr)))
            self.set_local(instr.dst, value)
            self.charge("app", costs.load)
            return False
        elif kind is Store:
            addr = self.address(instr.addr)
            if self.dfi:
                self.charge("dfi", costs.dfi_per_access)
            value = self.wrapped(self.read(instr.value))
            self.emit("words[%s] = %s" % (_src(addr), _src(value)))
            self.known.clear()  # the store may alias any frame slot
            self.charge("app", costs.store)
            return False
        elif kind is AddrLocal:
            self.set_local(instr.dst, "fp - %d" % self.slot(instr.var))
        elif kind is AddrGlobal:
            self.set_local(instr.dst, self.image.global_addr[instr.name])
        elif kind is FuncAddr:
            self.set_local(instr.dst, self.image.func_base[instr.func])
        elif kind is Gep:
            struct = self.image.module.types.get(instr.struct)
            delta = WORD * struct.offset(instr.field_name)
            self.set_local(instr.dst, _plus(self.read(instr.base), delta))
        elif kind is Index:
            if type(instr.scale) is not int:
                raise _Unsupported(instr)
            base = self.read(instr.base)
            index = self.read(instr.index)
            if isinstance(index, int):
                self.set_local(instr.dst, _plus(base, WORD * index * instr.scale))
            else:
                self.set_local(
                    instr.dst, "%s + %s * %d" % (_src(base), index, WORD * instr.scale)
                )
        elif kind is Jump:
            target = self.addr(self.func.label_index(instr.label))
            self.charge("app", costs.branch)
            self.commit(target)
            return True
        elif kind is Branch:
            then = self.addr(self.func.label_index(instr.then_label))
            other = self.addr(self.func.label_index(instr.else_label))
            cond = self.read(instr.cond)
            self.charge("app", costs.branch)
            if isinstance(cond, int):
                self.commit(then if cond else other)
            else:
                self.commit("%d if %s else %d" % (then, cond, other))
            return True
        elif kind is Call:
            self.call(instr)
            return True
        elif kind is CallIndirect:
            self.call_indirect(instr)
            return True
        elif kind is Ret:
            self.ret(instr)
            return True
        elif kind is Syscall:
            self.syscall(instr)
            return True
        elif kind is Intrinsic:
            return self.intrinsic(instr)
        else:
            raise _Unsupported(instr)
        self.charge("app", costs.instr)
        return False

    def address(self, operand):
        """A load/store address; a bad one leaves the access to ``_step``."""
        addr = self.read(operand)
        if isinstance(addr, int):
            if addr < 0 or addr & 7:
                raise _Unsupported(operand)
        else:
            self.emit("if %s < 0 or %s & 7:" % (addr, addr))
            self.bail()
        return addr

    def binop(self, instr):
        op = instr.op
        a = _src(self.read(instr.a))
        b = _src(self.read(instr.b))
        if op == "&" and b.isdigit() and int(b) < _HALF:
            # masked by a non-negative 64-bit constant: already in range
            masked = self.assign("%s & %s" % (a, b))
            self.exact.add(masked)
            self.set_local(instr.dst, masked)
        elif op in ("+", "-", "*", "&", "|", "^"):
            self.set_local(instr.dst, "%s %s %s" % (a, op, b))
        elif op in ("<<", ">>"):
            self.set_local(instr.dst, "%s %s (%s & 63)" % (a, op, b))
        elif op in _COMPARISONS:
            flag = self.assign("1 if %s %s %s else 0" % (a, op, b))
            self.exact.add(flag)
            self.set_local(instr.dst, flag)
        elif op in ("//", "%"):
            # C-style division, with the reference's float round trip
            q = self.fresh()
            self.emit("if %s == 0:" % b)
            self.emit("%s = 0" % q, 2)
            self.emit("elif (%s < 0) == (%s < 0):" % (a, b))
            self.emit("%s = %s %s %s" % (q, a, op, b), 2)
            self.emit("elif -_DIV_SAFE < %s < _DIV_SAFE:" % a)
            if op == "//":
                self.emit("%s = int(%s / %s)" % (q, a, b), 2)
            else:
                self.emit("%s = %s - %s * int(%s / %s)" % (q, a, b, a, b), 2)
            self.emit("else:")
            self.bail()
            self.set_local(instr.dst, q)
        else:
            raise _Unsupported(instr)

    def call(self, instr):
        """Like ``CPU._do_call`` for a direct call."""
        callee = self.image.module.functions.get(instr.callee)
        if callee is None or not callee.body:
            raise _Unsupported(instr)
        target = self.image.func_base[instr.callee]
        args = [self.read(a) for a in instr.args]
        values = [_src(self.wrapped(a)) for a in args[: len(callee.params)]]
        return_addr = self.addr(self.index) + INSTR_STRIDE
        self.emit("sp = cpu.sp - %d" % (2 * WORD))
        self.emit("if sp < %d or sp & 7:" % (WORD * len(values)))
        self.bail()
        self.emit("cpu.sp = sp - %d" % (WORD * callee.frame_size))
        self.emit("words[sp + %d] = %d" % (WORD, return_addr))
        self.emit("words[sp] = fp")
        self.emit("cpu.fp = sp")
        for i, value in enumerate(values):
            self.emit("words[sp - %d] = %s" % (WORD * (i + 1), value))
        if self.cet:
            self.emit("cpu.shadow_stack.push(%d)" % return_addr)
            self.charge("cet", self.costs.cet_per_transfer)
        self.charge("app", self.costs.call)
        self.emit("stats.calls += 1")
        self.commit(target)

    def call_indirect(self, instr):
        """Like ``CPU._step``'s ``CallIndirect`` arm, LLVM-CFI off (on, the
        check is ``_step``'s).  The callee's frame size and arity come from
        ``cpu._callees``; a target that is no instruction address, or a
        stack pointer that would fault, goes to ``_step``."""
        if self.cfi:
            raise _Unsupported(instr)
        target = _src(self.read(instr.target))
        args = [_src(self.wrapped(self.read(a))) for a in instr.args]
        return_addr = self.addr(self.index) + INSTR_STRIDE
        self.emit("callee = cpu._callees.get(%s)" % target)
        self.emit("if callee is None:")
        self.emit("callee = _callee(cpu, %s)" % target, 2)
        self.emit("if callee is None:", 2)
        self.bail(3)
        self.emit("frame, arity = callee")
        self.emit("sp = cpu.sp - %d" % (2 * WORD))
        # the call writes min(len(args), arity) arguments below ``sp``
        n = len(args)
        low = "%d * (arity if arity < %d else %d)" % (WORD, n, n) if n else "0"
        self.emit("if sp < %s or sp & 7:" % low)
        self.bail()
        self.emit("cpu.sp = sp - %d * frame" % WORD)
        self.emit("words[sp + %d] = %d" % (WORD, return_addr))
        self.emit("words[sp] = fp")
        self.emit("cpu.fp = sp")
        for i, value in enumerate(args):
            self.emit("if arity > %d:" % i)
            self.emit("words[sp - %d] = %s" % (WORD * (i + 1), value), 2)
        if self.cet:
            self.emit("cpu.shadow_stack.push(%d)" % return_addr)
            self.charge("cet", self.costs.cet_per_transfer)
        self.charge("app", self.costs.call)
        self.emit("stats.indirect_calls += 1")
        self.commit(target)

    def ret(self, instr):
        """Like ``CPU._do_ret``."""
        here = self.addr(self.index)
        value = 0 if instr.value is None else self.read(instr.value)
        value = _src(self.wrapped(value))
        self.emit("ra = words.get(fp + %d, 0)" % WORD)
        self.emit("saved_fp = words.get(fp, 0)")
        if self.cet:
            self.commit(here)
            self.emit("cpu.shadow_stack.check_pop(ra)")
            self.charge("cet", self.costs.cet_per_transfer)
        self.charge("app", self.costs.ret)
        self.commit()
        self.emit("stats.rets += 1")
        self.emit("cpu.rax = %s" % value)
        self.emit("cpu.sp = fp + %d" % (2 * WORD))
        self.emit("cpu.fp = saved_fp")
        self.emit("return _return(cpu, words, ra, saved_fp, %s, %d)" % (value, here))

    def syscall(self, instr):
        """Like ``CPU._do_syscall``."""
        if type(instr.name) is not str:
            raise _Unsupported(instr)
        here = self.addr(self.index)
        args = [_src(self.wrapped(self.read(a))) for a in instr.args]
        dst = None if instr.dst is None else self.slot(instr.dst)
        self.charge("kernel", self.costs.syscall_base)
        self.commit(here)
        dispatch = "cpu.kernel.dispatch(cpu.proc, %r, [%s], %d, fp, cpu.sp)" % (
            instr.name, ", ".join(args), here
        )
        if dst is None:
            self.emit(dispatch)
        else:
            self.emit("_set_result(cpu, words, %d, %s)" % (dst, dispatch))
        self.emit("cpu.rip += %d" % INSTR_STRIDE)

    def intrinsic(self, instr):
        """Like ``CPU._do_intrinsic``; True if the intrinsic ends the block.

        A ``cycle_burn`` of a constant amount and the runtime intrinsics
        of a constant size (``ctx_bind_*`` always) continue the block:
        their cost is static, so it counts in ``pre`` and the block's
        quantum guard stays the reference's.  A runtime call first
        commits ``rip``, steps and cycles, as ``_step`` leaves them if it
        raises, and forwards no frame slot read before it.  ``halt``,
        ``hook``, unknown names and a computed size or amount end the
        block; ``halt`` and unknown names take ``_step``."""
        name = instr.name
        here = self.addr(self.index)
        costs = self.costs
        if name == CTX_WRITE_MEM:
            addr = _src(self.read(instr.args[0]))
            size = self.read(instr.args[1]) if len(instr.args) > 1 else 1
            ends = not isinstance(size, int)
            if ends:
                cost = self.assign(
                    "%d + %d * (%s if %s > 1 else 1)"
                    % (costs.ctx_write_mem_base, costs.ctx_write_mem_per_slot, size, size)
                )
            else:
                cost = costs.ctx_write_mem_base + costs.ctx_write_mem_per_slot * max(size, 1)
            self.runtime_call(here, cost, "ctx_write_mem(%s, %s)" % (addr, _src(size)))
        elif name in (CTX_BIND_MEM, CTX_BIND_CONST):
            callsite, pos = instr.meta["callsite_index"], instr.meta["pos"]
            if type(callsite) is not int or type(pos) is not int:
                raise _Unsupported(instr)
            callsite = self.image.addr_of(self.func.name, callsite)
            value = _src(self.read(instr.args[0]))
            self.runtime_call(here, costs.ctx_bind, "%s(%d, %d, %s)" % (name, callsite, pos, value))
            ends = False
        elif name == "trace":
            values = [_src(self.read(a)) for a in instr.args]
            self.emit("cpu.proc.trace_log.append([%s])" % ", ".join(values))
            self.commit(here + INSTR_STRIDE)
            return True
        elif name == "hook":
            point = instr.meta.get("point")
            if point is not None and type(point) is not str:
                raise _Unsupported(instr)
            self.commit(here)
            self.emit("hook = cpu.hooks.get(%r)" % point)
            self.emit("if hook is not None:")
            self.emit("hook(cpu)", 2)
            ends = True
        elif name == "cycle_burn":
            amount = self.read(instr.args[0])
            if isinstance(amount, int):
                if amount < 0:
                    raise _Unsupported(instr)
                extra = amount * costs.dfi_elided_millis // 1000
            else:
                self.emit("if %s < 0:" % amount)
                self.bail()
                extra = "%s * %d // 1000" % (amount, costs.dfi_elided_millis)
            self.charge("app", amount)
            if self.dfi:
                self.charge("dfi", extra)
            if isinstance(amount, int):
                return False
            self.commit(here + INSTR_STRIDE)
            return True
        else:
            raise _Unsupported(instr)
        if ends:
            self.emit("cpu.rip += %d" % INSTR_STRIDE)
        return ends

    def runtime_call(self, here, cost, call):
        """Charge a runtime intrinsic, commit, then make ``call`` on the
        process's BASTION runtime, if it has one."""
        self.emit("stats.instrumentation_hits += 1")
        self.charge("instrumentation", cost)
        self.commit(here)
        self.emit("runtime = cpu.proc.bastion_runtime")
        self.emit("if runtime is not None:")
        self.emit("runtime.%s" % call, 2)
        self.known.clear()
