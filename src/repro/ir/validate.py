"""Structural validation of IR modules.

Run before loading: catches malformed programs early with precise messages
instead of confusing interpreter faults later.
"""

import weakref

from repro.errors import IRValidationError
from repro.ir.dataflow import build_block_graph, definitely_assigned
from repro.ir.instructions import (
    AddrGlobal,
    BinOp,
    Branch,
    BINOPS,
    Call,
    CallIndirect,
    FuncAddr,
    Gep,
    Imm,
    Intrinsic,
    Jump,
    Label,
    Ret,
    Syscall,
    Var,
    CTX_BIND_CONST,
    CTX_BIND_MEM,
    CTX_WRITE_MEM,
    HARNESS_INTRINSICS,
)
from repro.syscalls.table import SYSCALL_BY_NAME

_KNOWN_INTRINSICS = set(HARNESS_INTRINSICS) | {
    CTX_WRITE_MEM,
    CTX_BIND_MEM,
    CTX_BIND_CONST,
}

#: module -> stamp (see :func:`module_stamp`) of the state it last passed in full
_validated = weakref.WeakKeyDictionary()


def validate_module(module):
    """Validate ``module``; raises :class:`IRValidationError` on problems.

    Checks: entry point exists; labels resolve; direct callees exist;
    syscall names are in the table; struct/field references resolve; binop
    operators are known; functions end in a terminator; globals referenced
    by AddrGlobal exist.

    Each module state is checked once: a module unchanged since it last
    passed returns at once.  Change a body through ``Function.append``,
    ``invalidate()`` or replacement, as the VM's block memo also
    requires; an in-place edit that keeps its length and version is not
    seen.

    Returns the module (for chaining).
    """
    stamp = module_stamp(module)
    if _validated.get(module) == stamp:
        return module
    if module.entry not in module.functions:
        raise IRValidationError(
            "module %s has no entry function %r" % (module.name, module.entry)
        )
    for func in module.functions.values():
        _validate_function(module, func)
    _validated[module] = stamp
    return module


def module_stamp(module):
    """What validation and the loader read of ``module``.

    The memos of module derivations (validation here, the loader's
    image, the VM's code maps, the baselines' syscall sets) hold while
    this stamp is equal.  Functions, bodies and globals are held as
    objects, so a replaced one can never match through a reused ``id``.
    """
    return (
        module.entry,
        tuple(
            (name, func, func.body, len(func.body), func.version)
            for name, func in module.functions.items()
        ),
        tuple((name, gvar, gvar.size) for name, gvar in module.globals.items()),
        tuple(module.types.structs.items()),
    )


def _err(func, idx, message):
    raise IRValidationError("%s[%d]: %s" % (func.name, idx, message))


def _validate_function(module, func):
    labels = {}
    for idx, instr in enumerate(func.body):
        if isinstance(instr, Label):
            if instr.name in labels:
                _err(func, idx, "duplicate label %r" % instr.name)
            labels[instr.name] = idx

    if not func.body:
        raise IRValidationError("function %s has an empty body" % func.name)
    last = func.body[-1]
    if not isinstance(last, (Ret, Jump)):
        raise IRValidationError(
            "function %s does not end in Ret/Jump (falls off the end)" % func.name
        )

    for idx, instr in enumerate(func.body):
        for op in instr.uses():
            if not isinstance(op, (Var, Imm)):
                _err(func, idx, "operand %r is not Var/Imm" % (op,))
        if isinstance(instr, BinOp) and instr.op not in BINOPS:
            _err(func, idx, "unknown binary operator %r" % instr.op)
        elif isinstance(instr, (Jump,)):
            if instr.label not in labels:
                _err(func, idx, "jump to unknown label %r" % instr.label)
        elif isinstance(instr, Branch):
            for target in (instr.then_label, instr.else_label):
                if target not in labels:
                    _err(func, idx, "branch to unknown label %r" % target)
        elif isinstance(instr, Call):
            if instr.callee not in module.functions:
                _err(func, idx, "call to undefined function %r" % instr.callee)
        elif isinstance(instr, FuncAddr):
            if instr.func not in module.functions:
                _err(func, idx, "address of undefined function %r" % instr.func)
        elif isinstance(instr, Syscall):
            if instr.name not in SYSCALL_BY_NAME:
                _err(func, idx, "unknown syscall %r" % instr.name)
            if len(instr.args) > 6:
                _err(func, idx, "syscall %r takes at most 6 args" % instr.name)
        elif isinstance(instr, Gep):
            if instr.struct not in module.types:
                _err(func, idx, "unknown struct %r" % instr.struct)
            struct = module.types.get(instr.struct)
            if instr.field_name not in struct.fields:
                _err(
                    func,
                    idx,
                    "struct %s has no field %r" % (instr.struct, instr.field_name),
                )
        elif isinstance(instr, AddrGlobal):
            if instr.name not in module.globals:
                _err(func, idx, "unknown global %r" % instr.name)
        elif isinstance(instr, Intrinsic):
            if instr.name not in _KNOWN_INTRINSICS:
                _err(func, idx, "unknown intrinsic %r" % instr.name)
        elif isinstance(instr, CallIndirect):
            if not instr.args and instr.sig is None:
                # fine — sig defaults by arity at CFI-check time
                pass

    _check_definite_assignment(func)


def _check_definite_assignment(func):
    """Reject uses of virtual registers undefined on some path from entry.

    This is a whole-CFG check: a register defined only in one arm of a
    branch (or only inside a loop body) is still undefined on the paths
    that skip that block.  Parameters and address-taken locals (real frame
    slots, initializable through memory) count as assigned at entry.
    """
    graph = build_block_graph(func)
    violations = definitely_assigned(func, graph)
    if violations:
        first = violations[0]
        raise IRValidationError(
            "%s[%d] (block %d): instruction uses %%%s before any definition "
            "reaches it" % (first.func, first.index, first.block, first.var)
        )
