"""Call-type audit pass (B-Side style, §6.1 cross-check).

Re-derives the directly-/indirectly-/not-callable classification for every
syscall straight from the shipped IR — its own wrapper detection, its own
call-edge and address-taken scan — and diffs the result against the
``call_types`` table the compiler emitted into the metadata.

Two failure directions, both errors:

- **over-permissive**: the metadata allows a call type the IR cannot
  produce.  The monitor's seccomp filter would accept a syscall the program
  can never legitimately make — exactly the gap B-Side hunts for in
  binary-only policy generators.
- **missing**: the IR can produce a call type the metadata forbids.  The
  monitor would kill a legitimate execution.
"""

from repro.analyze.diagnostics import Diagnostic
from repro.ir.callgraph import wrapper_map as _wrapper_map
from repro.ir.instructions import Call, FuncAddr, Syscall
from repro.syscalls import SYSCALL_BY_NAME

PASS_NAME = "call-type"
_KINDS = ("direct", "indirect")


def recompute_call_types(module):
    """``{syscall: {"direct": bool, "indirect": bool}}`` from the IR alone."""
    wrappers = _wrapper_map(module)
    called = set()  # function names targeted by a direct Call
    address_taken = set()
    inline = {}  # syscall -> True for raw Syscall in non-wrapper code
    for func in module.functions.values():
        for instr in func.body:
            if isinstance(instr, Call):
                called.add(instr.callee)
            elif isinstance(instr, FuncAddr):
                address_taken.add(instr.func)
            elif isinstance(instr, Syscall) and func.name not in wrappers:
                inline[instr.name] = True

    table = {}

    def mark(syscall, kind):
        entry = table.setdefault(syscall, {"direct": False, "indirect": False})
        entry[kind] = True

    for wrapper_name, syscall_names in wrappers.items():
        if wrapper_name in called:
            for name in syscall_names:
                mark(name, "direct")
        if wrapper_name in address_taken:
            for name in syscall_names:
                mark(name, "indirect")
    for name in inline:
        mark(name, "direct")
    return table


def audit_call_types(module, metadata):
    """Diff the metadata's call-type table against a fresh recomputation.

    Returns ``(diagnostics, metrics)``.
    """
    recomputed = recompute_call_types(module)
    published = metadata.call_types
    diagnostics = []

    for syscall in sorted(set(published) | set(recomputed)):
        want = recomputed.get(syscall, {"direct": False, "indirect": False})
        have = published.get(syscall, {"direct": False, "indirect": False})
        for kind in _KINDS:
            if have.get(kind) and not want[kind]:
                diagnostics.append(
                    Diagnostic(
                        PASS_NAME,
                        "over-permissive",
                        "error",
                        "metadata classifies %s as %sly-callable but no IR "
                        "construct can issue it that way" % (syscall, kind),
                        syscall=syscall,
                    )
                )
            elif want[kind] and not have.get(kind):
                diagnostics.append(
                    Diagnostic(
                        PASS_NAME,
                        "missing-call-type",
                        "error",
                        "the IR can issue %s %sly but the metadata would have "
                        "the monitor kill it" % (syscall, kind),
                        syscall=syscall,
                    )
                )

    direct = sum(1 for entry in recomputed.values() if entry["direct"])
    indirect = sum(1 for entry in recomputed.values() if entry["indirect"])
    metrics = {
        "table_size": len(SYSCALL_BY_NAME),
        "used_syscalls": len(recomputed),
        "directly_callable": direct,
        "indirectly_callable": indirect,
        "not_callable": len(SYSCALL_BY_NAME) - len(recomputed),
    }
    return diagnostics, metrics
