"""Plain seccomp allowlist filtering (§2.2 "System call filtering").

The administrator-style policy: collect the set of syscalls a program uses,
ALLOW those, KILL everything else.  Unlike BASTION it makes a *binary*
decision — a sensitive-but-used syscall (``mprotect`` in NGINX) stays fully
allowed no matter how it is reached or with what arguments, which is exactly
the gap the paper's attacks walk through.
"""

from repro.ir.instructions import Syscall
from repro.kernel.bpf import (
    BPF_ABS,
    BPF_JEQ,
    BPF_JMP,
    BPF_K,
    BPF_LD,
    BPF_RET,
    BPF_W,
    BPFProgram,
    SECCOMP_DATA_ARGS,
    SECCOMP_DATA_NR,
    jump,
    stmt,
)
from repro.kernel.seccomp import (
    SECCOMP_RET_ALLOW,
    SECCOMP_RET_KILL_PROCESS,
    SeccompFilter,
)
from repro.policy import build_presence_filter
from repro.syscalls.table import nr_of


def used_syscalls(module):
    """All syscall names statically present in ``module``."""
    names = set()
    for func in module.functions.values():
        for instr in func.body:
            if isinstance(instr, Syscall):
                names.add(instr.name)
    return names


def build_allowlist_filter(module, extra_allowed=()):
    """A KILL-by-default seccomp filter allowing only used syscalls."""
    return build_presence_filter(
        used_syscalls(module) | set(extra_allowed), "allowlist"
    )


def build_arg_constraint_filter(syscall_name, position, allowed_values):
    """seccomp's argument constraining (§2.2): pin one argument of one
    syscall to a set of constant values — *application-wide*.

    Generated program::

        ld  [nr]
        jne #nr, allow            ; other syscalls unconstrained
        ld  [args[position].lo]
        jeq #v0, allow
        jeq #v1, allow
        ...
        ret KILL
        allow: ret ALLOW

    The paper's critique is structural: because the whole application
    shares one filter, an app that legitimately uses ``mprotect`` with both
    PROT_READ and PROT_READ|PROT_EXEC must allow *both values everywhere* —
    BASTION's per-callsite constant bindings are strictly tighter.
    """
    values = sorted({v & 0xFFFFFFFF for v in allowed_values})
    if not 1 <= position <= 6:
        raise ValueError("argument position must be 1..6")
    arg_offset = SECCOMP_DATA_ARGS + (position - 1) * 8
    instructions = [stmt(BPF_LD | BPF_W | BPF_ABS, SECCOMP_DATA_NR)]
    # not-this-syscall: skip the whole check and land on the final ALLOW
    body_len = 1 + len(values) + 1  # arg load + jeq chain + KILL
    instructions.append(
        jump(BPF_JMP | BPF_JEQ | BPF_K, nr_of(syscall_name), 0, body_len)
    )
    instructions.append(stmt(BPF_LD | BPF_W | BPF_ABS, arg_offset))
    for i, value in enumerate(values):
        skip_to_allow = (len(values) - 1 - i) + 1  # remaining jeqs + KILL
        instructions.append(jump(BPF_JMP | BPF_JEQ | BPF_K, value, skip_to_allow, 0))
    instructions.append(stmt(BPF_RET | BPF_K, SECCOMP_RET_KILL_PROCESS))
    instructions.append(stmt(BPF_RET | BPF_K, SECCOMP_RET_ALLOW))
    return SeccompFilter(
        BPFProgram(instructions),
        label="argpin:%s[%d]" % (syscall_name, position),
    )
