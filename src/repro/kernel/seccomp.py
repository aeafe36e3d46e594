"""seccomp-BPF: filter objects, action precedence, and filter generation.

The BASTION monitor (§7.1) installs a filter specifying:

- ``SECCOMP_RET_ALLOW`` for all non-sensitive syscalls,
- ``SECCOMP_RET_KILL`` for *not-callable* syscalls (call-type context's
  coarse half), and
- ``SECCOMP_RET_TRACE`` for directly-/indirectly-callable sensitive
  syscalls, so the monitor is stopped into for verification.

:func:`build_action_filter` turns such an action map into a real cBPF
program (one JEQ chain entry per syscall), which the kernel evaluates on
every syscall of the protected process; :func:`build_arg_constraint_filter`
builds the application-wide argument pin plain seccomp offers instead
(§2.2).
"""

from dataclasses import dataclass

from repro.kernel.bpf import (
    AUDIT_ARCH_X86_64,
    BPF_ABS,
    BPF_JEQ,
    BPF_JMP,
    BPF_K,
    BPF_LD,
    BPF_RET,
    BPF_W,
    BPFProgram,
    SECCOMP_DATA_ARCH,
    SECCOMP_DATA_ARGS,
    SECCOMP_DATA_NR,
    SeccompData,
    jump,
    stmt,
)
from repro.syscalls.table import nr_of

SECCOMP_RET_KILL_PROCESS = 0x80000000
SECCOMP_RET_KILL_THREAD = 0x00000000
SECCOMP_RET_TRAP = 0x00030000
SECCOMP_RET_ERRNO = 0x00050000
SECCOMP_RET_TRACE = 0x7FF00000
SECCOMP_RET_LOG = 0x7FFC0000
SECCOMP_RET_ALLOW = 0x7FFF0000

SECCOMP_RET_ACTION_FULL = 0xFFFF0000
SECCOMP_RET_DATA = 0x0000FFFF

#: Linux action precedence (highest wins when multiple filters disagree).
_PRECEDENCE = (
    SECCOMP_RET_KILL_PROCESS,
    SECCOMP_RET_KILL_THREAD,
    SECCOMP_RET_TRAP,
    SECCOMP_RET_ERRNO,
    SECCOMP_RET_TRACE,
    SECCOMP_RET_LOG,
    SECCOMP_RET_ALLOW,
)


def action_name(action):
    """Printable name of a seccomp action value."""
    names = {
        SECCOMP_RET_KILL_PROCESS: "KILL_PROCESS",
        SECCOMP_RET_KILL_THREAD: "KILL_THREAD",
        SECCOMP_RET_TRAP: "TRAP",
        SECCOMP_RET_ERRNO: "ERRNO",
        SECCOMP_RET_TRACE: "TRACE",
        SECCOMP_RET_LOG: "LOG",
        SECCOMP_RET_ALLOW: "ALLOW",
    }
    return names.get(action & SECCOMP_RET_ACTION_FULL, "0x%08x" % action)


@dataclass
class SeccompFilter:
    """One attached filter: a cBPF program plus bookkeeping."""

    program: BPFProgram
    label: str = "filter"

    def evaluate(self, data):
        """Run the program; returns ``(action_value, instructions_executed)``."""
        return self.program.run(data)


def combine_actions(actions):
    """Linux semantics: every attached filter runs; strictest action wins."""
    best = SECCOMP_RET_ALLOW
    best_rank = _PRECEDENCE.index(SECCOMP_RET_ALLOW)
    for action in actions:
        base = action & SECCOMP_RET_ACTION_FULL
        try:
            rank = _PRECEDENCE.index(base)
        except ValueError:
            rank = 0  # unknown action values are treated as KILL
        if rank < best_rank:
            best, best_rank = action, rank
    return best


def build_action_filter(action_by_nr, default_action=SECCOMP_RET_ALLOW, label="bastion"):
    """Build a :class:`SeccompFilter` from ``{syscall_nr: action}``.

    Generated shape (exactly the classic seccomp tutorial filter)::

        ld  [arch]
        jne #AUDIT_ARCH_X86_64, kill
        ld  [nr]
        jeq #nr_0, ret_action_0
        jeq #nr_1, ret_action_1
        ...
        ret #default
        ret #KILL   ; arch mismatch
    """
    instructions = [stmt(BPF_LD | BPF_W | BPF_ABS, SECCOMP_DATA_ARCH)]
    body = [stmt(BPF_LD | BPF_W | BPF_ABS, SECCOMP_DATA_NR)]

    entries = sorted(action_by_nr.items())
    # Each entry is a JEQ that either skips to its own RET (placed after the
    # chain and the default RET) or falls through to the next JEQ.  The i-th
    # RET sits (n-1-i) JEQs + 1 default RET + i earlier RETs past the JEQ,
    # which is a constant distance of n.
    n = len(entries)
    for nr, _action in entries:
        body.append(jump(BPF_JMP | BPF_JEQ | BPF_K, nr, n, 0))
    body.append(stmt(BPF_RET | BPF_K, default_action))
    for _nr, action in entries:
        body.append(stmt(BPF_RET | BPF_K, action))

    # arch check: jump over the whole body on mismatch, to the final KILL.
    instructions.append(
        jump(BPF_JMP | BPF_JEQ | BPF_K, AUDIT_ARCH_X86_64, 0, len(body))
    )
    instructions.extend(body)
    instructions.append(stmt(BPF_RET | BPF_K, SECCOMP_RET_KILL_PROCESS))
    return SeccompFilter(BPFProgram(instructions), label=label)


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


def evaluate_filters(filters, nr, ip=0, args=(0, 0, 0, 0, 0, 0)):
    """Evaluate all attached filters; returns ``(action, instructions_run)``."""
    data = SeccompData(nr=nr, instruction_pointer=ip, args=tuple(args))
    total_insns = 0
    actions = []
    for filt in filters:
        action, executed = filt.evaluate(data)
        actions.append(action)
        total_insns += executed
    if not actions:
        return SECCOMP_RET_ALLOW, 0
    return combine_actions(actions), total_insns


# ---------------------------------------------------------------------------
# per-syscall action cache (Linux's SECCOMP_CACHE_NR_ONLY bitmap)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeccompActionCache:
    """Syscall numbers whose combined filter action is provably ALLOW.

    Linux precomputes, at filter-attach time, a per-syscall-nr bitmap of
    numbers every attached filter allows *regardless of arguments*; those
    syscalls then skip the BPF engine entirely (a single bit test).  Only
    ALLOW is ever cached — any stricter action still runs the filters, so
    the cache can never weaken enforcement, only skip re-deriving an ALLOW.
    """

    allow_nrs: frozenset

    def allows(self, nr):
        return nr in self.allow_nrs

    def __len__(self):
        return len(self.allow_nrs)


def _filter_is_nr_only(filt):
    """True if the program reads nothing but the syscall nr and arch.

    The cache is only sound when the verdict cannot depend on arguments or
    the instruction pointer.  Rather than emulating with unknowns (Linux's
    approach), reject any program whose absolute loads reach past the
    ``arch`` field; :func:`build_action_filter` programs always pass.
    """
    for ins in filt.program.instructions:
        if ins.code & 0x07 != BPF_LD:
            continue
        mode = ins.code & 0xE0
        if mode == BPF_ABS and ins.k not in (SECCOMP_DATA_NR, SECCOMP_DATA_ARCH):
            return False
    return True


#: (every filter's instructions, nrs) -> SeccompActionCache.  Filters are
#: rebuilt on every launch and faults swap in copy-on-fault programs, so
#: only a content key hits across runs and never serves another program.
_action_caches = {}


def compute_action_cache(filters, nrs):
    """Precompute the ALLOW bitmap for ``nrs`` against ``filters``.

    Returns ``None`` (no cache, every syscall runs the BPF engine) when no
    filter is attached or any attached filter is argument/ip-dependent.
    A chain whose programs equal one already computed in this process
    shares that chain's (frozen) cache.
    """
    if not filters or not all(_filter_is_nr_only(f) for f in filters):
        return None
    nrs = tuple(nrs)
    key = (tuple(tuple(f.program.instructions) for f in filters), nrs)
    cache = _action_caches.get(key)
    if cache is None:
        allow = set()
        for nr in nrs:
            action, _insns = evaluate_filters(filters, nr)
            if action & SECCOMP_RET_ACTION_FULL == SECCOMP_RET_ALLOW:
                allow.add(nr)
        cache = _action_caches[key] = SeccompActionCache(allow_nrs=frozenset(allow))
    return cache
