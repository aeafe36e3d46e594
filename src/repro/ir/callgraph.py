"""Whole-module call graph used by the BASTION compiler and the baselines.

Captures exactly what §6.1/§6.2 need:

- direct call edges with their callsite positions,
- indirect callsites (position + type signature),
- the address-taken set (functions that may be indirect-call targets),
- syscall sites (both raw ``Syscall`` instructions and, transitively,
  callers of wrapper functions).

It also holds the one definition of a libc syscall *wrapper*: a
structurally tiny function — a leading ``Syscall`` forwarding the
parameters, then a return (glibc's thin stubs, see ``repro.apps.libc``).
The compiler, the baselines and the IR-level analysis passes call
:func:`wrapper_map`, which also honours the builder's ``is_wrapper``
hint; binary recovery sees only decoded instruction runs, so it relies
on :func:`is_structural_wrapper` alone.  One definition keeps the levels
from drifting on the partition every call-type table builds on.
"""

from dataclasses import dataclass, field

from repro.ir.instructions import Call, CallIndirect, FuncAddr, Syscall

#: longest instruction run still considered a syscall stub
_WRAPPER_MAX_INSTRS = 3


def wrapped_syscalls(body):
    """Syscall names issued by ``body`` (a function body or decoded run)."""
    return tuple(instr.name for instr in body if isinstance(instr, Syscall))


def is_structural_wrapper(body):
    """Does ``body`` have the stub shape: lead ``Syscall``, at most three
    instructions?  This is the hint-free test binary recovery relies on."""
    return 0 < len(body) <= _WRAPPER_MAX_INSTRS and isinstance(body[0], Syscall)


def wrapper_map(module):
    """Map each wrapper function to the syscall names it wraps.

    A wrapper is a function flagged ``is_wrapper`` (our libc) or one with
    the stub shape of :func:`is_structural_wrapper`.  Raw ``Syscall``
    instructions inside other functions are inline direct invocations,
    not wrappers.
    """
    wrappers = {}
    for func in module.functions.values():
        names = wrapped_syscalls(func.body)
        if names and (func.is_wrapper or is_structural_wrapper(func.body)):
            wrappers[func.name] = names
    return wrappers


@dataclass(frozen=True)
class CallSite:
    """A call instruction's position: (caller function, body index)."""

    caller: str
    index: int


@dataclass
class CallGraph:
    """Static call information for one module."""

    module: object
    direct_edges: dict = field(default_factory=dict)  # callee -> [CallSite]
    callee_of: dict = field(default_factory=dict)  # CallSite -> callee name
    indirect_sites: list = field(default_factory=list)  # [CallSite]
    indirect_sigs: dict = field(default_factory=dict)  # CallSite -> sig
    address_taken: set = field(default_factory=set)  # function names
    syscall_sites: dict = field(default_factory=dict)  # name -> [CallSite]

    def callers_of(self, func_name):
        """Direct callsites targeting ``func_name``."""
        return tuple(self.direct_edges.get(func_name, ()))

    def direct_callees(self, func_name):
        """Function names directly called from ``func_name``."""
        out = []
        for callee, sites in self.direct_edges.items():
            if any(site.caller == func_name for site in sites):
                out.append(callee)
        return out

    def functions_containing_syscall(self, syscall_name):
        """Functions with a raw ``Syscall`` instruction for ``syscall_name``."""
        return tuple(
            site.caller for site in self.syscall_sites.get(syscall_name, ())
        )

    def is_address_taken(self, func_name):
        return func_name in self.address_taken

    def reachable_from(self, roots):
        """Functions reachable via direct edges + address-taken closure.

        Used by the debloating baseline: anything reachable directly from the
        roots, plus every address-taken function (it may be reached via any
        indirect callsite).
        """
        seen = set()
        stack = list(roots) + sorted(self.address_taken)
        while stack:
            name = stack.pop()
            if name in seen or name not in self.module.functions:
                continue
            seen.add(name)
            stack.extend(self.direct_callees(name))
        return seen


def build_callgraph(module):
    """Scan every instruction of ``module`` and build its :class:`CallGraph`."""
    graph = CallGraph(module)
    for func in module.functions.values():
        for idx, instr in enumerate(func.body):
            site = CallSite(func.name, idx)
            if isinstance(instr, Call):
                graph.direct_edges.setdefault(instr.callee, []).append(site)
                graph.callee_of[site] = instr.callee
            elif isinstance(instr, CallIndirect):
                graph.indirect_sites.append(site)
                sig = instr.sig or ("fn%d" % len(instr.args))
                graph.indirect_sigs[site] = sig
            elif isinstance(instr, FuncAddr):
                graph.address_taken.add(instr.func)
            elif isinstance(instr, Syscall):
                graph.syscall_sites.setdefault(instr.name, []).append(site)
    return graph


def cfi_equivalence_classes(module):
    """Map each type signature to its address-taken member functions.

    LLVM CFI (§9.2) admits an indirect call to any function of the
    callsite's type-signature class — the CPU's ``llvm_cfi`` check — so
    class size is the attacker's room to move (§2.2: large classes are
    bypassable).  Only address-taken functions can be indirect-call
    targets, mirroring how Clang builds its jump tables.
    """
    graph = build_callgraph(module)
    classes = {}
    for name in sorted(graph.address_taken):
        func = module.functions.get(name)
        if func is None:
            continue
        classes.setdefault(func.sig, []).append(name)
    return classes
