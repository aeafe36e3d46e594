"""The baseline defenses BASTION is compared against (§2.2, §9.2, §12).

Each is a :class:`ProtectionMechanism` installed through the kernel's
public surfaces — no harness branches, no kernel special cases:

- :class:`SeccompAllowlistMechanism` — plain seccomp allowlisting: the
  coarse-grained binary-decision filtering the paper argues is
  insufficient (a sensitive-but-used ``mprotect`` stays fully allowed);
- :class:`TemporalMechanism` — temporal specialization: the allowlist at
  launch, a stricter serving-phase filter from the accept loop on;
- :class:`DebloatMechanism` — reachability-based debloating: removes
  never-used code but must keep sensitive-but-used syscalls;
- :class:`StaticMechanism` — CET, LLVM CFI and DFI, which are purely
  ``CPUOptions`` flags derived from the DefenseConfig and enforced by the
  CPU (:meth:`repro.vm.cpu.CPU._cfi_check` checks LLVM CFI's
  type-signature classes, :func:`repro.ir.callgraph.
  cfi_equivalence_classes` sizes them).
"""

from dataclasses import dataclass, field

from repro.ir.callgraph import build_callgraph, wrapper_map
from repro.ir.instructions import Call, Syscall
from repro.mechanisms.base import ProtectionMechanism
from repro.policy import build_presence_filter
from repro.syscalls.sensitive import SENSITIVE_SYSCALLS
from repro.vm.loader import load_module

#: app entry functions reachable only after the serving phase begins.
#: vsftpd's accept loop lives in ``main`` itself, so its "serving" phase
#: degenerates to the whole program (the temporal baseline adds nothing
#: over the allowlist there — a faithful limitation of the technique).
SERVING_ROOTS = {
    "nginx": ("ngx_master_cycle", "ngx_worker_cycle"),
    "sqlite": ("sqlite_server_loop",),
    "vsftpd": ("main",),
}


def phase_syscalls(module, serving_roots):
    """Split used syscalls into (init-only, serving) sets.

    ``serving_roots`` are the functions that constitute the serving phase
    (e.g. NGINX's worker cycle); every syscall reachable from them stays
    allowed after the phase switch, everything else becomes init-only.

    §12's point: attacks like Control Jujutsu and AOCR "leverage system
    calls still permitted in the application's serving phase", so even
    the temporal filter cannot stop them.
    """
    graph = build_callgraph(module)
    wrappers = wrapper_map(module)
    serving = set()
    for func_name in graph.reachable_from(list(serving_roots)):
        func = module.functions.get(func_name)
        if func is None:
            continue
        for instr in func.body:
            if isinstance(instr, Syscall):
                serving.add(instr.name)
            elif isinstance(instr, Call) and instr.callee in wrappers:
                serving.update(wrappers[instr.callee])
    return set(graph.syscall_sites) - serving, serving


@dataclass
class DebloatReport:
    """What debloating removed and what necessarily survived."""

    kept_functions: set = field(default_factory=set)
    removed_functions: set = field(default_factory=set)
    removed_syscalls: set = field(default_factory=set)
    surviving_sensitive: set = field(default_factory=set)


def debloat_module(module):
    """Return ``(debloated_module, DebloatReport)``; input is untouched.

    Removes functions unreachable from the entry point (direct edges plus
    the address-taken closure), mirroring Nibbler/RAZOR-style binary
    debloating.  Sensitive syscalls that *are* used (``mmap``/``mprotect``
    for pools and loading) survive and remain weaponizable.
    """
    callgraph = build_callgraph(module)
    reachable = callgraph.reachable_from([module.entry])
    new_module = module.clone()
    report = DebloatReport()
    report.kept_functions = set(reachable)
    for name in list(new_module.functions):
        if name not in reachable:
            report.removed_functions.add(name)
            del new_module.functions[name]

    before = set(callgraph.syscall_sites)
    after = set(build_callgraph(new_module).syscall_sites)
    report.removed_syscalls = before - after
    report.surviving_sensitive = after & set(SENSITIVE_SYSCALLS)
    return new_module, report


def used_syscalls(image):
    """Every syscall ``image``'s module has a site for, once per image."""
    return image.derive(
        "used-syscalls",
        lambda image: frozenset(build_callgraph(image.module).syscall_sites),
    )


def phase_split(image, roots):
    """:func:`phase_syscalls` of ``image``'s module as frozensets, once per
    image and set of serving roots."""
    return image.derive(
        ("phase-split", roots),
        lambda image: tuple(map(frozenset, phase_syscalls(image.module, roots))),
    )


def debloated_for(image):
    """:func:`debloat_module` of ``image``'s module, once per image: every
    launch loads one shared debloated module, which the loader lays out
    once."""
    return image.derive("debloat", lambda image: debloat_module(image.module))


class StaticMechanism(ProtectionMechanism):
    """CPU-flag-only defenses: vanilla, CET, LLVM-CFI, DFI."""


class SeccompAllowlistMechanism(ProtectionMechanism):
    """Static syscall allowlist: KILL anything the program never calls."""

    def install(self, kernel, proc, app, module):
        allowed = used_syscalls(self.image)
        kernel.install_seccomp(proc, build_presence_filter(allowed, "allowlist"))


class TemporalMechanism(SeccompAllowlistMechanism):
    """Two-phase specialization: allowlist at launch, a stricter filter
    once the server enters its accept loop (TSP/temporal debloating).

    The phase switch is a dispatch-pipeline hook: at the first
    ``accept``/``accept4`` the serving-phase filter is appended to the
    calling process *before* the seccomp stage evaluates that syscall, so
    the strictest-action-wins composition applies from the switch point on.
    """

    def __init__(self, defense):
        super().__init__(defense)
        self.switched = False
        self.serving_filter = None
        self.init_only = frozenset()

    def install(self, kernel, proc, app, module):
        super().install(kernel, proc, app, module)
        roots = SERVING_ROOTS.get(app)
        if roots is None:
            return
        init_only, serving_set = phase_split(self.image, roots)
        serving = build_presence_filter(serving_set, "temporal-serving")
        self.serving_filter = serving
        self.init_only = init_only

        def phase_switch(ctx):
            if not self.switched and ctx.name in ("accept", "accept4"):
                self.switched = True
                kernel.install_seccomp(ctx.proc, serving)

        kernel.pipeline.insert("count", phase_switch)


class DebloatMechanism(ProtectionMechanism):
    """Static debloating: unreachable functions removed from the binary."""

    def __init__(self, defense):
        super().__init__(defense)
        self.report = None

    def target_module(self, app, module):
        debloated, self.report = debloated_for(load_module(module))
        return debloated
