"""Temporal system call specialization (Ghavamnia et al., §12 related work).

The strongest published *filtering* baseline: after initialization, switch
the process to a tighter "serving phase" allowlist that drops the
init-only syscalls (execve for library loading, setuid for privilege drop,
mmap for pools, ...).

§12's point — which this module lets experiments demonstrate — is that
attacks like Control Jujutsu and AOCR "leverage system calls still
permitted in the application's serving phase", so even the temporal filter
cannot stop them: NGINX's serving phase must keep ``accept4``/``mprotect``
(and, for the upgrade path, ``execve``), and the attacker simply uses
those.
"""

from repro.baselines.seccomp_filter import used_syscalls
from repro.ir.callgraph import build_callgraph, wrapper_map
from repro.ir.instructions import Call, Syscall
from repro.policy import build_presence_filter


def phase_syscalls(module, serving_roots):
    """Split used syscalls into (init-only, serving) sets.

    ``serving_roots`` are the functions that constitute the serving phase
    (e.g. NGINX's worker cycle); every syscall reachable from them stays
    allowed after the phase switch, everything else becomes init-only.
    """
    graph = build_callgraph(module)
    wrappers = wrapper_map(module)
    serving_functions = graph.reachable_from(list(serving_roots))
    serving = set()
    for func_name in serving_functions:
        func = module.functions.get(func_name)
        if func is None:
            continue
        for instr in func.body:
            if isinstance(instr, Syscall):
                serving.add(instr.name)
            elif isinstance(instr, Call) and instr.callee in wrappers:
                serving.update(wrappers[instr.callee])
    init_only = used_syscalls(module) - serving
    return init_only, serving


def build_serving_phase_filter(module, serving_roots):
    """The post-initialization filter: KILL init-only + never-used syscalls."""
    init_only, serving = phase_syscalls(module, serving_roots)
    return build_presence_filter(serving, "temporal-serving"), init_only, serving
