"""Call-type context analysis (§6.1).

Classifies every system call in the (simulated) syscall table:

- **directly-callable** — some direct ``Call`` instruction targets a wrapper
  of the syscall (or a raw ``Syscall`` instruction sits inline in
  application code);
- **indirectly-callable** — a wrapper's address is taken (``FuncAddr``), so
  it may be the target of an indirect call;
- **not-callable** — everything else; the monitor's seccomp filter answers
  these with ``SECCOMP_RET_KILL``.

A syscall can be both directly- and indirectly-callable.
"""

from dataclasses import dataclass, field

from repro.ir.callgraph import wrapper_map


@dataclass
class CallTypeInfo:
    """Result of the call-type analysis."""

    #: syscall name -> {"direct": bool, "indirect": bool}; names absent from
    #: the dict are not-callable.
    call_types: dict = field(default_factory=dict)
    #: wrapper function -> syscall names it wraps
    wrappers: dict = field(default_factory=dict)
    #: syscall name -> set of wrapper function names
    syscall_wrappers: dict = field(default_factory=dict)
    #: functions with inline (non-wrapper) Syscall instructions -> names
    inline_sites: dict = field(default_factory=dict)

    def allows(self, syscall_name, kind):
        entry = self.call_types.get(syscall_name)
        return bool(entry and entry.get(kind))

    def is_used(self, syscall_name):
        return syscall_name in self.call_types

    def _mark(self, syscall_name, kind):
        entry = self.call_types.setdefault(
            syscall_name, {"direct": False, "indirect": False}
        )
        entry[kind] = True


def analyze_call_types(module, callgraph):
    """Run the §6.1 classification over ``module``."""
    info = CallTypeInfo()
    info.wrappers = wrapper_map(module)
    for func_name, syscall_names in info.wrappers.items():
        for syscall_name in syscall_names:
            info.syscall_wrappers.setdefault(syscall_name, set()).add(func_name)

    # Direct calls targeting wrappers.
    for wrapper_name, syscall_names in info.wrappers.items():
        callers = callgraph.callers_of(wrapper_name)
        if callers:
            for syscall_name in syscall_names:
                info._mark(syscall_name, "direct")
        if callgraph.is_address_taken(wrapper_name):
            for syscall_name in syscall_names:
                info._mark(syscall_name, "indirect")

    # Inline Syscall instructions in non-wrapper functions count as direct.
    for syscall_name, sites in callgraph.syscall_sites.items():
        for site in sites:
            if site.caller not in info.wrappers:
                info._mark(syscall_name, "direct")
                info.inline_sites.setdefault(site.caller, set()).add(syscall_name)

    return info
