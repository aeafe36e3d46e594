"""The ``BastionCompiler`` facade: analyses → instrumentation → metadata.

Usage::

    artifact = BastionCompiler().compile(module)
    artifact.module     # the instrumented program
    artifact.metadata   # the context metadata the monitor loads
    artifact.image()    # loadable Image of the instrumented program
"""

from dataclasses import dataclass, field

from repro.ir.callgraph import build_callgraph
from repro.ir.instructions import Call, CallIndirect
from repro.compiler.argint import analyze_argument_integrity
from repro.compiler.calltype import analyze_call_types
from repro.compiler.cfg import analyze_control_flow
from repro.compiler.instrument import instrument_module
from repro.compiler.metadata import (
    ArgBindingMeta,
    BastionMetadata,
    CallsiteMeta,
    SiteKey,
)
from repro.syscalls.sensitive import FILESYSTEM_EXTENSION, SENSITIVE_SYSCALLS
from repro.vm.loader import load_module


#: pass-hook stage names, in execution order
PASS_STAGES = (
    "validate",
    "callgraph",
    "calltype",
    "cfg",
    "argint",
    "instrument",
    "metadata",
)


@dataclass
class BastionArtifact:
    """A compiled, instrumented, metadata-equipped program."""

    original: object  # the input Module (untouched)
    module: object  # the instrumented Module
    metadata: BastionMetadata
    #: key -> result, for :meth:`derive`
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def image(self):
        """The loaded image of the instrumented program (the loader's
        one image per module state)."""
        return load_module(self.module)

    def derive(self, key, fn):
        """``fn(self)``, computed once per artifact under ``key`` (as
        :meth:`Image.derive <repro.vm.loader.Image.derive>` does per
        image): the monitor keeps its resolved metadata here."""
        if key not in self._derived:
            self._derived[key] = fn(self)
        return self._derived[key]


class BastionCompiler:
    """The compiler pass of Figure 1.

    Args:
        sensitive: iterable of protected syscall names.  Defaults to the
            paper's 20-entry Table 1 set.
        extend_filesystem: add the §11.2 filesystem extension set (Table 7).
        hooks: optional callable (or iterable of callables) invoked as
            ``hook(stage, payload)`` after every pass, where ``stage`` is a
            name from :data:`PASS_STAGES` and ``payload`` that pass's result
            object.  The analysis tooling (:mod:`repro.analyze`) uses this to
            observe intermediate pass products without re-running them.
    """

    def __init__(self, sensitive=None, extend_filesystem=False, hooks=None):
        names = tuple(sensitive if sensitive is not None else SENSITIVE_SYSCALLS)
        if extend_filesystem:
            names = names + tuple(
                n for n in FILESYSTEM_EXTENSION if n not in names
            )
        self.sensitive_names = names
        if hooks is None:
            hooks = ()
        elif callable(hooks):
            hooks = (hooks,)
        self.hooks = tuple(hooks)

    def _emit(self, stage, payload):
        for hook in self.hooks:
            hook(stage, payload)

    def compile(self, module):
        """Run all analyses + instrumentation; returns a :class:`BastionArtifact`."""
        load_module(module)  # validates the input, once per module state
        self._emit("validate", module)
        callgraph = build_callgraph(module)
        self._emit("callgraph", callgraph)
        calltype_info = analyze_call_types(module, callgraph)
        self._emit("calltype", calltype_info)
        cf_info = analyze_control_flow(
            module, callgraph, calltype_info, self.sensitive_names
        )
        self._emit("cfg", cf_info)
        sensitive_sites = cf_info.sensitive_sites
        arg_info = analyze_argument_integrity(module, callgraph, sensitive_sites)
        self._emit("argint", arg_info)
        result = instrument_module(module, arg_info)
        self._emit("instrument", result)

        metadata = self._build_metadata(
            module, callgraph, calltype_info, cf_info, arg_info, result
        )
        self._emit("metadata", metadata)
        return BastionArtifact(
            original=module, module=result.module, metadata=metadata
        )

    # ------------------------------------------------------------------

    def _build_metadata(
        self, module, callgraph, calltype_info, cf_info, arg_info, result
    ):
        site_map = result.site_map

        def translate(site):
            return SiteKey(site.caller, site_map[(site.caller, site.index)])

        metadata = BastionMetadata(program=module.name, entry=module.entry)
        metadata.sensitive_set = self.sensitive_names
        metadata.call_types = {
            name: dict(flags) for name, flags in calltype_info.call_types.items()
        }
        metadata.valid_callers = {
            callee: tuple(sorted(translate(s) for s in sites))
            for callee, sites in cf_info.valid_callers.items()
        }
        metadata.indirect_sites = tuple(
            sorted(translate(s) for s in cf_info.indirect_sites)
        )
        metadata.address_taken = tuple(sorted(cf_info.address_taken))
        metadata.thread_entries = tuple(sorted(cf_info.thread_entries))

        syscall_functions = {
            func: tuple(names) for func, names in calltype_info.wrappers.items()
        }
        for func, names in calltype_info.inline_sites.items():
            merged = set(syscall_functions.get(func, ())) | set(names)
            syscall_functions[func] = tuple(sorted(merged))
        metadata.syscall_functions = syscall_functions

        for site, plan in arg_info.plans.items():
            key = translate(site)
            metadata.callsites[key] = CallsiteMeta(
                site=key,
                syscall=plan.syscall,
                binds=tuple(
                    ArgBindingMeta(
                        pos,
                        "const" if kind == "const" else "mem",
                        payload if kind == "const" else None,
                    )
                    for pos, kind, payload in sorted(plan.binds)
                ),
            )
        metadata.sensitive_globals = tuple(sorted(arg_info.sensitive_globals))

        # Sensitive struct fields of global instances: the monitor verifies
        # these slots directly at every stop ("verifies integrity of all
        # sensitive variables", §7.4) — this is what catches data-only
        # attacks that corrupt e.g. ngx_exec_ctx_t.path in place.
        field_slots = []
        for struct_name, field_name in sorted(arg_info.sensitive_fields):
            if struct_name not in module.types:
                continue
            offset = module.types.get(struct_name).offset(field_name)
            for gvar in module.globals.values():
                if gvar.struct == struct_name:
                    field_slots.append((gvar.name, offset))
        metadata.global_field_slots = tuple(field_slots)
        metadata.stats = self._table5_stats(
            module, callgraph, calltype_info, cf_info, result
        )
        # Provenance: which passes produced this artifact and the shape of
        # the module they saw, so downstream consumers (the static analyzer,
        # the monitor's consistency check) can detect metadata that was not
        # produced by this compiler for this program.
        metadata.provenance = {
            "tool": "repro.compiler",
            "version": 1,
            "passes": list(PASS_STAGES[:-1]),
            "source_functions": len(module.functions),
            "source_instructions": module.instruction_count(),
            "instrumented_instructions": result.module.instruction_count(),
            "sensitive_set_size": len(self.sensitive_names),
        }
        return metadata

    def _table5_stats(self, module, callgraph, calltype_info, cf_info, result):
        """The instrumentation statistics of the paper's Table 5."""
        direct_sites = sum(
            1
            for func in module.functions.values()
            for instr in func.body
            if isinstance(instr, Call)
        )
        indirect_sites = sum(
            1
            for func in module.functions.values()
            for instr in func.body
            if isinstance(instr, CallIndirect)
        )
        sensitive_indirect = sum(
            1
            for name in self.sensitive_names
            if calltype_info.call_types.get(name, {}).get("indirect")
        )
        return {
            "total_callsites": direct_sites + indirect_sites,
            "direct_callsites": direct_sites,
            "indirect_callsites": indirect_sites,
            "sensitive_callsites": len(cf_info.sensitive_sites),
            "sensitive_indirect_syscalls": sensitive_indirect,
            "ctx_write_mem": result.ctx_write_mem_count,
            "ctx_bind_mem": result.ctx_bind_mem_count,
            "ctx_bind_const": result.ctx_bind_const_count,
            "total_instrumentation": result.total_sites,
        }
