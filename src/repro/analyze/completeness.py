"""Instrumentation-completeness pass.

Soundness claim being checked: *every* store to a variable that can reach a
sensitive syscall argument is shadowed by a ``ctx_write_mem`` intrinsic,
and every argument binding recorded in the metadata is actually established
by a ``ctx_bind_mem``/``ctx_bind_const`` intrinsic ahead of the callsite.
If either is missing, the monitor compares registers against a stale (or
absent) shadow copy and the argument-integrity context silently weakens.

The pass re-derives the sensitive-variable set *independently* of the
compiler's §6.3 analysis: a backward taint over def-use chains
(:mod:`repro.ir.dataflow`) seeded at sensitive syscall callsite arguments,
propagated through move/arithmetic chains, loads (to their origin lvalues),
call parameters, and return values.  The re-derivation deliberately mirrors
the use-def character of the compiler pass (no alias analysis — see
DESIGN.md) so a clean program produces zero findings; any divergence
between what the taint demands and what the instrumenter emitted is a
finding with an IR location.
"""

from repro.analyze.diagnostics import Diagnostic
from repro.analyze.flowgraph import program_graph
from repro.ir.callgraph import wrapper_map as _wrapper_map
from repro.ir.dataflow import def_use_chains
from repro.ir.instructions import (
    AddrGlobal,
    AddrLocal,
    BinOp,
    Call,
    Gep,
    Index,
    Intrinsic,
    Load,
    Move,
    Ret,
    Store,
    Var,
    CTX_BIND_CONST,
    CTX_BIND_MEM,
    CTX_WRITE_MEM,
)
from repro.policy import sensitive_sites

PASS_NAME = "completeness"
MAX_TAINT_POSITION = 6
_ADDR_DEPTH = 4


class _Taint:
    """Independent backward taint from sensitive syscall arguments."""

    def __init__(self, module):
        self.module = module
        self.wrappers = _wrapper_map(module)
        self.locals = set()  # (func, var)
        self.fields = set()  # (struct, field)
        self.globals = set()  # global name
        self._queue = []
        self._defs = {}  # func -> var -> [(idx, instr)]
        self._call_sites = {}  # callee -> [(func, idx, instr)] lazily built

    # -- def lookup ------------------------------------------------------

    def defs_of(self, func_name, var_name):
        per_func = self._defs.get(func_name)
        if per_func is None:
            func = self.module.functions[func_name]
            defs, _uses = def_use_chains(func)
            per_func = {
                name: [(i, func.body[i]) for i in positions]
                for name, positions in defs.items()
            }
            self._defs[func_name] = per_func
        return per_func.get(var_name, ())

    def callers_of(self, callee):
        if not self._call_sites:
            for func in self.module.functions.values():
                for idx, instr in enumerate(func.body):
                    if isinstance(instr, Call):
                        self._call_sites.setdefault(instr.callee, []).append(
                            (func.name, idx, instr)
                        )
        return self._call_sites.get(callee, ())

    # -- marking ---------------------------------------------------------

    def taint_local(self, func_name, var_name):
        if func_name in self.wrappers:
            return
        key = (func_name, var_name)
        if key not in self.locals:
            self.locals.add(key)
            self._queue.append(("local", key))

    def taint_operand(self, func_name, operand):
        if isinstance(operand, Var):
            self.taint_local(func_name, operand.name)

    def taint_field(self, struct, field_name):
        key = (struct, field_name)
        if key not in self.fields:
            self.fields.add(key)
            self._queue.append(("field", key))

    def taint_global(self, name):
        if name not in self.globals:
            self.globals.add(name)
            self._queue.append(("global", name))

    # -- propagation ------------------------------------------------------

    def run(self, seeds):
        for func_name, operand in seeds:
            self.taint_operand(func_name, operand)
        while self._queue:
            kind, key = self._queue.pop()
            if kind == "local":
                self._spread_local(*key)
            elif kind == "field":
                self._spread_field(*key)
            else:
                self._spread_global(key)
        return self

    def _spread_local(self, func_name, var_name):
        func = self.module.functions[func_name]
        if var_name in func.params:
            position = func.params.index(var_name) + 1
            if position <= MAX_TAINT_POSITION:
                for caller, _idx, call in self.callers_of(func_name):
                    if position - 1 < len(call.args):
                        self.taint_operand(caller, call.args[position - 1])
        for _idx, instr in self.defs_of(func_name, var_name):
            if isinstance(instr, Move):
                self.taint_operand(func_name, instr.src)
            elif isinstance(instr, BinOp):
                self.taint_operand(func_name, instr.a)
                self.taint_operand(func_name, instr.b)
            elif isinstance(instr, Load):
                if isinstance(instr.addr, Var):
                    self._trace_address(func_name, instr.addr.name)
            elif isinstance(instr, (Gep, Index)):
                for op in instr.uses():
                    self.taint_operand(func_name, op)
            elif isinstance(instr, Call):
                self._taint_return_values(instr.callee)
            elif isinstance(instr, AddrGlobal):
                self.taint_global(instr.name)

    def _trace_address(self, func_name, addr_var):
        """The value behind ``addr_var`` is sensitive: find what it names."""
        self.taint_local(func_name, addr_var)
        for _idx, instr in self.defs_of(func_name, addr_var):
            if isinstance(instr, Gep):
                self.taint_field(instr.struct, instr.field_name)
                self.taint_operand(func_name, instr.base)
            elif isinstance(instr, AddrGlobal):
                self.taint_global(instr.name)
            elif isinstance(instr, AddrLocal):
                self.taint_local(func_name, instr.var)
            elif isinstance(instr, Index):
                self.taint_operand(func_name, instr.index)
                if isinstance(instr.base, Var):
                    self._trace_address(func_name, instr.base.name)
            elif isinstance(instr, BinOp):
                if isinstance(instr.a, Var):
                    self._trace_address(func_name, instr.a.name)
                self.taint_operand(func_name, instr.b)

    def _taint_return_values(self, callee_name):
        callee = self.module.functions.get(callee_name)
        if callee is None or callee.name in self.wrappers:
            return
        for instr in callee.body:
            if isinstance(instr, Ret) and instr.value is not None:
                self.taint_operand(callee_name, instr.value)

    def _spread_field(self, struct, field_name):
        for func in self.module.functions.values():
            if func.name in self.wrappers:
                continue
            for idx, instr in enumerate(func.body):
                if not isinstance(instr, Store) or not isinstance(instr.addr, Var):
                    continue
                for _di, d in self.defs_of(func.name, instr.addr.name):
                    if (
                        isinstance(d, Gep)
                        and d.struct == struct
                        and d.field_name == field_name
                    ):
                        self.taint_operand(func.name, instr.value)
                        self.taint_operand(func.name, d.base)

    def _spread_global(self, name):
        for func in self.module.functions.values():
            if func.name in self.wrappers:
                continue
            for idx, instr in enumerate(func.body):
                if not isinstance(instr, Store) or not isinstance(instr.addr, Var):
                    continue
                if self._addr_names_global(func.name, instr.addr.name, name, 0):
                    self.taint_operand(func.name, instr.value)

    def _addr_names_global(self, func_name, var_name, global_name, depth):
        if depth > _ADDR_DEPTH:
            return False
        for _idx, d in self.defs_of(func_name, var_name):
            if isinstance(d, AddrGlobal) and d.name == global_name:
                return True
            if isinstance(d, (Index, Gep)) and isinstance(d.base, Var):
                if self._addr_names_global(
                    func_name, d.base.name, global_name, depth + 1
                ):
                    return True
            if isinstance(d, BinOp) and isinstance(d.a, Var):
                if self._addr_names_global(
                    func_name, d.a.name, global_name, depth + 1
                ):
                    return True
        return False

    def sensitive_store_sites(self):
        """``(func, index)`` of every store to a tainted field or global."""
        sites = set()
        for func in self.module.functions.values():
            if func.name in self.wrappers:
                continue
            for idx, instr in enumerate(func.body):
                if not isinstance(instr, Store) or not isinstance(instr.addr, Var):
                    continue
                hit = False
                for _di, d in self.defs_of(func.name, instr.addr.name):
                    if isinstance(d, Gep) and (d.struct, d.field_name) in self.fields:
                        hit = True
                if not hit:
                    hit = any(
                        self._addr_names_global(func.name, instr.addr.name, g, 0)
                        for g in self.globals
                    )
                if hit:
                    sites.add((func.name, idx))
        return sites


# ---------------------------------------------------------------------------
# instrumentation scanning
# ---------------------------------------------------------------------------


def _is_ctx_write(instr):
    return isinstance(instr, Intrinsic) and instr.name == CTX_WRITE_MEM


def _is_ctx_bind(instr):
    return isinstance(instr, Intrinsic) and instr.name in (
        CTX_BIND_MEM,
        CTX_BIND_CONST,
    )


def _instrumentation_window(body, start):
    """Indices of the instrumentation block following body position ``start``.

    The instrumenter only inserts ``AddrLocal`` temporaries and intrinsics,
    so the window extends while those are the only instruction kinds seen.
    """
    idx = start + 1
    while idx < len(body) and isinstance(body[idx], (AddrLocal, Intrinsic)):
        yield idx
        idx += 1


def _write_covered(body, def_index, var_name):
    """Is the definition at ``def_index`` followed by ctx_write_mem(&var)?"""
    addr_temps = set()
    for j in _instrumentation_window(body, def_index):
        instr = body[j]
        if isinstance(instr, AddrLocal) and instr.var == var_name:
            addr_temps.add(instr.dst)
        elif (
            _is_ctx_write(instr)
            and instr.args
            and isinstance(instr.args[0], Var)
            and instr.args[0].name in addr_temps
        ):
            return True
    return False


def _store_covered(body, store_index):
    """Is the store at ``store_index`` followed by ctx_write_mem(addr)?"""
    store = body[store_index]
    for j in _instrumentation_window(body, store_index):
        instr = body[j]
        if _is_ctx_write(instr) and instr.args and instr.args[0] == store.addr:
            return True
    return False


def _entry_refreshes(func):
    """Parameter names refreshed by the function-entry instrumentation."""
    refreshed = set()
    addr_of = {}
    for instr in func.body:
        if isinstance(instr, AddrLocal):
            addr_of[instr.dst] = instr.var
        elif _is_ctx_write(instr):
            if instr.args and isinstance(instr.args[0], Var):
                var = addr_of.get(instr.args[0].name)
                if var in func.params:
                    refreshed.add(var)
        elif not isinstance(instr, Intrinsic):
            break  # past the entry instrumentation block
    return refreshed


def _bind_records(func):
    """``{(callsite_index, position): intrinsic name}`` for one function."""
    records = {}
    for instr in func.body:
        if _is_ctx_bind(instr):
            key = (instr.meta.get("callsite_index"), instr.meta.get("pos"))
            records[key] = instr.name
    return records


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------


def check_completeness(artifact):
    """Run the completeness pass over a compiled artifact.

    Returns ``(diagnostics, metrics)``.
    """
    module = artifact.module
    metadata = artifact.metadata
    diagnostics = []

    sites = sensitive_sites(
        program_graph(artifact), _wrapper_map(module), metadata.sensitive_set
    )

    # 1. Every sensitive callsite derivable from the IR has metadata.
    for (func_name, idx), syscall in sorted(sites.items()):
        meta = metadata.callsites.get(_site_key(metadata, func_name, idx))
        if meta is None or meta.syscall is None:
            diagnostics.append(
                Diagnostic(
                    PASS_NAME,
                    "unprotected-site",
                    "error",
                    "sensitive syscall callsite has no argument-integrity "
                    "metadata",
                    func=func_name,
                    index=idx,
                    syscall=syscall,
                )
            )

    # 2. Every metadata binding is established by a bind intrinsic in the IR.
    for site_key, meta in sorted(
        metadata.callsites.items(), key=lambda kv: kv[0]
    ):
        func = module.functions.get(site_key.func)
        if func is None:
            continue  # the consistency pass reports dangling sites
        records = _bind_records(func)
        for binding in meta.binds:
            recorded = records.get((site_key.index, binding.position))
            if recorded is None:
                diagnostics.append(
                    Diagnostic(
                        PASS_NAME,
                        "missing-bind",
                        "error",
                        "metadata expects a %s binding for arg%d but no "
                        "ctx_bind intrinsic targets this callsite"
                        % (binding.kind, binding.position),
                        func=site_key.func,
                        index=site_key.index,
                        syscall=meta.syscall,
                    )
                )
            else:
                expected = (
                    CTX_BIND_CONST if binding.kind == "const" else CTX_BIND_MEM
                )
                if recorded != expected:
                    diagnostics.append(
                        Diagnostic(
                            PASS_NAME,
                            "bind-kind-mismatch",
                            "error",
                            "arg%d bound with %s but metadata records a %s "
                            "binding"
                            % (binding.position, recorded, binding.kind),
                            func=site_key.func,
                            index=site_key.index,
                            syscall=meta.syscall,
                        )
                    )

    # 3. Independent taint: every store of a sensitive variable is shadowed.
    taint = _Taint(module)
    seeds = []
    for (func_name, idx), _syscall in sites.items():
        instr = module.functions[func_name].body[idx]
        for arg in instr.args[:MAX_TAINT_POSITION]:
            seeds.append((func_name, arg))
    taint.run(seeds)

    covered_defs = 0
    for func_name, var_name in sorted(taint.locals):
        func = module.functions[func_name]
        if var_name in func.params and not _defined_before_use(func, var_name):
            if var_name not in _entry_refreshes(func):
                diagnostics.append(
                    Diagnostic(
                        PASS_NAME,
                        "missing-param-refresh",
                        "error",
                        "sensitive parameter %%%s is never refreshed at "
                        "function entry" % var_name,
                        func=func_name,
                        index=0,
                    )
                )
            else:
                covered_defs += 1
        for idx, instr in taint.defs_of(func_name, var_name):
            if isinstance(instr, Load):
                continue  # loads are deliberately not refresh points
            if _write_covered(func.body, idx, var_name):
                covered_defs += 1
            else:
                diagnostics.append(
                    Diagnostic(
                        PASS_NAME,
                        "missing-write-shadow",
                        "error",
                        "definition of sensitive %%%s is not followed by "
                        "ctx_write_mem" % var_name,
                        func=func_name,
                        index=idx,
                    )
                )

    for func_name, idx in sorted(taint.sensitive_store_sites()):
        func = module.functions[func_name]
        if _store_covered(func.body, idx):
            covered_defs += 1
        else:
            diagnostics.append(
                Diagnostic(
                    PASS_NAME,
                    "missing-store-shadow",
                    "error",
                    "store to a sensitive field/global is not followed by "
                    "ctx_write_mem",
                    func=func_name,
                    index=idx,
                )
            )

    metrics = {
        "sensitive_sites": len(sites),
        "tainted_locals": len(taint.locals),
        "tainted_fields": len(taint.fields),
        "tainted_globals": len(taint.globals),
        "covered_writes": covered_defs,
    }
    return diagnostics, metrics


def _site_key(metadata, func_name, index):
    for key in metadata.callsites:
        if key.func == func_name and key.index == index:
            return key
    # SiteKey is a frozen dataclass; build one for the lookup miss path
    from repro.compiler.metadata import SiteKey

    return SiteKey(func_name, index)


def _defined_before_use(func, param):
    """True when the parameter is shadowed by an explicit definition."""
    for instr in func.body:
        if param in instr.defs():
            return True
        for op in instr.uses():
            if isinstance(op, Var) and op.name == param:
                return False
    return False
