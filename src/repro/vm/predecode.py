"""Predecoded instruction handlers — the interpreter's wall-clock fast path.

The classic interpreter loop (`CPU._step`) re-derives everything on every
step: it resolves ``rip`` through a bisect, walks an ``isinstance`` chain,
and turns every operand into a frame address via an O(n) slot scan.  None
of that work depends on anything that changes at runtime, so this module
does it once per (CPU, function): each instruction becomes a zero-argument
closure with its frame-slot offsets, immediate values, jump targets, and
cycle charges already baked in.

Strict contract: **simulated-cycle semantics are identical to the classic
loop** — the same ledger charges in the same categories at the same points,
the same faults (with the same messages) from the same operand order, the
same stats counters.  The parity fixture (`tests/fixtures/parity_seed.json`)
pins this byte-for-byte; `tests/vm/test_predecode.py` additionally diffs the
two loops directly.  Anything an instruction does that cannot be proven
safe to specialize at decode time falls back to ``cpu._step(instr)``, which
preserves error timing exactly (a malformed instruction that is never
executed must never raise).

Closures bind objects, not values, for anything mutable: ``cpu.fp``,
``cpu.rip``, ``proc.bastion_runtime`` and the hooks dict are read at
execution time, so attacks that corrupt frames or install hooks mid-run
behave exactly as before.
"""

from repro.ir.instructions import (
    AddrGlobal,
    AddrLocal,
    BinOp,
    Branch,
    Call,
    Const,
    CTX_BIND_CONST,
    CTX_BIND_MEM,
    CTX_WRITE_MEM,
    FuncAddr,
    Gep,
    Imm,
    Index,
    Intrinsic,
    Jump,
    Label,
    Load,
    Move,
    Ret,
    Store,
    Syscall,
    Var,
)
from repro.vm.loader import INSTR_STRIDE
from repro.vm.memory import WORD

_M64 = (1 << 64) - 1
_HALF = 1 << 63
_FULL = 1 << 64

#: Exact replicas of the classic loop's ``_binop`` arms (including the
#: C-style division semantics and the bug-compatible float round-trip).
_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "//": lambda a, b: 0 if b == 0 else int(a / b) if (a < 0) != (b < 0) else a // b,
    "%": lambda a, b: 0
    if b == 0
    else a - b * (int(a / b) if (a < 0) != (b < 0) else a // b),
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << (b & 63),
    ">>": lambda a, b: a >> (b & 63),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
}


class _Unsupported(Exception):
    """Internal decode-time signal: use the classic-step fallback."""


def decode_function(cpu, func):
    """Decode ``func`` into a list of zero-argument ops for ``cpu``.

    One op per instruction, parallel to ``func.body``.  Each op returns
    ``None`` to continue or an :class:`~repro.vm.cpu.ExitStatus` to stop,
    exactly like ``CPU._step``.
    """
    image = cpu.image
    mem = cpu.proc.memory
    words = mem._words
    mem_read = mem.read
    mem_write = mem.write
    ledger = cpu.ledger
    bc = ledger.by_category
    stats = cpu.stats
    costs = cpu.costs
    proc = cpu.proc
    shadow = cpu.shadow_stack
    dfi = cpu.options.dfi

    c_instr = costs.instr
    c_load = costs.load
    c_store = costs.store
    c_branch = costs.branch
    c_call = costs.call
    c_ret = costs.ret
    c_cet = costs.cet_per_transfer
    c_dfi = costs.dfi_per_access

    offs = {
        name: WORD * (slot + 1) for slot, name in enumerate(func.local_names())
    }

    def spec(operand):
        """Operand -> (is_imm, immediate value | frame offset)."""
        if isinstance(operand, Imm):
            return True, operand.value
        if isinstance(operand, Var):
            return False, offs[operand.name]
        raise _Unsupported(operand)

    def reader(operand):
        """Generic fetch closure for the less-hot ops."""
        imm, v = spec(operand)
        if imm:
            return lambda: v
        off = v

        def rd():
            addr = cpu.fp - off
            if addr >= 0 and not addr & 7:
                return words.get(addr, 0)
            return mem_read(addr)

        return rd

    def store_local(off):
        """Write a (wrapped) value into the current frame's slot."""

        def wr(value):
            addr = cpu.fp - off
            if addr >= 0 and not addr & 7:
                words[addr] = value
            else:
                mem_write(addr, value)

        return wr

    # -- per-instruction factories ------------------------------------------

    def make_const(instr):
        if not isinstance(instr.value, int):
            raise _Unsupported(instr)
        value = instr.value & _M64
        if value >= _HALF:
            value -= _FULL
        doff = offs[instr.dst]

        def op():
            addr = cpu.fp - doff
            if addr >= 0 and not addr & 7:
                words[addr] = value
            else:
                mem_write(addr, value)
            ledger.cycles += c_instr
            bc["app"] = bc.get("app", 0) + c_instr
            cpu.rip += INSTR_STRIDE
            return None

        return op

    def make_move(instr):
        s_imm, sv = spec(instr.src)
        doff = offs[instr.dst]

        def op():
            fp = cpu.fp
            if s_imm:
                v = sv
            else:
                addr = fp - sv
                if addr >= 0 and not addr & 7:
                    v = words.get(addr, 0)
                else:
                    v = mem_read(addr)
            v &= _M64
            if v >= _HALF:
                v -= _FULL
            daddr = fp - doff
            if daddr >= 0 and not daddr & 7:
                words[daddr] = v
            else:
                mem_write(daddr, v)
            ledger.cycles += c_instr
            bc["app"] = bc.get("app", 0) + c_instr
            cpu.rip += INSTR_STRIDE
            return None

        return op

    def make_binop(instr):
        fn = _BINOPS.get(instr.op)
        if fn is None:
            raise _Unsupported(instr)
        a_imm, av = spec(instr.a)
        b_imm, bv = spec(instr.b)
        doff = offs[instr.dst]

        def op():
            fp = cpu.fp
            if a_imm:
                a = av
            else:
                addr = fp - av
                if addr >= 0 and not addr & 7:
                    a = words.get(addr, 0)
                else:
                    a = mem_read(addr)
            if b_imm:
                b = bv
            else:
                addr = fp - bv
                if addr >= 0 and not addr & 7:
                    b = words.get(addr, 0)
                else:
                    b = mem_read(addr)
            v = fn(a, b)
            v &= _M64
            if v >= _HALF:
                v -= _FULL
            daddr = fp - doff
            if daddr >= 0 and not daddr & 7:
                words[daddr] = v
            else:
                mem_write(daddr, v)
            ledger.cycles += c_instr
            bc["app"] = bc.get("app", 0) + c_instr
            cpu.rip += INSTR_STRIDE
            return None

        return op

    def make_load(instr):
        a_imm, av = spec(instr.addr)
        doff = offs[instr.dst]

        def op():
            fp = cpu.fp
            if a_imm:
                addr = av
            else:
                slot = fp - av
                if slot >= 0 and not slot & 7:
                    addr = words.get(slot, 0)
                else:
                    addr = mem_read(slot)
            if dfi:
                ledger.cycles += c_dfi
                bc["dfi"] = bc.get("dfi", 0) + c_dfi
            if addr >= 0 and not addr & 7:
                v = words.get(addr, 0)
            else:
                v = mem_read(addr)
            v &= _M64
            if v >= _HALF:
                v -= _FULL
            daddr = fp - doff
            if daddr >= 0 and not daddr & 7:
                words[daddr] = v
            else:
                mem_write(daddr, v)
            ledger.cycles += c_load
            bc["app"] = bc.get("app", 0) + c_load
            cpu.rip += INSTR_STRIDE
            return None

        return op

    def make_store(instr):
        a_imm, av = spec(instr.addr)
        v_imm, vv = spec(instr.value)

        def op():
            fp = cpu.fp
            if a_imm:
                addr = av
            else:
                slot = fp - av
                if slot >= 0 and not slot & 7:
                    addr = words.get(slot, 0)
                else:
                    addr = mem_read(slot)
            if dfi:
                ledger.cycles += c_dfi
                bc["dfi"] = bc.get("dfi", 0) + c_dfi
            if v_imm:
                v = vv
            else:
                slot = fp - vv
                if slot >= 0 and not slot & 7:
                    v = words.get(slot, 0)
                else:
                    v = mem_read(slot)
            v &= _M64
            if v >= _HALF:
                v -= _FULL
            if addr >= 0 and not addr & 7:
                words[addr] = v
            else:
                mem_write(addr, v)
            ledger.cycles += c_store
            bc["app"] = bc.get("app", 0) + c_store
            cpu.rip += INSTR_STRIDE
            return None

        return op

    def make_addr_local(instr):
        voff = offs[instr.var]
        doff = offs[instr.dst]

        def op():
            fp = cpu.fp
            v = (fp - voff) & _M64
            if v >= _HALF:
                v -= _FULL
            daddr = fp - doff
            if daddr >= 0 and not daddr & 7:
                words[daddr] = v
            else:
                mem_write(daddr, v)
            ledger.cycles += c_instr
            bc["app"] = bc.get("app", 0) + c_instr
            cpu.rip += INSTR_STRIDE
            return None

        return op

    def make_set_const(value, doff):
        """Shared tail for ops whose value is known at decode time."""
        value = value & _M64
        if value >= _HALF:
            value -= _FULL

        def op():
            addr = cpu.fp - doff
            if addr >= 0 and not addr & 7:
                words[addr] = value
            else:
                mem_write(addr, value)
            ledger.cycles += c_instr
            bc["app"] = bc.get("app", 0) + c_instr
            cpu.rip += INSTR_STRIDE
            return None

        return op

    def make_gep(instr):
        struct = image.module.types.get(instr.struct)
        delta = WORD * struct.offset(instr.field_name)  # may raise -> fallback
        rd = reader(instr.base)
        doff = offs[instr.dst]

        def op():
            v = (rd() + delta) & _M64
            if v >= _HALF:
                v -= _FULL
            daddr = cpu.fp - doff
            if daddr >= 0 and not daddr & 7:
                words[daddr] = v
            else:
                mem_write(daddr, v)
            ledger.cycles += c_instr
            bc["app"] = bc.get("app", 0) + c_instr
            cpu.rip += INSTR_STRIDE
            return None

        return op

    def make_index(instr):
        rd_base = reader(instr.base)
        rd_idx = reader(instr.index)
        scale = instr.scale
        doff = offs[instr.dst]

        def op():
            v = (rd_base() + WORD * rd_idx() * scale) & _M64
            if v >= _HALF:
                v -= _FULL
            daddr = cpu.fp - doff
            if daddr >= 0 and not daddr & 7:
                words[daddr] = v
            else:
                mem_write(daddr, v)
            ledger.cycles += c_instr
            bc["app"] = bc.get("app", 0) + c_instr
            cpu.rip += INSTR_STRIDE
            return None

        return op

    def make_label(_instr):
        def op():
            cpu.rip += INSTR_STRIDE
            return None

        return op

    def make_jump(instr):
        target = image.addr_of(func.name, func.label_index(instr.label))

        def op():
            cpu.rip = target
            ledger.cycles += c_branch
            bc["app"] = bc.get("app", 0) + c_branch
            return None

        return op

    def make_branch(instr):
        c_imm, cv = spec(instr.cond)
        t_then = image.addr_of(func.name, func.label_index(instr.then_label))
        t_else = image.addr_of(func.name, func.label_index(instr.else_label))

        def op():
            if c_imm:
                cond = cv
            else:
                addr = cpu.fp - cv
                if addr >= 0 and not addr & 7:
                    cond = words.get(addr, 0)
                else:
                    cond = mem_read(addr)
            cpu.rip = t_then if cond else t_else
            ledger.cycles += c_branch
            bc["app"] = bc.get("app", 0) + c_branch
            return None

        return op

    def make_call(instr):
        callee = image.module.functions.get(instr.callee)
        if callee is None or not callee.body:
            raise _Unsupported(instr)
        target_addr = image.func_base[instr.callee]
        readers = [reader(a) for a in instr.args]
        frame_bytes = WORD * callee.frame_size
        nparams = min(len(instr.args), len(callee.params))

        def op():
            return_addr = cpu.rip + INSTR_STRIDE
            args = [rd() for rd in readers]
            cpu.sp = sp = cpu.sp - 2 * WORD
            addr = sp + WORD
            if addr >= 0 and not addr & 7:
                words[addr] = return_addr
            else:
                mem_write(addr, return_addr)
            if sp >= 0 and not sp & 7:
                words[sp] = cpu.fp
            else:
                mem_write(sp, cpu.fp)
            cpu.fp = sp
            cpu.sp = sp - frame_bytes
            for i in range(nparams):
                v = args[i] & _M64
                if v >= _HALF:
                    v -= _FULL
                addr = sp - WORD * (i + 1)
                if addr >= 0 and not addr & 7:
                    words[addr] = v
                else:
                    mem_write(addr, v)
            if shadow is not None:
                shadow.push(return_addr)
                ledger.cycles += c_cet
                bc["cet"] = bc.get("cet", 0) + c_cet
            ledger.cycles += c_call
            bc["app"] = bc.get("app", 0) + c_call
            cpu.rip = target_addr
            stats.calls += 1
            return None

        return op

    def make_ret(instr):
        from repro.vm.cpu import ExitStatus

        rd = reader(instr.value) if instr.value is not None else None
        ret_sites = cpu._ret_sites

        def op():
            fp = cpu.fp
            if rd is None:
                value = 0
            else:
                value = rd() & _M64
                if value >= _HALF:
                    value -= _FULL
            addr = fp + WORD
            if addr >= 0 and not addr & 7:
                return_addr = words.get(addr, 0)
            else:
                return_addr = mem_read(addr)
            if fp >= 0 and not fp & 7:
                saved_fp = words.get(fp, 0)
            else:
                saved_fp = mem_read(fp)
            if shadow is not None:
                shadow.check_pop(return_addr)
                ledger.cycles += c_cet
                bc["cet"] = bc.get("cet", 0) + c_cet
            ledger.cycles += c_ret
            bc["app"] = bc.get("app", 0) + c_ret
            stats.rets += 1
            cpu.rax = value
            cpu.sp = fp + 2 * WORD
            cpu.fp = saved_fp
            if return_addr == 0:
                return ExitStatus("returned", value)
            if return_addr in ret_sites:
                dst_off = ret_sites[return_addr]
            else:
                dst_off = ret_sites[return_addr] = _ret_site(image, return_addr)
            if dst_off is not None:
                daddr = saved_fp - dst_off
                if daddr >= 0 and not daddr & 7:
                    words[daddr] = value
                else:
                    mem_write(daddr, value)
            cpu.rip = return_addr
            return None

        return op

    def make_syscall(instr):
        readers = [reader(a) for a in instr.args]
        name = instr.name
        dst_off = offs[instr.dst] if instr.dst is not None else None
        dispatch = cpu.kernel.dispatch
        set_registers = proc.set_registers
        c_sys = costs.syscall_base

        def op():
            args = []
            for rd in readers:
                v = rd() & _M64
                if v >= _HALF:
                    v -= _FULL
                args.append(v)
            set_registers(name, args, cpu.rip, cpu.fp, cpu.sp)
            ledger.cycles += c_sys
            bc["kernel"] = bc.get("kernel", 0) + c_sys
            result = dispatch(proc, name, args)
            if dst_off is not None:
                v = result & _M64
                if v >= _HALF:
                    v -= _FULL
                daddr = cpu.fp - dst_off
                if daddr >= 0 and not daddr & 7:
                    words[daddr] = v
                else:
                    mem_write(daddr, v)
            cpu.rip += INSTR_STRIDE
            return None

        return op

    def make_intrinsic(instr):
        name = instr.name
        if name == CTX_WRITE_MEM:
            rd_addr = reader(instr.args[0])
            rd_size = reader(instr.args[1]) if len(instr.args) > 1 else None
            base_cost = costs.ctx_write_mem_base
            per_slot = costs.ctx_write_mem_per_slot

            def op():
                stats.instrumentation_hits += 1
                runtime = proc.bastion_runtime
                addr = rd_addr()
                size = rd_size() if rd_size is not None else 1
                c = base_cost + per_slot * max(size, 1)
                if c < 0:
                    raise ValueError("negative cycle charge")
                ledger.cycles += c
                bc["instrumentation"] = bc.get("instrumentation", 0) + c
                if runtime is not None:
                    runtime.ctx_write_mem(addr, size)
                cpu.rip += INSTR_STRIDE
                return None

            return op
        if name in (CTX_BIND_MEM, CTX_BIND_CONST):
            rd = reader(instr.args[0])
            callsite = image.addr_of(func.name, instr.meta["callsite_index"])
            pos = instr.meta["pos"]
            bind_mem = name == CTX_BIND_MEM
            c_bind = costs.ctx_bind

            def op():
                stats.instrumentation_hits += 1
                runtime = proc.bastion_runtime
                value = rd()
                ledger.cycles += c_bind
                bc["instrumentation"] = bc.get("instrumentation", 0) + c_bind
                if runtime is not None:
                    if bind_mem:
                        runtime.ctx_bind_mem(callsite, pos, value)
                    else:
                        runtime.ctx_bind_const(callsite, pos, value)
                cpu.rip += INSTR_STRIDE
                return None

            return op
        if name == "cycle_burn":
            rd = reader(instr.args[0])
            dfi_millis = costs.dfi_elided_millis

            def op():
                amount = rd()
                if amount < 0:
                    raise ValueError("negative cycle charge")
                ledger.cycles += amount
                bc["app"] = bc.get("app", 0) + amount
                if dfi:
                    extra = amount * dfi_millis // 1000
                    ledger.cycles += extra
                    bc["dfi"] = bc.get("dfi", 0) + extra
                cpu.rip += INSTR_STRIDE
                return None

            return op
        if name == "trace":
            readers = [reader(a) for a in instr.args]

            def op():
                proc.trace_log.append([rd() for rd in readers])
                cpu.rip += INSTR_STRIDE
                return None

            return op
        if name == "hook":
            meta = instr.meta

            def op():
                hook = cpu.hooks.get(meta.get("point"))
                if hook is not None:
                    hook(cpu)
                cpu.rip += INSTR_STRIDE
                return None

            return op
        # 'halt' and unknown intrinsics take the classic path.
        raise _Unsupported(instr)

    factories = {
        Const: make_const,
        Move: make_move,
        BinOp: make_binop,
        Load: make_load,
        Store: make_store,
        AddrLocal: make_addr_local,
        Gep: make_gep,
        Index: make_index,
        Label: make_label,
        Jump: make_jump,
        Branch: make_branch,
        Call: make_call,
        Ret: make_ret,
        Syscall: make_syscall,
        Intrinsic: make_intrinsic,
    }

    def make_addr_global(instr):
        return make_set_const(image.global_addr[instr.name], offs[instr.dst])

    def make_func_addr(instr):
        return make_set_const(image.func_base[instr.func], offs[instr.dst])

    factories[AddrGlobal] = make_addr_global
    factories[FuncAddr] = make_func_addr

    def fallback(instr):
        def op():
            return cpu._step(instr)

        return op

    ops = []
    for instr in func.body:
        factory = factories.get(type(instr))
        if factory is None:
            ops.append(fallback(instr))
            continue
        try:
            ops.append(factory(instr))
        except Exception:
            # Anything not provably safe to specialize keeps the classic
            # step's exact error timing: raise at execution, not decode.
            ops.append(fallback(instr))
    return ops


def _ret_site(image, return_addr):
    """Frame offset of the caller's call destination slot (or None).

    Mirrors the delivery decode in ``CPU._do_ret``: the instruction at
    ``return_addr - 4`` must be a call with a destination variable.
    """
    from repro.errors import ExecutionFault
    from repro.ir.instructions import Call, CallIndirect

    call_addr = return_addr - INSTR_STRIDE
    try:
        caller_func, idx = image.resolve_code(call_addr)
        call_instr = caller_func.body[idx]
    except ExecutionFault:
        return None
    if isinstance(call_instr, (Call, CallIndirect)) and call_instr.dst is not None:
        return WORD * (caller_func.local_slot(call_instr.dst) + 1)
    return None
