"""The interpreter CPU.

Faithfulness properties that matter for the paper's experiments:

- **The memory stack is authoritative.**  ``call`` pushes the return address
  and the saved frame pointer into simulated memory; ``ret`` reads them back
  *from memory*.  Overwrite them (stack smash) and the CPU really returns to
  the attacker's address — ROP works, and CET really stops it.
- **Locals are memory-backed.**  Every variable occupies a frame slot at
  ``fp - 8*(slot+1)``; an arbitrary-write primitive can corrupt any argument
  before it reaches a syscall — which is what the argument-integrity context
  exists to catch.
- **Syscall arguments travel through registers.**  At a ``syscall``
  instruction the CPU materializes rax/rdi/.../r9/rip/rbp/rsp into the
  process's register file, then lets the kernel run seccomp and (possibly)
  stop the process for its tracer — the monitor sees exactly what a real
  ptrace-based monitor would.
- **DEP.**  Jumping to a non-text address raises an execution fault unless
  the attacker first made a mapped region executable (the ``mprotect``
  weaponization the paper's Table 1 tracks); the kernel records that event
  as arbitrary code execution.
"""

from dataclasses import dataclass

from repro.errors import (
    CFIFault,
    ExecutionFault,
    KernelError,
    ProcessKilled,
    VMFault,
    WouldBlock,
)
from repro.ir.instructions import (
    AddrGlobal,
    AddrLocal,
    BinOp,
    Branch,
    Call,
    CallIndirect,
    Const,
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
    CTX_BIND_CONST,
    CTX_BIND_MEM,
    CTX_WRITE_MEM,
)
from repro.vm.loader import INSTR_STRIDE, STACK_TOP
from repro.vm.memory import WORD
from repro.vm.shadowstack import ShadowStack

_MASK64 = (1 << 64) - 1


def _wrap(value):
    """Wrap an int to signed 64-bit semantics (like real registers)."""
    value &= _MASK64
    if value >= 1 << 63:
        value -= 1 << 64
    return value


@dataclass
class CPUOptions:
    """Per-run CPU configuration (which baseline defenses are armed)."""

    cet: bool = False  # CET shadow stack (-fcf-protection=full)
    llvm_cfi: bool = False  # coarse-grained type-signature CFI
    dfi: bool = False  # DFI baseline: per-access tracking cost
    max_steps: int = 200_000_000
    #: Use predecoded instruction closures (repro.vm.predecode).  Wall-clock
    #: only — cycle semantics are identical either way; False forces the
    #: classic interpreter loop (the reference the parity tests diff against).
    predecode: bool = True


@dataclass
class ExitStatus:
    """How a run ended."""

    kind: str  # 'returned' | 'exit' | 'halt' | 'killed' | 'fault'
    code: int = 0
    reason: str = ""

    @property
    def ok(self):
        return self.kind in ("returned", "exit", "halt") and self.code == 0


@dataclass
class CPUStats:
    """Execution counters reported by benches (Table 5 runtime side)."""

    steps: int = 0
    calls: int = 0
    indirect_calls: int = 0
    rets: int = 0
    instrumentation_hits: int = 0


class CPU:
    """Executes one process's image until exit, fault, or kill.

    ``entry``/``entry_args`` override the start point — used to run a
    cloned child at its thread start routine (§7.1's inherited-protection
    semantics) or any exported function directly.  ``stack_base`` places
    the stack; children get disjoint stacks in the shared address space.
    """

    def __init__(
        self,
        image,
        proc,
        kernel,
        options=None,
        entry=None,
        entry_args=(),
        stack_base=STACK_TOP,
    ):
        self.image = image
        self.proc = proc
        self.kernel = kernel
        self.options = options or CPUOptions()
        self.costs = proc.ledger_costs
        self.ledger = proc.ledger
        self.shadow_stack = ShadowStack() if self.options.cet else None
        self.stats = CPUStats()

        self.entry_name = entry or image.module.entry
        self.entry_args = tuple(entry_args)
        self.rip = image.func_base[self.entry_name]
        self.fp = 0
        self.sp = stack_base
        self.rax = 0
        self._cur_func = None

        #: code address -> callable(cpu); fired before the instruction runs.
        self.breakpoints = {}
        #: hook-point name -> callable(cpu); fired by the ``hook`` intrinsic.
        self.hooks = {}
        self._halted = None
        self._entered = False
        #: function name -> (body, version, ops, base, end) predecode cache
        self._decoded = {}
        #: return address -> caller destination frame offset (or None)
        self._ret_sites = {}
        proc.cpu = self

    # ------------------------------------------------------------------
    # value plumbing
    # ------------------------------------------------------------------

    def local_addr(self, var_name, func=None, fp=None):
        """Frame-slot address of ``var_name`` in the current (or given) frame."""
        func = func or self._cur_func
        fp = self.fp if fp is None else fp
        slot = func.local_slot(var_name)
        return fp - WORD * (slot + 1)

    def _value(self, operand):
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, Var):
            return self.proc.memory.read(self.local_addr(operand.name))
        raise VMFault("bad operand %r" % (operand,), rip=self.rip)

    def _set_var(self, var_name, value):
        self.proc.memory.write(self.local_addr(var_name), _wrap(value))

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    def run(self):
        """Run to completion; returns an :class:`ExitStatus`."""
        status = self.run_slice(None)
        if not isinstance(status, ExitStatus):
            raise KernelError(
                "run() interrupted without a scheduler: %r" % (status,)
            )
        return status

    def run_slice(self, quantum=None):
        """Run until done, blocked, or preempted.

        Returns an :class:`ExitStatus` when the process finishes (exit,
        return from entry, fault, kill), the :class:`WouldBlock` instance
        when a syscall parks it (``rip`` still points at the syscall, so
        the next slice restarts it), or ``None`` once ``quantum`` cycles
        of its ledger have been consumed.  ``quantum=None`` never preempts.
        """
        if not self._entered:
            self._enter_main()
            self._entered = True
        try:
            if self.options.predecode:
                return self._run_loop_fast(quantum)
            return self._run_loop_classic(quantum)
        except WouldBlock as blocked:
            return blocked
        except ProcessKilled as killed:
            return ExitStatus("killed", 137, str(killed))
        except VMFault as fault:
            return ExitStatus("fault", 139, "%s: %s" % (type(fault).__name__, fault))

    def _run_loop_classic(self, quantum):
        """The reference interpreter loop (`_step` per instruction)."""
        opts = self.options
        limit = None if quantum is None else self.ledger.cycles + quantum
        while True:
            if not self.proc.alive:
                if self.proc.exited:
                    return ExitStatus("exit", self.proc.exit_code)
                return ExitStatus("killed", 137, self.proc.kill_reason or "")
            if self._halted is not None:
                return self._halted
            if self.stats.steps >= opts.max_steps:
                return ExitStatus("fault", 124, "step budget exhausted")
            if limit is not None and self.ledger.cycles >= limit:
                return None
            self.stats.steps += 1
            func, idx = self.image.resolve_code(self.rip)
            self._cur_func = func
            if self.breakpoints:
                bp = self.breakpoints.get(self.rip)
                if bp is not None:
                    bp(self)
                    if not self.proc.alive or self._halted is not None:
                        continue
            status = self._step(func.body[idx])
            if status is not None:
                return status

    def _run_loop_fast(self, quantum):
        """Predecoded loop: same semantics, far fewer Python operations.

        ``rip`` stays within the current function between control transfers,
        so the per-step bisect of ``resolve_code`` collapses to a range
        check; the instruction itself is a predecoded closure (see
        :mod:`repro.vm.predecode`).
        """
        proc = self.proc
        stats = self.stats
        ledger = self.ledger
        max_steps = self.options.max_steps
        limit = None if quantum is None else ledger.cycles + quantum
        breakpoints = self.breakpoints
        base = 0
        end = 0
        ops = None
        while True:
            if not proc.alive:
                if proc.exited:
                    return ExitStatus("exit", proc.exit_code)
                return ExitStatus("killed", 137, proc.kill_reason or "")
            if self._halted is not None:
                return self._halted
            if stats.steps >= max_steps:
                return ExitStatus("fault", 124, "step budget exhausted")
            if limit is not None and ledger.cycles >= limit:
                return None
            stats.steps += 1
            rip = self.rip
            if base <= rip < end:
                if rip & 3:
                    self.image.resolve_code(rip)  # raises misaligned fetch
                idx = (rip - base) >> 2
            else:
                func, idx = self.image.resolve_code(rip)
                self._cur_func = func
                entry = self._decoded.get(func.name)
                if (
                    entry is None
                    or entry[0] is not func.body
                    or entry[1] != func.version
                ):
                    entry = self._decode(func)
                ops = entry[2]
                base = entry[3]
                end = entry[4]
            if breakpoints:
                bp = breakpoints.get(rip)
                if bp is not None:
                    bp(self)
                    if not proc.alive or self._halted is not None:
                        continue
            status = ops[idx]()
            if status is not None:
                return status

    def _decode(self, func):
        from repro.vm.predecode import decode_function

        base = self.image.func_base[func.name]
        entry = (
            func.body,
            func.version,
            decode_function(self, func),
            base,
            base + len(func.body) * INSTR_STRIDE,
        )
        self._decoded[func.name] = entry
        return entry

    def _enter_main(self):
        """Set up the entry frame with a sentinel return address of 0."""
        entry_func = self.image.module.functions[self.entry_name]
        self.sp -= 2 * WORD
        self.proc.memory.write(self.sp + WORD, 0)  # return address sentinel
        self.proc.memory.write(self.sp, 0)  # saved fp sentinel
        self.fp = self.sp
        self.sp = self.fp - WORD * entry_func.frame_size
        for i, value in enumerate(self.entry_args):
            if i < len(entry_func.params):
                self.proc.memory.write(self.fp - WORD * (i + 1), _wrap(value))
        if self.shadow_stack is not None:
            self.shadow_stack.push(0)

    # ------------------------------------------------------------------
    # single instruction
    # ------------------------------------------------------------------

    def _step(self, instr):
        costs = self.costs
        ledger = self.ledger

        if isinstance(instr, Const):
            self._set_var(instr.dst, instr.value)
            ledger.charge(costs.instr)
        elif isinstance(instr, Move):
            self._set_var(instr.dst, self._value(instr.src))
            ledger.charge(costs.instr)
        elif isinstance(instr, BinOp):
            self._set_var(instr.dst, self._binop(instr))
            ledger.charge(costs.instr)
        elif isinstance(instr, Load):
            addr = self._value(instr.addr)
            self._dfi_access(addr, False)
            self._set_var(instr.dst, self.proc.memory.read(addr))
            ledger.charge(costs.load)
        elif isinstance(instr, Store):
            addr = self._value(instr.addr)
            self._dfi_access(addr, True)
            self.proc.memory.write(addr, _wrap(self._value(instr.value)))
            ledger.charge(costs.store)
        elif isinstance(instr, AddrLocal):
            self._set_var(instr.dst, self.local_addr(instr.var))
            ledger.charge(costs.instr)
        elif isinstance(instr, AddrGlobal):
            self._set_var(instr.dst, self.image.global_addr[instr.name])
            ledger.charge(costs.instr)
        elif isinstance(instr, Gep):
            struct = self.image.module.types.get(instr.struct)
            base = self._value(instr.base)
            self._set_var(instr.dst, base + WORD * struct.offset(instr.field_name))
            ledger.charge(costs.instr)
        elif isinstance(instr, Index):
            base = self._value(instr.base)
            idx = self._value(instr.index)
            self._set_var(instr.dst, base + WORD * idx * instr.scale)
            ledger.charge(costs.instr)
        elif isinstance(instr, FuncAddr):
            self._set_var(instr.dst, self.image.func_base[instr.func])
            ledger.charge(costs.instr)
        elif isinstance(instr, Label):
            pass  # free
        elif isinstance(instr, Jump):
            self.rip = self.image.addr_of(
                self._cur_func.name, self._cur_func.label_index(instr.label)
            )
            ledger.charge(costs.branch)
            return None
        elif isinstance(instr, Branch):
            taken = instr.then_label if self._value(instr.cond) else instr.else_label
            self.rip = self.image.addr_of(
                self._cur_func.name, self._cur_func.label_index(taken)
            )
            ledger.charge(costs.branch)
            return None
        elif isinstance(instr, Call):
            self._do_call(instr, self.image.func_base[instr.callee])
            self.stats.calls += 1
            return None
        elif isinstance(instr, CallIndirect):
            target = self._value(instr.target)
            self._cfi_check(instr, target)
            self.stats.indirect_calls += 1
            self._do_call(instr, target)
            return None
        elif isinstance(instr, Ret):
            return self._do_ret(instr)
        elif isinstance(instr, Syscall):
            self._do_syscall(instr)
        elif isinstance(instr, Intrinsic):
            self._do_intrinsic(instr)
        else:
            raise VMFault("unknown instruction %r" % (instr,), rip=self.rip)

        self.rip += INSTR_STRIDE
        return None

    def _binop(self, instr):
        a = self._value(instr.a)
        b = self._value(instr.b)
        op = instr.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "//":
            return 0 if b == 0 else int(a / b) if (a < 0) != (b < 0) else a // b
        if op == "%":
            return 0 if b == 0 else a - b * (int(a / b) if (a < 0) != (b < 0) else a // b)
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        if op == "^":
            return a ^ b
        if op == "<<":
            return a << (b & 63)
        if op == ">>":
            return a >> (b & 63)
        if op == "==":
            return int(a == b)
        if op == "!=":
            return int(a != b)
        if op == "<":
            return int(a < b)
        if op == "<=":
            return int(a <= b)
        if op == ">":
            return int(a > b)
        if op == ">=":
            return int(a >= b)
        raise VMFault("bad operator %r" % op, rip=self.rip)

    # ------------------------------------------------------------------
    # control transfers
    # ------------------------------------------------------------------

    def _do_call(self, instr, target_addr):
        """Shared call sequence for direct and indirect calls."""
        memory = self.proc.memory
        return_addr = self.rip + INSTR_STRIDE
        try:
            target_func, _ = self.image.resolve_code(target_addr)
        except ExecutionFault:
            # Jumping into data: succeeds only if the attacker first made
            # that region executable (code-injection endgame).
            if self.kernel.mm_is_executable(self.proc, target_addr):
                self.kernel.record_arbitrary_code_execution(self.proc, target_addr)
                raise ProcessKilled(
                    "arbitrary code execution at %#x" % target_addr,
                    reason="code-injection",
                )
            raise

        args = [self._value(a) for a in instr.args]

        self.sp -= 2 * WORD
        memory.write(self.sp + WORD, return_addr)
        memory.write(self.sp, self.fp)
        self.fp = self.sp
        self.sp = self.fp - WORD * target_func.frame_size
        for i, value in enumerate(args):
            if i < len(target_func.params):
                memory.write(self.fp - WORD * (i + 1), _wrap(value))

        if self.shadow_stack is not None:
            self.shadow_stack.push(return_addr)
            self.ledger.charge(self.costs.cet_per_transfer, "cet")
        self.ledger.charge(self.costs.call)
        self.rip = target_addr

    def _do_ret(self, instr):
        memory = self.proc.memory
        value = _wrap(self._value(instr.value)) if instr.value is not None else 0
        return_addr = memory.read(self.fp + WORD)
        saved_fp = memory.read(self.fp)

        if self.shadow_stack is not None:
            self.shadow_stack.check_pop(return_addr)
            self.ledger.charge(self.costs.cet_per_transfer, "cet")
        self.ledger.charge(self.costs.ret)
        self.stats.rets += 1

        self.rax = value
        self.sp = self.fp + 2 * WORD
        self.fp = saved_fp

        if return_addr == 0:
            return ExitStatus("returned", value)

        # Deliver the return value into the caller's destination variable.
        call_addr = return_addr - INSTR_STRIDE
        try:
            caller_func, idx = self.image.resolve_code(call_addr)
            call_instr = caller_func.body[idx]
        except ExecutionFault:
            caller_func, call_instr = None, None
        if (
            call_instr is not None
            and isinstance(call_instr, (Call, CallIndirect))
            and call_instr.dst is not None
        ):
            memory.write(
                self.local_addr(call_instr.dst, caller_func, self.fp), value
            )
        self.rip = return_addr
        return None

    # ------------------------------------------------------------------
    # syscalls & intrinsics
    # ------------------------------------------------------------------

    def _do_syscall(self, instr):
        args = [_wrap(self._value(a)) for a in instr.args]
        self.proc.set_registers(instr.name, args, self.rip, self.fp, self.sp)
        self.ledger.charge(self.costs.syscall_base, "kernel")
        result = self.kernel.dispatch(self.proc, instr.name, args)
        if instr.dst is not None:
            self._set_var(instr.dst, result)

    def _do_intrinsic(self, instr):
        name = instr.name
        if name == CTX_WRITE_MEM:
            self.stats.instrumentation_hits += 1
            runtime = self.proc.bastion_runtime
            addr = self._value(instr.args[0])
            size = self._value(instr.args[1]) if len(instr.args) > 1 else 1
            self.ledger.charge(
                self.costs.ctx_write_mem_base
                + self.costs.ctx_write_mem_per_slot * max(size, 1),
                "instrumentation",
            )
            if runtime is not None:
                runtime.ctx_write_mem(addr, size)
        elif name == CTX_BIND_MEM:
            self.stats.instrumentation_hits += 1
            runtime = self.proc.bastion_runtime
            addr = self._value(instr.args[0])
            self.ledger.charge(self.costs.ctx_bind, "instrumentation")
            if runtime is not None:
                runtime.ctx_bind_mem(self._meta_callsite(instr), instr.meta["pos"], addr)
        elif name == CTX_BIND_CONST:
            self.stats.instrumentation_hits += 1
            runtime = self.proc.bastion_runtime
            value = self._value(instr.args[0])
            self.ledger.charge(self.costs.ctx_bind, "instrumentation")
            if runtime is not None:
                runtime.ctx_bind_const(
                    self._meta_callsite(instr), instr.meta["pos"], value
                )
        elif name == "trace":
            self.proc.trace_log.append([self._value(a) for a in instr.args])
        elif name == "hook":
            hook = self.hooks.get(instr.meta.get("point"))
            if hook is not None:
                hook(self)
        elif name == "cycle_burn":
            amount = self._value(instr.args[0])
            self.ledger.charge(amount)
            if self.options.dfi:
                # burned cycles stand for real computation whose loads and
                # stores DFI would instrument too
                self.ledger.charge(
                    amount * self.costs.dfi_elided_millis // 1000, "dfi"
                )
        elif name == "halt":
            self._halted = ExitStatus("halt", 0)
        else:
            raise VMFault("unknown intrinsic %r" % name, rip=self.rip)

    def _meta_callsite(self, instr):
        """Code address of the callsite an instrumented bind refers to."""
        return self.image.addr_of(self._cur_func.name, instr.meta["callsite_index"])

    # ------------------------------------------------------------------
    # baseline defenses
    # ------------------------------------------------------------------

    def _cfi_check(self, instr, target_addr):
        """LLVM-CFI baseline: type-signature equivalence class check."""
        if not self.options.llvm_cfi:
            return
        self.ledger.charge(self.costs.llvm_cfi_check, "cfi")
        site_sig = instr.sig or ("fn%d" % len(instr.args))
        target_name = self.image.func_containing(target_addr)
        if target_name is None:
            raise CFIFault(
                "indirect call to non-function address %#x" % target_addr,
                rip=self.rip,
            )
        target_func = self.image.module.functions[target_name]
        if target_addr != self.image.func_base[target_name]:
            raise CFIFault(
                "indirect call into function body %s" % self.image.describe(target_addr),
                rip=self.rip,
            )
        if target_func.sig != site_sig:
            raise CFIFault(
                "CFI EC mismatch at %s: site %s, target %s (%s)"
                % (self.image.describe(self.rip), site_sig, target_func.sig, target_name),
                rip=self.rip,
            )

    def _dfi_access(self, addr, is_write):
        """DFI baseline: charge the per-access tracking cost."""
        if self.options.dfi:
            self.ledger.charge(self.costs.dfi_per_access, "dfi")
