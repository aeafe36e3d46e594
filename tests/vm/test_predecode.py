"""Compiled blocks (the default VM path) vs the ``CPU._step`` reference.

Blocks are a wall-clock-only device by contract: both paths must produce
identical cycle ledgers, stats, traces, and — just as load-bearing —
identical faults with identical messages.  These tests run the same
programs both ways (``reference_steps`` sends every instruction through
``_step``) and diff everything observable.
"""

import contextlib

from repro.ir.builder import ModuleBuilder
from repro.ir.instructions import Imm
from repro.vm import blocks
from repro.vm.cpu import CPU, CPUOptions
from tests.conftest import reference_steps, run_main, run_module


def _paths():
    """The block path, then the ``_step`` reference, as context managers."""
    return (contextlib.nullcontext(), reference_steps())


def _both(module_fn, **options_kwargs):
    """Run a module with blocks, then by reference steps; two (status, proc)."""
    out = []
    for path in _paths():
        with path:
            status, proc, _cpu = run_module(module_fn(), options=CPUOptions(**options_kwargs))
        out.append((status, proc))
    return out


def _observables(status, proc):
    return {
        "status": (status.kind, status.code),
        "cycles": proc.ledger.cycles,
        "by_category": list(proc.ledger.by_category.items()),
        "trace": list(proc.trace_log),
        "syscalls": dict(proc.syscall_counts),
        "stats": proc.cpu.stats,
    }


def _recursion_module():
    mb = ModuleBuilder("m")
    fact = mb.function("fact", params=["n"])
    is_zero = fact.eq(fact.p("n"), 0)
    fact.branch(is_zero, "base", "rec")
    fact.label("base")
    one = fact.const(1)
    fact.ret(one)
    fact.label("rec")
    n1 = fact.sub(fact.p("n"), 1)
    sub = fact.call("fact", [n1])
    r = fact.mul(fact.p("n"), sub)
    fact.ret(r)
    f = mb.function("main")
    r = f.call("fact", [8])
    f.intrinsic("trace", [r])
    f.ret(r)
    return mb.build()


class TestLoopParity:
    def test_recursion_identical_both_loops(self):
        (fast_status, fast_proc), (ref_status, ref_proc) = _both(
            _recursion_module
        )
        assert fast_status.code == 40320
        assert _observables(fast_status, fast_proc) == _observables(
            ref_status, ref_proc
        )

    def test_arithmetic_and_division_edge_cases(self):
        def module_fn():
            mb = ModuleBuilder("m")
            f = mb.function("main")
            for op, a, b in [
                ("//", -7, 2),
                ("%", -7, 2),
                ("//", 5, 0),
                ("%", 5, 0),
                ("<<", 1, 200),  # shift counts wrap at 64
                ("+", (1 << 62), (1 << 62)),  # 64-bit wraparound
            ]:
                r = f.binop(op, a, b)
                f.intrinsic("trace", [r])
            f.ret(0)
            return mb.build()

        (s1, p1), (s2, p2) = _both(module_fn)
        assert _observables(s1, p1) == _observables(s2, p2)

    def test_cet_shadow_stack_parity(self):
        (s1, p1), (s2, p2) = _both(_recursion_module, cet=True)
        assert _observables(s1, p1) == _observables(s2, p2)
        assert p1.ledger.by_category.get("cet", 0) > 0

    def test_predecode_default_on(self, monkeypatch):
        """A default ``CPUOptions()`` run executes straight-line code in
        compiled blocks, not through ``_step``."""
        stepped = []
        step = CPU._step

        def counting(cpu, instr):
            stepped.append(instr)
            return step(cpu, instr)

        monkeypatch.setattr(CPU, "_step", counting)
        status, proc, cpu = run_module(_recursion_module(), options=CPUOptions())
        assert status.code == 40320
        assert stepped == []
        assert cpu.stats.steps > 50
        assert all(isinstance(code, blocks.FunctionCode) for code in cpu._codes.values())


class TestFaultParity:
    """Faults surface as ``ExitStatus('fault', 139, 'Type: message')`` —
    both loops must yield the identical status *and* identical cycles
    spent up to the fault (error timing is part of the contract)."""

    def _fault_both(self, body_fn, **options_kwargs):
        outcomes = []
        for path in _paths():
            with path:
                status, proc, cpu = run_main(body_fn, options=CPUOptions(**options_kwargs))
            outcomes.append(
                (status.kind, status.code, status.reason, proc.ledger.cycles,
                 cpu.stats.steps, cpu.rip)
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == "fault"
        return outcomes[0][2]

    def test_unaligned_store_same_fault(self):
        def body(f):
            f.store(3, 42)  # address 3: unaligned
            f.ret(0)

        reason = self._fault_both(body)
        assert "SegmentationFault" in reason and "unaligned" in reason

    def test_negative_load_same_fault(self):
        def body(f):
            addr = f.sub(0, 8)
            r = f.load(addr)
            f.ret(r)

        reason = self._fault_both(body)
        assert "SegmentationFault" in reason and "negative" in reason

    def test_shadow_stack_fault_parity(self):
        """A return-address overwrite trips CET identically in both loops."""
        from repro.vm.memory import WORD

        def module_fn():
            mb = ModuleBuilder("m")
            leaf = mb.function("leaf")
            leaf.hook("smash")
            leaf.ret(0)
            f = mb.function("main")
            f.call("leaf", [])
            f.ret(0)
            return mb.build()

        def smash(cpu):
            # the saved return address lives at fp + WORD
            cpu.proc.memory.write(cpu.fp + WORD, 0x4140)

        outcomes = []
        for path in _paths():
            with path:
                status, proc, _cpu = run_module(
                    module_fn(), options=CPUOptions(cet=True), hooks={"smash": smash}
                )
            outcomes.append(
                (status.kind, status.code, status.reason, proc.ledger.cycles)
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == "fault"
        assert "ShadowStackFault" in outcomes[0][2]


class TestCacheInvalidation:
    def test_function_version_bump_invalidates_decoded_body(self):
        """Structural edits after a first run must not execute stale
        blocks: ``Function.version`` keys the shared block memo, so an
        edited body runs as edited on a fresh image and CPU."""
        mb = ModuleBuilder("m")
        f = mb.function("main")
        f.intrinsic("trace", [1])
        f.ret(7)
        module = mb.build()

        status, proc, _cpu = run_module(module)
        assert (status.code, proc.trace_log) == (7, [[1]])

        func = module.functions["main"]
        version_before = func.version
        func.body[0].args[0] = Imm(2)  # same length: only version tells
        func.body[-1].value = Imm(9)
        func.invalidate()
        assert func.version > version_before
        status, proc, _cpu = run_module(module)
        assert (status.code, proc.trace_log) == (9, [[2]])
