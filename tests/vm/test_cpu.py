"""Tests for the interpreter CPU: semantics, frames, and attack surfaces."""

from hypothesis import given, strategies as st

from repro.ir.builder import ModuleBuilder
from repro.vm.cpu import CPUOptions, _wrap
from repro.vm.loader import STACK_TOP
from repro.vm.memory import WORD
from tests.conftest import run_main, run_module


class TestArithmetic:
    def _eval(self, op, a, b):
        def body(f):
            r = f.binop(op, a, b)
            f.intrinsic("trace", [r])
            f.ret(0)

        _status, proc, _cpu = run_main(body)
        return proc.trace_log[0][0]

    def test_basic_ops(self):
        assert self._eval("+", 2, 3) == 5
        assert self._eval("-", 2, 3) == -1
        assert self._eval("*", -4, 3) == -12
        assert self._eval("&", 0b1100, 0b1010) == 0b1000
        assert self._eval("|", 0b1100, 0b1010) == 0b1110
        assert self._eval("^", 0b1100, 0b1010) == 0b0110
        assert self._eval("<<", 1, 10) == 1024
        assert self._eval(">>", 1024, 3) == 128

    def test_c_style_division(self):
        # C truncates toward zero, unlike Python's floor division
        assert self._eval("//", 7, 2) == 3
        assert self._eval("//", -7, 2) == -3
        assert self._eval("%", -7, 2) == -1
        assert self._eval("//", 7, -2) == -3

    def test_division_by_zero_yields_zero(self):
        assert self._eval("//", 5, 0) == 0
        assert self._eval("%", 5, 0) == 0

    def test_comparisons(self):
        assert self._eval("==", 3, 3) == 1
        assert self._eval("!=", 3, 3) == 0
        assert self._eval("<", 2, 3) == 1
        assert self._eval("<=", 3, 3) == 1
        assert self._eval(">", 2, 3) == 0
        assert self._eval(">=", 3, 3) == 1

    @given(
        a=st.integers(min_value=-(1 << 62), max_value=1 << 62),
        b=st.integers(min_value=-(1 << 62), max_value=1 << 62),
    )
    def test_add_matches_python_wrapped(self, a, b):
        def body(f):
            r = f.add(a, b)
            f.intrinsic("trace", [r])
            f.ret(0)

        _s, proc, _c = run_main(body)
        assert proc.trace_log[0][0] == _wrap(a + b)


class TestWrap:
    def test_wrap_in_range(self):
        assert _wrap(5) == 5
        assert _wrap(-5) == -5

    def test_wrap_overflow(self):
        assert _wrap(1 << 63) == -(1 << 63)
        assert _wrap((1 << 64) + 3) == 3
        assert _wrap(-(1 << 63) - 1) == (1 << 63) - 1


class TestCallsAndFrames:
    def test_call_returns_value(self):
        mb = ModuleBuilder("m")
        add = mb.function("add", params=["a", "b"])
        s = add.add(add.p("a"), add.p("b"))
        add.ret(s)
        f = mb.function("main")
        r = f.call("add", [4, 5])
        f.intrinsic("trace", [r])
        f.ret(r)
        status, proc, _c = run_module(mb.build())
        assert status.kind == "returned"
        assert status.code == 9
        assert proc.trace_log == [[9]]

    def test_recursion(self):
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
        r = f.call("fact", [6])
        f.ret(r)
        status, _p, _c = run_module(mb.build())
        assert status.code == 720

    def test_return_address_lives_in_memory(self):
        """The stack is real: the saved return address is readable."""
        mb = ModuleBuilder("m")
        leaf = mb.function("leaf")
        leaf.hook("inside")
        leaf.ret(0)
        f = mb.function("main")
        f.call("leaf", [])
        f.ret(0)
        module = mb.build()
        seen = {}

        def probe(cpu):
            seen["ret"] = cpu.proc.memory.read(cpu.fp + WORD)
            seen["expect"] = cpu.image.addr_of("main", 1)

        _s, _p, _c = run_module(module, hooks={"inside": probe})
        assert seen["ret"] == seen["expect"]

    def test_locals_are_memory_backed(self):
        """Corrupting a local's frame slot changes the computation."""

        def body(f):
            x = f.const(10, dst="x")
            f.hook("corrupt")
            y = f.add(f.var("x"), 1)
            f.intrinsic("trace", [y])
            f.ret(0)

        def corrupt(cpu):
            cpu.proc.memory.write(cpu.local_addr("x"), 400)

        _s, proc, _c = run_main(body, hooks={"corrupt": corrupt})
        assert proc.trace_log == [[401]]

    def test_ret_to_smashed_address_is_followed(self):
        """The CPU trusts the in-memory return address (ROP works)."""
        mb = ModuleBuilder("m")
        gadget = mb.function("gadget")
        gadget.intrinsic("trace", [gadget.const(777)])
        gadget.ret(0)
        victim = mb.function("victim")
        victim.hook("smash")
        victim.ret(0)
        f = mb.function("main")
        f.call("victim", [])
        f.ret(0)
        module = mb.build()
        image_holder = {}

        def smash(cpu):
            image_holder["image"] = cpu.image
            fake_fp = 0x7F40_0000_0000
            cpu.proc.memory.write(fake_fp, 0)
            cpu.proc.memory.write(fake_fp + WORD, 0)
            cpu.proc.memory.write(cpu.fp + WORD, cpu.image.func_base["gadget"])
            cpu.proc.memory.write(cpu.fp, fake_fp)

        status, proc, _c = run_module(module, hooks={"smash": smash})
        assert [777] in proc.trace_log
        assert status.kind == "returned"

    def test_uninitialized_locals_read_stale_stack(self):
        """Frames are not zeroed: stale values persist, as on real stacks."""
        mb = ModuleBuilder("m")
        writer = mb.function("writer")
        writer.const(1234, dst="w")
        writer.ret(0)
        reader = mb.function("reader")
        # 'r' is never written; slot 0 aliases writer's slot 0.  Taking its
        # address marks it a real frame slot (initializable through memory),
        # which is what exempts it from the validator's definite-assignment
        # check — the C idiom for a deliberately uninitialized read.
        reader.intrinsic("trace", [reader.var("r")])
        reader.addr_local("r")
        reader.ret(0)
        f = mb.function("main")
        f.call("writer", [])
        f.call("reader", [])
        f.ret(0)
        _s, proc, _c = run_module(mb.build())
        assert proc.trace_log == [[1234]]

    def test_stack_grows_down_from_top(self):
        def body(f):
            f.hook("probe")
            f.ret(0)

        seen = {}

        def probe(cpu):
            seen["fp"] = cpu.fp

        run_main(body, hooks={"probe": probe})
        assert seen["fp"] < STACK_TOP
        assert STACK_TOP - seen["fp"] < 4096


class TestIndirectCalls:
    def _icall_module(self, sig="fn1", target_sig=None):
        mb = ModuleBuilder("m")
        callee = mb.function("callee", params=["x"], sig=target_sig or "fn1")
        callee.ret(callee.p("x"))
        f = mb.function("main")
        fp = f.funcaddr("callee")
        r = f.icall(fp, [11], sig=sig)
        f.ret(r)
        return mb.build()

    def test_icall_dispatches(self):
        status, _p, _c = run_module(self._icall_module())
        assert status.code == 11

    def test_llvm_cfi_allows_matching_sig(self):
        status, _p, _c = run_module(
            self._icall_module(), options=CPUOptions(llvm_cfi=True)
        )
        assert status.code == 11

    def test_llvm_cfi_blocks_sig_mismatch(self):
        status, _p, _c = run_module(
            self._icall_module(sig="fn1", target_sig="other"),
            options=CPUOptions(llvm_cfi=True),
        )
        assert status.kind == "fault"
        assert "CFIFault" in status.reason

    def test_llvm_cfi_blocks_mid_function_target(self):
        mb = ModuleBuilder("m")
        callee = mb.function("callee", params=["x"])
        callee.const(0)
        callee.ret(0)
        f = mb.function("main")
        fp = f.funcaddr("callee")
        fp2 = f.add(fp, 4)  # into the body
        f.icall(fp2, [1], sig="fn1")
        f.ret(0)
        status, _p, _c = run_module(mb.build(), options=CPUOptions(llvm_cfi=True))
        assert status.kind == "fault"
        assert "CFIFault" in status.reason

    def test_icall_to_data_faults_under_dep(self):
        mb = ModuleBuilder("m")
        mb.global_var("g", init=0)
        f = mb.function("main")
        target = f.addr_global("g")
        f.icall(target, [], sig="fn0")
        f.ret(0)
        status, _p, _c = run_module(mb.build())
        assert status.kind == "fault"
        assert "ExecutionFault" in status.reason


class TestIntrinsics:
    def test_cycle_burn_charges(self):
        def body(f):
            f.burn(5000)
            f.ret(0)

        _s, proc, _c = run_main(body)
        assert proc.ledger.cycles >= 5000

    def test_halt(self):
        def body(f):
            f.intrinsic("halt")
            f.intrinsic("trace", [f.const(1)])  # never reached
            f.ret(0)

        status, proc, _c = run_main(body)
        assert status.kind == "halt"
        assert proc.trace_log == []

    def test_step_budget(self):
        def body(f):
            f.label("spin")
            f.jump("spin")

        status, _p, _c = run_main(body, options=CPUOptions(max_steps=1000))
        assert status.kind == "fault"
        assert "step budget" in status.reason

    def test_dfi_charges_per_access(self):
        def body(f):
            p = f.const(0x10000000)
            f.store(p, 1)
            f.load(p)
            f.ret(0)

        _s1, proc1, _c1 = run_main(body)
        _s2, proc2, _c2 = run_main(body, options=CPUOptions(dfi=True))
        assert proc2.ledger.category("dfi") > 0
        assert proc2.ledger.cycles > proc1.ledger.cycles
