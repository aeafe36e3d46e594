"""Tests for the textual IR parser and printer round-tripping."""

import pytest

from repro.errors import IRError
from repro.ir.builder import ModuleBuilder
from repro.ir.instructions import (
    BinOp,
    Call,
    Const,
    Imm,
    Intrinsic,
    Label,
    Load,
    Move,
    Store,
    Syscall,
    Var,
)
from repro.ir.parser import parse_instr, parse_module
from repro.ir.printer import format_module
from repro.ir.validate import validate_module


class TestParseInstr:
    def test_const(self):
        assert parse_instr("%x = const 42") == Const("x", 42)

    def test_binop(self):
        instr = parse_instr("%d = %a + $2")
        assert instr == BinOp("d", "+", Var("a"), Imm(2))

    def test_move(self):
        assert parse_instr("%d = %s") == Move("d", Var("s"))
        assert parse_instr("%d = $-7") == Move("d", Imm(-7))

    def test_load_store(self):
        assert parse_instr("%v = load %p") == Load("v", Var("p"))
        assert parse_instr("store %p <- $1") == Store(Var("p"), Imm(1))

    def test_calls(self):
        call = parse_instr("%r = call foo(%a, $1)")
        assert call == Call("r", "foo", [Var("a"), Imm(1)])
        void = parse_instr("call bar()")
        assert void == Call(None, "bar", [])

    def test_syscall(self):
        sc = parse_instr("%r = syscall mmap($0, %n, $3, $34, $-1, $0)")
        assert isinstance(sc, Syscall) and sc.name == "mmap"
        assert len(sc.args) == 6

    def test_label_and_jumps(self):
        assert parse_instr("loop:") == Label("loop")
        assert parse_instr("jump loop").label == "loop"
        branch = parse_instr("branch %c ? a : b")
        assert branch.then_label == "a" and branch.else_label == "b"

    def test_ret(self):
        assert parse_instr("ret").value is None
        assert parse_instr("ret %x").value == Var("x")

    def test_intrinsic_with_meta(self):
        instr = parse_instr("@ctx_bind_mem(%p) {'pos': 2, 'callsite_index': 5}")
        assert isinstance(instr, Intrinsic)
        assert instr.meta == {"pos": 2, "callsite_index": 5}

    def test_line_numbers_stripped(self):
        assert parse_instr("  12: %x = const 1") == Const("x", 1)

    def test_garbage_rejected(self):
        with pytest.raises(IRError):
            parse_instr("definitely not ir")
        with pytest.raises(IRError):
            parse_instr("%x = %a ** $2")


def _sample_module():
    mb = ModuleBuilder("sample")
    mb.struct("pair_t", ["first", "second"])
    mb.global_string("g_msg", "/bin/true")
    mb.global_var("g_pair", size=2, struct="pair_t")
    mb.global_words("g_tab", [1, 2, 3])

    w = mb.function("getpid", params=[])
    rc = w.syscall("getpid", [])
    w.ret(rc)
    w.func.is_wrapper = True

    f = mb.function("main")
    x = f.const(10, dst="x")
    p = f.addr_global("g_pair")
    fld = f.gep(p, "pair_t", "second")
    f.store(fld, x)
    v = f.load(fld)
    t = f.addr_global("g_tab")
    slot = f.index(t, v, scale=2)
    h = f.funcaddr("getpid")
    r = f.icall(h, [], sig="fn0")
    f.label("end")
    f.ret(r)
    return mb.build()


class TestRoundTrip:
    def test_module_round_trips(self):
        module = _sample_module()
        text = format_module(module)
        parsed = parse_module(text)
        assert format_module(parsed) == text
        validate_module(parsed)

    def test_round_trip_preserves_structure(self):
        module = _sample_module()
        parsed = parse_module(format_module(module))
        assert parsed.name == module.name
        assert set(parsed.functions) == set(module.functions)
        assert set(parsed.globals) == set(module.globals)
        assert parsed.globals["g_msg"].init == "/bin/true"
        assert parsed.globals["g_pair"].struct == "pair_t"
        assert parsed.functions["getpid"].is_wrapper
        for name, func in module.functions.items():
            assert len(parsed.functions[name].body) == len(func.body)

    def test_parsed_module_executes_identically(self):
        from tests.conftest import run_module

        module = _sample_module()
        parsed = parse_module(format_module(module))
        s1, p1, _ = run_module(module)
        s2, p2, _ = run_module(parsed)
        assert (s1.kind, s1.code) == (s2.kind, s2.code)

    def test_real_apps_round_trip(self):
        """Every workload app and attack target survives print->parse."""
        from repro.apps.browser import build_browser
        from repro.apps.httpd import build_httpd
        from repro.apps.mediasrv import build_mediasrv
        from repro.apps.nginx import build_nginx
        from repro.apps.sqlite import build_sqlite
        from repro.apps.vsftpd import build_vsftpd

        for build in (
            build_nginx,
            build_sqlite,
            build_vsftpd,
            build_httpd,
            build_browser,
            build_mediasrv,
        ):
            module = build()
            text = format_module(module)
            parsed = parse_module(text)
            assert format_module(parsed) == text, build.__name__

    def test_instrumented_module_round_trips(self):
        """Bind metadata (pos/callsite_index) survives the text form."""
        from repro import protect

        artifact = protect(_sample_module())
        text = format_module(artifact.module)
        parsed = parse_module(text)
        assert format_module(parsed) == text


class TestParseErrors:
    def test_missing_header(self):
        with pytest.raises(IRError, match="module header"):
            parse_module("func main() sig=fn0 {\n ret\n}")

    def test_unterminated_function(self):
        with pytest.raises(IRError, match="unterminated"):
            parse_module("module m (entry=main)\nfunc main() sig=fn0 {\n ret")

    def test_junk_at_module_scope(self):
        with pytest.raises(IRError, match="unexpected line"):
            parse_module("module m (entry=main)\nwhatever")

    def test_empty_text(self):
        with pytest.raises(IRError, match="empty module"):
            parse_module("\n\n")
