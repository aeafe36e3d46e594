"""Tests for the IR validator's error detection."""

import pytest

from repro.errors import IRValidationError
from repro.ir import validate
from repro.ir.builder import ModuleBuilder
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    Gep,
    Imm,
    Jump,
    Ret,
    Syscall,
    Var,
)
from repro.ir.validate import validate_module
from repro.vm.loader import load_module


def _module_with_main():
    mb = ModuleBuilder("m")
    f = mb.function("main")
    return mb, f


def test_valid_module_passes():
    mb, f = _module_with_main()
    f.const(1)
    f.ret(0)
    assert validate_module(mb.build()) is mb.module


def test_missing_entry():
    mb = ModuleBuilder("m")
    mb.function("not_main").ret(0)
    with pytest.raises(IRValidationError, match="entry"):
        validate_module(mb.build())


def test_empty_function_body():
    mb, f = _module_with_main()
    with pytest.raises(IRValidationError, match="empty body"):
        validate_module(mb.build())


def test_fallthrough_end():
    mb, f = _module_with_main()
    f.const(1)
    with pytest.raises(IRValidationError, match="falls off"):
        validate_module(mb.build())


def test_unknown_binop():
    mb, f = _module_with_main()
    f.func.append(BinOp("x", "**", Imm(2), Imm(3)))
    f.ret(0)
    with pytest.raises(IRValidationError, match="operator"):
        validate_module(mb.build())


def test_jump_to_unknown_label():
    mb, f = _module_with_main()
    f.func.append(Jump("nowhere"))
    with pytest.raises(IRValidationError, match="unknown label"):
        validate_module(mb.build())


def test_branch_to_unknown_label():
    mb, f = _module_with_main()
    f.label("here")
    f.func.append(Branch(Imm(1), "here", "gone"))
    f.ret(0)
    with pytest.raises(IRValidationError, match="unknown label"):
        validate_module(mb.build())


def test_call_to_undefined_function():
    mb, f = _module_with_main()
    f.func.append(Call("x", "ghost", []))
    f.ret(0)
    with pytest.raises(IRValidationError, match="undefined function"):
        validate_module(mb.build())


def test_funcaddr_of_undefined_function():
    mb, f = _module_with_main()
    f.funcaddr("ghost")
    f.ret(0)
    with pytest.raises(IRValidationError, match="address of undefined"):
        validate_module(mb.build())


def test_unknown_syscall_name():
    mb, f = _module_with_main()
    f.func.append(Syscall("x", "execve", [Imm(0)] * 7))
    f.ret(0)
    with pytest.raises(IRValidationError, match="at most 6"):
        validate_module(mb.build())


def test_syscall_name_must_exist():
    mb, f = _module_with_main()
    mb2, f2 = _module_with_main()
    f2.func.append(Syscall("x", "frobnicate", []))
    f2.ret(0)
    with pytest.raises(IRValidationError, match="unknown syscall"):
        validate_module(mb2.build())


def test_gep_unknown_struct_and_field():
    mb, f = _module_with_main()
    f.func.append(Gep("x", Var("p"), "nope_t", "f"))
    f.ret(0)
    with pytest.raises(IRValidationError, match="unknown struct"):
        validate_module(mb.build())

    mb2 = ModuleBuilder("m")
    mb2.struct("pair_t", ["a", "b"])
    f2 = mb2.function("main")
    f2.func.append(Gep("x", Var("p"), "pair_t", "zz"))
    f2.ret(0)
    with pytest.raises(IRValidationError, match="no field"):
        validate_module(mb2.build())


def test_unknown_global():
    mb, f = _module_with_main()
    f.addr_global("ghost")
    f.ret(0)
    with pytest.raises(IRValidationError, match="unknown global"):
        validate_module(mb.build())


def test_unknown_intrinsic():
    mb, f = _module_with_main()
    f.intrinsic("make_coffee")
    f.ret(0)
    with pytest.raises(IRValidationError, match="unknown intrinsic"):
        validate_module(mb.build())


def test_bastion_intrinsics_allowed():
    mb, f = _module_with_main()
    addr = f.const(0x600000)
    f.intrinsic("ctx_write_mem", [addr, 1])
    f.intrinsic("ctx_bind_mem", [addr], pos=1, callsite_index=0)
    f.intrinsic("ctx_bind_const", [7], pos=2, callsite_index=0)
    f.ret(0)
    validate_module(mb.build())


# ---------------------------------------------------------------------------
# definite assignment: uses of virtual registers undefined on some path
# ---------------------------------------------------------------------------


def test_use_before_def_rejected_with_location():
    from repro.ir.instructions import Move, Var

    mb = ModuleBuilder("m")
    f = mb.function("main", params=[])
    f.func.body.append(Move("y", Var("ghost")))
    f.ret(0)
    with pytest.raises(IRValidationError, match=r"main\[0\] \(block 0\).*%ghost"):
        validate_module(mb.build())


def test_cross_block_partial_definition_rejected():
    from repro.ir.instructions import Move, Var

    mb = ModuleBuilder("m")
    f = mb.function("main", params=["c"])
    f.branch(f.p("c"), "then", "join")
    f.label("then")
    f.const(1, dst="x")
    f.jump("join")
    f.label("join")
    f.func.body.append(Move("out", Var("x")))
    f.ret(0)
    with pytest.raises(IRValidationError, match="uses %x before any definition"):
        validate_module(mb.build())


def test_cross_block_full_definition_accepted():
    from repro.ir.instructions import Move, Var

    mb = ModuleBuilder("m")
    f = mb.function("main", params=["c"])
    f.branch(f.p("c"), "then", "else")
    f.label("then")
    f.const(1, dst="x")
    f.jump("join")
    f.label("else")
    f.const(2, dst="x")
    f.jump("join")
    f.label("join")
    f.func.body.append(Move("out", Var("x")))
    f.ret(0)
    validate_module(mb.build())  # must not raise


def test_address_taken_local_accepted():
    from repro.ir.instructions import Move, Var

    mb = ModuleBuilder("m")
    f = mb.function("main", params=[])
    f.func.body.append(Move("out", Var("r")))
    f.addr_local("r")
    f.ret(0)
    validate_module(mb.build())  # memory-backed local: may be stored through


# ---------------------------------------------------------------------------
# one full check per module state: the loader validates each image it lays out
# ---------------------------------------------------------------------------


def _caller_module():
    """``main`` calls ``helper``; ``main``'s body is [Call, Ret]."""
    mb = ModuleBuilder("m")
    mb.function("helper").ret(0)
    f = mb.function("main")
    f.call("helper", void=True)
    f.ret(0)
    return mb.build()


def test_unchanged_module_is_validated_once(monkeypatch):
    checked = []
    full_check = validate._validate_function

    def counting(module, func):
        checked.append(func.name)
        full_check(module, func)

    monkeypatch.setattr(validate, "_validate_function", counting)
    module = _caller_module()
    image = load_module(module)
    assert checked == ["helper", "main"]
    assert load_module(module) is image
    assert checked == ["helper", "main"]
    assert validate_module(module) is module  # the plain check, every call
    assert checked == ["helper", "main"] * 2


def _append_bad_binop(module):
    main = module.functions["main"]
    main.append(BinOp("x", "**", Imm(2), Imm(3)))
    main.append(Ret(Imm(0)))
    return "unknown binary operator"


def _delete_called_function(module):
    del module.functions["helper"]
    return "call to undefined function"


def _replace_body_keeping_length(module):
    main = module.functions["main"]
    main.body = [Jump("nowhere"), Ret(Imm(0))]
    main.invalidate()
    return "jump to unknown label"


@pytest.mark.parametrize(
    "mutate",
    [_append_bad_binop, _delete_called_function, _replace_body_keeping_length],
)
def test_mutated_module_is_validated_again(mutate):
    """A module that changed through ``append``, a deleted function or a
    replaced body is checked again in full when it loads, never served
    from its earlier image."""
    module = _caller_module()
    load_module(module)
    message = mutate(module)
    with pytest.raises(IRValidationError, match=message):
        load_module(module)
