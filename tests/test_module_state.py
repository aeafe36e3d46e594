"""One memo per module state: every launch enforces what was derived from
the program it runs.

``load_module`` returns one image per module state, and the BASTION
artifact, the SFIP and binary policies, the binary recovery and the
baselines' syscall sets and debloated module are derived on that image
(``Image.derive``).  So an edited module launches with derivations of its
new state, a dropped module is collected, and a clone starts without its
original's image.
"""

import gc
import weakref

import pytest

from repro.analyze import binary, flowgraph
from repro.bench.harness import CONFIGS
from repro.compiler.pipeline import BastionCompiler
from repro.ir import validate
from repro.ir.builder import ModuleBuilder
from repro.ir.instructions import Imm, Ret, Syscall
from repro.kernel.kernel import Kernel
from repro.mechanisms import MECHANISMS, baselines
from repro.vm.loader import load_module

#: vanilla, BASTION through two configs, and every other mechanism
CONFIG_NAMES = ("vanilla", "cet_ct_cf_ai", "cache_on") + tuple(
    name for name in MECHANISMS if name != "bastion"
)

#: vsftpd's serving root is ``main``, so ``temporal`` derives a phase split
APP = "vsftpd"


def _program(syscall="getpid", code=41):
    """``main`` issues ``syscall`` inline (not as a wrapper's first
    instruction), then returns ``code``."""
    mb = ModuleBuilder("edited")
    main = mb.function("main")
    main.const(0)
    main.syscall(syscall)
    main.ret(code)
    return mb.build()


def _run(name, module):
    """Launch ``module`` under config ``name`` and run it: how it ended,
    and the syscalls it issued."""
    proc, cpu = CONFIGS[name].mechanism().launch(Kernel(), APP, module)
    status = cpu.run()
    return status.kind, status.code, proc.kill_reason, sorted(proc.syscall_counts)


#: a clean run of the unedited program
UNEDITED = ("returned", 41, None, ["getpid"])


def _return_seven(main):
    main.body[-1] = Ret(Imm(7))
    return _program(code=7), ("returned", 7, None, ["getpid"])


def _call_getuid(main):
    main.body[1] = Syscall(main.body[1].dst, "getuid", [])
    return _program(syscall="getuid"), ("returned", 41, None, ["getuid"])


@pytest.mark.parametrize("edit", [_return_seven, _call_getuid])
@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_edited_module_launches_like_a_fresh_one(name, edit):
    """A launch after a same-length edit plus ``invalidate()`` ends exactly
    like a launch of a fresh module with the edited content."""
    module = _program()
    assert _run(name, module) == UNEDITED
    main = module.functions["main"]
    fresh, ending = edit(main)
    main.invalidate()
    assert _run(name, fresh) == ending
    assert _run(name, module) == ending


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_dropped_module_is_collected(name):
    module = _program()
    proc, cpu = CONFIGS[name].mechanism().launch(Kernel(), APP, module)
    assert cpu.run().kind == "returned"
    dead = weakref.ref(module)
    del module, proc, cpu
    gc.collect()
    assert dead() is None


def test_clone_carries_no_loader_record(monkeypatch):
    """A clone of a loaded module loads as a new image, validated for it,
    with nothing derived from its original."""
    module = _program()
    CONFIGS["cache_on"].mechanism().launch(Kernel(), APP, module)
    image = load_module(module)
    checked = []
    full_check = validate._validate_function

    def counting(module, func):
        checked.append(func)
        full_check(module, func)

    monkeypatch.setattr(validate, "_validate_function", counting)
    clone = module.clone()
    assert "_loaded_image" not in vars(clone)
    loaded = load_module(clone)
    assert loaded is not image and loaded.module is clone
    assert checked == [clone.functions["main"]]
    assert loaded._derived == {}


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_second_launch_derives_nothing(monkeypatch, name):
    """A second launch of a mechanism on one module compiles, recovers,
    debloats and analyzes nothing."""
    module = _program()
    assert _run(name, module) == UNEDITED

    def derivation(*args, **kwargs):
        raise AssertionError("derived again")

    monkeypatch.setattr(BastionCompiler, "compile", derivation)
    monkeypatch.setattr(binary, "recover_image", derivation)
    monkeypatch.setattr(binary, "compile_policy", derivation)
    monkeypatch.setattr(flowgraph, "compile_policy", derivation)
    monkeypatch.setattr(baselines, "debloat_module", derivation)
    monkeypatch.setattr(baselines, "phase_syscalls", derivation)
    monkeypatch.setattr(baselines, "build_callgraph", derivation)
    assert _run(name, module) == UNEDITED


@pytest.mark.parametrize(
    "name, producer", [("sfip", flowgraph), ("sfip_origin", flowgraph), ("binary_only", binary)]
)
def test_cold_launch_compiles_its_policy_through_the_module_attribute(
    monkeypatch, name, producer
):
    """The benchmark's ``setup.policy`` span wraps each producer's
    ``compile_policy`` where the mechanisms look it up: on its module."""
    compiled = []
    compile_policy = producer.compile_policy

    def counting(*args, **kwargs):
        compiled.append(compile_policy(*args, **kwargs))
        return compiled[-1]

    monkeypatch.setattr(producer, "compile_policy", counting)
    mechanism = CONFIGS[name].mechanism()
    mechanism.launch(Kernel(), APP, _program())
    assert len(compiled) == 1
    assert mechanism.policy is compiled[0]
