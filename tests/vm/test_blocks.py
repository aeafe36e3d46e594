"""Compiled blocks (repro.vm.blocks) against the ``CPU._step`` reference.

The property test runs generated programs (``tests/strategies.py``) once
with compiled blocks and once with every instruction through ``_step``
and diffs everything observable, slice by slice.  The memo tests pin what
makes one compiled block safe to share between CPUs and runs.
"""

import contextlib
import gc
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.catalog import attack_by_name
from repro.attacks.runner import run_attack
from repro.bench.harness import CONFIGS
from repro.ir.builder import ModuleBuilder
from repro.ir.instructions import CTX_BIND_CONST, CTX_BIND_MEM, CTX_WRITE_MEM, Const, Imm, Ret, Var
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.monitor.policy import ContextPolicy
from repro.runtime.bastion_rt import BastionRuntime
from repro.vm import blocks
from repro.vm.costs import CostModel, CycleLedger
from repro.vm.cpu import CPU, CPUOptions
from repro.vm.loader import Image, load_module
from repro.vm.memory import Memory
from tests.conftest import reference_steps, run_module
from tests.strategies import HOOK_POINT, poke, programs

#: whole runs first: Hypothesis favours (and shrinks toward) early entries,
#: and there most blocks pass the guard and the program runs to its end
QUANTA = (None, 40, 7, 3, 1)
STEP_BUDGETS = (CPUOptions().max_steps, 60, 17, 5)


class _Notes:
    """A shadow-update listener that logs each notification."""

    def __init__(self, log):
        self.log = log

    def on_shadow_write(self, slot_addr):
        self.log.append(["shadow", slot_addr])

    def on_bind_write(self, callsite_addr):
        self.log.append(["bind", callsite_addr])


def observe(module, options, quantum=None, breakpoint=None):
    """Run ``module`` slice by slice; everything a run leaves observable."""
    kernel = Kernel()
    image = Image(module)
    proc = kernel.create_process(module.name, image)
    proc.bastion_runtime = BastionRuntime(proc)
    proc.bastion_runtime.subscribe(_Notes(proc.trace_log))
    cpu = CPU(image, proc, kernel, options)
    cpu.hooks[HOOK_POINT] = poke
    if breakpoint is not None:
        addr = image.addr_of(*breakpoint)
        cpu.breakpoints[addr] = lambda c: proc.trace_log.append(["bp", c.stats.steps])
    slices = []

    def preempted():
        """What another process could see where the slice ended."""
        words = sorted(proc.memory._words.items())
        slices.append((proc.ledger.cycles, cpu.stats.steps, cpu.rip, cpu.fp, cpu.sp, words))

    try:
        while True:
            status = cpu.run_slice(quantum)
            preempted()
            if status is not None:
                break
        outcome = (status.kind, status.code, status.reason)
    except Exception as exc:  # the reference raises it too (see strategies)
        preempted()
        outcome = ("raised", type(exc).__name__, str(exc))
    return {
        "status": outcome,
        "slices": slices,
        "by_category": list(proc.ledger.by_category.items()),
        "stats": cpu.stats,
        "trace": proc.trace_log,
        "syscalls": proc.syscall_counts,
        "memory": sorted(proc.memory._words.items()),
        "registers": (cpu.rip, cpu.fp, cpu.sp, cpu.rax),
    }


@st.composite
def runs(draw):
    module = draw(programs())
    options = CPUOptions(
        cet=draw(st.booleans()),
        llvm_cfi=draw(st.booleans()),
        dfi=draw(st.booleans()),
        max_steps=draw(st.sampled_from(STEP_BUDGETS)),
    )
    breakpoint = None
    if draw(st.booleans()):
        func = draw(st.sampled_from(sorted(module.functions)))
        index = draw(st.integers(0, len(module.functions[func].body) - 1))
        breakpoint = (func, index)
    return module, options, draw(st.sampled_from(QUANTA)), breakpoint


@settings(max_examples=300, deadline=None)
@given(runs())
def test_blocks_match_reference_steps(run):
    module, options, quantum, breakpoint = run
    compiled = observe(module, options, quantum, breakpoint)
    with reference_steps():
        reference = observe(module, options, quantum, breakpoint)
    assert compiled == reference


def test_negative_cost_leaves_every_instruction_to_step():
    """``ledger.charge`` raises on a negative cost; blocks would not, so a
    cost model with one compiles none, and the run raises as the
    reference does."""
    costs = CostModel(instr=-1)
    outcomes = []
    for reference in (False, True):
        kernel = Kernel(costs=costs)
        image = Image(_loop_module())
        proc = kernel.create_process("m", image)
        cpu = CPU(image, proc, kernel)
        with reference_steps() if reference else contextlib.nullcontext():
            with pytest.raises(ValueError, match="negative cycle charge"):
                cpu.run()
        outcomes.append((cpu.stats, cpu.rip, proc.ledger.cycles))
    assert outcomes[0] == outcomes[1]


def _intrinsics_module():
    """Constant-size runtime intrinsics and a constant burn, then a computed
    burn that is negative (``_step`` raises on it)."""
    mb = ModuleBuilder("m")
    mb.global_words("g_buf", [1, 2, 3])
    f = mb.function("main")
    buf = f.addr_global("g_buf")
    f.intrinsic(CTX_WRITE_MEM, [buf, Imm(2)])
    f.intrinsic(CTX_BIND_MEM, [buf], callsite_index=9, pos=2)
    f.burn(40)
    f.intrinsic(CTX_BIND_CONST, [Imm(7)], callsite_index=9, pos=3)
    f.burn(f.binop("%", f.sub(0, 5), 64))
    f.ret(0)
    return mb.build()


def test_runtime_intrinsics_and_constant_burns_stay_in_the_block(monkeypatch):
    """One block runs from the entry through the computed burn, which it
    hands to ``_step``: each step counts once, every quantum preempts where
    ``_step`` does, and the shadow writes land alike."""
    built = []
    compile_block = blocks._compile_block

    def recording(func, image, base, context, start):
        entry = compile_block(func, image, base, context, start)
        built.append((start, entry and entry[1]))
        return entry

    monkeypatch.setattr(blocks, "_codes", blocks.weakref.WeakKeyDictionary())
    monkeypatch.setattr(blocks, "_compile_block", recording)
    module = _intrinsics_module()
    compiled = [observe(module, CPUOptions(), quantum) for quantum in (None, 30, 60)]
    assert built[0] == (0, 8)  # all but the ret: through the computed burn
    assert compiled[0]["status"] == ("raised", "ValueError", "negative cycle charge")
    with reference_steps():
        reference = [observe(module, CPUOptions(), quantum) for quantum in (None, 30, 60)]
    assert compiled == reference


def _loop_module():
    mb = ModuleBuilder("m")
    leaf = mb.function("leaf", params=["x"])
    leaf.ret(leaf.add(leaf.p("x"), 1))
    f = mb.function("main")
    acc = f.const(0, dst="acc")
    f.loop_range(5, lambda i: f.call("leaf", [acc], dst="acc"))
    f.intrinsic("trace", [acc])
    f.ret(acc)
    return mb.build()


def _outcome(outcome):
    return (str(outcome), outcome.status, outcome.stage_cycles, outcome.syscall_counts)


class TestSharedMemo:
    def test_second_attack_run_compiles_no_block(self, monkeypatch):
        spec = attack_by_name("control_jujutsu")
        first = run_attack(spec, None, "cet", defense=CONFIGS["cet"])
        built = []
        compile_block = blocks._compile_block

        def counting(*args):
            built.append(args)
            return compile_block(*args)

        monkeypatch.setattr(blocks, "_compile_block", counting)
        second = run_attack(spec, None, "cet", defense=CONFIGS["cet"])
        assert _outcome(second) == _outcome(first)
        assert built == []

    @pytest.mark.parametrize("mechanism", ["cet", "bastion"])
    def test_second_attack_run_looks_no_code_up(self, monkeypatch, mechanism):
        """Every CPU on one loaded image shares its code maps, so a repeat
        of a run resolves no transfer target, return site or layout key."""
        spec = attack_by_name("control_jujutsu")

        def run():
            if mechanism == "cet":
                return run_attack(spec, None, "cet", defense=CONFIGS["cet"])
            return run_attack(spec, ContextPolicy.full(), "bastion")

        first = run()
        looked_up = []

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args):
                looked_up.append(name)
                return original(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counting(CPU, "_code_at")
        counting(blocks, "_ret_site")
        counting(blocks, "context_key")
        second = run()
        assert _outcome(second) == _outcome(first)
        assert looked_up == []

    def test_reference_seam_steps_an_image_that_ran_compiled(self, monkeypatch):
        """Code maps filled from the compiled memo are not used under
        ``reference_steps()``: every step of the run takes ``_step``."""
        spec = attack_by_name("control_jujutsu")
        compiled = run_attack(spec, None, "cet", defense=CONFIGS["cet"])
        cpus, stepped = [], []
        init, step = CPU.__init__, CPU._step

        def recording(cpu, *args, **kwargs):
            init(cpu, *args, **kwargs)
            cpus.append(cpu)

        def counting(cpu, instr):
            stepped.append(instr)
            return step(cpu, instr)

        monkeypatch.setattr(CPU, "__init__", recording)
        monkeypatch.setattr(CPU, "_step", counting)
        with reference_steps():
            reference = run_attack(spec, None, "cet", defense=CONFIGS["cet"])
        assert _outcome(reference) == _outcome(compiled)
        assert len(stepped) == sum(cpu.stats.steps for cpu in cpus) > 0

    def test_callee_frame_growth_on_the_same_image(self):
        """A CPU built on an image whose module changed since its code maps
        were filled starts fresh ones: the caller reserves the callee's new
        frame, or the callee's own call overwrites the new local."""
        mb = ModuleBuilder("m")
        mb.function("leaf").ret(0)
        callee = mb.function("callee", params=["x"])
        callee.call("leaf", [], void=True)
        callee.call("leaf", [], void=True)
        callee.ret(callee.p("x"))
        f = mb.function("main")
        f.ret(f.call("callee", [41]))
        module = mb.build()
        image = load_module(module)

        def run():
            kernel = Kernel()
            proc = kernel.create_process("m", image)
            return CPU(image, proc, kernel).run().code

        assert run() == 41
        func = module.functions["callee"]
        func.body[0] = Const("y", 7)  # same length: the image's layout holds
        func.body[-1] = Ret(Var("y"))
        func.invalidate()
        assert func.frame_size == 2
        assert run() == 7

    def test_blocks_capture_no_run_state(self):
        status, _proc, cpu = run_module(_loop_module(), options=CPUOptions(cet=True, dfi=True))
        assert status.code == 5
        fns = [entry[0] for code in cpu._codes.values() for entry in code.blocks if entry]
        assert len(fns) >= 4
        for fn in fns:
            assert fn.__closure__ is None
            assert fn.__defaults__ is None and fn.__kwdefaults__ is None
            assert fn.__globals__ is blocks._GLOBALS
        for name, value in blocks._GLOBALS.items():
            if name != "__builtins__":
                assert isinstance(value, (types.FunctionType, int)), name
        # the memo's entries reach no CPU, process, memory or ledger
        per_run = (CPU, Process, Memory, CycleLedger, Kernel, Image)
        seen, todo = set(), [blocks._codes[f] for f in cpu.image.module.functions.values()
                             if f in blocks._codes]
        while todo:
            obj = todo.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, per_run), obj
            if obj is not blocks._GLOBALS:
                todo.extend(gc.get_referents(obj))

    def test_callee_frame_growth_reaches_compiled_caller(self):
        """The caller's compiled call reserves the callee's frame; when the
        callee gains a local, the next run must reserve the bigger frame or
        the callee's own call overwrites that local."""
        mb = ModuleBuilder("m")
        mb.function("leaf").ret(0)
        callee = mb.function("callee", params=["x"])
        callee.call("leaf", [], void=True)
        callee.ret(callee.p("x"))
        f = mb.function("main")
        f.ret(f.call("callee", [41]))
        module = mb.build()
        assert run_module(module)[0].code == 41

        func = module.functions["callee"]
        func.body.insert(0, Const("y", 7))
        func.body[-1] = Ret(Var("y"))
        func.invalidate()
        assert func.frame_size == 2
        assert run_module(module)[0].code == 7
