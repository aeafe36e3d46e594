"""The planned monitor stop against the reference stop.

``tests/monitor/reference_stop.py`` keeps the stop that re-derives every
check at every stop.  Each run here happens twice, once through each
stop, and both must leave the same verdicts, ``Violation`` texts, ledgers
(cycles and categories, in order) and monitor counters
(``stage.cycles.*``, ``monitor.*``): over the Table 6 catalog, and over
a program corrupted at a stop in every way the contexts check, under both
transports, the fetch-state and full modes, and the verdict cache on and
off.  At every stop of the corrupted program, both unwinders also return
the same frames.
"""

import contextlib
import dataclasses
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.catalog import CATALOG
from repro.attacks.runner import run_attack
from repro.compiler.pipeline import BastionCompiler
from repro.ir.builder import ModuleBuilder
from repro.errors import VMFault
from repro.kernel.kernel import Kernel
from repro.kernel.ptrace import PtraceHandle
from repro.monitor.monitor import BastionMonitor
from repro.monitor.policy import ContextPolicy
from repro.monitor.unwind import code_sites, unwind_stack
from repro.runtime.shadow_table import BINDINGS_LAYOUT, COPIES_LAYOUT, ShadowTable
from repro.vm.costs import DEFAULT_COSTS, CycleLedger
from repro.vm.cpu import CPUOptions
from repro.vm.loader import INSTR_STRIDE
from repro.vm.memory import WORD
from tests.conftest import make_wrapper
from tests.monitor.reference_stop import ReferencePtrace, reference_stops, reference_unwind


def _policies():
    """Each context alone and all three, cache on and off, over both
    transports; and full checking in fetch-state mode."""
    policies = {}
    for name, base in (
        ("CT", ContextPolicy.ct_only()),
        ("CF", ContextPolicy.cf_only()),
        ("AI", ContextPolicy.ai_only()),
        ("full", ContextPolicy.full()),
    ):
        for transport in ("ptrace", "inkernel"):
            policy = base if transport == "ptrace" else base.as_inkernel()
            policies["%s/%s/cache" % (name, transport)] = policy
            policies["%s/%s/nocache" % (name, transport)] = policy.without("cache")
    policies["full/ptrace/fetch"] = ContextPolicy.full().as_fetch_state()
    policies["full/inkernel/fetch"] = ContextPolicy.full().as_inkernel().as_fetch_state()
    return policies


POLICIES = _policies()


def _observed(kernel, monitor, status):
    """What a run leaves that a stop could change."""
    telemetry = kernel.telemetry
    return {
        "status": (status.kind, status.code, status.reason) if status else None,
        "violations": [str(v) for v in monitor.violations] if monitor else [],
        "ledgers": [
            (pid, p.ledger.cycles, list(p.ledger.by_category.items()))
            for pid, p in kernel.processes.items()
        ],
        "counters": [
            item
            for item in telemetry.counters.items()
            if item[0].startswith(("stage.cycles.", "monitor."))
        ],
        "maxima": list(telemetry.maxima.items()),
        "syscalls": [(pid, dict(p.syscall_counts)) for pid, p in kernel.processes.items()],
    }


def _attack_run(spec, policy):
    envs = []

    def stage(env):
        envs.append(env)
        spec.stage(env)

    outcome = run_attack(dataclasses.replace(spec, stage=stage), policy, "policy")
    env = envs[0]
    observed = _observed(env.kernel, env.monitor, outcome.status)
    observed["outcome"] = (outcome.succeeded, outcome.blocked, str(outcome.blocked_by))
    return observed


@pytest.mark.parametrize("label", sorted(POLICIES))
def test_catalog_runs_match_the_reference(label):
    policy = POLICIES[label]
    for spec in CATALOG:
        planned = _attack_run(spec, policy)
        with reference_stops():
            reference = _attack_run(spec, policy)
        assert planned == reference, spec.name


# ---------------------------------------------------------------------------
# corruptions at a stop
# ---------------------------------------------------------------------------

REGION = 0x10000000


def _module():
    """Three rounds of mprotect(g_region, 4096, g_guard.prot) through a
    direct (``apply``) and an indirect (``apply_ind``) pass-through caller
    and through ``sys2``, a wrapper of two syscalls whose callsite
    metadata names the other one, and open(g_path): constant, memory and
    pass-through binds, a sensitive global field, an extended argument
    and an indirect callsite."""
    mb = ModuleBuilder("stops")
    make_wrapper(mb, "mprotect", 3)
    make_wrapper(mb, "open", 3)
    sys2 = mb.function("sys2", params=["a0", "a1", "a2", "op"])
    args = [sys2.p("a0"), sys2.p("a1"), sys2.p("a2")]
    sys2.if_then(
        sys2.p("op"),
        lambda: sys2.ret(sys2.syscall("open", args)),
        lambda: sys2.ret(sys2.syscall("mprotect", args)),
    )
    sys2.ret(0)
    sys2.func.is_wrapper = True
    mb.struct("guard_t", ["prot", "len"])
    mb.global_var("g_guard", size=2, struct="guard_t", init=[1, 4096])
    mb.global_var("g_region", init=REGION)
    mb.global_string("g_path", "/tmp/data")

    guard = mb.function("guard", params=["addr", "len_", "prot"])
    guard.ret(guard.call("mprotect", [guard.p("addr"), guard.p("len_"), guard.p("prot")]))
    for name in ("apply", "apply_ind"):
        fb = mb.function(name, params=["addr", "prot"])
        fb.ret(fb.call("guard", [fb.p("addr"), 4096, fb.p("prot")]))

    f = mb.function("main")

    def body(_i):
        addr = f.load(f.addr_global("g_region"))
        prot = f.load(f.gep(f.addr_global("g_guard"), "guard_t", "prot"))
        f.call("apply", [addr, prot])
        f.icall(f.funcaddr("apply_ind"), [addr, prot], void=True)
        f.call("open", [f.addr_global("g_path"), 0, 0])
        f.call("sys2", [addr, 4096, prot, 0])

    f.loop_range(f.const(3), body)
    f.ret(0)
    return mb.build()


_ARTIFACT = BastionCompiler(extend_filesystem=True).compile(_module())
#: the program's stops per run
STOPS = 12


@st.composite
def corruptions(draw):
    """One change to the stopped tracee (or to the syscall it reports)."""
    kind = draw(
        st.sampled_from(
            ["none", "return", "saved_fp", "binding", "shadow", "variable", "register",
             "syscall"]
        )
    )
    return {
        "kind": kind,
        "depth": draw(st.integers(0, 3)),
        "pick": draw(st.integers(0, 1 << 16)),
        "value": draw(
            st.one_of(
                st.sampled_from(["site", "func", "zero", "near", "odd", "negative"]),
                st.integers(min_value=1, max_value=(1 << 45) - 1).map(lambda v: v * WORD),
            )
        ),
        "bit": draw(st.integers(0, 40)),
    }


def _value(choice, image, current, pick):
    if isinstance(choice, int):
        return choice
    if choice == "site":
        sites = sorted(code_sites(image)[0])
        return sites[pick % len(sites)]
    if choice == "func":
        bases = sorted(image.func_base.values())
        return bases[pick % len(bases)]
    if choice == "zero":
        return 0
    if choice == "near":
        return current + WORD * (1 + pick % 4)
    if choice == "odd":
        return current + 3
    return -WORD * (1 + pick % 4)


def _corrupt(monitor, proc, name, change):
    """Apply ``change`` to the stopped ``proc``; the syscall name to report."""
    kind = change["kind"]
    memory = proc.memory
    words = memory._words
    pick = change["pick"]
    # frame ``depth`` of the stopped tracee, found without a charged read
    fp = proc.syscall.rbp
    for _ in range(change["depth"]):
        fp = words.get(fp, 0)
    if fp <= 0 or fp & 7:
        fp = None
    if kind in ("return", "saved_fp"):
        if fp is None:
            return name
        slot = fp + WORD if kind == "return" else fp
        words[slot] = _value(change["value"], monitor.image, words.get(slot, 0), pick)
    elif kind in ("binding", "shadow", "variable"):
        if fp is None:
            return name
        # the binding record of the call this frame returns to
        site = words.get(fp + WORD, 0) - INSTR_STRIDE
        entry, found = ShadowTable(memory, BINDINGS_LAYOUT).find(site)
        if not found:
            return name
        if kind == "binding":
            # the argmask, or one position's kind or payload
            slot = entry + WORD * (1 + pick % 7)
            words[slot] = _value(change["value"], monitor.image, words.get(slot, 0), pick)
            return name
        payloads = [words.get(entry + WORD * (3 + 2 * i), 0) for i in range(6)]
        payloads = [p for p in payloads if p > 0 and not p & 7]
        if not payloads:
            return name
        variable = payloads[pick % len(payloads)]
        if kind == "variable":
            words[variable] = words.get(variable, 0) ^ (1 << change["bit"])
            return name
        copy, found = ShadowTable(memory, COPIES_LAYOUT).find(variable)
        if found:
            words[copy + WORD] = words.get(copy + WORD, 0) ^ (1 << change["bit"])
    elif kind == "register":
        # one of the syscall's three arguments, as the monitor and then the
        # handler see it
        args = list(proc.syscall.args)
        args[pick % 3] ^= 1 << change["bit"]
        proc.syscall.args = args
    elif kind == "syscall":
        return ("mmap", "open", "mprotect", "chmod")[pick % 4]
    return name


def _corrupted_run(policy, stop, change):
    monitor = BastionMonitor(_ARTIFACT, policy=policy)
    kernel = Kernel()
    proc, cpu = monitor.launch(kernel, cpu_options=CPUOptions(cet=True))
    proc.mm.do_mmap(REGION, 4096, 3, 0x30)
    seen = [0]

    def on_syscall_stop(stopped, name):
        if seen[0] == stop and stopped is proc:
            name = _corrupt(monitor, stopped, name, change)
        seen[0] += 1
        # both unwinders on the stopped state, charging a scratch ledger
        scratch = types.SimpleNamespace(
            ledger=CycleLedger(), memory=stopped.memory, syscall=stopped.syscall
        )
        regs = PtraceHandle(scratch, monitor.costs).getregs()
        frames = []
        for unwind, handle in ((unwind_stack, PtraceHandle), (reference_unwind, ReferencePtrace)):
            try:
                frames.append(unwind(handle(scratch, monitor.costs), regs, monitor.image))
            except VMFault as fault:
                frames.append(str(fault))
        assert frames[0] == frames[1]
        return BastionMonitor.on_syscall_stop(monitor, stopped, name)

    monitor.on_syscall_stop = on_syscall_stop
    status = cpu.run()
    observed = _observed(kernel, monitor, status)
    observed["proc"] = (tuple(proc.syscall.args), cpu.rip, cpu.stats.steps)
    return observed


@settings(max_examples=200, deadline=None)
@given(
    label=st.sampled_from(sorted(POLICIES)),
    stop=st.integers(0, STOPS - 1),
    change=corruptions(),
)
def test_corrupted_stops_match_the_reference(label, stop, change):
    policy = POLICIES[label]
    planned = _corrupted_run(policy, stop, change)
    with reference_stops():
        reference = _corrupted_run(policy, stop, change)
    assert planned == reference


@pytest.mark.parametrize("value", ["odd", "negative"])
def test_unreadable_saved_frame_pointer_fails_control_flow(value):
    """A saved frame pointer the monitor cannot read ends the unwind at
    that frame, and control flow kills the tracee with a violation naming
    it.  Without the control-flow context the stop passes, and the
    program then faults on its own access."""
    change = {"kind": "saved_fp", "depth": 0, "pick": 1, "value": value, "bit": 0}
    frame = "0x7ffcfffffff3" if value == "odd" else "-0x10"
    for label in ("full/ptrace/nocache", "full/ptrace/cache", "CF/ptrace/nocache",
                  "CF/inkernel/cache"):
        observed = _corrupted_run(POLICIES[label], 2, change)
        assert observed["status"][0] == "killed", label
        assert observed["violations"] == [
            "[control-flow] open: frame of main at %s cannot be read (rip=0x400100)" % frame
        ]
    for label in ("CT/ptrace/nocache", "AI/ptrace/nocache", "AI/ptrace/cache",
                  "full/ptrace/fetch"):
        observed = _corrupted_run(POLICIES[label], 2, change)
        assert observed["status"][:2] == ("fault", 139), label
        assert observed["violations"] == []


def test_clean_program_passes_at_every_stop():
    observed = _corrupted_run(ContextPolicy.full().without("cache"), -1, {"kind": "none"})
    assert observed["status"][0] == "returned"
    assert observed["violations"] == []
    assert dict(observed["counters"])["monitor.hooks"] == STOPS


@pytest.mark.parametrize(
    "label", ["full/ptrace/nocache", "CF/ptrace/nocache", "AI/ptrace/nocache", "AI/inkernel/nocache"]
)
@pytest.mark.parametrize(
    "field", ["ptrace_getregs", "ptrace_peek", "readv_base", "monitor_check", "inkernel_state_access"]
)
def test_negative_monitor_costs_raise_where_the_reference_raises(field, label):
    """A negative charge reaches ``CycleLedger.charge``, which refuses it
    after the same charges as the reference's."""
    costs = dataclasses.replace(DEFAULT_COSTS, **{field: -100_000})
    policy = POLICIES[label]
    outcomes = []
    for reference in (False, True):
        monitor = BastionMonitor(_ARTIFACT, policy=policy, costs=costs)
        kernel = Kernel()
        proc, cpu = monitor.launch(kernel, cpu_options=CPUOptions(cet=True))
        proc.mm.do_mmap(REGION, 4096, 3, 0x30)
        with reference_stops() if reference else contextlib.nullcontext():
            try:
                status = cpu.run()
            except ValueError as error:
                status = error
        outcomes.append((str(status), _observed(kernel, monitor, None)))
    assert outcomes[0] == outcomes[1]
