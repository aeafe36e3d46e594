"""Property-based fuzzing of the whole compile→protect→run pipeline.

Hypothesis generates random (but valid) programs with sensitive syscall
callsites fed by random dataflow shapes, and we assert the pipeline's core
soundness property: **a benign program never triggers a violation** under
full BASTION enforcement, and its observable behaviour is unchanged by
instrumentation.
"""

from hypothesis import given, settings, strategies as st

from repro import protect
from repro.ir.builder import ModuleBuilder
from repro.kernel.kernel import Kernel
from repro.monitor.monitor import BastionMonitor
from repro.monitor.policy import ContextPolicy
from repro.vm.cpu import CPU, CPUOptions
from repro.vm.loader import Image
from tests.conftest import make_wrapper

# how each mprotect argument gets produced in the generated program
_ARG_SHAPES = st.sampled_from(
    ["imm", "const_local", "computed", "global_load", "field_load", "param"]
)


@st.composite
def programs(draw):
    """A random module: main -> mid(p) -> mprotect(args...)."""
    shapes = draw(st.lists(_ARG_SHAPES, min_size=3, max_size=3))
    extra_depth = draw(st.integers(min_value=0, max_value=2))
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=7), min_size=3, max_size=3
        )
    )
    return shapes, extra_depth, values


def _build(shapes, extra_depth, values):
    mb = ModuleBuilder("fuzz")
    mb.struct("cfg_t", ["a", "b"])
    mb.global_var("g_val", init=11)
    mb.global_var("g_cfg", size=2, struct="cfg_t")
    make_wrapper(mb, "mprotect", 3)
    make_wrapper(mb, "getpid", 0)

    leaf = mb.function("leaf", params=["p0"])
    args = []
    for i, (shape, value) in enumerate(zip(shapes, values)):
        if shape == "imm":
            args.append(value)
        elif shape == "const_local":
            args.append(leaf.const(value, dst="c%d" % i))
        elif shape == "computed":
            a = leaf.const(value)
            args.append(leaf.binop("|", a, 0, dst="x%d" % i))
        elif shape == "global_load":
            p = leaf.addr_global("g_val")
            args.append(leaf.load(p, dst="g%d" % i))
        elif shape == "field_load":
            g = leaf.addr_global("g_cfg")
            fp = leaf.gep(g, "cfg_t", "a")
            args.append(leaf.load(fp, dst="f%d" % i))
        else:  # param
            args.append(leaf.p("p0"))
    rc = leaf.call("mprotect", [args[0], args[1], args[2]])
    leaf.ret(rc)

    prev = "leaf"
    for d in range(extra_depth):
        mid = mb.function("mid%d" % d, params=["m"])
        mid.call("getpid", [])
        r = mid.call(prev, [mid.p("m")])
        mid.ret(r)
        prev = "mid%d" % d

    f = mb.function("main")
    # initialize the sensitive field legitimately
    g = f.addr_global("g_cfg")
    fp = f.gep(g, "cfg_t", "a")
    f.store(fp, 5)
    r = f.call(prev, [3])
    f.ret(r)
    return mb.build()


@settings(max_examples=40, deadline=None)
@given(programs())
def test_benign_programs_never_violate(params):
    shapes, extra_depth, values = params
    module = _build(shapes, extra_depth, values)
    artifact = protect(module)
    monitor = BastionMonitor(artifact, policy=ContextPolicy.full())
    kernel = Kernel()
    proc, cpu = monitor.launch(kernel)
    proc.mm.do_mmap(0, 1 << 20, 3, 0x22)
    status = cpu.run()
    assert status.kind == "returned", (status, shapes)
    assert monitor.violations == [], (monitor.violations[:1], shapes)
    assert monitor.stats.hook_counts.get("mprotect") == 1


@settings(max_examples=20, deadline=None)
@given(programs())
def test_instrumentation_preserves_behaviour(params):
    shapes, extra_depth, values = params
    module = _build(shapes, extra_depth, values)
    artifact = protect(module)

    def run(mod):
        kernel = Kernel()
        image = Image(mod)
        proc = kernel.create_process("fuzz", image)
        proc.mm.do_mmap(0, 1 << 20, 3, 0x22)
        proc.bastion_runtime = None  # intrinsics become cost-only no-ops
        cpu = CPU(image, proc, kernel, CPUOptions())
        return cpu.run()

    plain = run(module)
    instrumented = run(artifact.module)
    assert (plain.kind, plain.code) == (instrumented.kind, instrumented.code)
