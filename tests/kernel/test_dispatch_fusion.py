"""The one dispatch walk: stage order, attribution and skip rules.

The kernel inserts its seven handlers in ``STAGE_ORDER`` and mechanisms
insert hooks at their stage; every dispatch then walks the list once.
These tests pin the walk's contract: a hook runs after every handler
already inserted at its stage, each stage's ledger delta lands on
``stage.cycles.<stage>`` (also when the stage raises), ``ctx.done`` skips
everything but ``account``, and a ``trace_only`` handler runs only on
traced dispatches.  The attribution tests pin the values the walk
produced before its fused ``block→count→seccomp`` head was removed.
"""

import pytest

from repro.errors import KernelError, ProcessKilled
from repro.kernel.dispatch import (
    STAGE_ORDER,
    DispatchPipeline,
    SyscallContext,
    trace_only,
)
from repro.kernel.kernel import Kernel
from repro.telemetry.bus import TelemetryBus


class _TracingKernel(Kernel):
    """A kernel whose block/count/seccomp handlers log that they ran."""

    def __init__(self, trace):
        self.trace = trace
        super().__init__()

    def _stage_block(self, ctx):
        self.trace.append("kernel:block")
        super()._stage_block(ctx)

    def _stage_count(self, ctx):
        self.trace.append("kernel:count")
        super()._stage_count(ctx)

    def _stage_seccomp(self, ctx):
        self.trace.append("kernel:seccomp")
        super()._stage_seccomp(ctx)


class TestFusionState:
    def test_fresh_kernel_pipeline_is_fused(self):
        """A fresh kernel holds its seven handlers in stage order, and the
        pipeline has one way to add a handler and one way to run."""
        pipeline = Kernel().pipeline
        assert pipeline.stage_names() == STAGE_ORDER
        for gone in ("fused", "set_fusion", "install", "remove"):
            assert not hasattr(pipeline, gone)

    def test_hook_between_fused_stages_defuses(self):
        """Hooks at block and count each run once per dispatch, right after
        their stage's kernel handler."""
        trace = []
        kernel = _TracingKernel(trace)
        kernel.pipeline.insert("block", lambda ctx: trace.append("hook:block"))
        kernel.pipeline.insert("count", lambda ctx: trace.append("hook:count"))
        proc = kernel.create_process("app", image=None)
        for _ in range(2):
            kernel.dispatch(proc, "getpid", ())
        assert trace == [
            "kernel:block",
            "hook:block",
            "kernel:count",
            "hook:count",
            "kernel:seccomp",
        ] * 2

    def test_hook_after_fused_region_keeps_fusion(self):
        """A seccomp hook runs after the kernel's seccomp handler, and its
        cycles land on ``stage.cycles.seccomp``."""
        trace = []
        kernel = _TracingKernel(trace)

        def hook(ctx):
            trace.append("hook:seccomp")
            ctx.proc.ledger.charge(7, "test")

        kernel.pipeline.insert("seccomp", hook)
        proc = kernel.create_process("app", image=None)
        for _ in range(3):
            kernel.dispatch(proc, "getpid", ())
        assert trace == ["kernel:block", "kernel:count", "kernel:seccomp",
                         "hook:seccomp"] * 3
        assert kernel.telemetry.stage_cycles() == {"seccomp": 21}

    def test_set_fusion_false_forces_reference_walk(self):
        """The walk over test handlers, one per stage, each charging a
        distinct cycle count: every count lands on its own stage,
        ``ctx.done`` skips all but account, and the ``trace_only`` handler
        is skipped on an untraced dispatch."""
        cycles = {stage: 2**rank for rank, stage in enumerate(STAGE_ORDER)}
        ran = []

        def handler(stage):
            def fn(ctx):
                ran.append(stage)
                ctx.proc.ledger.charge(cycles[stage], "test")
                if stage == "seccomp":
                    ctx.trace = ctx.name == "traced"
                    if ctx.name == "errno":
                        ctx.short_circuit(-1, "errno")

            return trace_only(fn) if stage == "trace_stop" else fn

        proc = Kernel().create_process("app", image=None)

        def walk(name):
            bus = TelemetryBus()
            pipeline = DispatchPipeline(bus)
            for stage in STAGE_ORDER:
                pipeline.insert(stage, handler(stage))
            del ran[:]
            pipeline.run(SyscallContext(proc, name, ()))
            return tuple(ran), bus.stage_cycles()

        def expected(*stages):
            return stages, {stage: cycles[stage] for stage in stages}

        assert walk("traced") == expected(*STAGE_ORDER)
        untraced = tuple(s for s in STAGE_ORDER if s != "trace_stop")
        assert walk("untraced") == expected(*untraced)
        assert walk("errno") == expected("block", "count", "seccomp", "account")

    def test_stage_names_report_canonical_order_while_fused(self):
        """``stage_names()`` stays in rank order after the temporal and
        sfip mechanisms insert their hooks (at count and at seccomp)."""
        from repro.bench.harness import CONFIGS, build_app

        module = build_app("nginx")
        for name, stage in (("temporal", "count"), ("sfip", "seccomp")):
            kernel = Kernel()
            CONFIGS[name].mechanism().launch(kernel, "nginx", module)
            names = kernel.pipeline.stage_names()
            assert names.count(stage) == 2, name
            assert set(names) == set(STAGE_ORDER)
            assert names == tuple(sorted(names, key=STAGE_ORDER.index))

    def test_stage_order_error_still_raised_while_fused(self):
        """An unknown stage raises ``KernelError`` and inserts nothing."""
        kernel = Kernel()
        with pytest.raises(KernelError, match="unknown stage 'fused'"):
            kernel.pipeline.insert("fused", lambda ctx: None)
        assert kernel.pipeline.stage_names() == STAGE_ORDER

    def test_unmarked_head_handlers_do_not_fuse(self):
        """Cycles charged at block or count are attributed to that stage,
        not to seccomp."""
        kernel = Kernel()
        kernel.pipeline.insert("block", lambda ctx: ctx.proc.ledger.charge(3, "t"))
        kernel.pipeline.insert("count", lambda ctx: ctx.proc.ledger.charge(5, "t"))
        proc = kernel.create_process("app", image=None)
        kernel.dispatch(proc, "getpid", ())
        kernel.dispatch(proc, "getpid", ())
        assert kernel.telemetry.stage_cycles() == {"block": 6, "count": 10}


def _run_syscalls(kernel, seccomp_filter=None):
    """Dispatch a fixed syscall mix through a kernel; returns its proc."""
    proc = kernel.create_process("app", image=None)
    if seccomp_filter is not None:
        kernel.install_seccomp(proc, seccomp_filter)
    kernel.dispatch(proc, "getpid", ())
    fd = kernel.dispatch(proc, "socket", (2, 1, 0))
    kernel.dispatch(proc, "close", (fd,))
    for _ in range(3):
        kernel.dispatch(proc, "getpid", ())
    return proc


def _dispatch_counters(kernel):
    return {
        k: v
        for k, v in kernel.telemetry.counters.items()
        if k == "dispatch.syscalls" or k.startswith("dispatch.verdict.")
    }


def _action_filter(syscall, action):
    from repro.kernel.seccomp import build_action_filter
    from repro.syscalls.table import nr_of

    return build_action_filter({nr_of(syscall): action})


class TestFusedAttributionParity:
    def test_stage_cycles_identical_to_unfused_walk(self):
        """The mix on a bare kernel charges nothing; under a filter that
        fails ``close`` with EPERM, its seccomp cycles are pinned."""
        from repro.kernel.seccomp import SECCOMP_RET_ERRNO

        counts = {"getpid": 4, "socket": 1, "close": 1}
        kernel = Kernel()
        proc = _run_syscalls(kernel)
        assert kernel.telemetry.stage_cycles() == {}
        assert proc.ledger.cycles == 0
        assert proc.ledger.by_category == {}
        assert dict(proc.syscall_counts) == counts

        kernel = Kernel()
        proc = _run_syscalls(kernel, _action_filter("close", SECCOMP_RET_ERRNO | 1))
        assert kernel.telemetry.stage_cycles() == {"seccomp": 6}
        assert proc.ledger.cycles == 6
        assert proc.ledger.by_category == {"seccomp": 6}
        assert dict(proc.syscall_counts) == counts
        assert _dispatch_counters(kernel) == {
            "dispatch.syscalls": 6,
            "dispatch.verdict.allow": 5,
            "dispatch.verdict.errno": 1,
        }

    def test_verdict_counters_identical_to_unfused_walk(self):
        kernel = Kernel()
        _run_syscalls(kernel)
        assert _dispatch_counters(kernel) == {
            "dispatch.syscalls": 6,
            "dispatch.verdict.allow": 6,
        }

    def test_seccomp_kill_attribution_matches_unfused(self):
        """A KILL raised from inside the seccomp stage still attributes its
        cycles to that stage (the walk's try/finally)."""
        from repro.kernel.seccomp import SECCOMP_RET_KILL_PROCESS

        kernel = Kernel()
        proc = kernel.create_process("app", image=None)
        kernel.install_seccomp(
            proc, _action_filter("socket", SECCOMP_RET_KILL_PROCESS)
        )
        kernel.dispatch(proc, "getpid", ())
        with pytest.raises(ProcessKilled):
            kernel.dispatch(proc, "socket", (2, 1, 0))
        assert kernel.telemetry.stage_cycles() == {"seccomp": 2}
        assert proc.ledger.cycles == 2
        assert dict(proc.syscall_counts) == {"getpid": 1, "socket": 1}
        assert {
            k: v
            for k, v in kernel.telemetry.counters.items()
            if k.startswith("dispatch.verdict.")
        } == {"dispatch.verdict.allow": 1, "dispatch.verdict.kill": 1}

    def test_per_stage_attribution_with_hook_between_stages(self):
        """A counting hook at ``count`` sees every dispatch exactly once."""
        kernel = Kernel()
        seen = []
        kernel.pipeline.insert("count", lambda ctx: seen.append(ctx.name))
        _run_syscalls(kernel)
        assert seen == ["getpid", "socket", "close", "getpid", "getpid", "getpid"]
