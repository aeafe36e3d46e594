"""The fused block→count→seccomp fast path (wall-clock-only by contract).

The pipeline may collapse its canonical head into one call exactly when no
mechanism hook sits between the three stages and the non-final handlers
are marked ``cycle_free``.  These tests pin the contract: fusion state
tracks hook placement, ``StageOrderError`` semantics survive, and — the
load-bearing part — per-stage cycle attribution, verdicts, and counters
are identical to the unfused reference walk.
"""

import pytest

from repro.errors import ProcessKilled
from repro.kernel.dispatch import (
    STAGE_ORDER,
    DispatchPipeline,
    StageOrderError,
    cycle_free,
)
from repro.kernel.kernel import Kernel
from repro.telemetry.bus import TelemetryBus


class TestFusionState:
    def test_fresh_kernel_pipeline_is_fused(self):
        kernel = Kernel()
        assert kernel.pipeline.fused

    def test_hook_between_fused_stages_defuses(self):
        """A hook at block or count lands inside the would-be-fused head,
        so the pipeline must fall back to the reference walk."""
        for stage in ("block", "count"):
            kernel = Kernel()
            hook = lambda ctx: None  # noqa: E731 - identity matters below
            kernel.pipeline.insert(stage, hook)
            assert not kernel.pipeline.fused
            kernel.pipeline.remove(hook)
            assert kernel.pipeline.fused

    def test_hook_after_fused_region_keeps_fusion(self):
        """A seccomp hook runs *after* the canonical seccomp handler, i.e.
        after the fused region — it gets its own plan entry and its own
        cycle attribution, so fusion survives."""
        kernel = Kernel()
        kernel.pipeline.insert("seccomp", lambda ctx: None)
        assert kernel.pipeline.fused

    def test_set_fusion_false_forces_reference_walk(self):
        kernel = Kernel()
        kernel.pipeline.set_fusion(False)
        assert not kernel.pipeline.fused
        kernel.pipeline.set_fusion(True)
        assert kernel.pipeline.fused

    def test_stage_names_report_canonical_order_while_fused(self):
        kernel = Kernel()
        assert kernel.pipeline.fused
        assert tuple(kernel.pipeline.stage_names()) == STAGE_ORDER

    def test_stage_order_error_still_raised_while_fused(self):
        """Fusion is a run-plan detail; the strict install builder keeps
        rejecting out-of-order stages."""
        pipeline = DispatchPipeline(TelemetryBus())
        pipeline.install("block", cycle_free(lambda ctx: None))
        pipeline.install("count", cycle_free(lambda ctx: None))
        pipeline.install("seccomp", lambda ctx: None)
        pipeline.install("verify", lambda ctx: None)
        with pytest.raises(StageOrderError):
            pipeline.install("seccomp", lambda ctx: None)

    def test_unmarked_head_handlers_do_not_fuse(self):
        """Fusing is only sound when block/count provably charge nothing;
        handlers without the cycle_free mark must not fuse."""
        pipeline = DispatchPipeline(TelemetryBus())
        pipeline.install("block", lambda ctx: None)
        pipeline.install("count", lambda ctx: None)
        pipeline.install("seccomp", lambda ctx: None)
        assert not pipeline.fused


def _run_syscalls(kernel):
    """Dispatch a fixed syscall mix through a kernel; returns its proc."""
    proc = kernel.create_process("app", image=None)
    kernel.syscall(proc, "getpid", ())
    fd = kernel.syscall(proc, "socket", (2, 1, 0))
    kernel.syscall(proc, "close", (fd,))
    for _ in range(3):
        kernel.syscall(proc, "getpid", ())
    return proc


class TestFusedAttributionParity:
    def test_stage_cycles_identical_to_unfused_walk(self):
        fused_kernel = Kernel()
        assert fused_kernel.pipeline.fused
        fused_proc = _run_syscalls(fused_kernel)

        ref_kernel = Kernel()
        ref_kernel.pipeline.set_fusion(False)
        ref_proc = _run_syscalls(ref_kernel)

        assert (
            fused_kernel.telemetry.stage_cycles()
            == ref_kernel.telemetry.stage_cycles()
        )
        assert fused_proc.ledger.cycles == ref_proc.ledger.cycles
        assert fused_proc.ledger.by_category == ref_proc.ledger.by_category
        assert dict(fused_proc.syscall_counts) == dict(ref_proc.syscall_counts)

    def test_verdict_counters_identical_to_unfused_walk(self):
        fused_kernel = Kernel()
        _run_syscalls(fused_kernel)
        ref_kernel = Kernel()
        ref_kernel.pipeline.set_fusion(False)
        _run_syscalls(ref_kernel)
        fused = {
            k: v
            for k, v in fused_kernel.telemetry.counters.items()
            if k == "dispatch.syscalls" or k.startswith("dispatch.verdict.")
        }
        ref = {
            k: v
            for k, v in ref_kernel.telemetry.counters.items()
            if k == "dispatch.syscalls" or k.startswith("dispatch.verdict.")
        }
        assert fused["dispatch.syscalls"] == 6
        assert fused == ref

    def _kill_filter(self):
        from repro.kernel.seccomp import (
            SECCOMP_RET_KILL_PROCESS,
            build_action_filter,
        )
        from repro.syscalls.table import nr_of

        return build_action_filter({nr_of("socket"): SECCOMP_RET_KILL_PROCESS})

    def test_seccomp_kill_attribution_matches_unfused(self):
        """A KILL raised from inside the fused call must attribute its
        cycles exactly like the reference walk (try/finally parity)."""
        outcomes = []
        for fusion in (True, False):
            kernel = Kernel()
            kernel.pipeline.set_fusion(fusion)
            proc = kernel.create_process("app", image=None)
            kernel.install_seccomp(proc, self._kill_filter())
            kernel.syscall(proc, "getpid", ())
            with pytest.raises(ProcessKilled):
                kernel.syscall(proc, "socket", (2, 1, 0))
            outcomes.append(
                (
                    kernel.telemetry.stage_cycles(),
                    proc.ledger.cycles,
                    dict(proc.syscall_counts),
                    {
                        k: v
                        for k, v in kernel.telemetry.counters.items()
                        if k.startswith("dispatch.verdict.")
                    },
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_per_stage_attribution_with_hook_between_stages(self):
        """With a counting hook at ``count`` the pipeline de-fuses, and the
        hook sees every dispatch exactly once — same as it would have
        pre-fusion."""
        kernel = Kernel()
        seen = []
        kernel.pipeline.insert("count", lambda ctx: seen.append(ctx.name))
        assert not kernel.pipeline.fused
        _run_syscalls(kernel)
        assert seen == ["getpid", "socket", "close", "getpid", "getpid", "getpid"]
