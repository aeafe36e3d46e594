"""The parity matrix: every protection mechanism pinned against the seed.

``tests/fixtures/parity_seed.json`` was recorded on the last commit before
the dispatch-pipeline refactor (see ``tests/fixtures/record_parity.py``).
Each test here replays one (app, config) run through the current pipeline
and asserts the observable surface — status, work units, syscall counts,
monitor counters, and *exact* cycle totals — is identical.  A failure
means the refactor changed behavior or cost, not just structure.

Also pins the pipeline's structural contracts: handlers run in stage
order whatever order they are inserted in, mechanism hooks land between
stages, and the temporal baseline's phase switch actually swaps filters
at the first ``accept``.
"""

import json

import pytest

from repro.bench.harness import run_app
from repro.errors import KernelError, ProcessKilled
from repro.kernel.dispatch import STAGE_ORDER, DispatchPipeline, SyscallContext
from repro.kernel.kernel import Kernel
from repro.telemetry import TelemetryBus
from tests.fixtures.record_parity import FIXTURE_PATH, snapshot


def _load_fixture():
    with open(FIXTURE_PATH) as fh:
        return json.load(fh)


_FIXTURE = _load_fixture()

#: runs are executed lazily, once per session, keyed "app/config"
_run_cache = {}


def _replay(key):
    if key not in _run_cache:
        app, config = key.split("/")
        _run_cache[key] = run_app(app, config, scale=_FIXTURE["scale"])
    return _run_cache[key]


@pytest.mark.parametrize("key", sorted(_FIXTURE["runs"]))
def test_mechanism_parity(key):
    """Replayed run surface == the pre-refactor recording, field by field."""
    assert snapshot(_replay(key)) == _FIXTURE["runs"][key]


def test_matrix_covers_every_mechanism():
    """The fixture exercises BASTION and all five baselines."""
    configs = {key.split("/")[1] for key in _FIXTURE["runs"]}
    assert {
        "vanilla",
        "llvm_cfi",
        "dfi",
        "cet_ct_cf_ai",
        "seccomp_allowlist",
        "temporal",
        "debloat",
    } <= configs


class TestStageOrder:
    def test_install_out_of_order_raises(self):
        """Handlers inserted in reverse stage order still run in
        ``STAGE_ORDER``: ``insert`` places each by its stage's rank."""
        pipeline = DispatchPipeline(TelemetryBus())
        trace = []
        for stage in reversed(STAGE_ORDER):
            pipeline.insert(stage, lambda ctx, stage=stage: trace.append(stage))
        assert pipeline.stage_names() == STAGE_ORDER
        proc = Kernel().create_process("p", image=None)
        pipeline.run(SyscallContext(proc, "getpid", ()))
        assert tuple(trace) == STAGE_ORDER

    def test_install_unknown_stage_raises(self):
        pipeline = DispatchPipeline(TelemetryBus())
        with pytest.raises(KernelError, match="block, count, seccomp"):
            pipeline.insert("frobnicate", lambda ctx: None)
        assert pipeline.stage_names() == ()

    def test_kernel_pipeline_is_fully_populated_in_order(self):
        kernel = Kernel()
        assert tuple(kernel.pipeline.stage_names()) == STAGE_ORDER

    def test_insert_lands_after_stage_handlers(self):
        """A mechanism hook inserted at a stage runs after that stage's
        installed handlers but before the next stage's."""
        pipeline = DispatchPipeline(TelemetryBus())
        trace = []
        pipeline.insert("count", lambda ctx: trace.append("count"))
        pipeline.insert("seccomp", lambda ctx: trace.append("seccomp"))
        pipeline.insert("count", lambda ctx: trace.append("hook"))
        kernel = Kernel()
        proc = kernel.create_process("p", image=None)
        pipeline.run(SyscallContext(proc, "getpid", ()))
        assert trace == ["count", "hook", "seccomp"]


class TestTemporalPhaseSwitch:
    """The fixture alone can't catch a broken phase switch (temporal ==
    allowlist cycles when nothing init-only fires post-switch), so pin the
    mechanics directly: the serving filter installs at the first accept,
    after which init-only syscalls are killed."""

    def _launch(self):
        from repro.bench.harness import CONFIGS, build_app

        module = build_app("nginx")
        kernel = Kernel()
        mechanism = CONFIGS["temporal"].mechanism()
        proc, _cpu = mechanism.launch(kernel, "nginx", module)
        return kernel, mechanism, proc

    def _first_accept(self, kernel, proc):
        # the switch triggers at the dispatch pipeline's count stage, so
        # even an accept4 on a not-yet-listening socket flips the phase
        fd = kernel.dispatch(proc, "socket", (2, 1, 0))
        kernel.dispatch(proc, "accept4", (fd, 0, 0, 0))

    def test_serving_filter_installs_on_first_accept(self):
        kernel, mechanism, proc = self._launch()
        assert not mechanism.switched
        assert len(proc.seccomp_filters) == 1  # launch-time allowlist
        kernel.dispatch(proc, "socket", (2, 1, 0))
        assert not mechanism.switched  # non-accept syscalls don't switch
        self._first_accept(kernel, proc)
        assert mechanism.switched
        assert len(proc.seccomp_filters) == 2

    def test_init_only_syscall_killed_after_switch(self):
        kernel, mechanism, proc = self._launch()
        # setuid is legal during init (the allowlist admits it) ...
        assert kernel.dispatch(proc, "setuid", (33,)) == 0
        self._first_accept(kernel, proc)
        # ... but the serving phase kills it (the privilege drop is done)
        with pytest.raises(ProcessKilled):
            kernel.dispatch(proc, "setuid", (0,))
        assert not proc.alive
