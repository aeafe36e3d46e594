"""The over-coarse fixture: SFIP's one-syscall-deep state abstraction,
asserted statically (the graph admits the infeasible-by-data path) and
at runtime (the mechanism allows a data-only corrupted run, kills
off-graph adjacencies, and the origin variant closes the replay gap)."""

import pytest

from repro.analyze.flowgraph import compile_policy
from repro.bench.harness import CONFIGS
from repro.errors import ProcessKilled
from repro.kernel.kernel import Kernel
from repro.policy import START
from tests.analyze.fixtures.overcoarse_app import (
    FIXTURE_NAME,
    MODE_MAINTENANCE,
    build_artifact,
    build_module,
)


def _launch(config="sfip"):
    kernel = Kernel()
    mechanism = CONFIGS[config].mechanism()
    proc, cpu = mechanism.launch(kernel, FIXTURE_NAME, build_module())
    return kernel, mechanism, proc, cpu


class TestStaticOvercoarseness:
    def test_graph_unions_both_branches(self):
        """Both the request path and the privileged path are genuinely
        executable, so the engine must admit both — which is exactly why
        a last-syscall state machine cannot tell them apart."""
        policy = compile_policy(build_artifact())
        assert policy.start_syscalls == ("open",)
        # the request path
        assert policy.allows_transition("open", "read")
        assert policy.allows_transition("read", "close")
        # the privileged path, reachable from the same 'close' state the
        # request path ends in: the adjacency a data-only attacker rides
        assert policy.allows_transition("close", "execve")
        # what stays outside the union (and what SFIP *can* kill)
        assert not policy.allows_transition("read", "execve")
        assert not policy.allows_transition(START, "execve")

    def test_origins_name_the_wrappers(self):
        policy = compile_policy(build_artifact())
        assert set(policy.origins_of("close", "execve")) == {"execve"}


class TestRuntimeEnforcement:
    @pytest.mark.parametrize("config", ["sfip", "sfip_origin"])
    def test_benign_run_is_clean(self, config):
        _kernel, mechanism, proc, cpu = _launch(config)
        status = cpu.run()
        assert status.kind == "returned" and proc.kill_reason is None
        assert mechanism.kills == 0 and mechanism.checks > 0

    def test_data_only_corruption_is_admitted(self):
        """Flip the mode word (the data-only attack): the run now execs,
        but every adjacency it takes is in the graph — SFIP allows it.
        This is the same gap Table 6's divergence rows pin on the real
        apps, where BASTION's argument-integrity context kills."""
        _kernel, mechanism, proc, cpu = _launch()
        proc.memory.write(cpu.image.global_addr["g_mode"], MODE_MAINTENANCE)
        status = cpu.run()
        assert status.kind == "returned" and proc.kill_reason is None
        assert proc.syscall_counts.get("execve") == 1
        assert mechanism.kills == 0

    def test_off_graph_first_dispatch_is_killed(self):
        kernel, mechanism, proc, _cpu = _launch()
        with pytest.raises(ProcessKilled):
            kernel.dispatch(proc, "read", [0, 0, 0])
        assert proc.kill_reason.startswith("sfip: transition ^ -> read")
        assert mechanism.kills == 1

    def test_off_graph_adjacency_is_killed(self):
        """execve is in the presence table, so only the transition check
        stands between a hijacked 'read' state and it."""
        kernel, mechanism, proc, _cpu = _launch()
        kernel.dispatch(proc, "open", [0, 0])
        kernel.dispatch(proc, "read", [0, 0, 0])
        with pytest.raises(ProcessKilled):
            kernel.dispatch(proc, "execve", [0, 0, 0])
        assert "read -> execve" in proc.kill_reason
        assert mechanism.kills == 1

    def test_origin_variant_kills_legal_adjacency_replay(self):
        """close -> execve is a legal edge, but issued from code outside
        the recorded origin set (a replay from injected/reused code) the
        origin variant kills where plain sfip admits."""
        kernel, mechanism, proc, cpu = _launch("sfip_origin")
        kernel.dispatch(proc, "open", [0, 0], rip=cpu.image.addr_of("open"))
        kernel.dispatch(proc, "close", [3], rip=cpu.image.addr_of("close"))
        with pytest.raises(ProcessKilled):
            kernel.dispatch(
                proc, "execve", [0, 0, 0], rip=cpu.image.addr_of("serve_request")
            )
        assert proc.kill_reason.startswith("sfip-origin:")
        assert "not a recorded origin" in proc.kill_reason

        # the identical syscall sequence from the recorded origins passes
        kernel, mechanism, proc, cpu = _launch("sfip_origin")
        for name, args in (("open", [0, 0]), ("close", [3]), ("execve", [0, 0, 0])):
            kernel.dispatch(proc, name, args, rip=cpu.image.addr_of(name))
        assert mechanism.kills == 0

        # and plain sfip admits the replay: the variants' precision gap
        kernel, mechanism, proc, cpu = _launch("sfip")
        kernel.dispatch(proc, "open", [0, 0])
        kernel.dispatch(proc, "close", [3])
        kernel.dispatch(proc, "execve", [0, 0, 0], rip=cpu.image.addr_of("serve_request"))
        assert mechanism.kills == 0
