"""The sfip mechanisms end to end: zero false kills on every benign
workload, scheduler-correct per-pid state, the Table 6 kill split
(transition vs presence), and the pinned SFIP-allows/BASTION-kills
divergence family."""

import pytest

from repro.attacks.catalog import attack_by_name
from repro.attacks.runner import TARGETS, _target_module, run_attack
from repro.bench.harness import CONFIGS, run_app
from repro.kernel.kernel import Kernel
from repro.monitor.policy import ContextPolicy

BENCH_APPS = ("nginx", "sqlite", "vsftpd")
VARIANTS = ("sfip", "sfip_origin")

#: Table 6 rows the transition *hook* kills (presence admits the syscall,
#: the last->current adjacency is off-graph)
TRANSITION_KILLS = (
    "rop_execute_root_command",
    "rop_alter_memory_permission",
    "rop_mmap_rwx",
    "aocr_nginx_attack1",
    "cve_2012_0809",
    "newton_cpi",
)

#: Table 6 rows the presence filter kills in-kernel before the hook
PRESENCE_KILLS = ("ret2system", "rop_chmod_unused_syscall", "newton_cscfi")

#: the SFIP-allows/BASTION-kills family: corruption riding *legal*
#: adjacencies (data-only and mimicry-within-a-state attacks), the gap
#: BASTION's context checks close — what the differential fuzzer hunts
DIVERGENCES = (
    "rop_execute_user_command",
    "cve_2013_2028",
    "aocr_apache",
    "aocr_nginx_attack2",
    "coop_chrome",
    "control_jujutsu",
)


def _run(name, variant="sfip", quantum=None):
    return run_attack(
        attack_by_name(name),
        None,
        variant,
        defense=CONFIGS[variant],
        quantum=quantum,
    )


def _benign_run(app, variant):
    target = TARGETS[app]
    kernel = Kernel()
    target.prepare_env(kernel)
    mechanism = CONFIGS[variant].mechanism()
    proc, cpu = mechanism.launch(kernel, app, _target_module(app))
    target.attach_workload(kernel, proc)
    status = cpu.run()
    return mechanism, proc, status


class TestZeroFalseKills:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("app", sorted(TARGETS))
    def test_attack_targets_run_clean(self, app, variant):
        mechanism, proc, status = _benign_run(app, variant)
        assert status.kind in ("returned", "exit", "halt"), status
        assert proc.kill_reason is None
        assert mechanism.kills == 0
        assert mechanism.checks > 0

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("app", BENCH_APPS)
    def test_bench_workloads_run_clean(self, app, variant):
        result = run_app(app, config=variant, scale=0.2)
        assert result.ok
        # the hook's cost is attributed to the sfip ledger category
        assert result.ledger_breakdown.get("sfip", 0) > 0


class TestSchedulerCorrectness:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_scheduled_worker_pool_runs_clean(self, variant):
        """clone()d workers interleave under the preemptive scheduler;
        the per-pid state machine must never cross streams."""
        from repro.apps.nginx import NginxConfig
        from repro.apps.workloads import ConcurrentWrkWorkload

        result = run_app(
            "nginx",
            config=variant,
            app_config=NginxConfig(workers=2, master_serves=False),
            workload=ConcurrentWrkWorkload(connections=8),
            quantum=3000,
        )
        assert result.status.kind in ("returned", "exit", "halt")
        bad = {
            pid: kind
            for pid, kind in result.statuses.items()
            if kind == "killed"
        }
        assert not bad, bad

    @pytest.mark.parametrize("name", ["rop_mmap_rwx", "rop_execute_user_command"])
    def test_verdicts_are_quantum_independent(self, name):
        """The clone snapshot fires at the spawn dispatch, not at a
        quantum boundary — so verdict and attribution cannot depend on
        the scheduler's slice length."""
        cooperative = _run(name)
        for quantum in (500, 7919):
            sliced = _run(name, quantum=quantum)
            assert sliced.blocked == cooperative.blocked
            assert sliced.succeeded == cooperative.succeeded
            assert str(sliced.blocked_by) == str(cooperative.blocked_by)


class TestAttackCoverage:
    @pytest.mark.parametrize("name", TRANSITION_KILLS)
    def test_transition_hook_kills(self, name):
        outcome = _run(name)
        assert outcome.blocked and not outcome.succeeded
        assert outcome.blocked_by == "sfip"

    @pytest.mark.parametrize("name", PRESENCE_KILLS)
    def test_presence_filter_kills(self, name):
        """The filtering half: syscalls outside the graph's node set die
        in-kernel before the hook ever runs."""
        outcome = _run(name)
        assert outcome.blocked and not outcome.succeeded
        assert outcome.blocked_by == "seccomp"

    @pytest.mark.parametrize("name", TRANSITION_KILLS[:2])
    def test_origin_variant_blocks_at_least_as_much(self, name):
        outcome = _run(name, "sfip_origin")
        assert outcome.blocked and not outcome.succeeded


class TestDivergences:
    @pytest.mark.parametrize("name", DIVERGENCES)
    def test_sfip_allows_where_bastion_kills(self, name):
        """The acceptance-criteria divergences: a valid exploit riding
        legal transition-graph adjacencies — SFIP admits, BASTION's
        context checks kill."""
        spec = attack_by_name(name)
        sfip = _run(name)
        assert sfip.succeeded and not sfip.blocked, (
            name,
            sfip.blocked_by,
        )
        bastion = run_attack(spec, ContextPolicy.full(), "bastion")
        assert bastion.blocked and not bastion.succeeded

    def test_divergent_runs_were_checked_not_skipped(self):
        """SFIP really examined every dispatch of an admitted exploit —
        the divergence is a policy gap, not a dead hook."""
        spec = attack_by_name("rop_execute_user_command")
        target = TARGETS[spec.target]
        kernel = Kernel()
        target.prepare_env(kernel)
        mechanism = CONFIGS["sfip"].mechanism()
        proc, cpu = mechanism.launch(
            kernel, spec.target, _target_module(spec.target)
        )
        from repro.attacks.primitives import AttackEnv

        env = AttackEnv(
            kernel=kernel, proc=proc, cpu=cpu, image=cpu.image, monitor=None
        )
        spec.stage(env)
        target.attach_workload(kernel, proc)
        cpu.run()
        assert spec.oracle(env)  # the exploit reached its goal
        assert mechanism.kills == 0
        assert mechanism.checks >= sum(proc.syscall_counts.values())

    def test_divergence_is_statically_predicted(self):
        """The runtime admission is the policy's doing: the hijacked
        execve rides an adjacency the flowgraph producer recorded as
        legal for nginx (ngx_execute_proc is reachable code)."""
        from repro.mechanisms.sfip import sfip_policy_for
        from repro.vm.loader import load_module

        spec = attack_by_name("rop_execute_user_command")
        policy = sfip_policy_for(load_module(_target_module(spec.target)))
        assert "execve" in policy.presence
        legal_prevs = {
            prev
            for prev, nexts in policy.transitions.items()
            if "execve" in nexts
        }
        assert legal_prevs  # at least one legal way into execve
