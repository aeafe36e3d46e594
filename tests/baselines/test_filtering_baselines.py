"""Tests for the advanced filtering baselines (§2.2 / §12) and their
documented weaknesses against the attack catalog."""

import pytest

from repro.apps.nginx import build_nginx
from repro.kernel.seccomp import (
    build_arg_constraint_filter,
    evaluate_filters,
    SECCOMP_RET_ALLOW,
    SECCOMP_RET_KILL_PROCESS,
)
from repro.mechanisms.baselines import phase_syscalls
from repro.policy import build_presence_filter
from repro.syscalls.table import nr_of


class TestArgConstraints:
    def test_pins_values(self):
        filt = build_arg_constraint_filter("mprotect", 3, [1, 5])
        nr = nr_of("mprotect")
        assert (
            evaluate_filters([filt], nr, args=(0, 0, 1, 0, 0, 0))[0]
            == SECCOMP_RET_ALLOW
        )
        assert (
            evaluate_filters([filt], nr, args=(0, 0, 5, 0, 0, 0))[0]
            == SECCOMP_RET_ALLOW
        )
        assert (
            evaluate_filters([filt], nr, args=(0, 0, 7, 0, 0, 0))[0]
            == SECCOMP_RET_KILL_PROCESS
        )

    def test_other_syscalls_unconstrained(self):
        filt = build_arg_constraint_filter("mprotect", 3, [1])
        assert (
            evaluate_filters([filt], nr_of("read"), args=(9, 9, 9, 0, 0, 0))[0]
            == SECCOMP_RET_ALLOW
        )

    def test_bad_position_rejected(self):
        with pytest.raises(ValueError):
            build_arg_constraint_filter("mprotect", 0, [1])

    def test_application_wide_permissiveness(self):
        """§2.2's critique: one app legitimately uses PROT_READ at site A
        and PROT_READ|PROT_EXEC at site B, so seccomp must allow BOTH
        values at EVERY site — the attacker just picks the stronger one."""
        legitimate_values = {1, 5}  # read-only pool guard + JIT page
        filt = build_arg_constraint_filter("mprotect", 3, legitimate_values)
        nr = nr_of("mprotect")
        # the attacker calls from the read-only-pool site but asks for RX:
        attacker_args = (0xDEAD000, 4096, 5, 0, 0, 0)
        assert evaluate_filters([filt], nr, args=attacker_args)[0] == SECCOMP_RET_ALLOW
        # BASTION's per-callsite constant binding would have pinned that
        # site to 1 (see tests/monitor: "constant 1 corrupted to ...")


class TestTemporalFiltering:
    def test_phase_split(self):
        module = build_nginx()
        init_only, serving = phase_syscalls(module, ["ngx_worker_cycle"])
        # privilege drop and worker spawn are init-only
        assert "setuid" in init_only
        assert "clone" in init_only
        # the serving loop needs accept4 and the static-file path
        assert "accept4" in serving
        assert "open" in serving
        assert "sendfile" in serving

    def test_serving_filter_kills_init_only(self):
        _init_only, serving = phase_syscalls(build_nginx(), ["ngx_worker_cycle"])
        filt = build_presence_filter(serving, "temporal-serving")
        assert (
            evaluate_filters([filt], nr_of("setuid"))[0]
            == SECCOMP_RET_KILL_PROCESS
        )
        assert evaluate_filters([filt], nr_of("accept4"))[0] == SECCOMP_RET_ALLOW

    def test_temporal_filter_cannot_stop_serving_phase_attacks(self):
        """§12: Control Jujutsu / AOCR 'leverage system calls still
        permitted in the application's serving phase'.

        The Control Jujutsu route is master-cycle exec — but the master
        loop (and its upgrade path) must stay live for the process's whole
        life, so execve survives even the serving-phase split when the
        roots include the master loop.  And the NEWTON CPI route uses
        mprotect, which the serving phase keeps for... nothing in
        mini-NGINX — but the request path itself (ngx_handle_request)
        reaches the indexed-variable dispatch, which is all the attacker
        needs *if the target syscall remains allowed*."""
        _init_only, serving = phase_syscalls(build_nginx(), ["ngx_master_cycle"])
        # the master-cycle phase keeps execve alive (the upgrade path)
        assert "execve" in serving
