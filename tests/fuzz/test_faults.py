"""Dispatch-time fault injection through the pipeline insert() API."""

import pytest

from repro.fuzz.faults import (
    CAMPAIGN_SPECS,
    CLASSIFICATIONS,
    FAULT_SITES,
    FAULT_STAGES,
    FaultSpec,
    run_fault_campaign,
)


def test_campaign_covers_every_site_and_stage():
    pairs = {(s.site, s.stage) for s in CAMPAIGN_SPECS}
    assert pairs == {(s, st) for s in FAULT_SITES for st in FAULT_STAGES}


def test_fault_matrix_shape_and_classes():
    result = run_fault_campaign(
        mechanisms=("undefended", "bastion"),
        specs=(
            FaultSpec(site="syscall_number", stage="pre_seccomp"),
            FaultSpec(site="arg_register", stage="pre_execute"),
            FaultSpec(site="filter_state", stage="pre_seccomp"),
        ),
    )
    assert result["matrix"] == ["undefended", "bastion"]
    assert set(result["cells"]) == {
        "syscall_number@pre_seccomp",
        "arg_register@pre_execute",
        "filter_state@pre_seccomp",
    }
    for row in result["cells"].values():
        for cell in row.values():
            assert cell["class"] in CLASSIFICATIONS


def test_number_flip_pre_seccomp_caught_by_bastion_only():
    # write(1) -> mmap(9): BASTION's call-type filter sees the flipped
    # number only when the flip lands before the seccomp stage
    result = run_fault_campaign(
        mechanisms=("undefended", "bastion"),
        specs=(
            FaultSpec(site="syscall_number", stage="pre_seccomp"),
            FaultSpec(site="syscall_number", stage="pre_execute"),
        ),
    )
    pre = result["cells"]["syscall_number@pre_seccomp"]
    late = result["cells"]["syscall_number@pre_execute"]
    assert pre["bastion"]["class"] == "caught"
    assert pre["undefended"]["class"] == "missed"
    # past the filter, even BASTION executes the wrong syscall
    assert late["bastion"]["class"] == "missed"


def test_register_only_arg_flip_evades_the_monitor():
    # the pinned row flips write's count, and write is not sensitive: no
    # monitor stops on it, so the flip runs unchecked.  The monitor does
    # compare argument registers with their shadow copies — a flip on a
    # sensitive syscall is caught unless it lands after every check
    # (test_sensitive_argument_flip_caught_before_execute)
    result = run_fault_campaign(
        mechanisms=("bastion",),
        specs=(FaultSpec(site="arg_register", stage="pre_seccomp"),),
    )
    cell = result["cells"]["arg_register@pre_seccomp"]["bastion"]
    assert cell["class"] == "missed"


@pytest.mark.parametrize(
    "syscall, occurrence, arg_index, bit, late",
    [
        ("mprotect", 2, 2, 2, "masked"),  # prot 0x1 -> 0x5
        ("accept4", 1, 0, 3, "missed"),  # fd 4 -> 12
        ("mmap", 1, 2, 2, "missed"),  # prot 0x3 -> 0x7: RW -> RWX
    ],
)
def test_sensitive_argument_flip_caught_before_execute(syscall, occurrence, arg_index, bit, late):
    # the monitor reads the arguments the dispatch carries: a flip of a
    # bound argument before the trace stop fails argument integrity, and
    # only a flip after every check (pre_execute) reaches the handler
    specs = tuple(
        FaultSpec("arg_register", stage, syscall, occurrence, bit, arg_index)
        for stage in FAULT_STAGES
    )
    cells = run_fault_campaign(mechanisms=("bastion",), specs=specs)["cells"]
    for stage in ("pre_seccomp", "post_seccomp"):
        cell = cells["arg_register@" + stage]["bastion"]
        assert (cell["class"], cell["blocked_by"]) == ("caught", "arg-integrity")
    assert cells["arg_register@pre_execute"]["bastion"]["class"] == late


def test_filter_state_fault_is_fail_stop_under_bastion():
    result = run_fault_campaign(
        mechanisms=("undefended", "bastion"),
        specs=(FaultSpec(site="filter_state", stage="pre_seccomp"),),
    )
    row = result["cells"]["filter_state@pre_seccomp"]
    # no filter installed undefended: nothing to corrupt
    assert row["undefended"]["class"] == "not-reached"
    # BASTION's own filter, corrupted, kills the benign workload
    assert row["bastion"]["class"] == "caught"


def test_fault_injection_leaves_parity_untouched():
    # running a faulted campaign must not leak state into a later clean
    # run (fresh kernel per run; the pipeline hook dies with the kernel)
    first = run_fault_campaign(
        mechanisms=("bastion",),
        specs=(FaultSpec(site="syscall_number", stage="pre_seccomp"),),
    )
    second = run_fault_campaign(
        mechanisms=("bastion",),
        specs=(FaultSpec(site="syscall_number", stage="pre_seccomp"),),
    )
    assert first == second
