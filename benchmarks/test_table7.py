"""Table 7: extending protection to filesystem syscalls (§11.2).

Paper (throughput degradation vs baseline):

    configuration            NGINX    SQLite   vsftpd
    seccomp hook only        0.15%    0.29%    0.08%
    + fetch process state   95.88%   79.89%    1.85%
    + full context checking 96.70%   80.00%    2.41%

Shape: the seccomp hook is nearly free; fetching process state over ptrace
is catastrophic for the request/transaction-bound apps and mild for the
transfer-bound one; the in-kernel ablation (§11.2's proposed fix) removes
most of the collapse.
"""



def _loss(table7_data, app, config):
    return table7_data[app]["rows"][config]["degradation_pct"]


def test_hook_only_negligible(table7_data):
    for app in ("nginx", "sqlite", "vsftpd"):
        assert _loss(table7_data, app, "fs_hook_only") < 5.0, app


def test_fetch_state_collapses_request_bound_apps(table7_data):
    assert _loss(table7_data, "nginx", "fs_fetch_state") > 60.0
    assert _loss(table7_data, "sqlite", "fs_fetch_state") > 60.0


def test_vsftpd_remains_mild(table7_data):
    """The transfer-bound app barely notices (paper: 1.85-2.41%)."""
    assert _loss(table7_data, "vsftpd", "fs_full") < 20.0
    assert _loss(table7_data, "vsftpd", "fs_full") < (
        _loss(table7_data, "nginx", "fs_full") / 3
    )


def test_full_checking_adds_little_over_fetch(table7_data):
    """The paper's delta between rows 2 and 3 is under one percentage
    point of throughput — verification is cheap once the state is fetched."""
    for app in ("nginx", "sqlite", "vsftpd"):
        delta = _loss(table7_data, app, "fs_full") - _loss(
            table7_data, app, "fs_fetch_state"
        )
        assert 0 <= delta < 5.0, (app, delta)


def test_inkernel_ablation_removes_collapse(table7_data):
    """§11.2: running the monitor in the kernel 'would completely resolve
    overhead incurred from context switching'."""
    for app in ("nginx", "sqlite"):
        ptrace_loss = _loss(table7_data, app, "fs_full")
        inkernel_loss = _loss(table7_data, app, "fs_full_inkernel")
        assert inkernel_loss < ptrace_loss / 3, app


def test_ptrace_dominates_ledger(table7_data):
    """The cycle ledger attributes the collapse to ptrace state fetching."""
    result = table7_data["nginx"]["rows"]["fs_full"]["result"]
    breakdown = result.ledger_breakdown
    ptrace = breakdown.get("ptrace", 0)
    total = sum(breakdown.values())
    assert ptrace > 0.4 * total
