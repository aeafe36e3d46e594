"""Table 4: sensitive system call usage during benchmarking.

Paper shape: NGINX's hook count is dominated by per-connection ``accept4``;
SQLite "relies more on mprotect"; vsftpd's row is dominated by networking
(a PASV socket/bind/listen/accept quartet per transfer); nobody ever calls
execve/ptrace/chmod during benign runs.  §9.2 also reports NGINX stack
depths at syscalls: min 4 / avg 5.2 / max 9 frames.
"""

import pytest

from repro.bench.experiments import table4
from benchmarks.conftest import BENCH_SCALE


@pytest.fixture(scope="module")
def data():
    return table4(BENCH_SCALE)


def test_nginx_accept4_dominates(data):
    columns, _depths = data
    nginx = columns["nginx"]
    networking = nginx["accept4"]
    assert networking == max(
        nginx[name] for name in nginx if name != "total_hooks"
    )


def test_sqlite_relies_on_mprotect(data):
    columns, _depths = data
    assert columns["sqlite"]["mprotect"] > columns["nginx"]["mprotect"] or (
        columns["sqlite"]["mprotect"] >= 50
    )
    assert columns["sqlite"]["accept4"] == 0  # DBT2 uses plain accept


def test_vsftpd_networking_heavy(data):
    columns, _depths = data
    vsftpd = columns["vsftpd"]
    networking = (
        vsftpd["socket"] + vsftpd["bind"] + vsftpd["listen"] + vsftpd["accept"]
    )
    other = sum(
        count
        for name, count in vsftpd.items()
        if name not in ("socket", "bind", "listen", "accept", "total_hooks")
    )
    assert networking > other


def test_never_invoked_rows_zero(data):
    columns, _depths = data
    for app, counts in columns.items():
        for name in ("execve", "execveat", "ptrace", "remap_file_pages", "chmod"):
            assert counts[name] == 0, (app, name)


def test_hook_totals_match_sensitive_sum(data):
    columns, _depths = data
    for app, counts in columns.items():
        total = counts.pop("total_hooks")
        # hooks == sensitive syscalls dispatched while traced (all of them)
        assert total == sum(counts.values()), app
        counts["total_hooks"] = total


def test_call_depth_statistics(data):
    """§9.2: shallow call depths at syscall invocations."""
    _columns, depths = data
    nginx = depths["nginx"]
    assert 2 <= nginx["avg_depth"] <= 8
    assert nginx["max_depth"] <= 12
