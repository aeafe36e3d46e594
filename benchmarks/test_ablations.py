"""Ablation benches for the design choices DESIGN.md §5 calls out."""

import pytest

from repro.bench.experiments import ablation_dfi, security_baseline_comparison
from repro.bench.harness import run_app
from benchmarks.conftest import BENCH_SCALE


@pytest.fixture(scope="module")
def dfi_rows():
    return ablation_dfi(BENCH_SCALE)


def test_dfi_costs_more_than_bastion(dfi_rows):
    """§3.3: argument-only value integrity is 'magnitudes smaller' than
    application-wide DFI on memory-access-heavy apps."""
    for app in ("nginx", "sqlite"):
        assert (
            dfi_rows[app]["dfi_overhead_pct"]
            > dfi_rows[app]["bastion_overhead_pct"]
        ), (app, dfi_rows[app])


def test_security_baselines_sweep():
    """LLVM CFI / CET coverage vs the catalog: each misses attacks."""
    rows = security_baseline_comparison()
    assert any(r["cfi_bypassed"] for r in rows)
    assert any(r["cet_bypassed"] for r in rows)
    assert any(r["cet_blocked"] for r in rows)  # CET does stop plain ROP


def test_unwind_termination_at_indirect_calls():
    """CF verification stops at the first indirect callsite: depth at the
    execve stop is bounded even though the static path through
    ngx_spawn_process is longer."""
    result = run_app("nginx", "cet_ct_cf_ai", scale=0.1)
    assert result.max_unwind_depth <= 12


def test_sockaddr_fastpath_no_false_positives():
    """§9.2: accept/accept4's kernel-written sockaddr must not trip AI."""
    for app in ("nginx", "vsftpd"):
        result = run_app(app, "cet_ct_cf_ai", scale=0.1)
        assert not result.violations, (app, result.violations[:1])
