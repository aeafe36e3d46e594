"""Table 3: raw benchmark numbers behind Figure 3.

Paper: NGINX 110.61 MB/s, SQLite 37,107 NOTPM, vsftpd 10.75 s — each config
shaves a fraction of a percent off.  Our absolute units are simulated; the
shape assertion is that every protected configuration retains >94% of
baseline throughput and the ordering matches the overhead ladder.
"""

import pytest

from repro.bench.harness import FIGURE3_LADDER


@pytest.mark.parametrize("app", ("nginx", "sqlite", "vsftpd"))
def test_table3_metrics_positive(sweeps, app):
    sweep = sweeps[app]
    assert sweep.raw_metric() > 0
    for config in FIGURE3_LADDER:
        assert sweep.raw_metric(config) > 0


def test_table3_nginx_throughput_barely_drops(sweeps):
    sweep = sweeps["nginx"]
    baseline = sweep.raw_metric()
    protected = sweep.raw_metric("cet_ct_cf_ai")
    assert protected > 0.94 * baseline


def test_table3_sqlite_notpm_barely_drops(sweeps):
    sweep = sweeps["sqlite"]
    assert sweep.raw_metric("cet_ct_cf_ai") > 0.94 * sweep.raw_metric()


def test_table3_vsftpd_transfer_barely_slows(sweeps):
    sweep = sweeps["vsftpd"]
    # seconds per transfer: lower is better
    assert sweep.raw_metric("cet_ct_cf_ai") < 1.06 * sweep.raw_metric()


def test_table3_ordering_matches_overheads(sweeps):
    """Higher overhead == lower throughput, config by config."""
    sweep = sweeps["nginx"]
    metrics = [sweep.raw_metric(c) for c in ("cet", "cet_ct", "cet_ct_cf", "cet_ct_cf_ai")]
    assert metrics == sorted(metrics, reverse=True)
