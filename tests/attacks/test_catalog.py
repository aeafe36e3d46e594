"""The Table 6 security study as tests: every attack must work undefended
and reproduce the paper's per-context verdicts."""

import pytest

from repro.attacks.catalog import CATALOG, attack_by_name
from repro.attacks.runner import evaluate_attack, run_attack
from repro.bench.harness import CONFIGS
from repro.monitor.policy import ContextPolicy


@pytest.fixture(scope="module")
def evaluations():
    return {spec.name: evaluate_attack(spec) for spec in CATALOG}


def test_catalog_has_all_table6_rows():
    names = {spec.name for spec in CATALOG}
    expected = {
        "rop_execute_user_command",
        "rop_execute_root_command",
        "rop_alter_memory_permission",
        "newton_cscfi",
        "aocr_nginx_attack1",
        "cve_2016_10190",
        "cve_2016_10191",
        "cve_2015_8617",
        "cve_2012_0809",
        "cve_2013_2028",
        "cve_2014_8668",
        "cve_2014_1912",
        "newton_cpi",
        "aocr_apache",
        "aocr_nginx_attack2",
        "coop_chrome",
        "control_jujutsu",
    }
    assert expected.issubset(names)


def test_attack_by_name():
    assert attack_by_name("coop_chrome").target == "browser"
    with pytest.raises(KeyError):
        attack_by_name("nope")


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.name)
def test_attack_succeeds_undefended(spec, evaluations):
    """Every exploit must genuinely reach its goal without BASTION."""
    assert evaluations[spec.name].valid, evaluations[spec.name].unprotected


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.name)
def test_verdicts_match_paper_table6(spec, evaluations):
    evaluation = evaluations[spec.name]
    for context, expected in spec.expected.items():
        assert evaluation.blocks(context) == expected, (
            spec.name,
            context,
            evaluation.by_context[context],
        )


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.name)
def test_full_bastion_blocks_everything(spec, evaluations):
    assert evaluations[spec.name].blocked_by_full


def test_blocked_attacks_never_reach_goal(evaluations):
    for evaluation in evaluations.values():
        for context, outcome in evaluation.by_context.items():
            if outcome.blocked:
                assert not outcome.succeeded, (evaluation.spec.name, context)


def test_rop_category_bypasses_ct(evaluations):
    for name in (
        "rop_execute_user_command",
        "rop_execute_root_command",
        "rop_alter_memory_permission",
    ):
        outcome = evaluations[name].by_context["CT"]
        assert not outcome.blocked
        assert outcome.succeeded  # CT alone does not stop ROP


def test_data_only_attacks_need_ai(evaluations):
    for name in ("aocr_nginx_attack2", "coop_chrome", "control_jujutsu"):
        evaluation = evaluations[name]
        assert not evaluation.blocks("CT")
        assert not evaluation.blocks("CF")
        assert evaluation.blocks("AI")


def test_blocked_by_attribution():
    spec = attack_by_name("newton_cscfi")
    outcome = run_attack(spec, ContextPolicy.ct_only(), "CT")
    # normalized attribution: under CT alone the kill is the compiled
    # seccomp filter's not-callable verdict (the coarse half of call-type
    # protection), attributed as BlockingContext.SECCOMP
    assert outcome.blocked_by == "seccomp"
    outcome = run_attack(spec, ContextPolicy.cf_only(), "CF")
    assert outcome.blocked_by == "control-flow"
    outcome = run_attack(spec, ContextPolicy.ai_only(), "AI")
    assert outcome.blocked_by == "arg-integrity"


def test_outcome_is_labelled_with_its_defense():
    """Without a ``defense_name``, an outcome carries the name of the
    defense it ran under, else the policy's label, else ``none``."""
    from repro.bench.harness import CONFIGS

    spec = attack_by_name("control_jujutsu")
    assert run_attack(spec, defense=CONFIGS["sfip"]).defense == "sfip"
    assert run_attack(spec, ContextPolicy.ct_only()).defense == "CT"
    assert run_attack(spec).defense == "none"
    assert run_attack(spec, defense=CONFIGS["sfip"], defense_name="x").defense == "x"
