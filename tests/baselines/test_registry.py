"""The mechanism registry: the ``MECHANISMS`` table, every name-keyed
surface derived from it.

A mechanism in ``repro.mechanisms.MECHANISMS`` but missing anywhere
downstream — ``MECHANISM_NAMES``, ``bench.harness.CONFIGS``, the fuzz
oracle's matrix — fails one of these tests instead of silently escaping
coverage.  The attack runner launches every run through the mechanism
its ``DefenseConfig`` names, so the last two tests pin that launch path.
"""

import dataclasses

import pytest

from repro.api import ProtectConfig
from repro.attacks.catalog import attack_by_name
from repro.attacks.runner import _target_module, run_attack
from repro.bench.harness import CONFIGS, DefenseConfig
from repro.fuzz.oracle import MATRIX
from repro.mechanisms import FUZZ_MATRIX, MECHANISM_NAMES, MECHANISMS
from repro.mechanisms.base import ProtectionMechanism, artifact_for
from repro.mechanisms.bastion import BastionMechanism
from repro.monitor.policy import ContextPolicy


def test_mechanism_names_cover_the_registry():
    assert MECHANISM_NAMES[0] == "bastion"
    assert set(MECHANISM_NAMES) == set(MECHANISMS)
    assert list(MECHANISM_NAMES[1:]) == sorted(MECHANISM_NAMES[1:])


def test_fuzz_matrix_is_registration_order():
    """The corpus format pins matrix order: the table's key order, append
    only — reordering breaks pinned corpora."""
    assert FUZZ_MATRIX == tuple(MECHANISMS)
    assert FUZZ_MATRIX == (
        "bastion",
        "seccomp_allowlist",
        "temporal",
        "debloat",
        "binary_only",
        "llvm_cfi",
        "dfi",
        "sfip",
        "sfip_origin",
    )


def test_oracle_matrix_is_the_registry_matrix():
    assert MATRIX == FUZZ_MATRIX


def test_defense_config_fields():
    assert [f.name for f in dataclasses.fields(DefenseConfig)] == [
        "name",
        "cet",
        "policy",
        "extend_filesystem",
        "baseline",
    ]


def test_harness_configs_serve_every_named_mechanism():
    for name in MECHANISMS:
        if name == "bastion":
            continue
        assert name in CONFIGS, name
        assert CONFIGS[name].name == CONFIGS[name].baseline == name


@pytest.mark.parametrize("name", [n for n in MECHANISMS if n != "bastion"])
def test_defense_resolves_to_registered_class(name):
    assert type(CONFIGS[name].mechanism()) is MECHANISMS[name]


def test_bastion_has_no_named_defense():
    """BASTION is configured by policy, never as a ``baseline`` name."""
    assert "bastion" not in CONFIGS
    defense = ProtectConfig(mechanism="bastion").defense()
    assert defense.baseline is None and defense.policy is not None
    assert type(defense.mechanism()) is BastionMechanism


def test_unknown_mechanism_raises_with_the_roster():
    with pytest.raises(ValueError, match="sfip"):
        ProtectConfig(mechanism="nope")


def test_api_accepts_every_registry_name():
    for name in MECHANISM_NAMES:
        ProtectConfig(mechanism=name)  # must not raise
    with pytest.raises(ValueError):
        ProtectConfig(mechanism="not_a_mechanism")
    assert ProtectConfig(mechanism="sfip", label="x").defense() == DefenseConfig(
        "x", baseline="sfip"
    )


def test_legacy_reexports_still_resolve():
    """The package-level import surface keeps working."""
    from repro.mechanisms import SfipMechanism, SfipOriginMechanism

    assert FUZZ_MATRIX == tuple(MECHANISMS)
    assert set(MECHANISM_NAMES) == set(MECHANISMS)
    assert MECHANISMS["sfip"] is SfipMechanism
    assert MECHANISMS["sfip_origin"] is SfipOriginMechanism
    assert issubclass(SfipOriginMechanism, SfipMechanism)


def test_every_attack_run_launches_through_a_mechanism(monkeypatch):
    """Undefended, BASTION and baseline attack runs share one launch path."""
    launches = []

    def counted(cls):
        original = cls.launch

        def launch(self, kernel, app, module):
            launches.append(type(self).__name__)
            return original(self, kernel, app, module)

        monkeypatch.setattr(cls, "launch", launch)

    counted(ProtectionMechanism)
    counted(BastionMechanism)
    spec = attack_by_name("control_jujutsu")
    run_attack(spec, None, "none")
    run_attack(spec, ContextPolicy.ct_only(), "CT")
    run_attack(spec, None, "cet", defense=CONFIGS["cet"])
    run_attack(spec, None, "sfip", defense=CONFIGS["sfip"])
    assert launches == [
        "StaticMechanism",
        "BastionMechanism",
        "StaticMechanism",
        "SfipMechanism",
    ]


def test_bastion_attack_runs_enforce_the_shared_artifact():
    """BASTION attack runs enforce the artifact SFIP derives its policy
    from: one compile per target, from ``mechanisms.base.artifact_for``."""
    spec = attack_by_name("control_jujutsu")
    enforced = []

    def stage(env):
        enforced.append(env.monitor.artifact)
        spec.stage(env)

    outcome = run_attack(
        dataclasses.replace(spec, stage=stage), ContextPolicy.full(), "full"
    )
    assert outcome.blocked
    assert enforced[0] is artifact_for(spec.target, _target_module(spec.target))
