"""The mechanism registry: one source of truth, derivations consistent.

A mechanism registered here but forgotten anywhere downstream —
``MECHANISM_NAMES``, ``bench.harness.CONFIGS``, the fuzz oracle's
matrix — fails one of these tests instead of silently escaping
coverage.  The attack runner launches every run through the mechanism
the registry resolves, so the last two tests pin that launch path.
"""

import dataclasses

import pytest

from repro.attacks.catalog import attack_by_name
from repro.attacks.runner import _target_module, run_attack
from repro.bench.harness import CONFIGS
from repro.mechanisms.base import ProtectionMechanism, artifact_for
from repro.mechanisms.bastion import BastionMechanism
from repro.mechanisms.registry import (
    _ORDER,
    _REGISTRY,
    FUZZ_MATRIX,
    MECHANISM_NAMES,
    defense_for_mechanism,
    mechanism_for,
    named_defense_configs,
    spec_for,
)
from repro.monitor.policy import ContextPolicy


def test_mechanism_names_cover_the_registry():
    assert MECHANISM_NAMES[0] == "bastion"
    assert set(MECHANISM_NAMES) == set(_ORDER)
    assert list(MECHANISM_NAMES[1:]) == sorted(MECHANISM_NAMES[1:])


def test_fuzz_matrix_is_registration_order():
    """The corpus format pins matrix order — it must follow registration
    order exactly (append-only), and cover every fuzzed mechanism."""
    assert FUZZ_MATRIX == tuple(
        n for n in _ORDER if _REGISTRY[n].fuzzed
    )
    assert set(FUZZ_MATRIX) == set(MECHANISM_NAMES)
    # the pre-registry prefix is frozen: reordering breaks pinned corpora
    assert FUZZ_MATRIX[:7] == (
        "bastion",
        "seccomp_allowlist",
        "temporal",
        "debloat",
        "binary_only",
        "llvm_cfi",
        "dfi",
    )
    assert "sfip" in FUZZ_MATRIX and "sfip_origin" in FUZZ_MATRIX


def test_oracle_matrix_is_the_registry_matrix():
    from repro.fuzz.oracle import MATRIX

    assert MATRIX == FUZZ_MATRIX


def test_harness_configs_serve_every_named_mechanism():
    for name, defense in named_defense_configs().items():
        assert name in CONFIGS, name
        assert CONFIGS[name].name == defense.name
        assert getattr(CONFIGS[name], "baseline", None) == getattr(
            defense, "baseline", None
        )


@pytest.mark.parametrize(
    "name", [n for n in _ORDER if _REGISTRY[n].defense_kwargs is not None]
)
def test_defense_resolves_to_registered_class(name):
    mechanism = mechanism_for(defense_for_mechanism(name))
    assert isinstance(mechanism, spec_for(name).mechanism_class())


def test_bastion_has_no_named_defense():
    with pytest.raises(ValueError):
        defense_for_mechanism("bastion")


def test_unknown_mechanism_raises_with_the_roster():
    with pytest.raises(ValueError, match="sfip"):
        spec_for("nope")
    with pytest.raises(ValueError):
        defense_for_mechanism("nope")


def test_api_accepts_every_registry_name():
    from repro.api import ProtectConfig

    for name in MECHANISM_NAMES:
        ProtectConfig(mechanism=name)  # must not raise
    with pytest.raises(ValueError):
        ProtectConfig(mechanism="not_a_mechanism")


def test_legacy_reexports_still_resolve():
    """The pre-registry import surface keeps working."""
    from repro.mechanisms import (
        FUZZ_MATRIX as reexported_matrix,
        MECHANISM_NAMES as reexported_names,
        SfipMechanism,
        SfipOriginMechanism,
    )

    assert reexported_matrix == FUZZ_MATRIX
    assert reexported_names == MECHANISM_NAMES
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
