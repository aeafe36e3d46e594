"""Protection mechanisms behind one interface (see ``docs/mechanisms.md``).

``mechanism_for(defense)`` maps a :class:`~repro.bench.harness.
DefenseConfig` to the :class:`ProtectionMechanism` that implements it;
``mechanism.launch(kernel, app, module)`` is the entire launch path the
bench harness uses, for BASTION and every baseline alike.

All named-mechanism registration lives in
:mod:`repro.mechanisms.registry` — one :class:`~repro.mechanisms.
registry.MechanismSpec` row per mechanism, from which
:data:`MECHANISM_NAMES`, :func:`defense_for_mechanism`,
``bench.harness.CONFIGS``'s baseline slice, ``mechanism_for``, and the
fuzz oracle's matrix are all derived.  This module re-exports the
registry surface.
"""

from repro.mechanisms.base import (
    ProtectionMechanism,
    artifact_for,
    mechanism_for,
)
from repro.mechanisms.registry import (
    FUZZ_MATRIX,
    MECHANISM_NAMES,
    MechanismSpec,
    defense_for_mechanism,
    named_defense_configs,
)
from repro.mechanisms.bastion import BastionMechanism
from repro.mechanisms.baselines import (
    SERVING_ROOTS,
    DebloatMechanism,
    SeccompAllowlistMechanism,
    StaticMechanism,
    TemporalMechanism,
)
from repro.mechanisms.binary import BinaryOnlyMechanism
from repro.mechanisms.sfip import SfipMechanism, SfipOriginMechanism

__all__ = [
    "ProtectionMechanism",
    "artifact_for",
    "mechanism_for",
    "MECHANISM_NAMES",
    "FUZZ_MATRIX",
    "MechanismSpec",
    "defense_for_mechanism",
    "named_defense_configs",
    "BastionMechanism",
    "StaticMechanism",
    "SeccompAllowlistMechanism",
    "TemporalMechanism",
    "DebloatMechanism",
    "BinaryOnlyMechanism",
    "SfipMechanism",
    "SfipOriginMechanism",
    "SERVING_ROOTS",
]
