"""Protection mechanisms behind one interface (see ``docs/mechanisms.md``).

:data:`MECHANISMS` maps every named mechanism to the
:class:`ProtectionMechanism` subclass implementing it;
``DefenseConfig.mechanism()`` picks the one a
:class:`~repro.bench.harness.DefenseConfig` names, and
``mechanism.launch(kernel, app, module)`` is the entire launch path the
bench harness and the attack runner use, for BASTION, every baseline
and the undefended binary alike.  The baselines' analyses (allowlist,
temporal phase split, debloating) live with their mechanisms in
:mod:`repro.mechanisms.baselines`.

Every name-keyed surface derives from the table: :data:`MECHANISM_NAMES`
(what ``repro.api.ProtectConfig(mechanism=...)`` accepts), the named
slice of ``bench.harness.CONFIGS``, and :data:`FUZZ_MATRIX` (the fuzz
oracle's mechanism matrix).
"""

from repro.mechanisms.base import ProtectionMechanism, artifact_for
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

#: every named mechanism -> its implementation.  Key order is the fuzz
#: corpus's matrix order (:data:`FUZZ_MATRIX`), so the table is append
#: only.  ``llvm_cfi`` and ``dfi`` are CPU flags, which
#: ``DefenseConfig.cpu_options()`` derives from the ``baseline`` name.
MECHANISMS = {
    "bastion": BastionMechanism,
    "seccomp_allowlist": SeccompAllowlistMechanism,
    "temporal": TemporalMechanism,
    "debloat": DebloatMechanism,
    "binary_only": BinaryOnlyMechanism,
    "llvm_cfi": StaticMechanism,
    "dfi": StaticMechanism,
    "sfip": SfipMechanism,
    "sfip_origin": SfipOriginMechanism,
}

#: every name ``ProtectConfig(mechanism=...)`` accepts: bastion first,
#: then the baselines sorted
MECHANISM_NAMES = ("bastion",) + tuple(sorted(n for n in MECHANISMS if n != "bastion"))

#: the differential fuzz oracle's mechanism matrix (corpus format)
FUZZ_MATRIX = tuple(MECHANISMS)

__all__ = [
    "ProtectionMechanism",
    "artifact_for",
    "MECHANISMS",
    "MECHANISM_NAMES",
    "FUZZ_MATRIX",
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
