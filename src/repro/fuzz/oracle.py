"""The coverage + divergence oracle: one genome, the whole mechanism matrix.

Every genome is compiled to an :class:`AttackSpec` and run under
``undefended`` (validity: the exploit must actually work) plus **every
named mechanism** — the matrix is :data:`repro.mechanisms.FUZZ_MATRIX`,
the key order of the ``MECHANISMS`` table, so a mechanism added to the
table (sfip, sfip_origin, ...) is fuzzed automatically.

Each run yields a 3-way verdict — ``allowed`` (the oracle fired),
``killed`` (a mechanism stopped the process before the goal), ``fizzled``
(neither) — plus a **coverage signature** derived from the telemetry bus:
dispatch stages reached (incl. ``verify.*`` sub-stages), the syscall mix
actually dispatched, the blocking context, and the process exit kind.

A *divergence* is a valid genome where one mechanism allowed the goal and
another killed the process: exactly the disagreements that grow Table 6.
"""

from dataclasses import dataclass, field

from repro.attacks.runner import run_attack
from repro.bench.harness import CONFIGS
from repro.fuzz.genome import repair, spec_for_genome
from repro.mechanisms import FUZZ_MATRIX
from repro.monitor.policy import ContextPolicy

#: matrix order is part of the corpus format — append only (so is the
#: ``MECHANISMS`` table it follows)
MATRIX = FUZZ_MATRIX

#: the filtering baselines named by the acceptance criteria
FILTERING_BASELINES = ("seccomp_allowlist", "temporal", "debloat")


def _run_mechanism(spec, mechanism):
    # 'undefended' and 'bastion' have no CONFIGS entry: run_attack builds
    # their DefenseConfig from the policy (None = undefended)
    policy = ContextPolicy.full() if mechanism == "bastion" else None
    return run_attack(spec, policy, mechanism, defense=CONFIGS.get(mechanism))


def verdict_of(outcome):
    if outcome.succeeded:
        return "allowed"
    if outcome.blocked:
        return "killed"
    return "fizzled"


@dataclass
class MatrixResult:
    """One genome's differential run across the whole mechanism matrix."""

    genome: object
    outcomes: dict  # mechanism -> AttackOutcome
    tokens: frozenset = frozenset()  # coverage signature
    notes: list = field(default_factory=list)

    @property
    def valid(self):
        return verdict_of(self.outcomes["undefended"]) == "allowed"

    @property
    def pattern(self):
        """mechanism -> verdict for the defended matrix (stable order)."""
        return {m: verdict_of(self.outcomes[m]) for m in MATRIX}

    @property
    def blocked_by(self):
        return {
            m: str(self.outcomes[m].blocked_by)
            for m in MATRIX
            if self.outcomes[m].blocked_by is not None
        }

    def divergent_pairs(self):
        """(allowing, killing) mechanism pairs — kill/allow disagreements
        on a *valid* exploit only."""
        if not self.valid:
            return []
        pattern = self.pattern
        allowing = [m for m in MATRIX if pattern[m] == "allowed"]
        killing = [m for m in MATRIX if pattern[m] == "killed"]
        return [(a, k) for a in allowing for k in killing]

    @property
    def divergent(self):
        return bool(self.divergent_pairs())

    def divergence_key(self):
        """Dedup key: same site, same corruption class, same disagreement
        shape — one representative is enough."""
        pattern = self.pattern
        return (
            self.genome.target,
            self.genome.trigger,
            self.genome.target_class,
            tuple(sorted((m, v) for m, v in pattern.items())),
        )


def _coverage_tokens(mechanism, outcome):
    tokens = {
        "o:%s:%s" % (mechanism, verdict_of(outcome)),
        "x:%s:%s" % (mechanism, outcome.status.kind),
    }
    if outcome.blocked_by is not None:
        tokens.add("b:%s:%s" % (mechanism, outcome.blocked_by))
    for stage, cycles in outcome.stage_cycles.items():
        if cycles:
            tokens.add("g:%s:%s" % (mechanism, stage))
    for syscall in outcome.syscall_counts:
        tokens.add("y:%s:%s" % (mechanism, syscall))
    return tokens


def evaluate_genome(genome):
    """Run one genome through the full differential matrix."""
    genome = repair(genome)
    spec = spec_for_genome(genome)
    outcomes = {}
    tokens = set()
    for mechanism in ("undefended",) + MATRIX:
        outcome = _run_mechanism(spec, mechanism)
        outcomes[mechanism] = outcome
        tokens |= _coverage_tokens(mechanism, outcome)
    return MatrixResult(genome=genome, outcomes=outcomes, tokens=frozenset(tokens))
