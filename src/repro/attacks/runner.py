"""Attack evaluation harness: regenerates Table 6.

For every catalog entry:

1. run against the **undefended** binary (CET off, per §10.1's "defend ROP
   in the absence of CET") — the exploit must reach its goal, otherwise the
   scenario is broken and no blocked-verdict means anything;
2. run under each context **alone** (CT / CF / AI) — a kill before the goal
   is that context's ✓;
3. run under **full BASTION** — every Table 6 attack must be blocked.

Every run — undefended, BASTION under any policy, and every baseline —
launches through one :class:`~repro.mechanisms.ProtectionMechanism`
(``defense.mechanism().launch``), so the attack study boots processes
exactly the way the bench harness does.

The same entry points drive the coverage-guided fuzzer (`repro.fuzz`),
which needs programmatic target construction (:data:`TARGETS`), normalized
blocking attribution (:class:`BlockingContext`), and scheduler-independent
outcomes (``run_attack(quantum=...)``).
"""

import enum
from dataclasses import dataclass, field

from repro.apps.browser import BrowserConfig, build_browser
from repro.apps.httpd import HTDOCS, HTTPD_PORT, HttpdConfig, build_httpd
from repro.apps.mediasrv import MEDIA_FILE, MediaConfig, build_mediasrv
from repro.apps.nginx import NginxConfig, build_nginx
from repro.apps.workloads import SimpleServerWorkload, WrkWorkload
from repro.attacks.catalog import CATALOG
from repro.attacks.primitives import AttackEnv
from repro.bench.harness import DefenseConfig, _setup_nginx_env, drive
from repro.kernel.kernel import Kernel
from repro.monitor.policy import ContextPolicy


class BlockingContext(str, enum.Enum):
    """The closed set of contexts an attack can be attributed to.

    The first three are BASTION's §3 contexts (a monitor
    ``Violation.context``); ``SECCOMP`` is the in-kernel KILL of a
    not-callable syscall — the coarse half of call-type protection (§3.1)
    when BASTION compiled the filter, or a plain allowlist verdict for the
    filtering baselines; ``BINARY_CALLTYPE`` is the binary-only mechanism's
    recovered call-kind check; ``SFIP`` is the syscall-flow-integrity
    state machine (either variant: an illegal transition or a wrong
    origin); ``LLVM_CFI``/``CET`` are the hardware and
    compiler baselines; ``FAULT`` marks runs ended by an injected
    dispatch-time fault rather than a security verdict (`repro.fuzz`).
    """

    CALL_TYPE = "call-type"
    CONTROL_FLOW = "control-flow"
    ARG_INTEGRITY = "arg-integrity"
    SECCOMP = "seccomp"
    BINARY_CALLTYPE = "binary-calltype"
    SFIP = "sfip"
    LLVM_CFI = "llvm-cfi"
    CET = "cet"
    FAULT = "fault"

    # format as the wire value ("seccomp"), not "BlockingContext.SECCOMP"
    __str__ = str.__str__
    __format__ = str.__format__


_SHELL = ("/bin/sh", b"\x7fELF-shell", 0o755)


@dataclass(frozen=True)
class AttackTarget:
    """One attackable application: build recipe, filesystem env, workload.

    Replaces the per-app ``_nginx_env``/``_httpd_env``/... builders with a
    single declarative registry so the fuzzer (and any future harness) can
    construct every target the same way.
    """

    name: str
    build: object  # () -> module
    workload: object = None  # () -> workload, or None for self-driving apps
    env_dirs: tuple = ()
    env_files: tuple = ()  # (path, bytes, mode) triples
    env_base: object = None  # shared bench-harness env applied first

    def prepare_env(self, kernel):
        if self.env_base is not None:
            self.env_base(kernel)
        for path in self.env_dirs:
            kernel.vfs.makedirs(path)
        for path, data, mode in self.env_files:
            kernel.vfs.write_file(path, data, mode=mode)

    def attach_workload(self, kernel, proc):
        if self.workload is not None:
            self.workload().attach(kernel, proc)


TARGETS = {
    "nginx": AttackTarget(
        name="nginx",
        build=lambda: build_nginx(NginxConfig(workers=2, pools=4, guards=3)),
        workload=lambda: WrkWorkload(connections=2, requests_per_connection=3),
        env_base=_setup_nginx_env,
        env_dirs=("/etc",),
        env_files=(
            ("/etc/shadow", b"root:$6$secret\n", 0o600),
            ("/etc/passwd", b"root:x:0:0\n", 0o644),
        ),
    ),
    "httpd": AttackTarget(
        name="httpd",
        build=lambda: build_httpd(HttpdConfig()),
        workload=lambda: SimpleServerWorkload(
            HTTPD_PORT, connections=2, requests=2, response_threshold=100
        ),
        env_dirs=("/bin", "/var/apache/htdocs", "/usr/lib/cgi-bin", "/etc"),
        env_files=(
            (HTDOCS, b"<html>apache</html>" + b"x" * 480, 0o644),
            ("/usr/lib/cgi-bin/rotatelogs", b"\x7fELF", 0o755),
            ("/etc/passwd", b"root:x:0:0\n", 0o644),
            _SHELL,
        ),
    ),
    "browser": AttackTarget(
        name="browser",
        build=lambda: build_browser(BrowserConfig(events=6)),
        env_dirs=("/bin", "/opt/browser", "/etc"),
        env_files=(
            ("/opt/browser/renderer", b"\x7fELF", 0o755),
            ("/etc/passwd", b"root:x:0:0\n", 0o644),
            _SHELL,
        ),
    ),
    "mediasrv": AttackTarget(
        name="mediasrv",
        build=lambda: build_mediasrv(MediaConfig(frames=4)),
        env_dirs=("/bin", "/srv/media", "/etc"),
        env_files=(
            (MEDIA_FILE, b"\x47" * 4096, 0o644),
            ("/etc/passwd", b"root:x:0:0\n", 0o644),
            _SHELL,
        ),
    ),
}


def attack_target(name):
    """The :class:`AttackTarget` registry entry for ``name``."""
    return TARGETS[name]


def target_names():
    return tuple(sorted(TARGETS))


_module_cache = {}


def _target_module(target):
    if target not in _module_cache:
        _module_cache[target] = TARGETS[target].build()
    return _module_cache[target]


@dataclass
class AttackOutcome:
    """Result of one (attack, defense) run."""

    attack: str
    defense: str
    status: object
    succeeded: bool = False
    blocked: bool = False
    blocked_by: BlockingContext = None
    violations: list = field(default_factory=list)
    #: telemetry snapshot for the fuzz coverage signature: attributed
    #: dispatch-stage cycles (incl. verify.* sub-stages) and the process
    #: tree's per-syscall counts
    stage_cycles: dict = field(default_factory=dict)
    syscall_counts: dict = field(default_factory=dict)

    def __str__(self):
        verdict = "SUCCEEDED" if self.succeeded else (
            "blocked by %s" % self.blocked_by if self.blocked else "fizzled"
        )
        return "%s under %s: %s" % (self.attack, self.defense, verdict)


def _tree_kill_reason(proc):
    """The first security kill reason in ``proc``'s subtree.

    Under the preemptive scheduler the poisoned request may be served by
    a forked worker: the kill then lands on the child while the master
    exits cleanly.  The attack verdict belongs to the tree, so walk it
    (pid order — deterministic) and surface whichever process was killed.
    """
    queue = [proc]
    while queue:
        p = queue.pop(0)
        if p.kill_reason:
            return p.kill_reason
        queue.extend(sorted(p.children, key=lambda c: c.pid))
    return ""


def classify_blocking(monitor, proc, status):
    """Map one run's evidence onto the closed :class:`BlockingContext` set.

    Returns ``(context, violations)`` — ``(None, [])`` when nothing
    security-relevant stopped the process.
    """
    if monitor is not None and monitor.violations:
        return (
            BlockingContext(monitor.violations[0].context),
            list(monitor.violations),
        )
    reason = _tree_kill_reason(proc)
    if reason.startswith("seccomp"):
        return BlockingContext.SECCOMP, []
    if reason.startswith("binary-calltype"):
        return BlockingContext.BINARY_CALLTYPE, []
    if reason.startswith("sfip"):
        # both variants: "sfip: ..." and "sfip-origin: ..." kill reasons
        return BlockingContext.SFIP, []
    if status is not None and status.kind == "fault":
        if "CFIFault" in (status.reason or ""):
            return BlockingContext.LLVM_CFI, []
        if "ShadowStackFault" in (status.reason or ""):
            return BlockingContext.CET, []
    return None, []


def run_attack(spec, policy=None, defense_name=None, defense=None, quantum=None):
    """Run one attack under ``policy`` (None = undefended).

    CET is disabled by default: the Table 6 study evaluates BASTION's
    contexts on their own (§10.1 explicitly covers the no-CET case).  Pass
    a ``defense`` DefenseConfig instead to run under any named
    mechanism — the hardware/compiler baselines (``CONFIGS["cet"]``,
    ``CONFIGS["llvm_cfi"]``), the filtering baselines, binary-only, SFIP.

    ``quantum`` switches the run onto the preemptive scheduler with that
    cycle quantum; verdicts are quantum-independent (the fuzz oracle's
    determinism rests on this, see tests/attacks/test_scheduled.py).
    """
    target = TARGETS[spec.target]
    if defense is None:
        name = defense_name or (policy.label() if policy else "none")
        defense = DefenseConfig(
            name, policy=policy, extend_filesystem=spec.needs_fs_extension
        )
    else:
        name = defense_name or defense.name
    kernel = Kernel()
    target.prepare_env(kernel)
    mechanism = defense.mechanism()
    proc, cpu = mechanism.launch(kernel, spec.target, _target_module(spec.target))
    monitor = mechanism.monitor

    env = AttackEnv(kernel=kernel, proc=proc, cpu=cpu, image=cpu.image, monitor=monitor)
    spec.stage(env)

    target.attach_workload(kernel, proc)

    status, _sched = drive(kernel, proc, cpu, quantum)

    outcome = AttackOutcome(
        attack=spec.name,
        defense=name,
        status=status,
        succeeded=spec.oracle(env),
        stage_cycles=kernel.telemetry.stage_cycles(),
        syscall_counts=dict(proc.syscall_counts),
    )
    blocked_by, violations = classify_blocking(monitor, proc, status)
    if blocked_by is not None:
        outcome.blocked = True
        outcome.blocked_by = blocked_by
        outcome.violations = violations
    # A defense that fires only *after* the attacker reached their goal did
    # not block the attack (e.g. an incidental fault on a later dispatch).
    if outcome.succeeded and outcome.blocked:
        outcome.blocked = False
        outcome.blocked_by = None
    return outcome


_CONTEXT_POLICIES = {
    "CT": ContextPolicy.ct_only(),
    "CF": ContextPolicy.cf_only(),
    "AI": ContextPolicy.ai_only(),
}


@dataclass
class AttackEvaluation:
    """One Table 6 row: per-context verdicts plus validation runs."""

    spec: object
    unprotected: AttackOutcome = None
    by_context: dict = field(default_factory=dict)  # 'CT'/'CF'/'AI' -> Outcome
    full: AttackOutcome = None

    @property
    def valid(self):
        """The exploit really works when undefended."""
        return self.unprotected is not None and self.unprotected.succeeded

    def blocks(self, context):
        outcome = self.by_context.get(context)
        return bool(outcome and outcome.blocked and not outcome.succeeded)

    def matches_paper(self):
        """Do our ✓/× verdicts match the paper's Table 6 row?"""
        return all(
            self.blocks(ctx) == expected
            for ctx, expected in self.spec.expected.items()
        )

    @property
    def blocked_by_full(self):
        return bool(self.full and self.full.blocked and not self.full.succeeded)


def evaluate_attack(spec, policy_transform=None):
    """Run the full Table 6 protocol for one attack.

    ``policy_transform`` maps each defense policy before use, e.g.
    ``lambda p: p.without("cache")`` to evaluate the catalog with the
    monitor fast path disabled (the defaults run with caching on, so the
    standard matrix doubles as the cache's soundness check).
    """
    transform = policy_transform or (lambda policy: policy)
    evaluation = AttackEvaluation(spec=spec)
    evaluation.unprotected = run_attack(spec, None, "none")
    for context, policy in _CONTEXT_POLICIES.items():
        evaluation.by_context[context] = run_attack(spec, transform(policy), context)
    evaluation.full = run_attack(spec, transform(ContextPolicy.full()), "full")
    return evaluation


def table6_matrix(catalog=None, include_extra=False, policy_transform=None):
    """Evaluate the Table 6 attacks; returns ``[AttackEvaluation, ...]``.

    ``include_extra`` adds the extension scenarios beyond the paper's rows;
    ``policy_transform`` is forwarded to :func:`evaluate_attack`.
    """
    specs = catalog if catalog is not None else [
        spec for spec in CATALOG if include_extra or not spec.extra
    ]
    return [evaluate_attack(spec, policy_transform=policy_transform) for spec in specs]
