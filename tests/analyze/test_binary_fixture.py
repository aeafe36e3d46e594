"""The over-permissive fixture: honest metadata the IR suite accepts,
dead code the binary analyzer tightens away (and the mechanism enforces)."""

from repro.analyze import analyze_artifact
from repro.analyze.binary import (
    audit_binary,
    compile_policy,
    recover_image_for,
)
from repro.baselines.seccomp_filter import build_allowlist_filter
from repro.kernel.seccomp import (
    SECCOMP_RET_ALLOW,
    SECCOMP_RET_KILL_PROCESS,
    evaluate_filters,
)
from repro.policy import build_presence_filter
from repro.syscalls.table import nr_of
from tests.analyze.fixtures.overpermissive_app import (
    FIXTURE_NAME,
    build_artifact,
    build_module,
)


def test_ir_suite_accepts_the_metadata():
    """The compiler metadata is honest: the call edge to chmod exists, so
    every IR-level pass is satisfied — at worst the flow pass notes the
    site is unreachable, the same *warning* class libc's system() gets."""
    report = analyze_artifact(build_artifact(), waivers=())
    assert report.ok  # no errors anywhere in the four IR passes
    errors = [d for d in report.diagnostics if d.severity == "error"]
    assert errors == []
    warnings = [d for d in report.diagnostics if d.severity == "warning"]
    assert [(d.pass_name, d.code, d.func) for d in warnings] == [
        ("flow", "unreachable-site", "maintenance_mode")
    ]


def test_binary_audit_flags_the_dead_call_type():
    """What the consistency passes cannot see, reachability can: chmod's
    only justifier is dead, so the binary audit raises an *error*."""
    diagnostics, metrics = audit_binary(build_artifact())
    assert [(d.code, d.severity, d.func, d.syscall) for d in diagnostics] == [
        ("unreachable-call-type", "error", "maintenance_mode", "chmod")
    ]
    assert metrics["call_types"]["tightened"] == {"chmod": ["direct"]}
    assert "chmod" in metrics["syscalls"]["tightened"]


def test_recovered_filter_kills_what_the_allowlist_admits():
    artifact = build_artifact()
    recovery = recover_image_for(artifact.module)
    assert recovery.present_syscalls == {"chmod", "write"}
    assert recovery.reachable_syscalls == {"write"}

    presence = build_allowlist_filter(artifact.module)
    recovered = build_presence_filter(
        compile_policy(recovery).presence, "binary_only"
    )
    chmod = nr_of("chmod")
    write = nr_of("write")
    assert evaluate_filters([presence], chmod)[0] == SECCOMP_RET_ALLOW
    assert (
        evaluate_filters([recovered], chmod)[0] == SECCOMP_RET_KILL_PROCESS
    )
    assert evaluate_filters([recovered], write)[0] == SECCOMP_RET_ALLOW


def test_fixture_runs_benignly_under_binary_only():
    """The tightened policy never fires on the program's real behavior."""
    from repro.bench.harness import CONFIGS
    from repro.kernel.kernel import Kernel

    kernel = Kernel()
    mechanism = CONFIGS["binary_only"].mechanism()
    proc, cpu = mechanism.launch(kernel, FIXTURE_NAME, build_module())
    status = cpu.run()
    assert status.kind == "returned" and status.code == 0
    assert proc.kill_reason is None
    assert mechanism.kills == 0
