"""Tests for the baseline defenses (and their documented weaknesses)."""

from repro.attacks.catalog import attack_by_name
from repro.attacks.runner import run_attack
from repro.bench.harness import CONFIGS
from repro.ir.builder import ModuleBuilder
from repro.ir.callgraph import build_callgraph, cfi_equivalence_classes
from repro.kernel.kernel import Kernel
from repro.kernel.seccomp import (
    evaluate_filters,
    SECCOMP_RET_ALLOW,
    SECCOMP_RET_KILL_PROCESS,
)
from repro.mechanisms.baselines import debloat_module
from repro.policy import build_presence_filter
from repro.syscalls.table import nr_of
from tests.conftest import make_wrapper


def _module():
    mb = ModuleBuilder("m")
    make_wrapper(mb, "mprotect", 3)
    make_wrapper(mb, "execve", 3)
    dead = mb.function("dead_code")
    dead.call("execve", [0, 0, 0])
    dead.ret(0)
    handler = mb.function("handler", params=["x"], sig="h1")
    handler.ret(0)
    other = mb.function("other_handler", params=["x"], sig="h1")
    other.ret(0)
    f = mb.function("main")
    f.call("mprotect", [0, 4096, 1])
    h = f.funcaddr("handler")
    o = f.funcaddr("other_handler")
    f.icall(h, [1], sig="h1")
    f.icall(o, [1], sig="h1")
    f.ret(0)
    return mb.build()


def _allowlist(module):
    """The seccomp_allowlist mechanism's filter for ``module``."""
    return build_presence_filter(build_callgraph(module).syscall_sites, "allowlist")


class TestAllowlist:
    def test_used_syscalls(self):
        assert set(build_callgraph(_module()).syscall_sites) == {"mprotect", "execve"}

    def test_filter_allows_used_kills_rest(self):
        filt = _allowlist(_module())
        assert evaluate_filters([filt], nr_of("mprotect"))[0] == SECCOMP_RET_ALLOW
        assert evaluate_filters([filt], nr_of("setuid"))[0] == SECCOMP_RET_KILL_PROCESS

    def test_binary_decision_weakness(self):
        """§2.2: the allowlist keeps sensitive-but-used syscalls wide open —
        it still ALLOWS mprotect even from a hijacked path."""
        filt = _allowlist(_module())
        assert evaluate_filters([filt], nr_of("mprotect"))[0] == SECCOMP_RET_ALLOW


class TestDebloat:
    def test_removes_dead_functions(self):
        module = _module()
        slim, report = debloat_module(module)
        assert "dead_code" in report.removed_functions
        assert not slim.has_function("dead_code")
        assert "dead_code" in module.functions  # input untouched

    def test_keeps_address_taken(self):
        _slim, report = debloat_module(_module())
        assert "handler" in report.kept_functions

    def test_sensitive_but_used_survive(self):
        """§2.2: debloating cannot remove mmap/mprotect-style syscalls."""
        _slim, report = debloat_module(_module())
        assert "mprotect" in report.surviving_sensitive
        assert "execve" in report.removed_syscalls

    def test_launches_share_one_debloated_module(self):
        module = _module()
        first, second = (CONFIGS["debloat"].mechanism() for _ in range(2))
        first.launch(Kernel(), "m", module)
        second.launch(Kernel(), "m", module)
        assert first.image.module is second.image.module
        assert not first.image.module.has_function("dead_code")
        assert debloat_module(module)[0] is not debloat_module(module)[0]


class TestLLVMCFI:
    def test_equivalence_classes(self):
        classes = cfi_equivalence_classes(_module())
        assert set(classes["h1"]) == {"handler", "other_handler"}

    def test_cfi_bypassed_by_type_compatible_attacks(self):
        """§10.3: COOP and Control Jujutsu are type-valid — CFI passes."""
        for name in ("coop_chrome", "control_jujutsu", "aocr_apache"):
            spec = attack_by_name(name)
            outcome = run_attack(spec, None, "llvm_cfi", defense=CONFIGS["llvm_cfi"])
            assert outcome.succeeded, name
            assert not outcome.blocked, name

    def test_cet_blocks_rop_but_not_data_attacks(self):
        """§10.1: CET stops ROP; §10.3 attacks sail through it."""
        rop = attack_by_name("rop_execute_user_command")
        outcome = run_attack(rop, None, "cet", defense=CONFIGS["cet"])
        assert outcome.blocked and outcome.blocked_by == "cet"
        data_only = attack_by_name("aocr_nginx_attack2")
        outcome = run_attack(data_only, None, "cet", defense=CONFIGS["cet"])
        assert outcome.succeeded
