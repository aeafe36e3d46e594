#!/usr/bin/env python3
"""Why allowlists and debloating are not enough (§2.2), demonstrated.

Takes mini-NGINX and shows, against the same NEWTON-CPI-style attack:

- **debloating** removes dead code but must keep mmap/mprotect (they are
  legitimately used), so the attack surface survives;
- a **seccomp allowlist** ALLOWs mprotect outright — the hijacked call
  sails through;
- **LLVM CFI** passes because the bent callsite is type-compatible;
- **BASTION** blocks the same attack with all three contexts.

Run:  python examples/filtering_comparison.py
"""

from repro.attacks.catalog import attack_by_name
from repro.attacks.runner import run_attack
from repro.apps.nginx import build_nginx
from repro.bench.harness import CONFIGS
from repro.ir.callgraph import build_callgraph
from repro.kernel.seccomp import evaluate_filters, SECCOMP_RET_ALLOW, action_name
from repro.mechanisms.baselines import debloat_module
from repro.monitor.policy import ContextPolicy
from repro.policy import build_presence_filter
from repro.syscalls.table import nr_of


def main():
    module = build_nginx()
    spec = attack_by_name("newton_cpi")

    print("=== debloating ===")
    _slim, report = debloat_module(module)
    print("functions removed:", len(report.removed_functions))
    print("sensitive syscalls surviving debloat:",
          ", ".join(sorted(report.surviving_sensitive)))

    print("\n=== seccomp allowlist ===")
    filt = build_presence_filter(build_callgraph(module).syscall_sites, "allowlist")
    action, _ = evaluate_filters([filt], nr_of("mprotect"))
    print("allowlist verdict for mprotect:", action_name(action))
    assert action == SECCOMP_RET_ALLOW  # the §2.2 gap

    print("\n=== the NEWTON CPI attack vs each defense ===")
    undefended = run_attack(spec, None, "none")
    print("undefended      : %s" % ("SUCCEEDS" if undefended.succeeded else "fails"))

    cfi = run_attack(spec, None, "llvm_cfi", defense=CONFIGS["llvm_cfi"])
    print("LLVM CFI        : %s" % ("SUCCEEDS (bypassed)" if cfi.succeeded else "blocked"))

    cet = run_attack(spec, None, "cet", defense=CONFIGS["cet"])
    print("CET             : %s" % ("SUCCEEDS (bypassed)" if cet.succeeded else "blocked"))

    bastion = run_attack(spec, ContextPolicy.full(), "bastion")
    verdict = "blocked by %s" % bastion.blocked_by if bastion.blocked else "SUCCEEDS"
    print("BASTION (full)  : %s" % verdict)
    if bastion.violations:
        print("                  %s" % bastion.violations[0])


if __name__ == "__main__":
    main()
