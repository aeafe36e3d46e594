"""The §11.1 study: BASTION under *arbitrary* memory read/write.

The paper concedes that, in theory, an adversary with unconstrained
read/write can circumvent all three contexts — but argues it is hard in
practice because (a) most constraints are static and live in the monitor's
address space, out of reach, and (b) the dynamic state (shadow copies,
binding records) would have to be forged consistently, which requires
knowing the shadow region's location and hash layout.

This module makes that argument quantitative with three adversaries, all
mounted on the Control Jujutsu scenario against mini-NGINX:

- :func:`oracle_forger` — knows the shadow region base and hash function
  (the paper's "very challenging" best case): forges shadow copies for its
  counterfeit exec context and succeeds, at a measured cost in extra
  writes;
- :func:`blind_forger` — same attack but with a wrong guess for the shadow
  base (sparse-address-space hiding): blocked;
- :func:`constant_violator` — tries to defeat a *static* constraint (a
  compile-time-constant argument): impossible by construction, because the
  expected value lives in the monitor's metadata, which no write into the
  application's address space can reach.

Each adversary is the Control Jujutsu spec with its stage and oracle
replaced, run through :func:`repro.attacks.runner.run_attack` under full
BASTION — the same launch path as every Table 6 run.
"""

import dataclasses
from dataclasses import dataclass

from repro.attacks.catalog import attack_by_name
from repro.attacks.runner import run_attack
from repro.monitor.policy import ContextPolicy
from repro.runtime.shadow_table import COPIES_LAYOUT, ShadowTable, ShadowTableLayout
from repro.vm.memory import WORD


@dataclass
class AdaptiveOutcome:
    """Result of one adaptive-attacker run."""

    name: str
    succeeded: bool
    blocked_by: str = None
    attacker_writes: int = 0
    detail: str = ""


class _CountingMemory:
    """Counts the attacker's write primitive invocations."""

    def __init__(self, env):
        self.env = env
        self.writes = 0

    def write(self, addr, value):
        self.writes += 1
        self.env.proc.memory.write(addr, value)

    def write_cstr(self, addr, text):
        self.writes += len(text) + 1
        self.env.proc.memory.write_cstr(addr, text)


def _run_adversary(name, detail, stage, oracle):
    """Mount ``stage(env, counter)`` on mini-NGINX under full BASTION."""
    counters = []

    def mount(env):
        counters.append(_CountingMemory(env))
        stage(env, counters[0])

    spec = dataclasses.replace(
        attack_by_name("control_jujutsu"), stage=mount, oracle=oracle
    )
    outcome = run_attack(spec, ContextPolicy.full(), "bastion")
    return AdaptiveOutcome(
        name=name,
        succeeded=outcome.succeeded,
        blocked_by=str(outcome.blocked_by) if outcome.blocked_by else None,
        attacker_writes=counters[0].writes,
        detail=detail,
    )


def _jujutsu(name, detail, shadow_base):
    """Control Jujutsu's trigger with forged shadow copies at ``shadow_base``."""

    def stage(env, counter):
        env.on_hook(
            "ngx_output_chain_icall",
            lambda e: _forge_payload(e, counter, shadow_base),
        )

    return _run_adversary(
        name, detail, stage, lambda env: env.executed("/bin/sh")
    )


def _forge_payload(env, counter, shadow_base):
    """Counterfeit exec context + forged shadow copies at ``shadow_base``."""
    sh = env._scratch_next
    counter.write_cstr(sh, "/bin/sh")
    env._scratch_next += 16 * WORD
    argv = env._scratch_next
    counter.write(argv, sh)
    counter.write(argv + WORD, 0)
    env._scratch_next += 4 * WORD
    ctx = env._scratch_next
    counter.write(ctx, sh)
    counter.write(ctx + WORD, argv)
    counter.write(ctx + 2 * WORD, 0)
    env._scratch_next += 5 * WORD

    # forge shadow copies so the monitor's origin-lvalue checks pass:
    # the attacker must reimplement the table's probing at shadow_base
    layout = ShadowTableLayout(
        shadow_base, COPIES_LAYOUT.capacity, COPIES_LAYOUT.entry_words
    )
    forged = ShadowTable(env.proc.memory, layout)
    for slot_addr in (ctx, ctx + WORD, ctx + 2 * WORD, argv, argv + WORD):
        entry = forged.put(slot_addr, (env.read(slot_addr),))
        counter.writes += 2  # key + value words
    for i in range(len("/bin/sh") + 1):
        forged.put(sh + i * WORD, (env.read(sh + i * WORD),))
        counter.writes += 2

    # the hijack itself
    counter.write(env.current_local_addr("flt"), env.func_addr("ngx_execute_proc"))
    counter.write(env.current_local_addr("in_"), ctx)


def oracle_forger():
    """§11.1's theoretical bypass: full layout knowledge."""
    return _jujutsu(
        "oracle_forger",
        "attacker knows the shadow region base and hash layout",
        COPIES_LAYOUT.base,
    )


def blind_forger(guess_offset=1 << 30):
    """Same payload, but the shadow-base guess is wrong (region hiding)."""
    return _jujutsu(
        "blind_forger",
        "shadow base guessed %#x off" % guess_offset,
        COPIES_LAYOUT.base + guess_offset,
    )


def constant_violator():
    """Attack a compile-time-constant argument (mprotect guard prot).

    ``ngx_guard_pool`` calls ``mprotect(addr, 4096, 1)`` — the length and
    prot are constants recorded in the monitor's metadata.  The attacker
    corrupts the wrapper-bound registers by rewriting the frame slots the
    call will read, and may scribble over the whole shadow region too: the
    expected values are not *in* the application's address space, so no
    number of writes helps.
    """

    def stage(env, counter):
        # Corrupt the wrapper's prot *parameter slot* right at its syscall
        # instruction — after the legitimate constant was passed, before
        # the monitor's stop.  The register will read 7; the metadata
        # says 1.
        def at_syscall(c):
            counter.write(c.local_addr("a2"), 7)

        env.cpu.breakpoints[env.func_addr("mprotect")] = at_syscall

    return _run_adversary(
        "constant_violator",
        "constant argument pinned in monitor metadata",
        stage,
        lambda env: env.made_memory_executable(),
    )


def adaptive_study():
    """Run all three adversaries; returns ``[AdaptiveOutcome, ...]``."""
    return [oracle_forger(), blind_forger(), constant_violator()]
