#!/usr/bin/env python3
"""Quickstart: protect a tiny program with BASTION and watch it work.

Builds a 30-line IR program with one sensitive syscall (``mprotect``),
compiles it with the BASTION pass, launches it under the runtime monitor,
and then re-runs it with a simulated memory-corruption attack to show the
argument-integrity context killing the process.

Run:  python examples/quickstart.py
"""

from repro import protect, ContextPolicy
from repro.ir import ModuleBuilder
from repro.kernel import Kernel
from repro.monitor.monitor import BastionMonitor


def build_program():
    """A mini C program:

        int mprotect(void *addr, size_t len, int prot);  // libc stub

        static int harden(long addr) {
            int prot = PROT_READ;              // the value BASTION locks in
            return mprotect(addr, 4096, prot);
        }

        int main(void) { return harden(0x10000000); }
    """
    mb = ModuleBuilder("quickstart")

    libc = mb.function("mprotect", params=["addr", "len", "prot"])
    rc = libc.syscall("mprotect", [libc.p("addr"), libc.p("len"), libc.p("prot")])
    libc.ret(rc)
    libc.func.is_wrapper = True

    harden = mb.function("harden", params=["addr"])
    prot = harden.const(1, dst="prot")  # PROT_READ
    harden.hook("vulnerable_spot")  # stands in for a memory-corruption bug
    rc = harden.call("mprotect", [harden.p("addr"), 4096, prot])
    harden.ret(rc)

    main = mb.function("main")
    rc = main.call("harden", [0x10000000])
    main.ret(rc)
    return mb.build()


def launch(artifact, attack=None):
    monitor = BastionMonitor(artifact, policy=ContextPolicy.full())
    kernel = Kernel()
    proc, cpu = monitor.launch(kernel)
    proc.mm.do_mmap(0x10000000, 4096, 3, 0x30)  # something to mprotect
    if attack is not None:
        cpu.hooks["vulnerable_spot"] = attack
    status = cpu.run()
    return status, monitor


def main():
    module = build_program()
    print("=== compiling with the BASTION pass ===")
    artifact = protect(module)
    stats = artifact.metadata.stats
    print("call types:", artifact.metadata.call_types)
    print(
        "instrumentation: %d ctx_write_mem, %d ctx_bind_mem, %d ctx_bind_const"
        % (stats["ctx_write_mem"], stats["ctx_bind_mem"], stats["ctx_bind_const"])
    )

    print("\n=== benign run under the monitor ===")
    status, monitor = launch(artifact)
    print("exit:", status.kind, "| hooks:", monitor.stats.hook_counts,
          "| violations:", len(monitor.violations))

    print("\n=== attacked run: corrupt 'prot' to PROT_RWX before the call ===")

    def corrupt_prot(cpu):
        # the attacker's arbitrary-write primitive flips PROT_READ -> RWX
        cpu.proc.memory.write(cpu.local_addr("prot"), 7)

    status, monitor = launch(artifact, attack=corrupt_prot)
    print("exit:", status.kind)
    for violation in monitor.violations:
        print("BLOCKED:", violation)


if __name__ == "__main__":
    main()
