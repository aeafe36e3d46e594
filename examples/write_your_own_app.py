#!/usr/bin/env python3
"""Bring your own program: write an app in the IR, protect it, attack it.

This walkthrough shows the full downstream-user loop on a program that is
NOT one of the built-in workloads:

1. write a small "backup daemon" in the IR builder (it reads a config,
   spawns a worker thread, and re-execs itself on upgrade — a classic
   sensitive-syscall profile);
2. inspect it under the strace-style tracer;
3. compile it with the BASTION pass and print its context metadata;
4. run it protected (clean), then run a data-only attack against the
   upgrade path and watch the argument-integrity context kill it.

Run:  python examples/write_your_own_app.py
"""

from repro import protect, ContextPolicy
from repro.apps.libc import build_libc
from repro.ir import ModuleBuilder
from repro.kernel import Kernel
from repro.kernel.strace import attach_strace
from repro.monitor.monitor import BastionMonitor
from repro.vm.cpu import CPU, CPUOptions
from repro.vm.loader import Image


def build_backupd():
    mb = ModuleBuilder("backupd")
    mb.extend(build_libc())
    mb.struct("upgrade_t", ["binary", "argv"])

    mb.global_string("g_conf", "/etc/backupd.conf")
    mb.global_string("g_self", "/usr/sbin/backupd")
    mb.global_var("g_upgrade", size=2, struct="upgrade_t")
    mb.global_var("g_do_upgrade", init=1)  # config said: upgrade today
    mb.global_var("g_buf", size=600)

    worker = mb.function("backup_worker", params=["arg"])
    worker.burn(5_000)  # the actual backup work
    worker.ret(0)

    f = mb.function("load_config", params=[])
    p = f.addr_global("g_conf")
    fd = f.call("open", [p, 0, 0])
    buf = f.addr_global("g_buf")
    f.call("read", [fd, buf, 256])
    f.call("close", [fd])
    up = f.addr_global("g_upgrade")
    bin_p = f.gep(up, "upgrade_t", "binary")
    self_p = f.addr_global("g_self")
    f.store(bin_p, self_p)
    f.ret(0)

    f = mb.function("self_upgrade", params=[])
    f.hook("pre_upgrade")  # the memory-corruption window
    up = f.addr_global("g_upgrade")
    bin_p = f.gep(up, "upgrade_t", "binary")
    binary = f.load(bin_p)
    f.call("execve", [binary, 0, 0], void=True)
    f.ret(0)

    f = mb.function("main", params=[])
    f.call("load_config", [], void=True)
    fn = f.funcaddr("backup_worker")
    f.call("clone", [0, 0, fn, 0, 0], void=True)
    flag_p = f.addr_global("g_do_upgrade")
    flag = f.load(flag_p)
    f.if_then(flag, lambda: f.call("self_upgrade", [], void=True))
    f.ret(0)
    return mb.build()


def environment():
    kernel = Kernel()
    kernel.vfs.makedirs("/etc")
    kernel.vfs.makedirs("/usr/sbin")
    kernel.vfs.makedirs("/bin")
    kernel.vfs.write_file("/etc/backupd.conf", b"upgrade=yes\n")
    kernel.vfs.write_file("/usr/sbin/backupd", b"\x7fELF", mode=0o755)
    kernel.vfs.write_file("/bin/sh", b"\x7fELF-shell", mode=0o755)
    return kernel


def main():
    module = build_backupd()

    print("=== 1. unprotected run, under the strace tap ===")
    kernel = environment()
    trace = attach_strace(kernel)
    image = Image(module)
    proc = kernel.create_process("backupd", image)
    status = CPU(image, proc, kernel, CPUOptions()).run()
    print("exit:", status.kind)
    for line in trace.lines():
        print("   ", line)

    print("\n=== 2. compile with BASTION ===")
    artifact = protect(module)
    meta = artifact.metadata
    print("sensitive & used:", [n for n in sorted(meta.call_types) if n in meta.sensitive_set])
    print("thread entries:", list(meta.thread_entries))
    print("instrumentation sites:", meta.stats["total_instrumentation"])

    print("\n=== 3. protected, benign ===")
    monitor = BastionMonitor(artifact, policy=ContextPolicy.full())
    kernel = environment()
    proc, cpu = monitor.launch(kernel)
    status = cpu.run()
    print("exit:", status.kind, "| hooks:", monitor.stats.hook_counts,
          "| violations:", len(monitor.violations))

    print("\n=== 4. protected, attacked: swap the upgrade binary in place ===")
    monitor = BastionMonitor(artifact, policy=ContextPolicy.full())
    kernel = environment()
    proc, cpu = monitor.launch(kernel)

    def corrupt(c):
        # data-only: point upgrade_t.binary at an attacker string
        sh = 0x7F50_0000_0000
        c.proc.memory.write_cstr(sh, "/bin/sh")
        slot = c.image.global_addr["g_upgrade"]  # .binary is field 0
        c.proc.memory.write(slot, sh)

    cpu.hooks["pre_upgrade"] = corrupt
    status = cpu.run()
    print("exit:", status.kind)
    for violation in monitor.violations:
        print("BLOCKED:", violation)
    executed = [e.details["path"] for e in kernel.events_of("execve")]
    print("execve events (should NOT contain /bin/sh):", executed)


if __name__ == "__main__":
    main()
