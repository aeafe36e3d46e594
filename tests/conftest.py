"""Shared fixtures and tiny-program builders for the test suite."""

import contextlib
import weakref

import pytest

from repro.ir.builder import ModuleBuilder
from repro.kernel.kernel import Kernel
from repro.vm import blocks
from repro.vm.cpu import CPU, CPUOptions
from repro.vm.loader import Image


def make_wrapper(mb, name, arity):
    """Add a libc-style syscall wrapper to a module builder."""
    params = ["a%d" % i for i in range(arity)]
    fb = mb.function(name, params=params)
    rc = fb.syscall(name, [fb.p(p) for p in params])
    fb.ret(rc)
    fb.func.is_wrapper = True
    return fb


@pytest.fixture
def kernel():
    return Kernel()


def run_module(module, kernel=None, options=None, setup=None, hooks=None):
    """Load + run a module to completion; returns (status, proc, cpu)."""
    kernel = kernel or Kernel()
    image = Image(module)
    proc = kernel.create_process(module.name, image)
    cpu = CPU(image, proc, kernel, options or CPUOptions())
    if setup is not None:
        setup(kernel, proc, cpu)
    if hooks:
        cpu.hooks.update(hooks)
    status = cpu.run()
    return status, proc, cpu


@contextlib.contextmanager
def reference_steps():
    """Within the block, every instruction runs through ``CPU._step``.

    A test seam for diffing compiled blocks against the reference, not an
    option: it swaps in an empty block memo whose every index takes
    ``_step``, and restores both on exit.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blocks, "_codes", weakref.WeakKeyDictionary())
        patch.setattr(blocks, "_compile_block", lambda *args: False)
        yield


def build_simple_program(body_fn, name="prog", globals_fn=None):
    """A module with a single main() whose body is emitted by ``body_fn``."""
    mb = ModuleBuilder(name)
    if globals_fn is not None:
        globals_fn(mb)
    f = mb.function("main", params=[])
    body_fn(f)
    if not f.func.body or not getattr(f.func.body[-1], "is_terminator", False):
        f.ret(0)
    return mb.build()


def run_main(body_fn, **kwargs):
    """Build + run a single-function program; returns (status, proc, cpu)."""
    module = build_simple_program(body_fn)
    return run_module(module, **kwargs)


def measured_fingerprint(result):
    """The cycle, latency and syscall fields of a bench ``RunResult``.

    Scheduled runs are deterministic, so a repeated run must reproduce
    this tuple exactly.
    """
    return (
        result.work_units,
        result.init_cycles,
        result.steady_cycles,
        result.total_cycles,
        dict(result.latency),
        dict(result.syscall_counts),
        dict(result.statuses),
    )
