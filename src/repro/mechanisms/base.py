"""The common protection-mechanism interface.

BASTION and every baseline defense (seccomp allowlists, temporal
specialization, debloating, LLVM-CFI, DFI, CET) reach the application
through exactly one seam: a :class:`ProtectionMechanism` builds the target
module, launches the root process, and installs whatever it enforces —
seccomp filters, a ptrace monitor, dispatch-pipeline hooks — via the
kernel's public surfaces (``kernel.install_seccomp``,
``kernel.pipeline.insert``, ``proc.tracer``).  Neither the bench harness
nor the attack runner holds per-defense branches:
``defense.mechanism().launch(kernel, app, module)`` is the whole launch
path, undefended runs included.
"""

from repro.compiler.pipeline import BastionCompiler
from repro.vm.cpu import CPU
from repro.vm.loader import Image

_artifact_cache = {}


def artifact_for(app, module, extend_filesystem=False):
    """Compile (and cache) the BASTION artifact for an app module.

    The one artifact cache: BASTION enforces, and SFIP derives its
    policy from, the same object per (app, module, extension set).
    """
    key = (app, id(module), extend_filesystem)
    if key not in _artifact_cache:
        _artifact_cache[key] = BastionCompiler(
            extend_filesystem=extend_filesystem
        ).compile(module)
    return _artifact_cache[key]


class ProtectionMechanism:
    """One defense, expressed against the kernel's public surfaces.

    Subclasses override any of:

    - :meth:`target_module` — swap the module the image loads
      (debloating);
    - :meth:`install` — attach filters / pipeline hooks / a tracer to the
      launched root process;
    - :meth:`launch` — wholesale replacement when the defense owns the
      launch sequence (BASTION's monitor does).
    """

    def __init__(self, defense):
        self.defense = defense
        #: the BastionMonitor when this mechanism runs one, else None
        self.monitor = None

    def cpu_options(self):
        return self.defense.cpu_options()

    def target_module(self, app, module):
        """The module the process image loads."""
        return module

    def install(self, kernel, proc, app, module):
        """Attach this mechanism to a launched root process (default: none)."""

    def launch(self, kernel, app, module):
        """Create the protected root process; returns ``(proc, cpu)``."""
        image = Image(self.target_module(app, module))
        #: the loaded image, for mechanisms that analyze the binary itself
        self.image = image
        proc = kernel.create_process(app, image)
        cpu = CPU(image, proc, kernel, self.cpu_options())
        self.install(kernel, proc, app, module)
        return proc, cpu
