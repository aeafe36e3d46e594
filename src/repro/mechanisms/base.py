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
from repro.vm.loader import load_module


def artifact_for(image, extend_filesystem=False):
    """The BASTION artifact of ``image``'s module, compiled once per image
    (:meth:`~repro.vm.loader.Image.derive`) and extension set.

    BASTION enforces, and SFIP derives its policy from, the same object.
    """
    return image.derive(
        ("artifact", extend_filesystem),
        lambda image: BastionCompiler(
            extend_filesystem=extend_filesystem
        ).compile(image.module),
    )


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
        image = load_module(self.target_module(app, module))
        #: the loaded image, which ``install`` derives its policy from
        self.image = image
        proc = kernel.create_process(app, image)
        cpu = CPU(image, proc, kernel, self.cpu_options())
        self.install(kernel, proc, app, module)
        return proc, cpu
