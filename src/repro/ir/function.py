"""IR function container: parameters, body, labels, and local discovery."""

from repro.errors import IRError
from repro.ir.instructions import AddrLocal, Label, Var


class Function:
    """A function: named parameters plus a flat instruction list.

    Locals are implicit — any variable defined by an instruction or whose
    address is taken via :class:`AddrLocal` becomes a frame slot.  Frame
    layout order is: parameters first, then other locals in order of first
    appearance.  This deterministic layout is what lets attack scripts (and
    the monitor) compute variable addresses.

    Attributes:
        name: function symbol.
        params: parameter names, in call order.
        body: list of :class:`repro.ir.instructions.Instr`.
        sig: type-signature string for the LLVM-CFI baseline's equivalence
            classes.  Defaults to ``fn<arity>``; set explicitly to model
            richer C/C++ types.
    """

    def __init__(self, name, params=None, sig=None):
        self.name = name
        self.params = list(params or [])
        if len(set(self.params)) != len(self.params):
            raise IRError("duplicate parameter in function %r" % name)
        self.body = []
        self.sig = sig or ("fn%d" % len(self.params))
        #: True for libc-style syscall wrappers (one Syscall + Ret); the
        #: BASTION compiler treats calls *to* wrappers as the syscall
        #: callsites and does not instrument wrapper bodies themselves.
        self.is_wrapper = False
        #: bumped on every structural change; the VM's shared block memo
        #: (repro.vm.blocks) keys on it so mutated bodies are recompiled
        self.version = 0
        self._labels = None
        self._locals = None
        self._slots = None

    # -- structure -----------------------------------------------------

    def append(self, instr):
        """Append an instruction, invalidating cached layout info."""
        self.body.append(instr)
        self.version += 1
        self._labels = None
        self._locals = None
        self._slots = None
        return instr

    def invalidate(self):
        """Drop caches after external body mutation (e.g. instrumentation)."""
        self.version += 1
        self._labels = None
        self._locals = None
        self._slots = None

    @property
    def labels(self):
        """Map of label name -> instruction index."""
        if self._labels is None:
            labels = {}
            for idx, instr in enumerate(self.body):
                if isinstance(instr, Label):
                    if instr.name in labels:
                        raise IRError(
                            "duplicate label %r in %s" % (instr.name, self.name)
                        )
                    labels[instr.name] = idx
            self._labels = labels
        return self._labels

    def label_index(self, name):
        """Instruction index of label ``name``."""
        try:
            return self.labels[name]
        except KeyError:
            raise IRError("unknown label %r in %s" % (name, self.name)) from None

    # -- locals ---------------------------------------------------------

    def local_names(self):
        """All frame slots: params first, then locals by first appearance."""
        if self._locals is None:
            seen = list(self.params)
            seen_set = set(seen)

            def note(name):
                if name not in seen_set:
                    seen_set.add(name)
                    seen.append(name)

            for instr in self.body:
                for name in instr.defs():
                    note(name)
                if isinstance(instr, AddrLocal):
                    note(instr.var)
                for op in instr.uses():
                    if isinstance(op, Var):
                        note(op.name)
            self._locals = seen
        return self._locals

    def local_slot(self, name):
        """Frame slot index of local ``name`` (0-based)."""
        slots = self._slots
        if slots is None:
            slots = self._slots = {
                n: i for i, n in enumerate(self.local_names())
            }
        try:
            return slots[name]
        except KeyError:
            raise IRError("unknown local %r in %s" % (name, self.name)) from None

    @property
    def frame_size(self):
        """Number of local slots this function's frame needs."""
        return len(self.local_names())

    def __repr__(self):
        return "<Function %s(%s) %d instrs>" % (
            self.name,
            ", ".join(self.params),
            len(self.body),
        )
