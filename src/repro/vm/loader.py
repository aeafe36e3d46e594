"""Lays a validated IR module out into an executable image.

Address-space layout (see DESIGN.md §6)::

    0x0000_0040_0000  text      (instruction i of a function: base + 4*i)
    0x0000_0060_0000  data      (globals; strings one char per slot)
    0x0000_1000_0000  heap      (brk / malloc bump region)
    0x00007e00_00000000  BASTION shadow memory (mapped by the monitor)
    0x00007f00_00000000  mmap region
    0x00007ffd_00000000  stack top (grows down)

The image resolves code addresses back to ``(function, instruction index)``
so the CPU, the monitor (decoding call kinds at unwound return addresses),
and the attack scripts all share one source of truth for symbols.

:func:`load_module` shares one image per module state (see
:func:`repro.ir.validate.module_stamp`), the one memo of that state: it
validates the module once, every process launched from the unchanged
module runs on it, and :meth:`Image.derive` keeps what launches and
analyzers derive from the state (artifact, policies, syscall sets).  A
changed module loads as a new image.  ``Image(module)`` builds a private
one.
"""

import bisect

from repro.errors import ExecutionFault, LoaderError
from repro.ir.instructions import Call, CallIndirect
from repro.ir.validate import module_stamp, validate_module
from repro.vm.memory import WORD

TEXT_BASE = 0x0040_0000
DATA_BASE = 0x0060_0000
HEAP_BASE = 0x1000_0000
SHADOW_BASE = 0x7E00_0000_0000
MMAP_BASE = 0x7F00_0000_0000
STACK_TOP = 0x7FFD_0000_0000

#: Code addresses advance by 4 per instruction (x86-ish flavour only).
INSTR_STRIDE = 4
_FUNC_ALIGN = 0x100


class Image:
    """A loaded program: code addresses, data addresses, symbol lookup."""

    def __init__(self, module):
        validate_module(module)
        self.module = module
        self.func_base = {}
        self.global_addr = {}
        self._bases = []  # sorted (base, name) for address resolution

        addr = TEXT_BASE
        for func in module.functions.values():
            self.func_base[func.name] = addr
            self._bases.append((addr, func.name))
            span = max(len(func.body), 1) * INSTR_STRIDE
            addr += ((span + _FUNC_ALIGN - 1) // _FUNC_ALIGN) * _FUNC_ALIGN
        self.text_end = addr

        daddr = DATA_BASE
        for gvar in module.globals.values():
            self.global_addr[gvar.name] = daddr
            daddr += gvar.size * WORD
        self.data_end = daddr

        if self.text_end > DATA_BASE:
            raise LoaderError("text segment overflows into data segment")

        self.entry_addr = self.func_base[module.entry]
        self._base_keys = [b for b, _ in self._bases]
        #: ``(address, words)`` per global, built at the first
        #: :meth:`write_globals`; ``words`` is a tuple of ints, or the
        #: list that holds a non-int
        self._data = None
        #: key -> result, for :meth:`derive`
        self._derived = {}

    def derive(self, key, fn):
        """``fn(self)``, computed once per image under ``key`` (the
        derivation and its parameters).  Call it on an image
        :func:`load_module` just returned, so the result is of the
        module's current state."""
        if key not in self._derived:
            self._derived[key] = fn(self)
        return self._derived[key]

    # -- code resolution ---------------------------------------------------

    def func_containing(self, addr):
        """Name of the function whose range covers ``addr`` (or None)."""
        if not (TEXT_BASE <= addr < self.text_end):
            return None
        pos = bisect.bisect_right(self._base_keys, addr) - 1
        if pos < 0:
            return None
        base, name = self._bases[pos]
        func = self.module.functions[name]
        if addr < base + len(func.body) * INSTR_STRIDE:
            return name
        return None

    def resolve_code(self, addr):
        """Map a code address to ``(function, instruction index)``.

        Raises:
            ExecutionFault: if ``addr`` is not a valid instruction address —
                the DEP/NX behaviour attacks run into when jumping to data.
        """
        name = self.func_containing(addr)
        if name is None:
            raise ExecutionFault("instruction fetch from %#x" % addr, rip=addr)
        base = self.func_base[name]
        offset = addr - base
        if offset % INSTR_STRIDE:
            raise ExecutionFault("misaligned fetch at %#x" % addr, rip=addr)
        return self.module.functions[name], offset // INSTR_STRIDE

    def instruction_at(self, addr):
        func, idx = self.resolve_code(addr)
        return func.body[idx]

    def addr_of(self, func_name, index=0):
        """Code address of instruction ``index`` of ``func_name``."""
        return self.func_base[func_name] + index * INSTR_STRIDE

    def call_kind_at(self, addr):
        """Classify the instruction at ``addr``: 'direct', 'indirect', None.

        The monitor uses this to decode the call instruction sitting at
        ``return_address - 4`` while enforcing the call-type context (§7.2).
        """
        try:
            instr = self.instruction_at(addr)
        except ExecutionFault:
            return None
        if isinstance(instr, Call):
            return "direct"
        if isinstance(instr, CallIndirect):
            return "indirect"
        return None

    def describe(self, addr):
        """Human-readable ``func+0xoff`` form of a code address."""
        name = self.func_containing(addr)
        if name is None:
            return "%#x" % addr
        return "%s+%#x" % (name, addr - self.func_base[name])

    # -- data ----------------------------------------------------------------

    def write_globals(self, memory):
        """Materialize global initializers into ``memory``.

        The initializers are read, and their words checked, once per
        image: a changed initializer needs a replaced ``GlobalVar`` (a new
        module state, so :func:`load_module` lays out a new image), as a
        changed body needs ``invalidate()``.  Each global then lands with
        one dict update; one holding a non-int takes
        :meth:`Memory.write_block <repro.vm.memory.Memory.write_block>`,
        which raises its ``TypeError`` after the same partial writes.
        """
        data = self._data
        if data is None:
            data = self._data = []
            for gvar in self.module.globals.values():
                words = gvar.initial_words()
                if all(isinstance(word, int) for word in words):
                    words = tuple(words)
                data.append((self.global_addr[gvar.name], words))
        store = memory._words
        for addr, words in data:
            if type(words) is tuple:
                store.update(zip(range(addr, addr + WORD * len(words), WORD), words))
            else:
                memory.write_block(addr, words)


def load_module(module, memory=None):
    """The shared :class:`Image` of ``module``'s current state; optionally
    write its globals to ``memory``.

    Validation, layout and every :meth:`Image.derive` result run once per
    module state (:func:`repro.ir.validate.module_stamp`); an unchanged
    module returns the image it was last loaded as.
    """
    stamp = module_stamp(module)
    # ``(stamp, image)`` lives on the module: the image refers to its
    # module, so a weak-keyed table would keep every loaded module alive,
    # while on the module the two form a cycle the collector frees.
    loaded = getattr(module, "_loaded_image", None)
    if loaded is not None and loaded[0] == stamp:
        image = loaded[1]
    else:
        image = Image(module)
        module._loaded_image = (stamp, image)
    if memory is not None:
        image.write_globals(memory)
    return image
