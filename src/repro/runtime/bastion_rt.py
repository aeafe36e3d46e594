"""Application-side BASTION runtime: the Table 2 API.

Compiler-inserted intrinsics call into this object (conceptually, the
inlined runtime-library functions of §8):

- ``ctx_write_mem(p, size)`` — refresh the shadow copies of ``size`` slots
  starting at ``p`` with their *current* (legitimate-at-this-point) values;
- ``ctx_bind_mem_X(p)`` — record that the X-th argument of the upcoming
  callsite is backed by memory at ``p``;
- ``ctx_bind_const_X(c)`` — record that the X-th argument is the constant
  ``c``.

At launch the monitor also calls :meth:`initialize_globals` to seed shadow
copies of statically-identified sensitive globals (string constants such as
an ``execve`` path live here before any instrumented store runs).
"""

from repro.errors import ReproError
from repro.runtime.shadow_table import (
    BIND_CONST,
    BIND_MEM,
    BINDINGS_LAYOUT,
    COPIES_LAYOUT,
    ShadowTable,
)
from repro.vm.memory import WORD


class BastionRuntime:
    """The per-process runtime state behind the ``ctx_*`` intrinsics."""

    MAX_ARGS = 6

    def __init__(self, proc):
        self.proc = proc
        self.copies = ShadowTable(proc.memory, COPIES_LAYOUT)
        self.bindings = ShadowTable(proc.memory, BINDINGS_LAYOUT)
        self.write_count = 0
        self.bind_count = 0
        #: shadow-update listeners (the monitor's verdict cache).  Notified
        #: only when an update creates an entry or *changes* its stored
        #: value: a server's steady state re-binds the same callsite with
        #: the same payload on every iteration, and re-notifying on each
        #: would thrash any cache.
        self._listeners = []

    def subscribe(self, listener):
        """Register for ``on_shadow_write(addr)`` / ``on_bind_write(site)``."""
        self._listeners.append(listener)

    # -- Table 2 API ------------------------------------------------------

    def ctx_write_mem(self, addr, size=1):
        """Update the shadow copy of ``size`` slots at ``addr``."""
        memory = self.proc.memory
        words = memory._words
        find = self.copies.find
        for i in range(max(size, 1)):
            slot_addr = addr + i * WORD
            value = memory.read(slot_addr)
            entry, found = find(slot_addr)
            if not slot_addr:  # refused as ``ShadowTable.put`` refuses it
                raise ReproError("shadow table key must be nonzero")
            if found:
                changed = words.get(entry + WORD, 0) != value
            else:
                words[entry] = slot_addr
                changed = True
            words[entry + WORD] = value
            if changed:
                for listener in self._listeners:
                    listener.on_shadow_write(slot_addr)
        self.write_count += 1

    def ctx_bind_mem(self, callsite_addr, position, addr):
        """Bind memory at ``addr`` to argument ``position`` of ``callsite``."""
        self._bind(callsite_addr, position, BIND_MEM, addr)

    def ctx_bind_const(self, callsite_addr, position, value):
        """Bind constant ``value`` to argument ``position`` of ``callsite``."""
        self._bind(callsite_addr, position, BIND_CONST, value)

    def _bind(self, callsite_addr, position, kind, payload):
        if not 1 <= position <= self.MAX_ARGS:
            raise ValueError("argument position %d out of range" % position)
        memory = self.proc.memory
        words = memory._words
        entry, found = self.bindings.find(callsite_addr)
        # key, argmask, then (kind, payload) pairs
        kind_addr = entry + (2 + (position - 1) * 2) * WORD
        changed = (
            not found
            or words.get(kind_addr, 0) != kind
            or words.get(kind_addr + WORD, 0) != payload
        )
        if not found:
            words[entry] = callsite_addr
        words[kind_addr] = kind
        memory.write(kind_addr + WORD, payload)  # rejects a non-int payload
        # maintain the bound-argument mask
        mask_addr = entry + WORD
        words[mask_addr] = words.get(mask_addr, 0) | (1 << (position - 1))
        self.bind_count += 1
        if changed:
            for listener in self._listeners:
                listener.on_bind_write(callsite_addr)

    # -- launch-time seeding -------------------------------------------------

    def initialize_globals(self, image, global_names):
        """Seed shadow copies for statically-identified sensitive globals."""
        for name in global_names:
            gvar = image.module.globals.get(name)
            if gvar is None:
                continue
            base = image.global_addr[name]
            self.ctx_write_mem(base, gvar.size)
