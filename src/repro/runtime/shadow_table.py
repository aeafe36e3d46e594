"""Open-addressing shadow-memory tables laid out in simulated memory.

§7.1: "It is an open-addressing hash table maintaining a shadow copy (i.e.,
legitimate value) of a sensitive variable and argument binding information
... The key to access this hash table data is an address."

Two tables share the shadow region:

- the **copies** table: ``variable address -> shadow copy`` (2-word entries);
- the **bindings** table: ``callsite address -> 6 x (kind, payload)``
  argument-binding records (14-word entries).

Both the application-side writer (:class:`ShadowTable`) and the monitor-side
reader (:func:`lookup`, :class:`ShadowTableReader`) derive slot addresses
from the same :class:`ShadowTableLayout`, so the monitor can find entries
using nothing but ``process_vm_readv`` — no shared Python state.  Both
probe in one loop: the writer reads table words straight from the word
dict (a table address is valid by construction), the reader makes one
``read_block`` call per probe.
"""

from dataclasses import dataclass

from repro.errors import ReproError
from repro.vm.loader import SHADOW_BASE
from repro.vm.memory import WORD

#: binding kinds stored in entry slots
BIND_EMPTY = 0
BIND_MEM = 1
BIND_CONST = 2

_HASH_MULT = 2654435761  # Knuth multiplicative hashing


@dataclass(frozen=True)
class ShadowTableLayout:
    """Geometry of one table inside the shadow region."""

    base: int
    capacity: int  # number of entries; power of two
    entry_words: int  # words per entry, including the key word

    def __post_init__(self):
        if self.capacity & (self.capacity - 1):
            raise ReproError("shadow table capacity must be a power of two")

    def entry_addr(self, slot):
        return self.base + slot * self.entry_words * WORD

    def probe_sequence(self, key):
        """Linear-probe slot order for ``key`` (addresses are word-aligned)."""
        start = ((key >> 3) * _HASH_MULT) & (self.capacity - 1)
        for i in range(self.capacity):
            yield (start + i) & (self.capacity - 1)


#: shadow copies: 32Ki entries x (key, value)
COPIES_LAYOUT = ShadowTableLayout(SHADOW_BASE, 1 << 15, 2)
#: argument bindings: 4Ki entries x (key, argmask, 6 x (kind, payload))
BINDINGS_LAYOUT = ShadowTableLayout(SHADOW_BASE + (1 << 21), 1 << 12, 2 + 12)


#: probes the monitor-side reader makes before it gives a key up
MAX_PROBES = 64


class ShadowTable:
    """Application-side writer over a layout (used by the runtime library)."""

    def __init__(self, memory, layout):
        self.memory = memory
        self.layout = layout

    def find(self, key):
        """``(address, True)`` of ``key``'s entry, or ``(address, False)``
        of the empty entry it would take: one linear probe, raising
        :class:`ReproError` if the table is full."""
        layout = self.layout
        get = self.memory._words.get
        mask = layout.capacity - 1
        stride = layout.entry_words * WORD
        slot = ((key >> 3) * _HASH_MULT) & mask
        for _ in range(layout.capacity):
            addr = layout.base + slot * stride
            existing = get(addr, 0)
            if existing == key:
                return addr, True
            if existing == 0:
                return addr, False
            slot = (slot + 1) & mask
        raise ReproError("shadow table full (capacity %d)" % layout.capacity)

    def put(self, key, values):
        """Write entry payload words for ``key`` (creating the entry)."""
        if key == 0:
            raise ReproError("shadow table key must be nonzero")
        addr, found = self.find(key)
        if not found:
            self.memory.write(addr, key)
        self.memory.write_block(addr + WORD, values)
        return addr

    def get(self, key):
        """Payload words for ``key``, or None."""
        addr, found = self.find(key)
        if not found:
            return None
        return self.memory.read_block(addr + WORD, self.layout.entry_words - 1)


def lookup(read_block, layout, key, max_probes=MAX_PROBES):
    """Payload words for ``key``, or None if absent: the linear probe the
    monitor makes through ``read_block(addr, nwords)`` (typically
    ``PtraceHandle.readv``), one call per probe and at most ``max_probes``
    calls."""
    nwords = layout.entry_words
    stride = nwords * WORD
    mask = layout.capacity - 1
    base = layout.base
    slot = ((key >> 3) * _HASH_MULT) & mask
    probes = max_probes if max_probes < layout.capacity else layout.capacity
    while probes > 0:
        words = read_block(base + slot * stride, nwords)
        head = words[0]
        if head == key:
            return words[1:]
        if head == 0:
            return None
        slot = (slot + 1) & mask
        probes -= 1
    return None


class ShadowTableReader:
    """Monitor-side reader: :func:`lookup` bound to a read callback.

    ``read_block(addr, nwords)`` is typically ``PtraceHandle.readv`` — every
    probe is a real cross-process read with its cycle cost.
    """

    MAX_PROBES = MAX_PROBES

    def __init__(self, read_block, layout):
        self.read_block = read_block
        self.layout = layout

    def get(self, key):
        """Payload words for ``key``, or None if absent."""
        return lookup(self.read_block, self.layout, key, self.MAX_PROBES)
