"""Sparse, word-granular simulated memory.

One addressable slot per 8-byte-aligned address; each slot holds one Python
int.  Strings are stored C-style, one character code per slot with a NUL
terminator (see DESIGN.md §6).  Reads of unmapped slots return 0 — the
region/permission machinery lives in the kernel's mm, while this class is
the raw backing store both the application *and* the attacker touch.

The bulk helpers (:meth:`Memory.read_block`, :meth:`Memory.write_block`,
:meth:`Memory.read_cstr`, :meth:`Memory.write_cstr`,
:meth:`Memory.read_vector`) move a run of slots with one address check:
a valid start makes every later slot of the run valid, so only the start
is checked, and only when the run touches a slot at all.  Each behaves
exactly like a loop of one :meth:`Memory.read` or :meth:`Memory.write`
per slot: a bad start raises that loop's first fault, and a non-int
value raises the same ``TypeError`` after the same partial writes.
"""

from repro.errors import SegmentationFault

#: Bytes per slot (addresses step by this much between adjacent slots).
WORD = 8


class Memory:
    """Word-granular sparse memory."""

    def __init__(self):
        self._words = {}

    def read(self, addr):
        """Read the slot at ``addr`` (0 if never written)."""
        # Fast path: a well-formed address needs no isinstance checks.
        # ``True`` (a bool) fails the alignment test and falls through to
        # ``_check``, which reproduces the exact fault for every bad input.
        if type(addr) is int and addr >= 0 and not addr & 7:
            return self._words.get(addr, 0)
        self._check(addr)
        return self._words.get(addr, 0)

    def write(self, addr, value):
        """Write one slot."""
        if type(addr) is int and addr >= 0 and not addr & 7:
            if not isinstance(value, int):
                raise TypeError("memory stores ints, got %r" % (value,))
            self._words[addr] = value
            return
        self._check(addr)
        if not isinstance(value, int):
            raise TypeError("memory stores ints, got %r" % (value,))
        self._words[addr] = value

    def _check(self, addr):
        if not isinstance(addr, int):
            raise SegmentationFault("non-integer address %r" % (addr,))
        if addr < 0:
            raise SegmentationFault("negative address %#x" % addr)
        if addr % WORD:
            raise SegmentationFault("unaligned access at %#x" % addr)

    def _start(self, addr):
        """The first slot of a run at ``addr``, checked as the run's first
        per-slot access would check it (``addr + 0`` included, so a
        non-number raises the same ``TypeError``)."""
        first = addr + 0
        if type(first) is not int or first < 0 or first & 7:
            self._check(first)
        return first

    # -- bulk helpers ----------------------------------------------------

    def read_block(self, addr, nwords):
        """Read ``nwords`` consecutive slots."""
        if type(addr) is int and addr >= 0 and not addr & 7 and type(nwords) is int:
            # Fast path, as in ``read``.  Two words is the monitor's usual
            # read: a frame's [saved fp, return address], a shadow copy.
            get = self._words.get
            if nwords == 2:
                return [get(addr, 0), get(addr + WORD, 0)]
            return [get(slot, 0) for slot in range(addr, addr + WORD * nwords, WORD)]
        span = range(nwords)
        if not span:
            return []
        first = self._start(addr)
        get = self._words.get
        return [get(slot, 0) for slot in range(first, first + WORD * nwords, WORD)]

    def write_block(self, addr, words):
        """Write consecutive slots from an iterable of ints."""
        store = self._words
        if type(words) is bytes:  # every item is an int
            if words:
                first = self._start(addr)
                store.update(zip(range(first, first + WORD * len(words), WORD), words))
            return
        slot = None
        for value in words:
            if slot is None:
                slot = self._start(addr)
            if not isinstance(value, int):
                raise TypeError("memory stores ints, got %r" % (value,))
            store[slot] = value
            slot += WORD

    def read_cstr(self, addr, max_slots=4096):
        """Read a NUL-terminated string starting at ``addr``."""
        return "".join([chr(word & 0x10FFFF) for word in self.read_vector(addr, max_slots)])

    def write_cstr(self, addr, text):
        """Write ``text`` as a NUL-terminated string; returns slots used."""
        self.write_block(addr, map(ord, text))
        self.write(addr + len(text) * WORD, 0)
        return len(text) + 1

    def read_vector(self, addr, max_entries=64):
        """Read a NULL-terminated pointer vector (argv/envp style)."""
        span = range(max_entries)
        if not span:
            return []
        first = self._start(addr)
        get = self._words.get
        out = []
        for slot in range(first, first + WORD * max_entries, WORD):
            word = get(slot, 0)
            if word == 0:
                break
            out.append(word)
        return out

    def snapshot_region(self, addr, nwords):
        """Copy of a region as a tuple (for tests and attack staging)."""
        return tuple(self.read_block(addr, nwords))

    def mapped_count(self):
        """How many slots have ever been written (diagnostics)."""
        return len(self._words)
