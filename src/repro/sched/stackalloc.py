"""Collision-checked stack-slot allocation for child processes.

The seed placed a clone()d child's stack at
``STACK_TOP - (1 << 26) * ((pid % 64) + 1)``: once pids wrap past 64 (or a
long-running server spawns its 65th worker) two live children silently
share a stack region and corrupt each other's frames.  The allocator below
replaces the modulo with bookkeeping:

- slot 0 — the region directly below ``STACK_TOP`` — is reserved for the
  root process, whose CPU is created with ``stack_base=STACK_TOP``;
- each child gets the **lowest-numbered free slot** (deterministic across
  runs), recorded against its pid;
- :meth:`release` returns the slot to the free pool when the process exits
  (the scheduler releases it when a spawned child finishes), so pid reuse
  can never alias a *live* stack;
- handing the same slot to two live pids raises :class:`KernelError`
  instead of silently corrupting memory.
"""

import heapq

from repro.errors import KernelError

#: default per-process stack region (matches the seed's 64 MiB spacing)
STACK_SLOT_BYTES = 1 << 26


class StackSlotAllocator:
    """Deterministic allocator of disjoint stack regions below ``top``.

    Slot ``i`` (1-based for children) covers
    ``[top - (i + 1) * slot_bytes, top - i * slot_bytes)`` and the returned
    stack base is its top: ``top - i * slot_bytes``.
    """

    def __init__(self, top=None, slot_bytes=STACK_SLOT_BYTES, max_slots=4096):
        if top is None:
            from repro.vm.loader import STACK_TOP

            top = STACK_TOP
        self.top = top
        self.slot_bytes = slot_bytes
        self.max_slots = max_slots
        self._free = []  # min-heap of released slot indexes
        self._next = 1  # slot 0 is the root process's region
        self._slot_of = {}  # pid -> slot index
        self._owner_of = {}  # slot index -> pid
        #: lifetime counters (surfaced by scheduler stats / tests)
        self.allocated = 0
        self.released = 0
        self.high_water = 0

    def __len__(self):
        return len(self._slot_of)

    def base_of_slot(self, slot):
        """Stack base (highest address, grows down) of ``slot``."""
        return self.top - slot * self.slot_bytes

    def allocate(self, pid):
        """Reserve a slot for ``pid`` and return its stack base.

        Allocation is idempotent per pid: a pid that already holds a slot
        gets the same base back (the kernel may re-enter on a restarted
        clone).
        """
        if pid in self._slot_of:
            return self.base_of_slot(self._slot_of[pid])
        if self._free:
            slot = heapq.heappop(self._free)
        else:
            slot = self._next
            self._next += 1
        if slot >= self.max_slots:
            raise KernelError(
                "stack slots exhausted: %d live child stacks" % len(self._slot_of)
            )
        if slot in self._owner_of:
            raise KernelError(
                "stack slot %d already owned by pid %d"
                % (slot, self._owner_of[slot])
            )
        self._slot_of[pid] = slot
        self._owner_of[slot] = pid
        self.allocated += 1
        self.high_water = max(self.high_water, len(self._slot_of))
        return self.base_of_slot(slot)

    def release(self, pid):
        """Return ``pid``'s slot to the free pool (no-op if it holds none)."""
        slot = self._slot_of.pop(pid, None)
        if slot is None:
            return False
        del self._owner_of[slot]
        heapq.heappush(self._free, slot)
        self.released += 1
        return True

    def owner(self, slot):
        """pid currently holding ``slot`` (or None)."""
        return self._owner_of.get(slot)

    def slot_of(self, pid):
        """Slot index held by ``pid`` (or None)."""
        return self._slot_of.get(pid)
