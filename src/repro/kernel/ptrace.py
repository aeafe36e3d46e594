"""The monitor's view into a traced process.

The BASTION monitor runs in a separate process and can only learn about the
protected application through this interface (§7.1): PTRACE_GETREGS for the
register file, PTRACE_PEEKDATA / ``process_vm_readv`` for memory (stack
frames, argument pointees, the shadow region).  Every call charges realistic
cycle costs to the run's ledger — the dominant overhead the paper measures
in Table 7.  A read of a bad address is charged, then fails (``PtraceError``).

For the §11.2 ablation ("run the monitor inside the kernel"), construct the
handle with ``transport="inkernel"``: the same API, but each access costs a
direct memory read instead of a cross-process round trip.
"""

from repro.errors import MonitorError, PtraceError, SegmentationFault
from repro.kernel.errno import EFAULT, EIO
from repro.kernel.process import RegisterFile
from repro.vm.memory import WORD


class PtraceHandle:
    """Tracer-side accessor for one traced process.

    Each call charges the tracee's ledger with one inline update: the
    transport's cost rule (base cost plus a per-word cost, and the ledger
    category) is resolved once, here.  A negative charge goes through
    ``CycleLedger.charge``, which refuses it.
    """

    def __init__(self, proc, costs, transport="ptrace"):
        if transport not in ("ptrace", "inkernel"):
            raise MonitorError("unknown ptrace transport %r" % transport)
        self.proc = proc
        self.costs = costs
        self.transport = transport
        self.getregs_calls = 0
        self.peek_calls = 0
        self.readv_calls = 0
        self.words_read = 0
        if transport == "inkernel":
            access = costs.inkernel_state_access
            self._getregs_cost, self._peek_cost = access, access + 1
            self._readv_base, self._per_word = access, 1
            self._category = "monitor"
        else:
            self._getregs_cost = costs.ptrace_getregs
            self._peek_cost = costs.ptrace_peek + costs.readv_per_word
            self._readv_base, self._per_word = costs.readv_base, costs.readv_per_word
            self._category = "ptrace"

    # -- the ptrace surface ---------------------------------------------------

    def getregs(self):
        """PTRACE_GETREGS, read from the syscall in flight (``proc.syscall``)."""
        self.getregs_calls += 1
        self.proc.ledger.charge(self._getregs_cost, self._category)
        return RegisterFile.of(self.proc.syscall)

    def peekdata(self, addr):
        """PTRACE_PEEKDATA: one word of tracee memory."""
        self.peek_calls += 1
        self.words_read += 1
        proc = self.proc
        cost = self._peek_cost
        ledger = proc.ledger
        if cost >= 0:
            ledger.cycles += cost
            by_category = ledger.by_category
            by_category[self._category] = by_category.get(self._category, 0) + cost
        else:
            ledger.charge(cost, self._category)
        try:
            return proc.memory.read(addr)
        except SegmentationFault as fault:
            raise PtraceError(EIO, "PTRACE_PEEKDATA: %s" % fault) from None

    def readv(self, addr, nwords):
        """process_vm_readv: a block of tracee memory in one round trip."""
        self.readv_calls += 1
        self.words_read += nwords
        proc = self.proc
        cost = self._readv_base + self._per_word * nwords
        ledger = proc.ledger
        if cost >= 0:
            ledger.cycles += cost
            by_category = ledger.by_category
            by_category[self._category] = by_category.get(self._category, 0) + cost
        else:
            ledger.charge(cost, self._category)
        try:
            return proc.memory.read_block(addr, nwords)
        except SegmentationFault as fault:
            raise PtraceError(EFAULT, "process_vm_readv: %s" % fault) from None

    def read_cstr(self, addr, max_slots=256):
        """Read a NUL-terminated string via chunked readv."""
        chars = []
        chunk = 32
        offset = 0
        while offset < max_slots:
            words = self.readv(addr + offset * WORD, chunk)
            for word in words:
                if word == 0:
                    return "".join(chars)
                chars.append(chr(word & 0x10FFFF))
            offset += chunk
        return "".join(chars)

    def read_vector(self, addr, max_entries=32):
        """Read a NULL-terminated pointer vector via readv."""
        words = self.readv(addr, max_entries)
        out = []
        for word in words:
            if word == 0:
                break
            out.append(word)
        return out

    def kill_tracee(self, reason):
        """Terminate the tracee (the monitor's verdict on a violation)."""
        self.proc.kill(reason)
