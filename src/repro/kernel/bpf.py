"""A classic-BPF (cBPF) instruction VM — the engine under seccomp filters.

Implements the subset of cBPF that seccomp filters use: 32-bit absolute
loads from ``struct seccomp_data``, immediate/accumulator ALU, conditional
and unconditional jumps, and returns.  Instruction encoding follows
``<linux/filter.h>``: each instruction is ``(code, jt, jf, k)``.

The BASTION monitor generates real programs through :mod:`repro.kernel.seccomp`
and the kernel evaluates them here on every syscall — so seccomp's
evaluation cost scales with actual filter length, as in Table 7 row 1.
"""

from dataclasses import dataclass

from repro.errors import KernelError

# -- instruction classes -----------------------------------------------------
BPF_LD = 0x00
BPF_LDX = 0x01
BPF_ST = 0x02
BPF_ALU = 0x04
BPF_JMP = 0x05
BPF_RET = 0x06
BPF_MISC = 0x07

# -- size / mode --------------------------------------------------------------
BPF_W = 0x00
BPF_IMM = 0x00
BPF_ABS = 0x20
BPF_MEM = 0x60

# -- ALU / JMP ops -------------------------------------------------------------
BPF_ADD = 0x00
BPF_SUB = 0x10
BPF_MUL = 0x20
BPF_DIV = 0x30
BPF_AND = 0x50
BPF_OR = 0x40
BPF_LSH = 0x60
BPF_RSH = 0x70
BPF_JA = 0x00
BPF_JEQ = 0x10
BPF_JGT = 0x20
BPF_JGE = 0x30
BPF_JSET = 0x40

# -- sources -------------------------------------------------------------------
BPF_K = 0x00
BPF_X = 0x08
BPF_A = 0x10

_U32 = 0xFFFFFFFF

#: ``struct seccomp_data`` field offsets (x86-64).
SECCOMP_DATA_NR = 0
SECCOMP_DATA_ARCH = 4
SECCOMP_DATA_IP_LO = 8
SECCOMP_DATA_IP_HI = 12
SECCOMP_DATA_ARGS = 16  # six u64 args follow, lo/hi pairs
SECCOMP_DATA_SIZE = 64  # sizeof(struct seccomp_data)

#: scratch memory slots (``BPF_MEMWORDS``)
BPF_MEMWORDS = 16

AUDIT_ARCH_X86_64 = 0xC000003E


@dataclass(frozen=True)
class BPFInstruction:
    """One cBPF instruction: ``(code, jt, jf, k)``."""

    code: int
    jt: int
    jf: int
    k: int


def stmt(code, k):
    """A non-jump statement (``BPF_STMT`` macro)."""
    return BPFInstruction(code, 0, 0, k & _U32)


def jump(code, k, jt, jf):
    """A conditional jump (``BPF_JUMP`` macro)."""
    return BPFInstruction(code, jt, jf, k & _U32)


@dataclass(frozen=True)
class SeccompData:
    """The data cBPF loads from: syscall nr, arch, ip, and six u64 args."""

    nr: int
    arch: int = AUDIT_ARCH_X86_64
    instruction_pointer: int = 0
    args: tuple = (0, 0, 0, 0, 0, 0)

    def load32(self, offset):
        """32-bit little-endian load at ``offset`` into seccomp_data."""
        if offset == SECCOMP_DATA_NR:
            return self.nr & _U32
        if offset == SECCOMP_DATA_ARCH:
            return self.arch & _U32
        if offset == SECCOMP_DATA_IP_LO:
            return self.instruction_pointer & _U32
        if offset == SECCOMP_DATA_IP_HI:
            return (self.instruction_pointer >> 32) & _U32
        if SECCOMP_DATA_ARGS <= offset < SECCOMP_DATA_ARGS + 6 * 8:
            rel = offset - SECCOMP_DATA_ARGS
            arg = self.args[rel // 8] if rel // 8 < len(self.args) else 0
            if rel % 8 == 0:
                return arg & _U32
            if rel % 8 == 4:
                return (arg >> 32) & _U32
        raise KernelError("bad seccomp_data load offset %d" % offset)


class BPFProgram:
    """A validated cBPF program, executable against :class:`SeccompData`.

    The constructor makes Linux's load-time checks (``bpf_check_classic``
    and ``seccomp_check_filter``) for everything :meth:`run` executes:
    every jump lands inside the program, every scratch index is below
    ``BPF_MEMWORDS``, and every absolute load is an aligned word inside
    ``struct seccomp_data``.
    """

    MAX_INSNS = 4096

    def __init__(self, instructions):
        instructions = list(instructions)
        if not instructions:
            raise KernelError("empty BPF program")
        if len(instructions) > self.MAX_INSNS:
            raise KernelError("BPF program too long")
        for pc, ins in enumerate(instructions):
            cls = ins.code & 0x07
            mode = ins.code & 0xE0
            if cls == BPF_JMP:
                reach = ins.k if ins.code & 0xF0 == BPF_JA else max(ins.jt, ins.jf)
                if pc + 1 + reach >= len(instructions):
                    raise KernelError("BPF jump out of range at %d" % pc)
            elif cls == BPF_LD and mode == BPF_ABS:
                if not 0 <= ins.k < SECCOMP_DATA_SIZE or ins.k & 3:
                    raise KernelError("bad seccomp_data load offset %d at %d" % (ins.k, pc))
            elif (
                cls == BPF_ST
                or (cls == BPF_LD and mode == BPF_MEM)
                or (cls == BPF_LDX and mode != BPF_IMM)
            ):
                if not 0 <= ins.k < BPF_MEMWORDS:
                    raise KernelError("BPF scratch slot %d out of range at %d" % (ins.k, pc))
        # Linux requires provable termination; we require a final RET.
        if instructions[-1].code & 0x07 != BPF_RET:
            raise KernelError("BPF program must end in RET")
        self.instructions = instructions

    def __len__(self):
        return len(self.instructions)

    def run(self, data):
        """Execute against ``data``; returns ``(action, instructions_run)``."""
        acc = 0
        idx_reg = 0
        scratch = [0] * BPF_MEMWORDS
        pc = 0
        executed = 0
        insns = self.instructions
        while pc < len(insns):
            ins = insns[pc]
            executed += 1
            cls = ins.code & 0x07
            if cls == BPF_LD:
                mode = ins.code & 0xE0
                if mode == BPF_ABS:
                    acc = data.load32(ins.k)
                elif mode == BPF_IMM:
                    acc = ins.k
                elif mode == BPF_MEM:
                    acc = scratch[ins.k]
                else:
                    raise KernelError("bad LD mode %#x" % ins.code)
            elif cls == BPF_LDX:
                idx_reg = ins.k if (ins.code & 0xE0) == BPF_IMM else scratch[ins.k]
            elif cls == BPF_ST:
                scratch[ins.k] = acc
            elif cls == BPF_ALU:
                src = idx_reg if ins.code & BPF_X else ins.k
                op = ins.code & 0xF0
                if op == BPF_ADD:
                    acc = (acc + src) & _U32
                elif op == BPF_SUB:
                    acc = (acc - src) & _U32
                elif op == BPF_MUL:
                    acc = (acc * src) & _U32
                elif op == BPF_DIV:
                    acc = 0 if src == 0 else (acc // src) & _U32
                elif op == BPF_AND:
                    acc &= src
                elif op == BPF_OR:
                    acc |= src
                elif op == BPF_LSH:
                    acc = (acc << (src & 31)) & _U32
                elif op == BPF_RSH:
                    acc = (acc >> (src & 31)) & _U32
                else:
                    raise KernelError("bad ALU op %#x" % ins.code)
            elif cls == BPF_JMP:
                op = ins.code & 0xF0
                src = idx_reg if ins.code & BPF_X else ins.k
                if op == BPF_JA:
                    pc += ins.k + 1
                    continue
                if op == BPF_JEQ:
                    taken = acc == src
                elif op == BPF_JGT:
                    taken = acc > src
                elif op == BPF_JGE:
                    taken = acc >= src
                elif op == BPF_JSET:
                    taken = bool(acc & src)
                else:
                    raise KernelError("bad JMP op %#x" % ins.code)
                pc += 1 + (ins.jt if taken else ins.jf)
                continue
            elif cls == BPF_RET:
                value = acc if (ins.code & 0x18) == BPF_A else ins.k
                return value, executed
            else:
                raise KernelError("bad BPF class %#x" % ins.code)
            pc += 1
        raise KernelError("BPF program fell off the end")
