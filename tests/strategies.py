"""Hypothesis strategies that generate whole IR programs.

:func:`programs` builds a valid module over :mod:`repro.ir.builder`: a
``main`` and up to three helpers, each a random sequence of operations
drawn from every instruction kind the VM executes.  Values range beyond
64 bits, memory accesses go to good, negative and unaligned addresses,
and loops, calls, a syscall wrapper, ``cycle_burn``, ``trace``, a
``hook`` point and the BASTION runtime's ``ctx_write_mem`` and
``ctx_bind_*`` intrinsics (constant and computed sizes, argument
positions in and out of range) appear.  Indirect calls pass fewer, as many or more
arguments than their callee takes, and some land on no function entry:
a helper's ``ret``, data, a misaligned address, or between text and
data.  Every loop has a constant trip count, a call (direct or indirect)
reaches only an earlier helper, and no generated write can reach a loop
counter or a saved frame word, so each program ends: by returning, by a
fault, or by an exception the reference VM raises too (a negative
``cycle_burn``, a float-overflowing ``//``, a bind position out of range).
"""

from hypothesis import strategies as st

from repro.ir.builder import ModuleBuilder
from repro.ir.instructions import BINOPS, CTX_BIND_CONST, CTX_BIND_MEM, CTX_WRITE_MEM, Imm
from repro.vm.loader import DATA_BASE, INSTR_STRIDE
from repro.vm.memory import WORD
from tests.conftest import make_wrapper

#: slots of the ``g_buf`` global that generated loads and stores address
BUF_SLOTS = 6

#: hook point every generated program may reach; see :func:`poke`
HOOK_POINT = "poke"

_VALUES = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.sampled_from([(1 << 63) - 1, -(1 << 63), 1 << 63, (1 << 64) - 1, 1 << 1100]),
)


def poke(cpu):
    """The generated programs' hook: writes beyond-64-bit values to memory,
    and traces the frame registers (a callee's frame is sized right)."""
    addr = cpu.image.global_addr["g_buf"] + WORD * (cpu.stats.steps % BUF_SLOTS)
    cpu.proc.memory.write(addr, (1 << 70) + cpu.stats.steps)
    cpu.proc.memory.write(cpu.image.global_addr["g_hook"], cpu.ledger.cycles)
    cpu.proc.trace_log.append(["poke", cpu.fp, cpu.sp])


class _Emitter:
    """Appends drawn operations to one function, tracking usable values."""

    def __init__(self, draw, fb, helpers):
        self.draw = draw
        self.fb = fb
        self.helpers = helpers  # the callable helpers' Functions
        self.values = [Imm(0)] + [fb.p(p) for p in fb.func.params]
        self.fb.const(0, dst="spill")

    def operand(self):
        if self.draw(st.booleans()):
            return self.draw(st.sampled_from(self.values))
        return Imm(self.draw(_VALUES))

    def keep(self, var):
        self.values.append(var)

    def buf_addr(self):
        base = self.fb.addr_global("g_buf")
        return self.fb.index(base, self.draw(st.integers(0, BUF_SLOTS - 1)))

    def bad_addr(self):
        kind = self.draw(st.sampled_from(["negative", "unaligned", "imm"]))
        if kind == "negative":
            return self.fb.sub(self.buf_addr(), 1 << 40)
        if kind == "unaligned":
            return self.fb.add(self.buf_addr(), self.draw(st.integers(1, 7)))
        return Imm(self.draw(st.sampled_from([-8, 3, 0x600003])))

    def ops(self, count, depth=0):
        outer = list(self.values)
        for _ in range(count):
            self.op(depth)
        if depth:
            # a value defined in a loop or branch body is not definitely
            # assigned after it (the validator rejects such uses)
            self.values[:] = outer

    def op(self, depth):
        fb = self.fb
        kind = self.draw(
            st.sampled_from(
                ["const", "binop", "binop", "binop", "move", "load", "store",
                 "local", "gep", "call", "icall", "icall", "icall", "syscall",
                 "burn", "trace", "hook", "loop", "if", "bad", "write_mem", "bind"]
            )
        )
        if kind == "const":
            self.keep(fb.const(self.draw(_VALUES)))
        elif kind == "binop":
            op = self.draw(st.sampled_from(BINOPS))
            self.keep(fb.binop(op, self.operand(), self.operand()))
        elif kind == "move":
            self.keep(fb.move(self.operand()))
        elif kind == "load":
            self.keep(fb.load(self.buf_addr()))
        elif kind == "store":
            fb.store(self.buf_addr(), self.operand())
        elif kind == "local":
            # a store through a pointer to a frame slot, then a reload
            ptr = fb.addr_local("spill")
            fb.store(ptr, self.operand())
            self.keep(fb.load(ptr))
            self.keep(fb.move("spill"))
        elif kind == "gep":
            field = self.draw(st.sampled_from(["a", "b"]))
            ptr = fb.gep(fb.addr_global("g_pair"), "pair_t", field)
            fb.store(ptr, self.operand())
            self.keep(fb.load(ptr))
        elif kind == "call" and self.helpers:
            helper = self.draw(st.sampled_from(self.helpers))
            self.keep(fb.call(helper.name, [self.operand() for _ in helper.params]))
        elif kind == "icall" and self.helpers:
            self.icall()
        elif kind == "syscall":
            self.keep(fb.call("getpid", []))
        elif kind == "burn":
            if self.draw(st.booleans()):
                fb.burn(self.draw(st.integers(min_value=-2, max_value=50)))
            else:
                fb.burn(fb.binop("%", self.operand(), 64))  # may be negative
        elif kind == "trace":
            fb.intrinsic("trace", [self.operand() for _ in range(self.draw(st.integers(1, 2)))])
        elif kind == "hook":
            fb.hook(HOOK_POINT)
        elif kind == "write_mem":
            addr = self.buf_addr() if self.draw(st.integers(0, 4)) else self.bad_addr()
            if self.draw(st.booleans()):
                size = Imm(self.draw(st.integers(min_value=-1, max_value=3)))
            else:
                size = fb.binop("%", self.operand(), 4)  # computed; may be negative
            fb.intrinsic(CTX_WRITE_MEM, [addr, size])
        elif kind == "bind":
            name = self.draw(st.sampled_from([CTX_BIND_MEM, CTX_BIND_CONST]))
            value = self.buf_addr() if name == CTX_BIND_MEM else self.operand()
            fb.intrinsic(
                name,
                [value],
                callsite_index=self.draw(st.integers(0, 40)),
                pos=self.draw(st.sampled_from([1, 2, 3, 4, 5, 6, 1, 2, 0, 7])),
            )
        elif kind == "loop" and depth < 2:

            def body(counter):
                self.keep(counter)
                self.ops(self.draw(st.integers(1, 4)), depth + 1)

            fb.loop_range(self.draw(st.integers(min_value=0, max_value=4)), body)
        elif kind == "if" and depth < 2:
            cond = fb.binop(self.draw(st.sampled_from(["<", "==", "&"])),
                            self.operand(), self.operand())
            fb.if_then(
                cond,
                lambda: self.ops(self.draw(st.integers(1, 3)), depth + 1),
                lambda: self.ops(self.draw(st.integers(0, 2)), depth + 1),
            )
        elif kind == "bad":
            self.bad_access()

    def icall(self):
        """An indirect call with 0-3 arguments, whatever the target's arity."""
        target = self.icall_target()
        args = [self.operand() for _ in range(self.draw(st.integers(0, 3)))]
        if self.draw(st.booleans()):
            self.keep(self.fb.icall(target, args))
        else:
            self.fb.icall(target, args, void=True)

    def icall_target(self):
        """Mostly an earlier helper's entry; else an address that is none."""
        fb = self.fb
        helper = self.draw(st.sampled_from(self.helpers))
        kind = self.draw(
            st.sampled_from(["entry", "entry", "ret", "ret", "ret", "data", "plus", "gap"])
        )
        if kind == "entry":
            return fb.funcaddr(helper.name)
        if kind == "ret":
            last = INSTR_STRIDE * (len(helper.body) - 1)
            return fb.add(fb.funcaddr(helper.name), last)
        if kind == "data":
            return fb.addr_global("g_buf")
        if kind == "plus":
            return fb.add(fb.funcaddr(helper.name), self.draw(st.integers(1, 3)))
        return Imm(DATA_BASE - WORD)  # past the text, before the data

    def bad_access(self):
        """A load or store that faults."""
        if self.draw(st.booleans()):
            self.keep(self.fb.load(self.bad_addr()))
        else:
            self.fb.store(self.bad_addr(), self.operand())

    def ret(self):
        self.fb.ret(self.operand())


@st.composite
def programs(draw):
    """A random valid module whose ``main`` ends (see module docstring)."""
    mb = ModuleBuilder("gen")
    mb.struct("pair_t", ["a", "b"])
    mb.global_words("g_buf", draw(st.lists(_VALUES, min_size=BUF_SLOTS, max_size=BUF_SLOTS)))
    mb.global_var("g_pair", size=2, struct="pair_t")
    mb.global_var("g_hook")
    make_wrapper(mb, "getpid", 0)
    helpers = []
    for k in range(draw(st.integers(min_value=0, max_value=3))):
        arity = draw(st.integers(min_value=0, max_value=2))
        fb = mb.function("f%d" % k, params=["p%d" % i for i in range(arity)])
        emitter = _Emitter(draw, fb, list(helpers))  # calls only earlier helpers
        emitter.ops(draw(st.integers(min_value=1, max_value=8)))
        emitter.ret()
        helpers.append(fb.func)
    emitter = _Emitter(draw, mb.function("main"), helpers)
    if helpers and draw(st.booleans()):
        emitter.icall()  # reached before any generated fault
    emitter.ops(draw(st.integers(min_value=1, max_value=16)))
    if draw(st.booleans()):
        emitter.bad_access()
    emitter.ret()
    return mb.build()
