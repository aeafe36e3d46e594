"""Tests for the application-side BASTION runtime (Table 2 API)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.ir.builder import ModuleBuilder
from repro.kernel.kernel import Kernel
from repro.runtime.bastion_rt import BastionRuntime
from repro.runtime.shadow_table import (
    BIND_CONST,
    BIND_MEM,
    BINDINGS_LAYOUT,
    COPIES_LAYOUT,
    ShadowTable,
    ShadowTableLayout,
    ShadowTableReader,
)
from repro.vm.loader import Image, SHADOW_BASE
from repro.vm.memory import WORD


@pytest.fixture
def rt():
    proc = Kernel().create_process("t")
    return BastionRuntime(proc)


def _copies_reader(rt):
    return ShadowTableReader(rt.proc.memory.read_block, COPIES_LAYOUT)


def _bindings_reader(rt):
    return ShadowTableReader(rt.proc.memory.read_block, BINDINGS_LAYOUT)


class TestCtxWriteMem:
    def test_records_current_value(self, rt):
        rt.proc.memory.write(0x5000, 77)
        rt.ctx_write_mem(0x5000)
        assert _copies_reader(rt).get(0x5000) == [77]

    def test_multi_slot(self, rt):
        rt.proc.memory.write_block(0x5000, [1, 2, 3])
        rt.ctx_write_mem(0x5000, 3)
        reader = _copies_reader(rt)
        assert reader.get(0x5000) == [1]
        assert reader.get(0x5000 + WORD) == [2]
        assert reader.get(0x5000 + 2 * WORD) == [3]

    def test_refresh_overwrites(self, rt):
        rt.proc.memory.write(0x5000, 1)
        rt.ctx_write_mem(0x5000)
        rt.proc.memory.write(0x5000, 2)
        rt.ctx_write_mem(0x5000)
        assert _copies_reader(rt).get(0x5000) == [2]
        assert rt.write_count == 2


class TestCtxBind:
    def test_bind_mem(self, rt):
        rt.ctx_bind_mem(0x400010, 3, 0x5000)
        record = _bindings_reader(rt).get(0x400010)
        # record layout: [argmask, (kind, payload) x 6]
        assert record[0] == 1 << 2
        assert record[1 + 2 * 2] == BIND_MEM
        assert record[2 + 2 * 2] == 0x5000

    def test_bind_const(self, rt):
        rt.ctx_bind_const(0x400010, 1, -1 & ((1 << 64) - 1))
        record = _bindings_reader(rt).get(0x400010)
        assert record[1] == BIND_CONST

    def test_mask_accumulates(self, rt):
        rt.ctx_bind_mem(0x400010, 1, 0x5000)
        rt.ctx_bind_const(0x400010, 4, 9)
        record = _bindings_reader(rt).get(0x400010)
        assert record[0] == (1 << 0) | (1 << 3)

    def test_rebind_overwrites(self, rt):
        rt.ctx_bind_mem(0x400010, 1, 0x5000)
        rt.ctx_bind_mem(0x400010, 1, 0x6000)
        record = _bindings_reader(rt).get(0x400010)
        assert record[2] == 0x6000

    def test_position_bounds(self, rt):
        with pytest.raises(ValueError):
            rt.ctx_bind_mem(0x400010, 0, 0x5000)
        with pytest.raises(ValueError):
            rt.ctx_bind_mem(0x400010, 7, 0x5000)


class TestGlobalSeeding:
    def test_initialize_globals(self):
        mb = ModuleBuilder("t")
        mb.global_string("path", "/bin/true")
        mb.global_var("flag", init=5)
        f = mb.function("main")
        f.ret(0)
        image = Image(mb.build())
        kernel = Kernel()
        proc = kernel.create_process("t", image)
        rt = BastionRuntime(proc)
        rt.initialize_globals(image, ["path", "flag", "missing_is_ok"])
        reader = _copies_reader(rt)
        base = image.global_addr["path"]
        assert reader.get(base) == [ord("/")]
        assert reader.get(base + 8 * WORD) == [ord("e")]
        assert reader.get(base + 9 * WORD) == [0]  # NUL terminator tracked too
        assert reader.get(image.global_addr["flag"]) == [5]


# ----------------------------------------------------------------------
# one-probe updates against the get-then-put reference
# ----------------------------------------------------------------------


class TwoProbeTable(ShadowTable):
    """The reference table: a generator probe per lookup, so an update is a
    ``get`` and then a ``put``/``update_word``, each probing afresh."""

    def _find_slot(self, key, create):
        for slot in self.layout.probe_sequence(key):
            addr = self.layout.entry_addr(slot)
            existing = self.memory.read(addr)
            if existing == key:
                return addr
            if existing == 0:
                if create:
                    self.memory.write(addr, key)
                    return addr
                return None
        raise ReproError("shadow table full (capacity %d)" % self.layout.capacity)

    def put(self, key, values):
        if key == 0:
            raise ReproError("shadow table key must be nonzero")
        addr = self._find_slot(key, create=True)
        for i, value in enumerate(values, start=1):
            self.memory.write(addr + i * WORD, value)
        return addr

    def get(self, key):
        addr = self._find_slot(key, create=False)
        if addr is None:
            return None
        return self.memory.read_block(addr + WORD, self.layout.entry_words - 1)

    def update_word(self, key, offset, value):
        addr = self._find_slot(key, create=True)
        self.memory.write(addr + offset * WORD, value)
        return addr


class TwoProbeRuntime(BastionRuntime):
    """The reference runtime: each update probes twice."""

    def ctx_write_mem(self, addr, size=1):
        memory = self.proc.memory
        for i in range(max(size, 1)):
            slot_addr = addr + i * WORD
            value = memory.read(slot_addr)
            previous = self.copies.get(slot_addr)
            self.copies.put(slot_addr, (value,))
            if previous is None or previous[0] != value:
                for listener in self._listeners:
                    listener.on_shadow_write(slot_addr)
        self.write_count += 1

    def _bind(self, callsite_addr, position, kind, payload):
        if not 1 <= position <= self.MAX_ARGS:
            raise ValueError("argument position %d out of range" % position)
        memory = self.proc.memory
        offset = 2 + (position - 1) * 2
        previous = self.bindings.get(callsite_addr)
        entry = self.bindings.update_word(callsite_addr, offset, kind)
        payload_addr = entry + (offset + 1) * WORD
        memory.write(payload_addr, payload)
        mask_addr = entry + WORD
        mask = memory.read(mask_addr)
        memory.write(mask_addr, mask | (1 << (position - 1)))
        self.bind_count += 1
        changed = (
            previous is None
            or previous[offset - 1] != kind
            or previous[offset] != payload
        )
        if changed:
            for listener in self._listeners:
                listener.on_bind_write(callsite_addr)


#: small tables, so keys collide and a table fills
SMALL_COPIES = ShadowTableLayout(SHADOW_BASE, 8, 2)
SMALL_BINDINGS = ShadowTableLayout(SHADOW_BASE + 0x1000, 4, 14)

variable_addrs = st.integers(0, 11).map(lambda i: 0x5000 + i * WORD) | st.just(0)
callsites = st.integers(0, 5).map(lambda i: 0x400000 + i * 4 * 64)
payloads = st.integers(-2, 2) | st.integers(-(1 << 64), 1 << 64) | st.just("x")

runtime_ops = st.one_of(
    st.tuples(st.just("store"), variable_addrs, st.integers(-2, 2)),
    # the bool: an attacker first planted the value about to be recorded
    # in the empty entry the update will claim
    st.tuples(st.just("ctx_write_mem"), variable_addrs, st.integers(-1, 4), st.booleans()),
    st.tuples(st.just("ctx_bind_mem"), callsites, st.integers(0, 7), payloads, st.booleans()),
    st.tuples(st.just("ctx_bind_const"), callsites, st.integers(0, 7), payloads, st.booleans()),
    # an arbitrary write of payload words anywhere in a table
    st.tuples(
        st.just("plant"),
        st.sampled_from([SMALL_COPIES, SMALL_BINDINGS]),
        st.integers(0, 7),
        st.integers(1, 13),
        st.lists(st.integers(-1, 2), min_size=1, max_size=2),
    ),
)


def _plant_update(memory, op):
    """Before an update, write what it will record into the entry its key
    probes first, so only the entry's creation tells the update apart."""
    if op[0] == "ctx_write_mem":
        key, words = op[1], [memory.read(op[1])]
        layout, offset = SMALL_COPIES, 1
    else:
        key, position, payload = op[1:4]
        if not 1 <= position <= BastionRuntime.MAX_ARGS or type(payload) is not int:
            return
        kind = BIND_MEM if op[0] == "ctx_bind_mem" else BIND_CONST
        words = [kind, payload]
        layout, offset = SMALL_BINDINGS, 2 + (position - 1) * 2
    entry = layout.entry_addr(next(layout.probe_sequence(key)))
    memory.write_block(entry + offset * WORD, words)


class _Log:
    def __init__(self):
        self.calls = []

    def on_shadow_write(self, addr):
        self.calls.append(("shadow", addr))

    def on_bind_write(self, site):
        self.calls.append(("bind", site))


def _replay(runtime_class, table_class, ops):
    proc = Kernel().create_process("t")
    rt = runtime_class(proc)
    rt.copies = table_class(proc.memory, SMALL_COPIES)
    rt.bindings = table_class(proc.memory, SMALL_BINDINGS)
    log = _Log()
    rt.subscribe(log)
    outcomes = []
    for op in ops:
        try:
            if op[0] == "store":
                proc.memory.write(op[1], op[2])
            elif op[0] == "plant":
                _, layout, entry, word, values = op
                addr = layout.entry_addr(entry % layout.capacity)
                for i, value in enumerate(values):
                    proc.memory.write(addr + (word + i) % layout.entry_words * WORD, value)
            else:
                if op[-1]:
                    _plant_update(proc.memory, op)
                getattr(rt, op[0])(*op[1:-1])
            outcomes.append(None)
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
    return (
        outcomes,
        log.calls,
        rt.write_count,
        rt.bind_count,
        list(proc.memory._words.items()),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(runtime_ops, min_size=1, max_size=40))
def test_one_probe_updates_equal_get_then_put(ops):
    """Same memory, same ordered listener calls, same counters, same
    errors (a full table, a zero key, a bad position or payload)."""
    assert _replay(BastionRuntime, ShadowTable, ops) == _replay(
        TwoProbeRuntime, TwoProbeTable, ops
    )
