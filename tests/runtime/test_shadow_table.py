"""Tests for the shadow-memory hash tables (writer + ptrace-side reader)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.runtime.shadow_table import (
    BINDINGS_LAYOUT,
    COPIES_LAYOUT,
    ShadowTable,
    ShadowTableLayout,
    ShadowTableReader,
)
from repro.vm.memory import Memory, WORD


def small_layout(base=0x7E00_0000_0000, capacity=16, entry_words=2):
    return ShadowTableLayout(base, capacity, entry_words)


class TestLayout:
    def test_capacity_power_of_two(self):
        with pytest.raises(ReproError):
            ShadowTableLayout(0x1000, 12, 2)

    def test_entry_addr(self):
        layout = small_layout()
        assert layout.entry_addr(0) == layout.base
        assert layout.entry_addr(1) == layout.base + 2 * WORD

    def test_default_layouts_disjoint(self):
        copies_end = COPIES_LAYOUT.entry_addr(COPIES_LAYOUT.capacity)
        assert copies_end <= BINDINGS_LAYOUT.base


class TestWriter:
    def test_put_get(self):
        table = ShadowTable(Memory(), small_layout())
        table.put(0x1000, (42,))
        assert table.get(0x1000) == [42]
        assert table.get(0x2000) is None

    def test_update_existing(self):
        table = ShadowTable(Memory(), small_layout())
        table.put(0x1000, (1,))
        table.put(0x1000, (2,))
        assert table.get(0x1000) == [2]

    def test_zero_key_rejected(self):
        with pytest.raises(ReproError):
            ShadowTable(Memory(), small_layout()).put(0, (1,))

    def test_collisions_probe_linearly(self):
        layout = small_layout(capacity=8)
        table = ShadowTable(Memory(), layout)
        # keys chosen to share a probe start often given tiny capacity
        keys = [0x1000 + i * 8 * layout.capacity for i in range(6)]
        for i, key in enumerate(keys):
            table.put(key, (i,))
        for i, key in enumerate(keys):
            assert table.get(key) == [i]

    def test_full_table_raises(self):
        layout = small_layout(capacity=4)
        table = ShadowTable(Memory(), layout)
        for i in range(4):
            table.put(0x1000 + i * 8, (i,))
        with pytest.raises(ReproError):
            table.put(0x9999998, (9,))

    def test_update_word(self):
        """One payload word written at the entry ``find`` locates, as the
        runtime's bind does: the key is claimed once, then found."""
        layout = small_layout(entry_words=4)
        memory = Memory()
        table = ShadowTable(memory, layout)
        addr, found = table.find(0x1000)
        assert not found and table.get(0x1000) is None
        memory.write(addr, 0x1000)
        memory.write(addr + 2 * WORD, 77)
        assert table.find(0x1000) == (addr, True)
        assert table.get(0x1000) == [0, 77, 0]


class TestReader:
    def test_reader_sees_writer_entries(self):
        memory = Memory()
        layout = small_layout()
        writer = ShadowTable(memory, layout)
        writer.put(0x1000, (123,))
        reader = ShadowTableReader(memory.read_block, layout)
        assert reader.get(0x1000) == [123]
        assert reader.get(0x2000) is None

    def test_reader_bounded_probing(self):
        memory = Memory()
        layout = small_layout(capacity=8)
        reader = ShadowTableReader(memory.read_block, layout)
        reader.MAX_PROBES = 2
        # fill everything so the probe limit is what stops the search
        writer = ShadowTable(memory, layout)
        for i in range(8):
            writer.put(0x1000 + i * 8 * 8, (i,))
        assert reader.get(0xDEAD008) is None

    @settings(max_examples=50)
    @given(
        entries=st.dictionaries(
            st.integers(min_value=1, max_value=1 << 40).map(lambda k: k * 8),
            st.integers(min_value=0, max_value=1 << 62),
            max_size=30,
        )
    )
    def test_roundtrip_property(self, entries):
        """Property: the reader recovers exactly what the writer stored."""
        memory = Memory()
        layout = ShadowTableLayout(0x7E00_0000_0000, 64, 2)
        writer = ShadowTable(memory, layout)
        for key, value in entries.items():
            writer.put(key, (value,))
        reader = ShadowTableReader(memory.read_block, layout)
        reader.MAX_PROBES = 64
        for key, value in entries.items():
            assert reader.get(key) == [value]
