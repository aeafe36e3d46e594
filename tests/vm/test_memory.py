"""Tests (incl. property-based) for the simulated memory."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SegmentationFault
from repro.vm.memory import Memory, WORD

addresses = st.integers(min_value=0, max_value=1 << 47).map(lambda a: a * WORD)
values = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


class PerWord(Memory):
    """The reference: each bulk helper as one ``read``/``write`` per slot."""

    def read_block(self, addr, nwords):
        return [self.read(addr + i * WORD) for i in range(nwords)]

    def write_block(self, addr, words):
        for i, value in enumerate(words):
            self.write(addr + i * WORD, value)

    def read_cstr(self, addr, max_slots=4096):
        chars = []
        for i in range(max_slots):
            word = self.read(addr + i * WORD)
            if word == 0:
                return "".join(chars)
            chars.append(chr(word & 0x10FFFF))
        return "".join(chars)

    def write_cstr(self, addr, text):
        for i, ch in enumerate(text):
            self.write(addr + i * WORD, ord(ch))
        self.write(addr + len(text) * WORD, 0)
        return len(text) + 1

    def read_vector(self, addr, max_entries=64):
        out = []
        for i in range(max_entries):
            word = self.read(addr + i * WORD)
            if word == 0:
                break
            out.append(word)
        return out


#: where the seeded words live; valid starts fall in and around them
SEED_BASE = 0x1000

starts = st.one_of(
    st.integers(-8, 80).map(lambda i: SEED_BASE + i * WORD),
    st.integers(1, 1 << 20).map(lambda a: -a),
    st.tuples(st.integers(0, 80), st.integers(1, 7)).map(
        lambda t: SEED_BASE + t[0] * WORD + t[1]
    ),
    st.just("0x1000"),
    st.just(True),
)
#: a two-word read (the monitor's usual one) has its own fast path
lengths = st.one_of(
    st.just(0), st.integers(-3, -1), st.integers(1, 4), st.integers(1, 600), st.just(2.0)
)
slot_values = st.one_of(
    st.integers(0, 255),
    st.integers(-(1 << 70), 1 << 70),
    st.sampled_from([0, True]),
)


@st.composite
def value_runs(draw):
    """Values for ``write_block``, some with a non-int at a random place,
    and the container to pass them in (bytes only when they fit)."""
    run = draw(st.lists(slot_values, max_size=600))
    if draw(st.booleans()):
        run.insert(draw(st.integers(0, len(run))), draw(st.sampled_from(["x", None, 1.5])))
    kinds = ["list", "tuple", "iterator"]
    if all(type(v) is int and 0 <= v < 256 for v in run):
        kinds.append("bytes")
    return draw(st.sampled_from(kinds)), run


@st.composite
def bulk_calls(draw):
    """One bulk-helper call: (method name, start, argument)."""
    name = draw(st.sampled_from(
        ["read_block", "write_block", "read_cstr", "write_cstr", "read_vector"]
    ))
    if name == "write_block":
        arg = draw(value_runs())
    elif name == "write_cstr":
        arg = draw(st.text(max_size=40))
    else:
        arg = draw(lengths)
    return name, draw(starts), arg


_CONTAINERS = {"list": list, "tuple": tuple, "iterator": iter, "bytes": bytes}


def _outcome(memory, name, start, arg):
    """What one call leaves observable: its result or exception, and
    every slot (in write order)."""
    if name == "write_block":
        kind, run = arg
        arg = _CONTAINERS[kind](run)
    try:
        result = ("returned", getattr(memory, name)(start, arg))
    except Exception as exc:
        result = ("raised", type(exc), str(exc))
    return result, list(memory._words.items())


class TestBasics:
    def test_unwritten_reads_zero(self):
        assert Memory().read(0x1000) == 0

    def test_write_read(self):
        m = Memory()
        m.write(0x1000, 42)
        assert m.read(0x1000) == 42

    def test_unaligned_rejected(self):
        m = Memory()
        with pytest.raises(SegmentationFault):
            m.read(0x1001)
        with pytest.raises(SegmentationFault):
            m.write(0x1004, 1)

    def test_negative_address_rejected(self):
        with pytest.raises(SegmentationFault):
            Memory().read(-8)

    def test_non_integer_address_rejected(self):
        with pytest.raises(SegmentationFault):
            Memory().read("0x1000")

    def test_non_integer_value_rejected(self):
        with pytest.raises(TypeError):
            Memory().write(0x1000, "x")

    def test_block_ops(self):
        m = Memory()
        m.write_block(0x2000, [1, 2, 3])
        assert m.read_block(0x2000, 3) == [1, 2, 3]
        assert m.read_block(0x2000, 5) == [1, 2, 3, 0, 0]

    def test_mapped_count(self):
        m = Memory()
        m.write_block(0x2000, [1, 2, 3])
        assert m.mapped_count() == 3


class TestStrings:
    def test_cstr_roundtrip(self):
        m = Memory()
        used = m.write_cstr(0x3000, "/bin/sh")
        assert used == 8
        assert m.read_cstr(0x3000) == "/bin/sh"

    def test_cstr_empty(self):
        m = Memory()
        m.write_cstr(0x3000, "")
        assert m.read_cstr(0x3000) == ""

    def test_cstr_bounded(self):
        m = Memory()
        for i in range(10):
            m.write(0x3000 + i * WORD, ord("a"))
        assert m.read_cstr(0x3000, max_slots=4) == "aaaa"

    def test_vector(self):
        m = Memory()
        m.write_block(0x4000, [0x111, 0x222, 0])
        assert m.read_vector(0x4000) == [0x111, 0x222]

    def test_vector_bounded(self):
        m = Memory()
        m.write_block(0x4000, [1] * 100)
        assert len(m.read_vector(0x4000, max_entries=8)) == 8


class TestProperties:
    @given(addr=addresses, value=values)
    def test_read_after_write(self, addr, value):
        m = Memory()
        m.write(addr, value)
        assert m.read(addr) == value

    @given(addr=addresses, first=values, second=values)
    def test_last_write_wins(self, addr, first, second):
        m = Memory()
        m.write(addr, first)
        m.write(addr, second)
        assert m.read(addr) == second

    @given(
        addr=addresses,
        text=st.text(
            alphabet=st.characters(min_codepoint=1, max_codepoint=0x10FF),
            max_size=64,
        ),
    )
    def test_cstr_roundtrip_property(self, addr, text):
        m = Memory()
        m.write_cstr(addr, text)
        assert m.read_cstr(addr, max_slots=len(text) + 8) == text

    @given(addr=addresses, words=st.lists(values, max_size=32))
    def test_block_roundtrip(self, addr, words):
        m = Memory()
        m.write_block(addr, words)
        assert m.read_block(addr, len(words)) == words
        assert m.snapshot_region(addr, len(words)) == tuple(words)

    @given(a=addresses, b=addresses, va=values, vb=values)
    def test_distinct_slots_independent(self, a, b, va, vb):
        if a == b:
            return
        m = Memory()
        m.write(a, va)
        m.write(b, vb)
        assert m.read(a) == va
        assert m.read(b) == vb


class TestBulkEqualsPerWord:
    @pytest.mark.parametrize("nwords", [1, 2, 3, 2.0])
    @pytest.mark.parametrize(
        "start", [SEED_BASE, SEED_BASE + WORD, SEED_BASE + 40 * WORD, SEED_BASE + 3, -WORD, True]
    )
    def test_short_reads_equal_per_word_loops(self, start, nwords):
        """The two-word fast path (a frame, a shadow copy) and its
        neighbours, over set, half-set and unset slots and bad starts."""
        bulk, reference = Memory(), PerWord()
        for memory in (bulk, reference):
            memory.write(SEED_BASE, 7)
            memory.write(SEED_BASE + 2 * WORD, 9)
        assert _outcome(bulk, "read_block", start, nwords) == _outcome(
            reference, "read_block", start, nwords
        )

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.lists(st.tuples(st.integers(0, 80), slot_values), max_size=60),
        calls=st.lists(bulk_calls(), min_size=1, max_size=4),
    )
    def test_bulk_helpers_equal_per_word_loops(self, seed, calls):
        """Same return value or exception (type and text), same word dict
        afterwards, explicit zero entries included."""
        bulk, reference = Memory(), PerWord()
        for memory in (bulk, reference):
            for index, value in seed:
                memory.write(SEED_BASE + index * WORD, value)
        for call in calls:
            assert _outcome(bulk, *call) == _outcome(reference, *call)
        assert bulk.mapped_count() == reference.mapped_count()
