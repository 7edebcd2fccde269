"""Property test: the paged copy-on-write ``DataMemory`` against a dict.

The reference model is what the memory used to be: one ``{address:
value}`` dict per memory, an unmapped-read counter, and the set of
words written since ``mark_built``.  A state machine drives several
memories — an original and the copies taken of it and of each other —
through writes (single, array and strided), reads and copies, with
addresses clustered around page boundaries and values that do and do
not fit an int64 slot.  After every step each memory must agree with
its model on every mapped word, its length, its unmapped-read count
and its written set.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.memory.mainmem import PAGE_WORDS, WORD_SIZE, DataMemory

PAGE_BYTES = PAGE_WORDS * WORD_SIZE
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

#: Byte addresses on a few pages (one of them negative), biased toward
#: the first and last words of a page, at any byte offset in the word.
addresses = st.builds(
    lambda page, word, byte: page * PAGE_BYTES + word * WORD_SIZE + byte,
    st.integers(-1, 3),
    st.sampled_from([0, 1, PAGE_WORDS - 2, PAGE_WORDS - 1])
    | st.integers(0, PAGE_WORDS - 1),
    st.integers(0, WORD_SIZE - 1),
)

#: Values that fit an int64 slot, and values that must overflow it.
int64s = st.integers(INT64_MIN, INT64_MAX) | st.sampled_from(
    [0, 1, -1, INT64_MIN, INT64_MAX]
)
overflows = (
    st.floats(allow_nan=False)
    | st.sampled_from([-0.0, 0.0, 2.5, INT64_MAX + 1, INT64_MIN - 1])
    | st.integers(INT64_MAX + 1, 1 << 80)
    | st.integers(-(1 << 80), INT64_MIN - 1)
)
values = int64s | overflows


def typed(value):
    """A key under which -0.0, 0.0 and 0 (and 1.0 and 1) all differ."""
    return type(value).__name__, repr(value)


class Model:
    def __init__(self) -> None:
        self.words = {}
        self.unmapped_reads = 0
        self.written = None

    def copy(self) -> "Model":
        clone = Model()
        clone.words = dict(self.words)
        clone.unmapped_reads = self.unmapped_reads
        clone.written = None if self.written is None else set(self.written)
        return clone

    def write(self, addr, value) -> None:
        addr -= addr % WORD_SIZE
        self.words[addr] = value
        if self.written is not None:
            self.written.add(addr)


class PagedMemoryMachine(RuleBasedStateMachine):
    #: Which memory a step acts on, modulo the number there are.
    handles = st.integers(0, 7)

    @initialize()
    def start(self) -> None:
        self.memories = [DataMemory()]
        self.models = [Model()]

    def _pick(self, handle):
        handle %= len(self.memories)
        return self.memories[handle], self.models[handle]

    @rule(handle=handles, addr=addresses, value=values)
    def write(self, handle, addr, value):
        memory, model = self._pick(handle)
        memory.write(addr, value)
        model.write(addr, value)

    @rule(
        handle=handles,
        addr=addresses,
        run=st.lists(int64s, max_size=2 * PAGE_WORDS + 3)
        | st.lists(values, max_size=PAGE_WORDS + 3),
        stride=st.sampled_from([1, 1, 3, 4, PAGE_WORDS + 1]),
    )
    def write_array(self, handle, addr, run, stride):
        memory, model = self._pick(handle)
        memory.write_array(addr, run, stride * WORD_SIZE)
        base = addr - addr % WORD_SIZE
        for offset, value in enumerate(run):
            model.write(base + offset * stride * WORD_SIZE, value)

    @rule(handle=handles, addr=addresses, quiet=st.booleans())
    def read(self, handle, addr, quiet):
        memory, model = self._pick(handle)
        got = memory.read_quiet(addr) if quiet else memory.read(addr)
        expected = model.words.get(addr - addr % WORD_SIZE)
        if expected is None:
            expected = 0
            if not quiet:
                model.unmapped_reads += 1
        assert typed(got) == typed(expected)

    @rule(handle=handles, addr=addresses)
    def is_mapped(self, handle, addr):
        memory, model = self._pick(handle)
        assert memory.is_mapped(addr) == (
            addr - addr % WORD_SIZE in model.words
        )

    @precondition(lambda self: len(self.memories) < 4)
    @rule(handle=handles)
    def copy(self, handle):
        memory, model = self._pick(handle)
        self.memories.append(memory.copy())
        self.models.append(model.copy())

    @rule(handle=handles)
    def mark_built(self, handle):
        memory, model = self._pick(handle)
        memory.mark_built("origin")
        model.written = set()

    @invariant()
    def agrees_with_model(self):
        for memory, model in zip(self.memories, self.models):
            words = memory.words()
            assert list(words) == sorted(model.words)
            assert {a: typed(v) for a, v in words.items()} == {
                a: typed(v) for a, v in model.words.items()
            }
            assert len(memory) == len(model.words)
            assert memory.unmapped_reads == model.unmapped_reads
            assert memory.written == (model.written or set())


PagedMemoryMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
test_paged_memory_matches_dict_model = PagedMemoryMachine.TestCase


def test_copy_shares_pages_until_written():
    memory = DataMemory()
    memory.write_array(0, range(3 * PAGE_WORDS))
    clone = memory.copy()
    assert all(
        clone._pages[n] is memory._pages[n] for n in memory._pages
    )
    clone.write(PAGE_BYTES, -1)
    memory.write(2 * PAGE_BYTES, -2)
    shared = [n for n in memory._pages if clone._pages[n] is memory._pages[n]]
    assert shared == [0]
    assert memory.read(PAGE_BYTES) == PAGE_WORDS
    assert clone.read(2 * PAGE_BYTES) == 2 * PAGE_WORDS


def test_unwritten_words_of_a_page_stay_unmapped():
    memory = DataMemory()
    memory.write(8, 5)
    assert memory.read(16) == 0 and memory.unmapped_reads == 1
    assert not memory.is_mapped(0) and len(memory) == 1
