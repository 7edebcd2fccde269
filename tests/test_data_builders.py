"""Tests for the workload data-structure builders."""

import random

import pytest

from repro.memory.mainmem import (
    HEAP_BASE,
    WORD_SIZE,
    DataMemory,
    HeapAllocator,
)
from repro.workloads.data import (
    build_array,
    build_csr_matrix,
    build_hash_table,
    build_linked_list,
)


@pytest.fixture
def env():
    memory = DataMemory()
    return memory, HeapAllocator(memory)


class TestHeapAllocator:
    def test_alignment(self, env):
        _memory, alloc = env
        a = alloc.alloc(10, align=64)
        assert a % 64 == 0
        b = alloc.alloc(8, align=8)
        assert b % 8 == 0
        assert b >= a + 10

    def test_rejects_bad_sizes(self, env):
        _memory, alloc = env
        with pytest.raises(ValueError):
            alloc.alloc(0)
        with pytest.raises(ValueError):
            alloc.alloc(8, align=3)

    def test_stagger_applies_to_large_allocations(self, env):
        _memory, alloc = env
        first = alloc.alloc(128 * 1024)
        second = alloc.alloc(128 * 1024)
        # The set-phase offset differs between consecutive large blocks.
        period = HeapAllocator.STAGGER_PERIOD
        assert (first % period) != (second % period)

    def test_small_allocations_not_staggered(self, env):
        _memory, alloc = env
        a = alloc.alloc(64)
        b = alloc.alloc(64)
        assert b - a == 64

    def test_stagger_can_be_disabled(self):
        alloc = HeapAllocator(DataMemory(), stagger=False)
        a = alloc.alloc(128 * 1024)
        b = alloc.alloc(128 * 1024)
        assert b - a == 128 * 1024

    def test_alloc_array_initialises(self, env):
        memory, alloc = env
        base = alloc.alloc_array(4, init=[10, 20, 30, 40])
        assert [memory.read(base + i * 8) for i in range(4)] == \
            [10, 20, 30, 40]

    def test_scramble_requires_rng(self, env):
        _memory, alloc = env
        with pytest.raises(ValueError):
            alloc.alloc_nodes(4, 2, scramble=True)


class TestLinkedList:
    def test_sequential_layout_constant_stride(self, env):
        memory, alloc = env
        head, nodes = build_linked_list(alloc, node_words=4, count=50)
        strides = {
            memory.read(addr) - addr
            for addr in nodes[:-1]
            if memory.read(addr) != head
        }
        assert len(strides) == 1  # perfectly regular next pointers

    def test_segment_layout_mostly_regular(self, env):
        memory, alloc = env
        rng = random.Random(1)
        head, nodes = build_linked_list(
            alloc, node_words=4, count=256, rng=rng, segment=64
        )
        addr = head
        strides = []
        for _ in range(255):
            nxt = memory.read(addr)
            strides.append(nxt - addr)
            addr = nxt
        regular = max(set(strides), key=strides.count)
        share = strides.count(regular) / len(strides)
        assert share > 0.9  # breaks only at segment joins

    def test_pad_words_spread_nodes(self, env):
        memory, alloc = env
        head, nodes = build_linked_list(
            alloc, node_words=2, count=10, pad_words=6
        )
        deltas = {b - a for a, b in zip(sorted(nodes), sorted(nodes)[1:])}
        assert deltas == {8 * WORD_SIZE}

    def test_values_initialised(self, env):
        memory, alloc = env
        head, nodes = build_linked_list(alloc, node_words=4, count=5)
        assert memory.read(head + 8) != 0 or memory.is_mapped(head + 8)


class TestHashTable:
    def test_every_bucket_has_full_chain(self, env):
        memory, alloc = env
        rng = random.Random(2)
        base = build_hash_table(
            alloc, buckets=16, chain_length=3, node_words=4, rng=rng
        )
        for b in range(16):
            head = memory.read(base + b * WORD_SIZE)
            depth = 0
            while head and depth < 10:
                head = memory.read(head)
                depth += 1
            assert depth == 3

    def test_nodes_have_keys_and_values(self, env):
        memory, alloc = env
        rng = random.Random(3)
        base = build_hash_table(
            alloc, buckets=4, chain_length=2, node_words=4, rng=rng
        )
        head = memory.read(base)
        assert memory.is_mapped(head + WORD_SIZE)       # key
        assert memory.read(head + 2 * WORD_SIZE) != 0   # value


class TestCSR:
    def test_column_indices_in_range(self, env):
        memory, alloc = env
        rng = random.Random(4)
        col, val, x = build_csr_matrix(
            alloc, rows=10, nnz_per_row=5, num_cols=64, rng=rng
        )
        for i in range(50):
            index = memory.read(col + i * WORD_SIZE)
            assert 0 <= index < 64

    def test_regions_distinct(self, env):
        _memory, alloc = env
        rng = random.Random(5)
        col, val, x = build_csr_matrix(
            alloc, rows=8, nnz_per_row=4, num_cols=32, rng=rng
        )
        assert len({col, val, x}) == 3
        assert col < val < x


class TestBuildArray:
    def test_returns_heap_address(self, env):
        _memory, alloc = env
        base = build_array(alloc, 100)
        assert base >= HEAP_BASE


def _per_word_linked_list(memory, chain, node_words):
    """The word-at-a-time layout the bulk builder must reproduce."""
    for pos, addr in enumerate(chain):
        memory.write(addr, chain[(pos + 1) % len(chain)])
        for w in range(1, node_words):
            memory.write(addr + w * WORD_SIZE, (pos + w) & 0xFFFF)


def _per_word_hash_table(alloc, buckets, chain_length, node_words, rng):
    memory = alloc.memory
    bucket_base = alloc.alloc_array(buckets)
    addrs = alloc.alloc_nodes(
        buckets * chain_length, node_words, rng=rng, scramble=True
    )
    index = 0
    for b in range(buckets):
        head = 0
        for _ in range(chain_length):
            addr = addrs[index]
            index += 1
            memory.write(addr, head)
            memory.write(addr + WORD_SIZE, rng.randrange(1 << 16))
            memory.write(addr + 2 * WORD_SIZE, index)
            head = addr
        memory.write(bucket_base + b * WORD_SIZE, head)


class TestBulkLayoutMatchesPerWordWrites:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"scramble": True},
            {"segment": 16},
            {"pad_words": 3},
            {"scramble": True, "pad_words": 1},
        ],
        ids=["sequential", "scramble", "segment", "pad", "scramble-pad"],
    )
    def test_linked_list(self, kwargs):
        memory = DataMemory()
        _, chain = build_linked_list(
            HeapAllocator(memory), node_words=5, count=70_000 // 5,
            rng=random.Random(6), **kwargs,
        )
        reference = DataMemory()
        _per_word_linked_list(reference, chain, node_words=5)
        assert memory.words() == reference.words()

    def test_hash_table(self):
        memory = DataMemory()
        build_hash_table(
            HeapAllocator(memory), buckets=64, chain_length=3,
            node_words=4, rng=random.Random(7),
        )
        reference = DataMemory()
        _per_word_hash_table(
            HeapAllocator(reference), buckets=64, chain_length=3,
            node_words=4, rng=random.Random(7),
        )
        assert memory.words() == reference.words()
