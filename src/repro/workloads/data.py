"""Heap data-structure builders shared by the workloads.

These mirror how the paper's benchmarks lay out memory:

* dense arrays and matrices (the FP codes),
* linked lists whose nodes a bump allocator placed sequentially — giving
  pointer loads a *constant address stride* the DLT can discover (the
  paper's key observation in section 3.3),
* scrambled linked lists (genuinely irregular chains),
* chained hash tables (parser),
* compressed sparse rows (equake-style indexed gathers).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ..memory.mainmem import HeapAllocator, WORD_SIZE


def build_array(
    alloc: HeapAllocator,
    count: int,
    init: Optional[Sequence[float]] = None,
) -> int:
    """Allocate a ``count``-word array; returns its base address.

    Uninitialised words read as zero (the store is sparse), which is fine
    for FP streams — only the addresses matter to the memory system.
    """
    return alloc.alloc_array(count, init=init)


def build_linked_list(
    alloc: HeapAllocator,
    node_words: int,
    count: int,
    rng: Optional[random.Random] = None,
    scramble: bool = False,
    segment: Optional[int] = None,
    pad_words: int = 0,
) -> Tuple[int, List[int]]:
    """Build a singly linked list; returns (head address, node addresses).

    Layout modes:

    * default — nodes in allocation order: the ``next`` pointers advance by
      a constant stride, so the chase load is DLT-stride-predictable;
    * ``scramble`` — logical order is a random permutation of placement:
      no stride whatsoever (forces Pointer classification);
    * ``segment=k`` — runs of ``k`` sequential nodes with a random jump
      between runs (mcf-like: stride predictable with periodic breaks).

    Node layout: word 0 = next pointer (the last node points back to the
    head), word ``w`` = ``(position + w) & 0xFFFF`` for the node's
    position along the chain.  Pad words stay unmapped.
    """
    memory = alloc.memory
    addrs = alloc.alloc_nodes(
        count,
        node_words,
        rng=rng,
        scramble=scramble,
        pad_words=pad_words,
    )
    order = list(range(count))
    if segment is not None and segment > 0 and rng is not None:
        starts = list(range(0, count, segment))
        rng.shuffle(starts)
        order = []
        for start in starts:
            order.extend(range(start, min(start + segment, count)))
    chain = [addrs[i] for i in order]
    successor = chain[1:] + chain[:1]
    # One field of every node per write, in placement order.
    block = min(chain)
    node_bytes = (node_words + pad_words) * WORD_SIZE
    position = [0] * count  # chain position of the node in each slot
    for pos, addr in enumerate(chain):
        position[(addr - block) // node_bytes] = pos
    memory.write_array(
        block, map(successor.__getitem__, position), node_bytes
    )
    wrapped = [pos & 0xFFFF for pos in range(count + node_words)]
    for w in range(1, node_words):
        memory.write_array(
            block + w * WORD_SIZE,
            map(wrapped[w:].__getitem__, position),
            node_bytes,
        )
    return chain[0], chain


def build_hash_table(
    alloc: HeapAllocator,
    buckets: int,
    chain_length: int,
    node_words: int,
    rng: random.Random,
) -> int:
    """Chained hash table with scrambled chain nodes; returns the bucket
    array's base address (each bucket holds a head pointer)."""
    memory = alloc.memory
    bucket_base = alloc.alloc_array(buckets)
    total = buckets * chain_length
    addrs = alloc.alloc_nodes(total, node_words, rng=rng, scramble=True)
    keys = [rng.randrange(1 << 16) for _ in range(total)]
    # Node i: next (the previous node of its bucket's chain, 0 for the
    # first), key, value i + 1; word 3 onward stays unmapped.  One field
    # of every node per write, in placement order.
    block = min(addrs)
    node_bytes = node_words * WORD_SIZE
    node_at = [0] * total  # node index in each slot
    for index, addr in enumerate(addrs):
        node_at[(addr - block) // node_bytes] = index
    memory.write_array(
        block,
        [addrs[i - 1] if i % chain_length else 0 for i in node_at],
        node_bytes,
    )
    memory.write_array(
        block + WORD_SIZE, map(keys.__getitem__, node_at), node_bytes
    )
    memory.write_array(
        block + 2 * WORD_SIZE, [i + 1 for i in node_at], node_bytes
    )
    memory.write_array(
        bucket_base,
        [addrs[b * chain_length + chain_length - 1] for b in range(buckets)],
    )
    return bucket_base


def build_csr_matrix(
    alloc: HeapAllocator,
    rows: int,
    nnz_per_row: int,
    num_cols: int,
    rng: random.Random,
) -> Tuple[int, int, int]:
    """Compressed-sparse-row structure: (col_index_base, values_base,
    x_vector_base).  Column indices are random — the gather through them
    is the unprefetchable access equake exposes."""
    memory = alloc.memory
    nnz = rows * nnz_per_row
    col_base = alloc.alloc_array(nnz)
    val_base = alloc.alloc_array(nnz)
    x_base = alloc.alloc_array(num_cols)
    memory.write_array(
        col_base, [rng.randrange(num_cols) for _ in range(nnz)]
    )
    return col_base, val_base, x_base
