"""Simulated data memory and a heap allocator for workload data.

Data memory is a sparse, word-granular store: addresses are byte addresses,
values live at 8-byte-aligned words.  Workloads populate it through
:class:`HeapAllocator` before simulation starts, which mimics how a real
allocator lays objects out — sequential bump allocation produces the
"pointer loads that turn out to have stride access patterns" the paper's
DLT exploits (section 3.3), while scrambled allocation produces genuinely
irregular pointer chains.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Set, Union

Number = Union[int, float]

#: Where the simulated heap begins.  Anything below is unmapped.
HEAP_BASE = 0x1_0000

WORD_SIZE = 8


class DataMemory:
    """Sparse word-addressed data memory.

    Reads of unmapped addresses return 0 (the behaviour the non-faulting
    load relies on); plain loads to unmapped addresses also read 0 but the
    event is counted so tests can assert a workload never does it by
    accident.

    A workload builder ends by calling :meth:`mark_built`, which records
    the memory's **origin** (the source key it can be rebuilt from) and
    starts tracking which words are written from then on.  A snapshot
    stores only those words and rebuilds the rest from the origin (see
    :mod:`repro.checkpoint.snapshot`).
    """

    def __init__(self) -> None:
        self._words: Dict[int, Number] = {}
        self.unmapped_reads = 0
        #: Source key of the build this image came from; None until
        #: :meth:`mark_built` (such a memory cannot be checkpointed).
        self.origin: Optional[str] = None
        #: Word addresses written since :meth:`mark_built`.
        self._written: Optional[Set[int]] = None

    @staticmethod
    def _align(addr: int) -> int:
        return addr & ~(WORD_SIZE - 1)

    def read(self, addr: int) -> Number:
        """Read the word containing byte address ``addr``."""
        word = self._words.get(self._align(addr))
        if word is None:
            self.unmapped_reads += 1
            return 0
        return word

    def read_quiet(self, addr: int) -> Number:
        """Read without counting unmapped accesses (non-faulting load)."""
        return self._words.get(self._align(addr), 0)

    def write(self, addr: int, value: Number) -> None:
        """Write the word containing byte address ``addr``."""
        addr &= ~(WORD_SIZE - 1)
        self._words[addr] = value
        if self._written is not None:
            self._written.add(addr)

    def mark_built(self, origin: str) -> None:
        """Record that the build from ``origin`` is complete; writes are
        tracked from here on."""
        self.origin = origin
        self._written = set()

    @property
    def written(self) -> Set[int]:
        """Word addresses written since the build (empty before it)."""
        return self._written or set()

    def apply_writes(
        self, addrs: List[int], values: List[Number], unmapped_reads: int
    ) -> None:
        """Replay a run's written words onto this freshly built image."""
        words = self._words
        for addr, value in zip(addrs, values):
            words[addr] = value
        self._written = set(addrs)
        self.unmapped_reads = unmapped_reads

    def is_mapped(self, addr: int) -> bool:
        return self._align(addr) in self._words

    def __len__(self) -> int:
        return len(self._words)

    def copy(self) -> "DataMemory":
        """An independent memory holding the same words."""
        clone = DataMemory()
        clone._words = dict(self._words)
        clone.unmapped_reads = self.unmapped_reads
        clone.origin = self.origin
        if self._written is not None:
            clone._written = set(self._written)
        return clone

    def write_array(self, base: int, values: Iterable[Number]) -> None:
        """Write consecutive words starting at ``base``."""
        addr = self._align(base)
        start = addr
        for value in values:
            self._words[addr] = value
            addr += WORD_SIZE
        if self._written is not None:
            self._written.update(range(start, addr, WORD_SIZE))


class HeapAllocator:
    """Bump allocator over a :class:`DataMemory`.

    ``sequential`` allocation returns monotonically increasing addresses
    (real-allocator behaviour for a burst of same-sized allocations), so a
    linked list built with it has a *constant pointer stride* — exactly the
    property that lets the paper's DLT stride-predict pointer loads.
    ``scramble_chunks`` can then be used to destroy that property for
    workloads that need irregular chains.
    """

    #: Stagger period: large allocations are offset by multiples of 101
    #: cache lines so co-advancing arrays never share L1/L2 set phase.
    STAGGER_STEP = 101 * 64
    STAGGER_PERIOD = 32 * 1024

    def __init__(
        self, memory: DataMemory, base: int = HEAP_BASE,
        stagger: bool = True,
    ) -> None:
        self.memory = memory
        self._next = base
        #: Real allocators do not hand out set-aligned bases for every
        #: large request; without this, co-advancing arrays in the
        #: workloads would thrash the same L1 sets in lock-step.
        self.stagger = stagger
        self._large_allocs = 0

    @property
    def brk(self) -> int:
        """One past the highest address handed out so far."""
        return self._next

    def alloc(self, nbytes: int, align: int = WORD_SIZE) -> int:
        """Reserve ``nbytes`` and return the base address.

        The memory is zero-filled lazily (sparse store); callers write what
        they need.
        """
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        if align & (align - 1):
            raise ValueError("alignment must be a power of two")
        if self.stagger and nbytes >= 64 * 1024:
            self._large_allocs += 1
            pad = (
                self._large_allocs * self.STAGGER_STEP
            ) % self.STAGGER_PERIOD
            self._next += pad
        self._next = (self._next + align - 1) & ~(align - 1)
        base = self._next
        self._next += nbytes
        return base

    def alloc_array(
        self, count: int, init: Optional[Iterable[Number]] = None,
        align: int = WORD_SIZE,
    ) -> int:
        """Allocate ``count`` words; optionally initialise them."""
        base = self.alloc(count * WORD_SIZE, align=align)
        if init is not None:
            self.memory.write_array(base, init)
        return base

    def alloc_nodes(
        self,
        count: int,
        node_words: int,
        rng: Optional[random.Random] = None,
        scramble: bool = False,
        pad_words: int = 0,
    ) -> List[int]:
        """Allocate ``count`` objects of ``node_words`` words each.

        Returns the object base addresses in allocation order.  With
        ``scramble`` the *placement* order is permuted, so consecutive
        logical nodes are far apart in memory (irregular pointer chains);
        without it, consecutive nodes sit at a constant stride.
        ``pad_words`` adds dead words between objects to control density.
        """
        stride_words = node_words + pad_words
        block = self.alloc(count * stride_words * WORD_SIZE)
        slots = list(range(count))
        if scramble:
            if rng is None:
                raise ValueError("scramble requires an rng")
            rng.shuffle(slots)
        return [block + slot * stride_words * WORD_SIZE for slot in slots]
