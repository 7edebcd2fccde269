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
from array import array
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

Number = Union[int, float]

#: Where the simulated heap begins.  Anything below is unmapped.
HEAP_BASE = 0x1_0000

WORD_SIZE = 8

#: Words per page of :class:`DataMemory`, and the shifts that split a
#: byte address into (page number, word index within the page).
PAGE_WORDS = 512
_PAGE_SHIFT = 12  # log2(PAGE_WORDS * WORD_SIZE)
_INDEX_MASK = PAGE_WORDS - 1

#: Per-word tags.  An ``INT`` word's value is in the page's int64 array;
#: an ``OVERFLOW`` word's (a float, or an int outside int64) is in the
#: memory's overflow dict; an ``UNMAPPED`` word was never written.
UNMAPPED, INT, OVERFLOW = 0, 1, 2

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_ZERO_VALUES = array("q", bytes(PAGE_WORDS * WORD_SIZE))
_INT_TAGS = bytes([INT]) * PAGE_WORDS

Page = Tuple[array, bytearray]


class DataMemory:
    """Sparse word-addressed data memory, paged and copy-on-write.

    Reads of unmapped addresses return 0 (the behaviour the non-faulting
    load relies on); plain loads to unmapped addresses also read 0 but the
    event is counted so tests can assert a workload never does it by
    accident.

    Words live in pages of :data:`PAGE_WORDS`: an ``array('q')`` of
    values plus a ``bytearray`` of tags (:data:`UNMAPPED`, :data:`INT`,
    :data:`OVERFLOW`).  A value that does not fit an int64 slot lives in
    the overflow dict, keyed by word address.  :meth:`copy` shares every
    page and copies none; a page is copied on the first write to it by
    either memory, because a copy leaves both sides owning nothing.

    A workload builder ends by calling :meth:`mark_built`, which records
    the memory's **origin** (the source key it can be rebuilt from) and
    starts tracking which words are written from then on.  A snapshot
    stores only those words and rebuilds the rest from the origin (see
    :mod:`repro.checkpoint.snapshot`).
    """

    def __init__(self) -> None:
        #: Page number -> page, for every page holding a mapped word.
        self._pages: Dict[int, Page] = {}
        #: The pages this memory may write in place: those it created or
        #: copied since its last :meth:`copy`.  No other memory sees them.
        self._owned: Dict[int, Page] = {}
        self._overflow: Dict[int, Number] = {}
        self.unmapped_reads = 0
        #: Source key of the build this image came from; None until
        #: :meth:`mark_built` (such a memory cannot be checkpointed).
        self.origin: Optional[str] = None
        #: Word addresses written since :meth:`mark_built`.
        self._written: Optional[Set[int]] = None

    def read(self, addr: int) -> Number:
        """Read the word containing byte address ``addr``."""
        page = self._pages.get(addr >> _PAGE_SHIFT)
        if page is not None:
            values, tags = page
            index = (addr >> 3) & _INDEX_MASK
            tag = tags[index]
            if tag == INT:
                return values[index]
            if tag:
                return self._overflow[addr & -WORD_SIZE]
        self.unmapped_reads += 1
        return 0

    def read_quiet(self, addr: int) -> Number:
        """Read without counting unmapped accesses (non-faulting load)."""
        page = self._pages.get(addr >> _PAGE_SHIFT)
        if page is not None:
            values, tags = page
            index = (addr >> 3) & _INDEX_MASK
            tag = tags[index]
            if tag == INT:
                return values[index]
            if tag:
                return self._overflow[addr & -WORD_SIZE]
        return 0

    def write(self, addr: int, value: Number) -> None:
        """Write the word containing byte address ``addr``."""
        addr &= -WORD_SIZE
        page_no = addr >> _PAGE_SHIFT
        values, tags = self._owned.get(page_no) or self._own(page_no)
        index = (addr >> 3) & _INDEX_MASK
        if tags[index] == OVERFLOW:
            del self._overflow[addr]
        if type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
            values[index] = value
            tags[index] = INT
        else:
            self._overflow[addr] = value
            tags[index] = OVERFLOW
        if self._written is not None:
            self._written.add(addr)

    def _own(self, page_no: int) -> Page:
        """Make page ``page_no`` private to this memory (a new empty
        page, or a copy of the shared one) and return it."""
        shared = self._pages.get(page_no)
        if shared is None:
            page = (array("q", _ZERO_VALUES), bytearray(PAGE_WORDS))
        else:
            page = (shared[0][:], bytearray(shared[1]))
        self._pages[page_no] = self._owned[page_no] = page
        return page

    def write_array(
        self, base: int, values: Iterable[Number], stride: int = WORD_SIZE
    ) -> None:
        """Write ``values[i]`` to the word at ``base + i * stride``
        (``stride``: a positive multiple of :data:`WORD_SIZE`).

        Plain int64 values land one (strided) page slice at a time, so a
        builder can lay out an array, or one field of every node, in one
        call; any other value sends the values through :meth:`write`.
        """
        values = list(values)
        base &= -WORD_SIZE
        packed = None
        if set(map(type, values)) <= {int}:
            try:
                packed = array("q", values)
            except OverflowError:
                pass
        if packed is None:
            for offset, value in enumerate(values):
                self.write(base + offset * stride, value)
            return
        step = stride // WORD_SIZE
        addr, done = base, 0
        while done < len(values):
            page_no = addr >> _PAGE_SHIFT
            page_values, tags = self._owned.get(page_no) or self._own(page_no)
            index = (addr >> 3) & _INDEX_MASK
            count = min(len(values) - done, (_INDEX_MASK - index) // step + 1)
            run = slice(index, index + (count - 1) * step + 1, step)
            if OVERFLOW in tags[run]:
                for word in range(addr, addr + count * stride, stride):
                    self._overflow.pop(word, None)
            page_values[run] = packed[done : done + count]
            tags[run] = _INT_TAGS[:count]
            done += count
            addr += count * stride
        if self._written is not None:
            self._written.update(range(base, addr, stride))

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
        for addr, value in zip(addrs, values):
            self.write(addr, value)
        self._written = set(addrs)
        self.unmapped_reads = unmapped_reads

    def is_mapped(self, addr: int) -> bool:
        page = self._pages.get(addr >> _PAGE_SHIFT)
        return page is not None and bool(page[1][(addr >> 3) & _INDEX_MASK])

    def __len__(self) -> int:
        return sum(
            PAGE_WORDS - tags.count(UNMAPPED)
            for _, tags in self._pages.values()
        )

    def words(self) -> Dict[int, Number]:
        """Every mapped word, ``{address: value}`` in address order (a
        fresh dict: a read-only view for tests and tools, not the
        simulator's path)."""
        out: Dict[int, Number] = {}
        overflow = self._overflow
        for page_no in sorted(self._pages):
            values, tags = self._pages[page_no]
            base = page_no << _PAGE_SHIFT
            for index, tag in enumerate(tags):
                if tag:
                    addr = base + index * WORD_SIZE
                    out[addr] = values[index] if tag == INT else overflow[addr]
        return out

    def copy(self) -> "DataMemory":
        """An independent memory holding the same words.

        O(pages): both memories keep referencing the same pages and
        give up owning them, so whichever writes a page first copies it.
        """
        clone = DataMemory()
        clone._pages = dict(self._pages)
        self._owned = {}
        clone._overflow = dict(self._overflow)
        clone.unmapped_reads = self.unmapped_reads
        clone.origin = self.origin
        if self._written is not None:
            clone._written = set(self._written)
        return clone


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
