"""Per-chip block allocation with lazy erase -- Section 5.4.

Each chip keeps a pool of erased free blocks, a pool of *erase-pending*
GC victims, and one or more open ("active") blocks that absorb page
writes.  Blocks are erased **lazily**: a GC victim is not erased when it
is reclaimed but right before it is reused, which minimizes the open
interval (the time a block sits erased before programming) and thus the
Figure-10 reliability penalty.

Writes are grouped into *streams*: by default everything shares the
``"host"`` stream (one open block per chip, the paper's FlashBench FTL);
an FTL may route GC relocations to a separate ``"gc"`` stream so that
colder relocated data does not intermix with fresh host writes -- the
classic hot/cold separation whose effect the ablation benchmarks
quantify.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

HOST_STREAM = "host"
GC_STREAM = "gc"


class OutOfBlocksError(RuntimeError):
    """A chip has no erased or erase-pending block left to open.

    End of device life: grown-bad retirement (erase failures, P/E
    exhaustion) shrank a chip's pool until a write had nowhere to go.
    Subclasses ``RuntimeError`` so long-standing callers that treated
    exhaustion as a generic runtime failure keep working; endurance
    studies catch this type to report "device died" cleanly.
    """


@dataclass
class StreamState:
    """Open-block cursor of one write stream on one chip."""

    active_block: int | None = None
    next_offset: int = 0


@dataclass
class ChipAllocState:
    """Allocation state for one chip."""

    free_blocks: deque[int] = field(default_factory=deque)   # erased, empty
    pending_blocks: deque[int] = field(default_factory=deque)  # lazy-erase queue
    streams: dict[str, StreamState] = field(default_factory=dict)
    retired: set[int] = field(default_factory=set)  # grown-bad, never reused

    def stream(self, name: str) -> StreamState:
        state = self.streams.get(name)
        if state is None:
            state = StreamState()
            self.streams[name] = state
        return state


class BlockAllocator:
    """Free-space manager across all chips.

    Blocks are identified by *local* index within their chip; the FTL
    translates to global ids.  The allocator never talks to the chips --
    it returns decisions ("erase block b now", "write page p of block b")
    and the FTL performs the flash operations and timing accounting.
    """

    def __init__(self, n_chips: int, blocks_per_chip: int, pages_per_block: int):
        if min(n_chips, blocks_per_chip, pages_per_block) <= 0:
            raise ValueError("dimensions must be positive")
        self._pages_per_block = pages_per_block
        self._blocks_per_chip = blocks_per_chip
        self._chips = [ChipAllocState() for _ in range(n_chips)]
        for state in self._chips:
            state.free_blocks.extend(range(blocks_per_chip))
        #: optional wear oracle ``(chip_id, block) -> erase_count``.  When
        #: set (``SSDConfig.wear_aware_allocation``), a stream opens the
        #: least-worn reusable block instead of the FIFO head -- dynamic
        #: wear leveling.  Ties break on block index, so the choice is a
        #: pure function of (wear counts, pool membership) and stays
        #: deterministic whatever order the deque holds.  Config-derived
        #: and re-wired by the FTL on construction, so it is deliberately
        #: not part of :meth:`state_dict`.
        self.wear_fn: Callable[[int, int], int] | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_layout(
        cls,
        n_chips: int,
        blocks_per_chip: int,
        pages_per_block: int,
        free_blocks: list[list[int]],
        retired_blocks: list[set[int]] | None = None,
    ) -> "BlockAllocator":
        """Rebuild an allocator from a scanned device layout.

        ``free_blocks[chip]`` lists the chip's erased, empty blocks; every
        other block is considered closed (GC will reclaim it later).  Used
        by power-loss recovery, which must not treat written blocks as
        allocatable.  ``retired_blocks[chip]`` re-seeds the grown-bad
        exclusions recovered from the chips' block states.
        """
        if len(free_blocks) != n_chips:
            raise ValueError("free_blocks must list one entry per chip")
        alloc = cls(n_chips, blocks_per_chip, pages_per_block)
        for chip_id, free in enumerate(free_blocks):
            state = alloc._chips[chip_id]
            state.free_blocks.clear()
            state.free_blocks.extend(sorted(free))
            state.pending_blocks.clear()
            state.streams.clear()
            if retired_blocks is not None:
                state.retired = set(retired_blocks[chip_id])
                if state.retired.intersection(state.free_blocks):
                    raise ValueError("a retired block cannot be free")
        return alloc

    # ------------------------------------------------------------------
    @property
    def pages_per_block(self) -> int:
        return self._pages_per_block

    def reserve_blocks(self, chip_id: int) -> int:
        """Blocks available for reuse (erased + pending lazy erase)."""
        st = self._chips[chip_id]
        return len(st.free_blocks) + len(st.pending_blocks)

    def active_block(self, chip_id: int, stream: str = HOST_STREAM) -> int | None:
        return self._chips[chip_id].stream(stream).active_block

    def active_blocks(self, chip_id: int) -> list[int]:
        """Every stream's open block on a chip (for victim exclusion)."""
        return [
            s.active_block
            for s in self._chips[chip_id].streams.values()
            if s.active_block is not None
        ]

    def retire_victim(self, chip_id: int, block: int) -> None:
        """Queue a fully-collected GC victim for lazy erase."""
        st = self._chips[chip_id]
        if block in st.retired:
            raise ValueError(f"block {block} is retired (grown-bad)")
        st.pending_blocks.append(block)

    def is_pooled(self, chip_id: int, block: int) -> bool:
        """Whether ``block`` already waits in the free or pending pool."""
        st = self._chips[chip_id]
        return block in st.free_blocks or block in st.pending_blocks

    def add_erased(self, chip_id: int, block: int) -> None:
        """Return an already-erased block to the free pool.

        A block that is already pooled would be handed out twice, so
        that is refused like a retired one.
        """
        st = self._chips[chip_id]
        if block in st.retired:
            raise ValueError(f"block {block} is retired (grown-bad)")
        if self.is_pooled(chip_id, block):
            raise ValueError(f"block {block} is already in a reuse pool")
        st.free_blocks.append(block)

    def retire_block(self, chip_id: int, block: int) -> None:
        """Pull a grown-bad block out of every pool, permanently.

        Idempotent; also drops the block's open-block cursor if a stream
        happened to have it active (a failed lazy erase at reuse).
        """
        st = self._chips[chip_id]
        if block in st.free_blocks:
            st.free_blocks.remove(block)
        if block in st.pending_blocks:
            st.pending_blocks.remove(block)
        for stream in st.streams.values():
            if stream.active_block == block:
                stream.active_block = None
                stream.next_offset = 0
        st.retired.add(block)

    def retired_blocks(self, chip_id: int) -> set[int]:
        return set(self._chips[chip_id].retired)

    # ------------------------------------------------------------------
    def allocate_page(
        self, chip_id: int, stream: str = HOST_STREAM
    ) -> tuple[int, int, int | None]:
        """Pick the next page to program on a chip's stream.

        Returns ``(block, page_offset, erase_block)`` where ``erase_block``
        is a block the caller must erase *now* (lazy erase at reuse) or
        ``None``.  Raises ``RuntimeError`` when the chip is out of space --
        the FTL must GC before that happens.
        """
        chip = self._chips[chip_id]
        st = chip.stream(stream)
        erase_needed: int | None = None
        if st.active_block is None:
            if chip.free_blocks:
                st.active_block = self._pick_block(chip_id, chip.free_blocks)
            elif chip.pending_blocks:
                st.active_block = self._pick_block(chip_id, chip.pending_blocks)
                erase_needed = st.active_block
            else:
                raise OutOfBlocksError(
                    f"chip {chip_id} has no reusable blocks"
                )
            st.next_offset = 0
        block = st.active_block
        offset = st.next_offset
        st.next_offset += 1
        if st.next_offset >= self._pages_per_block:
            st.active_block = None
            st.next_offset = 0
        return block, offset, erase_needed

    def _pick_block(self, chip_id: int, pool: deque[int]) -> int:
        """Next block from a pool: FIFO head, or least-worn if wear-aware."""
        wear_fn = self.wear_fn
        if wear_fn is None:
            return pool.popleft()
        best = min(pool, key=lambda block: (wear_fn(chip_id, block), block))
        pool.remove(best)
        return best

    def active_position(
        self, chip_id: int, stream: str = HOST_STREAM
    ) -> tuple[int, int] | None:
        """(active block, next offset) for a chip's stream, or None."""
        st = self._chips[chip_id].stream(stream)
        if st.active_block is None:
            return None
        return st.active_block, st.next_offset

    def stream_of_block(self, chip_id: int, block: int) -> str | None:
        """Which stream (if any) currently has ``block`` open."""
        for name, st in self._chips[chip_id].streams.items():
            if st.active_block == block:
                return name
        return None

    def close_active(self, chip_id: int, stream: str = HOST_STREAM) -> int | None:
        """Abandon a stream's open block (e.g. it must be erased now).

        Returns the closed block's index or None.  The caller owns the
        block afterwards; its unwritten tail pages are lost until erase.
        """
        st = self._chips[chip_id].stream(stream)
        block = st.active_block
        st.active_block = None
        st.next_offset = 0
        return block

    def active_pages_left(self, chip_id: int, stream: str = HOST_STREAM) -> int:
        """Unwritten pages remaining in the stream's open block (0 if none)."""
        st = self._chips[chip_id].stream(stream)
        if st.active_block is None:
            return 0
        return self._pages_per_block - st.next_offset

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """Checkpoint payload: queue order and cursors are preserved
        exactly (free/pending deque order decides which block is reused
        next, so it is behaviorally significant)."""
        return {
            "chips": [
                {
                    "free_blocks": deque(chip.free_blocks),
                    "pending_blocks": deque(chip.pending_blocks),
                    "streams": {
                        name: {
                            "active_block": st.active_block,
                            "next_offset": st.next_offset,
                        }
                        for name, st in chip.streams.items()
                    },
                    "retired": set(chip.retired),
                }
                for chip in self._chips
            ],
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        chips = state["chips"]
        if len(chips) != len(self._chips):
            raise ValueError("allocator checkpoint does not match chip count")
        for chip, payload in zip(self._chips, chips):
            chip.free_blocks = deque(payload["free_blocks"])
            chip.pending_blocks = deque(payload["pending_blocks"])
            chip.streams = {
                name: StreamState(
                    active_block=st["active_block"],
                    next_offset=st["next_offset"],
                )
                for name, st in payload["streams"].items()
            }
            chip.retired = set(payload["retired"])
