"""Block allocator: lazy erase, active-block management."""

import pytest

from repro.ftl.allocator import BlockAllocator


@pytest.fixture
def alloc():
    return BlockAllocator(n_chips=2, blocks_per_chip=4, pages_per_block=3)


class TestAllocation:
    def test_initial_reserve(self, alloc):
        assert alloc.reserve_blocks(0) == 4

    def test_sequential_pages_within_block(self, alloc):
        positions = [alloc.allocate_page(0)[:2] for _ in range(3)]
        assert positions == [(0, 0), (0, 1), (0, 2)]

    def test_rolls_to_next_block(self, alloc):
        for _ in range(3):
            alloc.allocate_page(0)
        block, offset, _ = alloc.allocate_page(0)
        assert (block, offset) == (1, 0)

    def test_chips_independent(self, alloc):
        alloc.allocate_page(0)
        block, offset, _ = alloc.allocate_page(1)
        assert (block, offset) == (0, 0)

    def test_no_erase_needed_for_fresh_blocks(self, alloc):
        for _ in range(12):  # all 4 blocks
            _, _, erase = alloc.allocate_page(0)
            assert erase is None

    def test_exhaustion_raises(self, alloc):
        for _ in range(12):
            alloc.allocate_page(0)
        with pytest.raises(RuntimeError):
            alloc.allocate_page(0)


class TestLazyErase:
    def test_pending_block_erased_at_reuse(self, alloc):
        for _ in range(12):
            alloc.allocate_page(0)
        alloc.retire_victim(0, 2)
        block, offset, erase = alloc.allocate_page(0)
        assert block == 2
        assert erase == 2  # lazy erase happens exactly at reuse

    def test_free_pool_preferred_over_pending(self, alloc):
        # consume only block 0, then retire block 1
        for _ in range(3):
            alloc.allocate_page(0)
        alloc.retire_victim(0, 1)
        block, _, erase = alloc.allocate_page(0)
        assert block == 1 or erase is None  # free pool first

    def test_reserve_counts_pending(self, alloc):
        for _ in range(12):
            alloc.allocate_page(0)
        assert alloc.reserve_blocks(0) == 0
        alloc.retire_victim(0, 0)
        assert alloc.reserve_blocks(0) == 1

    def test_add_erased_returns_to_pool(self, alloc):
        for _ in range(12):
            alloc.allocate_page(0)
        alloc.add_erased(0, 3)
        block, _, erase = alloc.allocate_page(0)
        assert block == 3
        assert erase is None

    def test_add_erased_refuses_a_pooled_block(self, alloc):
        # pooling a block twice would let two streams open it
        with pytest.raises(ValueError, match="already in a reuse pool"):
            alloc.add_erased(0, 1)  # still in the initial free pool
        for _ in range(12):
            alloc.allocate_page(0)
        alloc.retire_victim(0, 2)
        assert alloc.is_pooled(0, 2)
        with pytest.raises(ValueError, match="already in a reuse pool"):
            alloc.add_erased(0, 2)
        assert alloc.reserve_blocks(0) == 1


class TestActiveBlock:
    def test_active_position(self, alloc):
        assert alloc.active_position(0) is None
        alloc.allocate_page(0)
        assert alloc.active_position(0) == (0, 1)

    def test_active_closes_when_full(self, alloc):
        for _ in range(3):
            alloc.allocate_page(0)
        assert alloc.active_position(0) is None

    def test_close_active(self, alloc):
        alloc.allocate_page(0)
        closed = alloc.close_active(0)
        assert closed == 0
        assert alloc.active_position(0) is None
        # next allocation opens a different block
        block, offset, _ = alloc.allocate_page(0)
        assert (block, offset) == (1, 0)

    def test_close_active_when_none(self, alloc):
        assert alloc.close_active(0) is None

    def test_active_pages_left(self, alloc):
        assert alloc.active_pages_left(0) == 0
        alloc.allocate_page(0)
        assert alloc.active_pages_left(0) == 2

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            BlockAllocator(0, 1, 1)
