"""Tests for Block and Plane bookkeeping."""

import pytest

from repro.flash.plane import Block, Plane


class TestBlock:
    def test_fresh_block_is_free(self):
        block = Block(0, 8)
        assert block.is_free
        assert not block.is_full
        assert block.valid_count == 0

    def test_program_next_marks_valid(self):
        block = Block(0, 4)
        page = block.program_next()
        assert page == 0
        assert block.is_valid(0)
        assert block.valid_count == 1
        assert not block.is_free

    def test_program_fills_sequentially(self):
        block = Block(0, 4)
        pages = [block.program_next() for _ in range(4)]
        assert pages == [0, 1, 2, 3]
        assert block.is_full

    def test_program_full_block_raises(self):
        block = Block(0, 2)
        block.program_next()
        block.program_next()
        with pytest.raises(RuntimeError):
            block.program_next()

    def test_invalidate(self):
        block = Block(0, 4)
        block.program_next()
        block.invalidate(0)
        assert not block.is_valid(0)
        assert block.invalid_count == 1

    def test_invalidate_out_of_range(self):
        with pytest.raises(ValueError):
            Block(0, 4).invalidate(4)

    def test_is_valid_out_of_range(self):
        with pytest.raises(ValueError):
            Block(0, 4).is_valid(9)

    def test_erase_resets_and_counts(self):
        block = Block(0, 4)
        for _ in range(4):
            block.program_next()
        block.erase()
        assert block.is_free
        assert block.valid_count == 0
        assert block.erase_count == 1

    def test_valid_list_view(self):
        block = Block(0, 4)
        block.program_next()
        block.program_next()
        block.invalidate(0)
        assert block.valid == [False, True, False, False]


class TestPlane:
    def make_plane(self, blocks=4, pages=4):
        return Plane(plane_key=(0, 0, 0, 0), blocks_per_plane=blocks, pages_per_block=pages)

    def test_initial_capacity(self):
        plane = self.make_plane()
        assert plane.free_blocks == 4
        assert plane.free_pages == 16
        assert plane.valid_pages == 0

    def test_allocate_fills_block_before_rotating(self):
        plane = self.make_plane(blocks=2, pages=2)
        allocations = [plane.allocate_page() for _ in range(4)]
        assert allocations == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_allocate_exhaustion_raises(self):
        plane = self.make_plane(blocks=1, pages=2)
        plane.allocate_page()
        plane.allocate_page()
        with pytest.raises(RuntimeError):
            plane.allocate_page()

    def test_victim_candidates_exclude_active_and_partial(self):
        plane = self.make_plane(blocks=3, pages=2)
        # Fill block 0 entirely, block 1 (the active block) partially.  The
        # partial block holds fewer valid pages, yet only block 0 is a
        # candidate.
        plane.allocate_page()
        plane.allocate_page()
        plane.allocate_page()
        assert plane.active_block_id == 1
        assert plane.greedy_victim().block_id == 0
        # A full active block is no candidate either.
        plane.allocate_page()
        plane.blocks[1].invalidate(0)
        assert plane.active_block_id == 1
        assert plane.greedy_victim().block_id == 0

    def test_greedy_victim_picks_fewest_valid(self):
        plane = self.make_plane(blocks=3, pages=2)
        for _ in range(4):
            plane.allocate_page()
        # Invalidate both pages of block 1 and one page of block 0.
        plane.blocks[1].invalidate(0)
        plane.blocks[1].invalidate(1)
        plane.blocks[0].invalidate(0)
        # Move the active pointer off the full blocks.
        plane.allocate_page()
        victim = plane.greedy_victim()
        assert victim.block_id == 1

    def test_greedy_victim_none_when_nothing_full(self):
        plane = self.make_plane(blocks=2, pages=4)
        plane.allocate_page()
        assert plane.greedy_victim() is None
