"""Tests for flash operations, transaction kinds and FLP classification."""

import pytest

from repro.flash.commands import (
    ParallelismClass,
    TransactionKind,
    classify_parallelism,
    kind_for_parallelism,
)


class TestClassification:
    def test_single_die_single_plane(self):
        assert classify_parallelism(1, 1) is ParallelismClass.NON_PAL

    def test_plane_sharing(self):
        assert classify_parallelism(1, 2) is ParallelismClass.PAL1

    def test_die_interleaving(self):
        assert classify_parallelism(2, 1) is ParallelismClass.PAL2

    def test_combined(self):
        assert classify_parallelism(2, 2) is ParallelismClass.PAL3
        assert classify_parallelism(4, 4) is ParallelismClass.PAL3

    @pytest.mark.parametrize("dies,planes", [(0, 1), (1, 0), (-1, 2)])
    def test_rejects_non_positive(self, dies, planes):
        with pytest.raises(ValueError):
            classify_parallelism(dies, planes)


class TestKindMapping:
    def test_non_pal_is_legacy(self):
        assert kind_for_parallelism(ParallelismClass.NON_PAL) is TransactionKind.LEGACY

    def test_pal1_is_multiplane(self):
        assert kind_for_parallelism(ParallelismClass.PAL1) is TransactionKind.MULTIPLANE

    def test_pal2_is_interleave(self):
        assert kind_for_parallelism(ParallelismClass.PAL2) is TransactionKind.INTERLEAVE

    def test_pal3_is_combined(self):
        assert (
            kind_for_parallelism(ParallelismClass.PAL3)
            is TransactionKind.INTERLEAVE_MULTIPLANE
        )


class TestLabels:
    def test_labels_match_paper(self):
        assert ParallelismClass.NON_PAL.label == "NON-PAL"
        assert ParallelismClass.PAL1.label == "PAL1"
        assert ParallelismClass.PAL2.label == "PAL2"
        assert ParallelismClass.PAL3.label == "PAL3"

    def test_class_ordering_by_value(self):
        assert ParallelismClass.NON_PAL.value < ParallelismClass.PAL3.value
