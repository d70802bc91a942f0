"""Unit tests for SplitPlan and the splitting transform."""

import pytest

from repro.layout import (
    DOUBLE,
    INT,
    SplitPlan,
    StructType,
    apply_split,
    identity_plan,
    maximal_plan,
)
from repro.workloads import F1_NEURON, TREE


class TestSplitPlan:
    def test_groups_and_lookup(self):
        plan = SplitPlan("tree", (("x", "y", "next"), ("sz", "left", "right", "prev")))
        assert plan.group_of("x") == 0
        assert plan.group_of("prev") == 1
        assert plan.field_names == ("x", "y", "next", "sz", "left", "right", "prev")

    def test_duplicate_field_rejected(self):
        with pytest.raises(ValueError, match="appears in groups"):
            SplitPlan("t", (("a", "b"), ("b",)))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SplitPlan("t", (("a",), ()))

    def test_unknown_field_lookup_raises(self):
        plan = SplitPlan("t", (("a",),))
        with pytest.raises(KeyError):
            plan.group_of("z")

    def test_identity_detection(self):
        assert identity_plan(TREE).is_identity()
        assert not maximal_plan(TREE).is_identity()

    def test_describe_mentions_groups(self):
        plan = SplitPlan("t", (("a", "c"), ("b",)))
        text = plan.describe()
        assert "{a, c}" in text and "{b}" in text


class TestApplySplit:
    def test_figure9_tsp_split(self):
        plan = SplitPlan(
            TREE.name, (("x", "y", "next"), ("sz", "left", "right", "prev"))
        )
        layout = apply_split(TREE, plan, names=["tree_0", "tree_1"])
        hot, cold = layout.structs
        assert hot.name == "tree_0"
        assert hot.field_names == ("x", "y", "next")
        assert hot.size == 24
        assert cold.field_names == ("sz", "left", "right", "prev")
        assert cold.size == 16

    def test_field_map_routes_every_field(self):
        layout = apply_split(TREE, maximal_plan(TREE))
        assert set(layout.field_map) == set(TREE.field_names)
        for name in TREE.field_names:
            assert layout.field_map[name][1].field_names == (name,)

    def test_non_partition_rejected(self):
        with pytest.raises(ValueError, match="not a partition"):
            apply_split(TREE, SplitPlan(TREE.name, (("x", "y"),)))

    def test_wrong_struct_name_rejected(self):
        with pytest.raises(ValueError, match="targets"):
            apply_split(TREE, SplitPlan("other", (TREE.field_names,)))

    def test_names_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="names"):
            apply_split(TREE, maximal_plan(TREE), names=["just_one"])

    def test_identity_split_reproduces_struct(self):
        layout = apply_split(TREE, identity_plan(TREE))
        assert len(layout.structs) == 1
        assert layout.structs[0].field_names == TREE.field_names
        assert layout.structs[0].size == TREE.size

    def test_split_can_shrink_total_bytes_by_removing_padding(self):
        # char+double struct has 7 bytes padding; splitting removes it.
        from repro.layout import CHAR

        st = StructType("t", [("c", CHAR), ("d", DOUBLE)])
        layout = apply_split(st, maximal_plan(st))
        assert st.size == 16
        assert sum(part.size for part in layout.structs) == 9

    def test_figure7_art_split_groups(self):
        plan = SplitPlan(
            F1_NEURON.name,
            (("P",), ("X", "Q"), ("I", "U"), ("V",), ("W",), ("R",)),
        )
        layout = apply_split(F1_NEURON, plan)
        sizes = [st.size for st in layout.structs]
        assert sizes == [8, 16, 16, 8, 8, 8]
