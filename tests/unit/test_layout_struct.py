"""Unit tests for StructType layout (offsets, padding, subsets)."""

import pytest

from repro.layout import (
    CHAR,
    DOUBLE,
    INT,
    LONG,
    POINTER,
    FieldLatencyProfile,
    StructType,
    subset_struct,
)
from repro.workloads import F1_NEURON, NEIGHBOR, PATIENT, TREE, ZONE


class TestBasicLayout:
    def test_homogeneous_ints_pack_densely(self):
        st = StructType("t", [("a", INT), ("b", INT), ("c", INT), ("d", INT)])
        assert [f.offset for f in st.fields] == [0, 4, 8, 12]
        assert st.size == 16
        assert st.align == 4

    def test_padding_before_wider_member(self):
        # char then double: 7 bytes of padding, like a C compiler.
        st = StructType("t", [("c", CHAR), ("d", DOUBLE)])
        assert st.offset_of("c") == 0
        assert st.offset_of("d") == 8
        assert st.size == 16

    def test_tail_padding_rounds_to_alignment(self):
        st = StructType("t", [("d", DOUBLE), ("c", CHAR)])
        assert st.size == 16  # 9 bytes of payload, rounded to 8-alignment
        assert st.size - sum(f.size for f in st.fields) == 7

    def test_packed_struct_has_no_padding(self):
        st = StructType("t", [("c", CHAR), ("d", DOUBLE)], packed=True)
        assert st.offset_of("d") == 1
        assert st.size == 9
        assert st.align == 1

    def test_declaration_order_is_preserved(self):
        st = StructType("t", [("z", INT), ("a", INT)])
        assert st.field_names == ("z", "a")


class TestPaperStructs:
    """The §6 structures must lay out exactly as the paper assumes."""

    def test_f1_neuron_is_64_bytes_of_8_byte_fields(self):
        assert F1_NEURON.size == 64
        assert [f.offset for f in F1_NEURON.fields] == list(range(0, 64, 8))

    def test_tree_mixes_ints_and_doubles(self):
        # sz int, pad, x/y doubles, then four ints.
        assert TREE.offset_of("sz") == 0
        assert TREE.offset_of("x") == 8
        assert TREE.offset_of("y") == 16
        assert TREE.offset_of("next") == 32
        assert TREE.size == 40

    def test_zone_is_32_bytes(self):
        assert ZONE.size == 32
        assert ZONE.offset_of("value") == 16
        assert ZONE.offset_of("nextZone") == 24

    def test_patient_has_eight_fields(self):
        assert len(PATIENT) == 8
        assert PATIENT.offset_of("forward") == 32

    def test_neighbor_holds_inline_record_plus_dist(self):
        assert NEIGHBOR.offset_of("entry") == 0
        assert NEIGHBOR.offset_of("dist") == 48
        assert NEIGHBOR.size == 56


class TestValidation:
    def test_empty_struct_rejected(self):
        with pytest.raises(ValueError):
            StructType("t", [])

    def test_duplicate_field_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            StructType("t", [("a", INT), ("a", LONG)])


class TestQueries:
    @pytest.fixture
    def padded(self):
        return StructType("t", [("c", CHAR), ("d", DOUBLE), ("i", INT)])

    def test_field_lookup(self, padded):
        assert padded.field("d").offset == 8

    def test_missing_field_raises(self, padded):
        with pytest.raises(KeyError):
            padded.field("nope")

    def test_field_at_offset_inside_field(self, padded):
        assert padded.field_at_offset(11).name == "d"  # byte 3 of d

    def test_field_at_offset_in_padding_is_none(self, padded):
        assert padded.field_at_offset(3) is None

    def test_contains(self, padded):
        assert "d" in padded
        assert "q" not in padded

    def test_c_declaration_mentions_every_field(self, padded):
        decl = padded.c_declaration()
        assert decl.startswith("struct t {")
        for name in padded.field_names:
            assert name in decl

    def test_equality_and_hash(self):
        a = StructType("t", [("x", INT)])
        b = StructType("t", [("x", INT)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != StructType("t", [("x", LONG)])


class TestSubsetStruct:
    def test_subset_keeps_declaration_order(self):
        sub = subset_struct(TREE, ["next", "x", "y"], name="tree_hot")
        assert sub.field_names == ("x", "y", "next")  # base order, not ours
        assert sub.size == 24

    def test_subset_recomputes_offsets(self):
        sub = subset_struct(PATIENT, ["forward"])
        assert sub.offset_of("forward") == 0
        assert sub.size == 8

    def test_missing_fields_raise(self):
        with pytest.raises(KeyError):
            subset_struct(TREE, ["x", "nope"])


class TestFieldLatencyProfile:
    def test_accumulates_and_shares(self):
        profile = FieldLatencyProfile(F1_NEURON)
        profile.add("P", 75.0)
        profile.add("U", 25.0)
        profile.add("P", 25.0)
        assert profile.total() == 125.0
        assert profile.share("P") == pytest.approx(0.8)
        assert profile.share("R") == 0.0

    def test_rejects_unknown_field(self):
        profile = FieldLatencyProfile(F1_NEURON)
        with pytest.raises(KeyError):
            profile.add("nope", 1.0)
