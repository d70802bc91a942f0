"""Property-based tests for structure layout (ABI invariants)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import (
    BOOL,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    POINTER,
    SHORT,
    SplitPlan,
    StructType,
    apply_split,
    maximal_plan,
)

PRIMITIVES = [CHAR, BOOL, SHORT, INT, FLOAT, LONG, DOUBLE, POINTER]


@st.composite
def struct_types(draw, max_fields=10):
    count = draw(st.integers(min_value=1, max_value=max_fields))
    fields = [
        (f"f{i}", draw(st.sampled_from(PRIMITIVES))) for i in range(count)
    ]
    return StructType("s", fields)


@st.composite
def structs_with_partition(draw):
    struct = draw(struct_types())
    names = list(struct.field_names)
    # Assign each field a group id, then compact the ids.
    ids = [draw(st.integers(min_value=0, max_value=3)) for _ in names]
    groups = {}
    for name, gid in zip(names, ids):
        groups.setdefault(gid, []).append(name)
    plan = SplitPlan(struct.name, tuple(tuple(g) for g in groups.values()))
    return struct, plan


class TestStructInvariants:
    @given(struct_types())
    def test_fields_are_aligned_and_disjoint(self, struct):
        previous_end = 0
        for field in struct.fields:
            assert field.offset % field.type.align == 0
            assert field.offset >= previous_end
            previous_end = field.end

    @given(struct_types())
    def test_size_is_multiple_of_alignment(self, struct):
        assert struct.size % struct.align == 0
        assert struct.size >= sum(f.size for f in struct.fields)

    @given(struct_types())
    def test_arrays_of_struct_keep_every_element_aligned(self, struct):
        # The reason for tail padding: element k's fields stay aligned.
        for k in (1, 2, 7):
            for field in struct.fields:
                assert (k * struct.size + field.offset) % field.type.align == 0

    @given(struct_types())
    def test_field_at_offset_agrees_with_field_ranges(self, struct):
        for offset in range(struct.size):
            found = struct.field_at_offset(offset)
            inside = [f for f in struct.fields if f.offset <= offset < f.end]
            if inside:
                assert found is not None and found.name == inside[0].name
            else:
                assert found is None

    @given(struct_types())
    def test_packed_layout_never_larger(self, struct):
        packed = StructType("p", [(f.name, f.type) for f in struct.fields],
                            packed=True)
        assert packed.size <= struct.size


class TestSplitInvariants:
    @given(structs_with_partition())
    def test_split_preserves_every_field_exactly_once(self, case):
        struct, plan = case
        layout = apply_split(struct, plan)
        seen = [f.name for st_ in layout.structs for f in st_.fields]
        assert sorted(seen) == sorted(struct.field_names)

    @given(structs_with_partition())
    def test_split_structs_obey_abi_too(self, case):
        struct, plan = case
        for st_ in apply_split(struct, plan).structs:
            for field in st_.fields:
                assert field.offset % field.type.align == 0
            assert st_.size % st_.align == 0

    @given(structs_with_partition())
    def test_split_payload_never_grows(self, case):
        struct, plan = case
        layout = apply_split(struct, plan)
        payload = sum(f.size for f in struct.fields)
        split_payload = sum(
            f.size for st_ in layout.structs for f in st_.fields
        )
        assert split_payload == payload

    @given(struct_types())
    def test_maximal_split_removes_all_internal_padding(self, struct):
        layout = apply_split(struct, maximal_plan(struct))
        for st_ in layout.structs:
            assert st_.size == sum(f.size for f in st_.fields)
