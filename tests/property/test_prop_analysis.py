"""Property-based tests for affinity, clustering, and structure files."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binary import emit_structure, parse_structure
from repro.core import cluster_offsets, compute_affinities
from repro.core.attribution import LoopAccessEntry


@st.composite
def loop_tables(draw):
    """Random {loop_id: LoopAccessEntry} tables over a few offsets."""
    offsets = draw(
        st.lists(st.sampled_from([0, 4, 8, 16, 24, 32]), min_size=1,
                 max_size=5, unique=True)
    )
    table = {}
    n_loops = draw(st.integers(min_value=1, max_value=4))
    for loop_id in range(n_loops):
        entry = LoopAccessEntry(loop_id, str(loop_id), (0, 0))
        chosen = draw(
            st.lists(st.sampled_from(offsets), min_size=1,
                     max_size=len(offsets), unique=True)
        )
        for offset in chosen:
            entry.add(offset, draw(st.floats(min_value=0.1, max_value=100.0)))
        table[loop_id] = entry
    return table


class TestAffinityProperties:
    @given(loop_tables())
    def test_affinity_in_unit_interval(self, table):
        matrix = compute_affinities(table)
        for i, j, value in matrix.pairs():
            assert 0.0 <= value <= 1.0 + 1e-12

    @given(loop_tables())
    def test_affinity_is_symmetric(self, table):
        matrix = compute_affinities(table)
        for i in matrix.offsets:
            for j in matrix.offsets:
                assert matrix.affinity(i, j) == matrix.affinity(j, i)

    @given(loop_tables())
    def test_pair_always_together_has_affinity_one(self, table):
        # Post-process: if two offsets appear in exactly the same loops,
        # Eq 7 must give 1.
        matrix = compute_affinities(table)
        appearance = {}
        for loop_id, entry in table.items():
            for offset in entry.offset_latency:
                appearance.setdefault(offset, set()).add(loop_id)
        for i in matrix.offsets:
            for j in matrix.offsets:
                if i < j and appearance[i] == appearance[j]:
                    assert matrix.affinity(i, j) >= 1.0 - 1e-9

    @given(loop_tables())
    def test_disjoint_offsets_have_affinity_zero(self, table):
        matrix = compute_affinities(table)
        appearance = {}
        for loop_id, entry in table.items():
            for offset in entry.offset_latency:
                appearance.setdefault(offset, set()).add(loop_id)
        for i in matrix.offsets:
            for j in matrix.offsets:
                if i < j and not (appearance[i] & appearance[j]):
                    assert matrix.affinity(i, j) == 0.0


class TestClusteringProperties:
    @given(loop_tables(), st.floats(min_value=0.0, max_value=1.0))
    def test_clusters_partition_the_offsets(self, table, threshold):
        matrix = compute_affinities(table)
        groups = cluster_offsets(matrix, threshold=threshold)
        flat = [offset for group in groups for offset in group]
        assert sorted(flat) == sorted(matrix.offsets)
        assert len(flat) == len(set(flat))

    @given(loop_tables())
    def test_lower_threshold_never_splits_more(self, table):
        matrix = compute_affinities(table)
        strict = cluster_offsets(matrix, threshold=0.9)
        loose = cluster_offsets(matrix, threshold=0.1)
        # Looser thresholds merge: fewer or equal groups.
        assert len(loose) <= len(strict)

    @given(loop_tables())
    def test_high_threshold_groups_contain_a_strong_edge(self, table):
        matrix = compute_affinities(table)
        threshold = 0.95
        groups = cluster_offsets(matrix, threshold=threshold)
        # Every multi-offset group exists because of at least one edge
        # at or above the threshold.
        for group in groups:
            if len(group) > 1:
                assert any(
                    matrix.affinity(i, j) >= threshold
                    for n, i in enumerate(group)
                    for j in group[n + 1:]
                )


class TestStructureFileProperties:
    @given(st.data())
    @settings(deadline=None, max_examples=25)
    def test_roundtrip_on_random_programs(self, data):
        from .strategies import build, loop_trees

        body = data.draw(loop_trees())
        bound = build(body)
        parsed = parse_structure(emit_structure(bound.program))
        assert parsed.program == bound.program.name
        for _, stmt in bound.program.walk():
            assert parsed.statements[stmt.ip][0] == stmt.line
        assert len(parsed.loops) == len(bound.program.loops())
