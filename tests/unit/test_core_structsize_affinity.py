"""Unit tests for Eqs 5-7: structure size, offsets, affinities."""

import pytest

from repro.core import (
    compute_affinities,
    field_offset,
    loop_offset_table,
    loop_share_rows,
    object_total_latency,
    recover_struct,
    structure_size,
)
from repro.core.attribution import LoopAccessEntry
from repro.profiler import StreamState, ThreadProfile

IDENTITY = ("heap", "Arr")


def stream_with(ip, base, addrs, latency_each=1.0, loop_id=0):
    s = StreamState(key=(ip, 0, IDENTITY))
    s.data_base = base
    s.loop_id = loop_id
    for addr in addrs:
        s.update(addr, latency_each)
    return s


class TestStructureSize:
    def test_eq5_gcd_of_stream_strides(self):
        a = stream_with(1, 0, [0, 64, 128])        # stride 64
        b = stream_with(2, 0, [8, 104, 200])       # stride 96
        assert structure_size([a, b]) == 32

    def test_single_stream(self):
        assert structure_size([stream_with(1, 0, [0, 48])]) == 48

    def test_no_streams_is_zero(self):
        assert structure_size([]) == 0


class TestFieldOffset:
    def test_eq6_offset_mod_size(self):
        s = stream_with(1, 1000, [1000 + 8 + 64 * 5])
        assert field_offset(s, 64) == 8

    def test_requires_positive_size(self):
        with pytest.raises(ValueError):
            field_offset(stream_with(1, 0, [0]), 0)

    def test_requires_sampled_address(self):
        empty = StreamState(key=(1, 0, IDENTITY))
        with pytest.raises(ValueError):
            field_offset(empty, 64)


class TestRecoverStruct:
    def _profile(self, base=0x10000):
        profile = ThreadProfile(thread=0)
        profile.streams.update({
            s.key: s
            for s in [
                stream_with(1, base, [base + 0, base + 64, base + 192]),
                stream_with(2, base, [base + 8 + 64 * k for k in (1, 4, 6)]),
                # A lone sample: no stride vote, but offset attribution.
                stream_with(3, base, [base + 16 + 64 * 3]),
            ]
        })
        return profile

    def test_size_and_offsets_recovered(self):
        recovered = recover_struct(self._profile(), IDENTITY)
        assert recovered is not None
        assert recovered.size == 64
        assert recovered.offsets == [0, 8, 16]

    def test_latency_lands_on_fields(self):
        recovered = recover_struct(self._profile(), IDENTITY)
        assert recovered.fields[0].latency == 3.0
        assert recovered.fields[16].latency == 1.0
        assert recovered.latency_share(0) == pytest.approx(3 / 7)

    def test_no_strided_evidence_returns_none(self):
        profile = ThreadProfile(thread=0)
        unit = stream_with(1, 0, [0, 1, 2, 3])
        profile.streams[unit.key] = unit
        assert recover_struct(profile, IDENTITY) is None

    def test_unknown_identity_returns_none(self):
        assert recover_struct(ThreadProfile(thread=0), IDENTITY) is None


class TestLoopTable:
    def _profile(self):
        profile = ThreadProfile(thread=0)
        streams = [
            stream_with(1, 0, [0, 64], latency_each=10.0, loop_id=0),
            stream_with(2, 0, [8, 72], latency_each=5.0, loop_id=0),
            stream_with(3, 0, [8, 136], latency_each=2.0, loop_id=1),
        ]
        profile.streams.update({s.key: s for s in streams})
        return profile

    def test_aggregation_per_loop_and_offset(self):
        table = loop_offset_table(self._profile(), IDENTITY, 64)
        assert set(table) == {0, 1}
        assert table[0].offset_latency == {0: 20.0, 8: 10.0}
        assert table[1].offset_latency == {8: 4.0}
        assert object_total_latency(table) == 34.0

    def test_share_rows_sorted_by_heat(self):
        rows = loop_share_rows(loop_offset_table(self._profile(), IDENTITY, 64))
        assert rows[0][1] > rows[1][1]
        assert rows[0][2] == [0, 8]


class TestAffinityEq7:
    def _table(self, entries):
        """entries: {loop_id: {offset: latency}}"""
        table = {}
        for loop_id, offsets in entries.items():
            entry = LoopAccessEntry(loop_id, str(loop_id), (0, 0))
            for offset, latency in offsets.items():
                entry.add(offset, latency)
            table[loop_id] = entry
        return table

    def test_always_together_is_one(self):
        table = self._table({0: {0: 10.0, 8: 5.0}, 1: {0: 2.0, 8: 2.0}})
        affinity = compute_affinities(table)
        assert affinity.affinity(0, 8) == pytest.approx(1.0)

    def test_never_together_is_zero(self):
        table = self._table({0: {0: 10.0}, 1: {8: 10.0}})
        assert compute_affinities(table).affinity(0, 8) == 0.0

    def test_paper_art_iu_arithmetic(self):
        # Paper §6.1: I and U share loop 545-548 (10.83%); totals are
        # I=5.5%, U=7.1% -> A_IU = 10.83 / 12.6 = 0.86.
        table = self._table({
            545: {0: 5.26, 32: 5.57},   # I and U together
            615: {40: 73.3},            # P alone
            1015: {0: 0.24},            # I alone
            131: {32: 1.53},            # U elsewhere
        })
        affinity = compute_affinities(table)
        assert affinity.affinity(0, 32) == pytest.approx(0.86, abs=0.01)

    def test_paper_art_pu_arithmetic(self):
        # P and U co-occur only in small loops: A_PU ~ 0.05.
        table = self._table({
            131: {32: 0.8, 40: 0.79},
            589: {32: 1.12, 40: 1.13},
            615: {40: 56.57},
            607: {40: 14.4},
            545: {32: 5.2},
        })
        affinity = compute_affinities(table)
        assert affinity.affinity(32, 40) == pytest.approx(0.05, abs=0.01)

    def test_self_affinity_is_one(self):
        table = self._table({0: {0: 1.0}})
        assert compute_affinities(table).affinity(0, 0) == 1.0

    def test_pairs_sorted_descending(self):
        table = self._table({0: {0: 5.0, 8: 5.0}, 1: {8: 5.0, 16: 5.0, 0: 0.0}})
        pairs = compute_affinities(table).pairs()
        values = [v for _, _, v in pairs]
        assert values == sorted(values, reverse=True)

