"""Unit tests for the hpcstruct-style structure file."""

import pytest

from repro.binary import LoopMap, emit_structure, parse_structure
from repro.workloads import ArtWorkload, TspWorkload


@pytest.fixture(scope="module")
def art_structure():
    bound = ArtWorkload(scale=0.02).build_original()
    xml = emit_structure(bound.program)
    return bound, xml, parse_structure(xml)


class TestEmit:
    def test_xml_shape(self, art_structure):
        _, xml, _ = art_structure
        assert xml.startswith("<Structure")
        assert "<Function" in xml and "<Loop" in xml and "<Statement" in xml

    def test_program_name_recorded(self, art_structure):
        _, _, parsed = art_structure
        assert parsed.program == "179.ART"


class TestRoundTrip:
    def test_every_statement_survives(self, art_structure):
        bound, _, parsed = art_structure
        for _, stmt in bound.program.walk():
            assert parsed.statements[stmt.ip][0] == stmt.line

    def test_loop_attribution_matches_loopmap(self, art_structure):
        bound, _, parsed = art_structure
        loop_map = LoopMap(bound.program)
        for access in bound.program.accesses():
            direct = loop_map.loop_of_ip(access.ip)
            from_file = parsed.loop_of_ip(access.ip)
            if direct is None:
                assert from_file is None
            else:
                assert from_file is not None
                assert from_file.line_range == direct.line_range
                assert from_file.depth == direct.depth

    def test_loop_count_preserved(self, art_structure):
        bound, _, parsed = art_structure
        assert len(parsed.loops) == len(bound.program.loops())

    def test_paper_loop_labels_present(self, art_structure):
        _, _, parsed = art_structure
        labels = {l.label for l in parsed.loops.values()}
        assert "615-616" in labels
        assert "545-548" in labels

    def test_nesting_parents_preserved(self):
        bound = TspWorkload(scale=0.02).build_original()
        parsed = parse_structure(emit_structure(bound.program))
        depths = {l.depth for l in parsed.loops.values()}
        assert depths == {1, 2}
        inner = [l for l in parsed.loops.values() if l.depth == 2]
        assert all(l.parent is not None for l in inner)


class TestValidation:
    def test_rejects_non_structure_xml(self):
        with pytest.raises(ValueError):
            parse_structure("<NotAStructure/>")
