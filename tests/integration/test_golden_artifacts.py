"""The paper artifacts at paper scale, pinned byte for byte.

``repro table3 --json --scale 1.0`` (Tables 3 and 4 for all seven
benchmarks) and ``repro analyze 179.ART --json`` must reproduce the
committed golden files exactly.  Smaller scales break the paper's
shape, so only scale 1.0 pins the published magnitudes.  After an
intended change to a paper number, refresh with ``make golden``.
"""

import json

import pytest

from tests.golden import DATA, GOLDENS, numeric_diff, render


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_output_matches_golden(name):
    expected = (DATA / name).read_text()
    got = render(GOLDENS[name])
    if got != expected:
        moved = numeric_diff(json.loads(expected), json.loads(got))
        pytest.fail(f"{name} drifted (make golden to refresh): {moved[:10]}")


def test_numeric_diff_reports_moved_leaves():
    old = {"a": [1, 2.5], "b": {"c": "x"}}
    new = {"a": [1, 3.0], "b": {"c": "x", "d": 4}}
    assert numeric_diff(old, new) == [
        ("$.a[1]", 2.5, 3.0), ("$.b.d", None, 4),
    ]
