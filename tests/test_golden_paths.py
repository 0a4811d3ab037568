"""Frozen outputs of the spline, data-driven, bootstrap, ``test`` and ``tune`` paths.

``golden_mc.csv`` freezes one variant of the power family; this file holds
the rest, as recorded by ``record_golden_paths.py``.
"""

import json
import math

import pytest

from record_golden_paths import GOLDEN, golden_paths


def assert_matches(got, want, where="golden"):
    """``got`` equals ``want``: floats to a relative 1e-9, everything else exactly."""
    assert type(got) is type(want), f"{where}: {got!r} is not {want!r}"
    if isinstance(want, dict):
        assert got.keys() == want.keys(), f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: {len(got)} entries, not {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-9), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def fresh():
    return golden_paths()


@pytest.fixture(scope="module")
def frozen():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("part", ["monte_carlo", "data_driven_picks", "commands"])
def test_matches_the_frozen_file(fresh, frozen, part):
    assert_matches(fresh[part], frozen[part], part)


def test_commands_completed(frozen):
    # a frozen failure would hold nothing worth comparing
    assert {c["exit_code"] for c in frozen["commands"].values()} == {0}


@pytest.mark.parametrize("want,got,fails", [
    (1.0, 1.0 + 1e-12, False), (1.0, 1.0 + 1e-8, True), (3, 3.0, True),
    ({"a": [1, 2.0]}, {"a": [1, 2.0]}, False), ({"a": 1}, {"b": 1}, True),
    ([0.5], [0.5, 0.5], True),
])
def test_comparison(want, got, fails):
    if fails:
        with pytest.raises(AssertionError):
            assert_matches(got, want)
    else:
        assert_matches(got, want)
