"""Bundled example knots: unknot, trefoil, trefoil after a strand-slide that
adds a cancelling crossing pair, and the island diagram where flooding fails.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from ..algebra import HeightAssignment
from ..fileio import KnotData, parse_knot_file

NAMES = ("unknot", "trefoil", "trefoil_rii", "island")


def corpus_path(name: str) -> Path:
    if name not in NAMES:
        raise ValueError(f"unknown corpus knot {name!r}; choose from {NAMES}")
    return Path(__file__).with_name(f"{name}.json")


def load(name: str) -> KnotData:
    return parse_knot_file(corpus_path(name).read_bytes())


def trefoil_after_rii(delta: Fraction) -> KnotData:
    """The trefoil diagram with an extra finger pushed through near q4, creating
    crossings a (grading 1) and b (grading 0) whose bigon has area ``delta``:
    the shipped trefoil_rii.json (delta = 0.3) with h(a) = 2 + delta.

    Valid for 0 < delta < 1.  Like a height, ``delta`` must be exact.
    """
    if isinstance(delta, float):
        raise TypeError("delta must be exact (int, Fraction or decimal string), not float")
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    kd = load("trefoil_rii")
    a = next(g.gid for g in kd.dga.generators if g.name == "a")
    heights = kd.heights.heights
    heights = heights[:a] + (2 + delta,) + heights[a + 1 :]
    return kd._replace(heights=HeightAssignment(heights))
