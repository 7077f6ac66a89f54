"""Area patches, area inequalities, the flooding tiering and height assignment."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal

from .algebra import HeightAssignment


@dataclass(frozen=True)
class LagrangianDiagramData:
    """Crossing ids and one patch per bounded region.  A patch is the linear
    form of the region's positive area: its (crossing id, coefficient) corners,
    sorted by id, as ``parse_knot_file`` checks and builds them."""

    crossings: tuple[int, ...]
    patches: tuple[tuple[tuple[int, int], ...], ...]


def area_inequalities(d: LagrangianDiagramData) -> tuple[tuple[tuple[int, int], ...], ...]:
    """One strict positivity inequality per patch, in patch order."""
    return d.patches


@dataclass(frozen=True)
class Tiering:
    tiers: tuple[frozenset[int], ...]
    status: Literal["success", "failure"]
    unassigned: frozenset[int]


def flood(forms: Iterable[tuple[tuple[int, int], ...]], crossings: Iterable[int]) -> Tiering:
    """Tier the crossings by repeatedly extracting those that appear with only
    nonnegative coefficients, dropping every inequality such a crossing solves.
    Each form is a patch over ``crossings``, as the parser builds it.

    Fails (without error) when a round extracts nothing while inequalities
    remain; the unassigned crossings are reported.  When the inequality set
    empties, one final tier collects whatever is left, possibly nothing.
    """
    untiered = set(crossings)
    remaining = [dict(form) for form in forms]
    tiers: list[frozenset[int]] = []
    while True:
        tier = frozenset(
            g for g in untiered if all(f.get(g, 0) >= 0 for f in remaining)
        )
        if not tier and remaining:
            return Tiering(tuple(tiers), "failure", frozenset(untiered))
        untiered -= tier
        remaining = [f for f in remaining if not any(f.get(g, 0) > 0 for g in tier)]
        tiers.append(tier)
        if not remaining:
            tiers.append(frozenset(untiered))
            return Tiering(tuple(tiers), "success", frozenset())


def assign_heights(t: Tiering) -> HeightAssignment:
    """Height 1 for the last tier, then upward so each tier dominates the doubled
    weight of everything below it."""
    if t.status != "success":
        raise ValueError("cannot assign heights from a failed tiering")
    heights = {}
    below = 0  # sum of 2 * level * size over the tiers already placed
    for tier in reversed(t.tiers):
        level = 1 + below
        below += 2 * level * len(tier)
        heights.update(dict.fromkeys(tier, Fraction(level)))
    return HeightAssignment(heights)
