"""Area patches, area inequalities, the flooding tiering and height assignment."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal

from .algebra import HeightAssignment, StructureError

ALLOWED_COEFFS = {-2, -1, 1, 2}

LinearForm = tuple[tuple[int, int], ...]  # sorted (generator id, coefficient) pairs


@dataclass(frozen=True)
class AreaPatch:
    """Signed corners of one bounded complementary region; its area is positive."""

    corners: tuple[tuple[int, int], ...]

    def __post_init__(self):
        gids = [g for g, _ in self.corners]
        if len(set(gids)) != len(gids):
            raise ValueError("each generator may appear at most once per patch")
        for g, c in self.corners:
            if c not in ALLOWED_COEFFS:
                raise ValueError(f"corner coefficient {c} at generator {g} not in {{-2,-1,1,2}}")
        object.__setattr__(
            self, "corners", tuple(sorted(self.corners))
        )


@dataclass(frozen=True)
class LagrangianDiagramData:
    crossings: tuple[int, ...]
    patches: tuple[AreaPatch, ...]
    ng_resolved: bool = False


@dataclass(frozen=True)
class InequalitySystem:
    """Sparse integer linear forms over crossing ids, each constrained > 0."""

    forms: tuple[LinearForm, ...]


def area_inequalities(d: LagrangianDiagramData) -> InequalitySystem:
    """One strict positivity inequality per patch, in patch order."""
    return InequalitySystem(tuple(patch.corners for patch in d.patches))


@dataclass(frozen=True)
class Tiering:
    tiers: tuple[frozenset[int], ...]
    status: Literal["success", "failure"]
    unassigned: frozenset[int]


def flood(sys: InequalitySystem, crossings: Iterable[int]) -> Tiering:
    """Tier the crossings by repeatedly extracting those that appear with only
    nonnegative coefficients, dropping every inequality such a crossing solves.

    Fails (without error) when a round extracts nothing while inequalities
    remain; the unassigned crossings are reported.  When the inequality set
    empties, one final tier collects whatever is left, possibly nothing.
    """
    untiered = set(crossings)
    for form in sys.forms:
        for g, _ in form:
            if g not in untiered:
                raise StructureError(f"inequality variable {g} is not a listed crossing")
    remaining = [dict(form) for form in sys.forms]
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
    m = len(t.tiers)
    level = [0] * (m + 1)  # 1-indexed
    for k in range(m, 0, -1):
        if k == m:
            level[k] = 1
        else:
            level[k] = 1 + sum(2 * level[i] * len(t.tiers[i - 1]) for i in range(k + 1, m + 1))
    heights = {}
    for k, tier in enumerate(t.tiers, start=1):
        for g in tier:
            heights[g] = Fraction(level[k])
    return HeightAssignment(heights)
