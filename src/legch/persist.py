"""Height-filtered Z2 chain complexes and barcode computation per degree."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import BAD_HEIGHT, Generator, HeightAssignment, StructureError
from .augment import LinearizedComplex


@dataclass(frozen=True)
class FilteredComplex:
    """A linearized complex with a height per generator.

    ``from_columns`` checks only the heights: each generator has one, and each
    entry of a column sits strictly below it.  The columns drop the degree by 1
    and square to zero without a check, for the reason ``LinearizedComplex``
    gives."""

    generators: tuple[Generator, ...]
    heights: HeightAssignment
    columns: tuple[frozenset[int], ...]

    @classmethod
    def from_columns(
        cls,
        generators: Sequence[Generator],
        heights: HeightAssignment,
        columns: Sequence[frozenset[int]],
    ) -> "FilteredComplex":
        generators = tuple(generators)
        for g in generators:
            heights.of(g.gid)
        for g, col in zip(generators, columns):
            for p in col:
                if not heights.of(p) < heights.of(g.gid):
                    raise StructureError(
                        f"generator {generators[p].name} appears in d({g.name}) but does not sit "
                        f"strictly below it; these heights are invalid for this differential",
                        BAD_HEIGHT,
                    )
        return cls(generators, heights, tuple(columns))


def build_filtered_complex(
    lin: LinearizedComplex, h: HeightAssignment
) -> FilteredComplex:
    return FilteredComplex.from_columns(lin.dga.generators, h, lin.columns)


@dataclass(frozen=True)
class Bar:
    degree: int
    birth: Fraction
    death: Fraction | float  # math.inf for an infinite bar
    birth_label: str | None = None
    death_label: str | None = None

    def __post_init__(self):
        if not self.birth < self.death:
            raise ValueError(f"bar must have birth < death, got [{self.birth}, {self.death})")

    @property
    def finite(self) -> bool:
        return self.death != math.inf


def _bar_key(bar: Bar):
    return (bar.degree, bar.birth, bar.death, bar.birth_label or "", bar.death_label or "")


@dataclass(frozen=True)
class Barcode:
    bars: tuple[Bar, ...]

    def __post_init__(self):
        object.__setattr__(self, "bars", tuple(sorted(self.bars, key=_bar_key)))

    def in_degree(self, degree: int) -> tuple[Bar, ...]:
        return tuple(b for b in self.bars if b.degree == degree)


def compute_barcode(fc: FilteredComplex) -> Barcode:
    """Standard column reduction over Z2, columns ordered by (height, id).

    A surviving pivot pairs a killer with the cycle it caps, giving a finite
    bar; a zero column that is no column's pivot gives an infinite bar.  Ties
    in height are harmless because the differential strictly decreases height,
    so equal-height generators never pair with each other; the id tie-break
    fixes reproducible representative labels.
    """
    order = sorted(range(len(fc.generators)), key=fc.heights.of)  # stable: ids break ties
    pos = {g: i for i, g in enumerate(order)}

    reduced: list[int] = []  # column bitmasks over sorted positions
    combo: list[int] = []  # which original columns were summed (over sorted positions)
    pivot_owner: dict[int, int] = {}
    for j, g in enumerate(order):
        col = 0
        for p in fc.columns[g]:
            col |= 1 << pos[p]
        rep = 1 << j
        while col:
            low = col.bit_length() - 1
            k = pivot_owner.get(low)
            if k is None:
                break
            col ^= reduced[k]
            rep ^= combo[k]
        reduced.append(col)
        combo.append(rep)
        if col:
            pivot_owner[col.bit_length() - 1] = j

    def label(mask: int) -> str:
        gids = []
        while mask:
            low = mask & -mask
            gids.append(order[low.bit_length() - 1])
            mask ^= low
        return "+".join(fc.generators[g].name for g in sorted(gids))

    bars = []
    for j, g in enumerate(order):
        if reduced[j]:
            i = order[reduced[j].bit_length() - 1]
            bars.append(
                Bar(
                    degree=fc.generators[i].grading,
                    birth=fc.heights.of(i),
                    death=fc.heights.of(g),
                    birth_label=label(reduced[j]),
                    death_label=fc.generators[g].name,
                )
            )
        elif j not in pivot_owner:
            bars.append(
                Bar(
                    degree=fc.generators[g].grading,
                    birth=fc.heights.of(g),
                    death=math.inf,
                    birth_label=label(combo[j]),
                )
            )
    return Barcode(tuple(bars))
