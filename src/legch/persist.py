"""Height-filtered Z2 chain complexes and barcode computation per degree."""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .algebra import BAD_HEIGHT, Generator, HeightAssignment, StructureError, _gids
from .augment import LinearizedComplex  # an annotation only; kept so that `legch distance` loads augment, which perfbench traces


class FilteredComplex(NamedTuple):
    """A linearized complex with its heights, indexed by generator id.

    ``compute_barcode`` checks the heights: the tuple holds one per generator,
    and each entry of a column sits strictly below it.  The columns drop the
    degree by 1 and square to zero without a check, for the reason
    ``LinearizedComplex`` gives."""

    generators: tuple[Generator, ...]
    heights: HeightAssignment
    columns: tuple[frozenset[int], ...]


def build_filtered_complex(
    lin: LinearizedComplex, h: HeightAssignment
) -> FilteredComplex:
    return FilteredComplex(lin.generators, h, lin.columns)


class Bar(NamedTuple):
    degree: int
    birth: int | Fraction
    death: int | Fraction | float  # math.inf for an infinite bar
    birth_label: str | None = None
    death_label: str | None = None

    @property
    def finite(self) -> bool:
        return not isinstance(self.death, float) or self.death != math.inf


class Barcode(NamedTuple):
    """Bars in the order they are given: ``compute_barcode`` sorts them by
    degree, birth, death and labels, and a parsed barcode file keeps its own."""

    bars: tuple[Bar, ...]


def compute_barcode(fc: FilteredComplex) -> Barcode:
    """Standard column reduction over Z2, columns ordered by (height, id).

    A surviving pivot pairs a killer with the cycle it caps, giving a finite
    bar; a zero column that is no column's pivot gives an infinite bar.  Ties
    in height are harmless because the differential strictly decreases height,
    so equal-height generators never pair with each other; the id tie-break
    fixes reproducible representative labels.  It checks the heights first, as
    ``FilteredComplex`` says, naming the first fault in generator-id order:
    the first column with an entry too high, and that column's least such entry.

    Every finite bar has birth < death without a check: each entry of a
    reduced column sits strictly below the generator of that column, and so
    does its pivot.  The bars come sorted by degree, birth, death and labels.
    """
    heights = fc.heights.heights
    if len(heights) < len(fc.generators):
        raise StructureError(f"no height assigned to generator id {len(heights)}", BAD_HEIGHT)
    ratios = [h.as_integer_ratio() for h in heights]
    scale = math.lcm(*{d for _, d in ratios})
    scaled = [n * (scale // d) for n, d in ratios]  # integers that compare as the heights do
    for g, col in zip(fc.generators, fc.columns):
        for p in col:
            if not scaled[p] < scaled[g.gid]:
                p = min(q for q in col if not scaled[q] < scaled[g.gid])  # the least id: equal columns name one entry
                raise StructureError(
                    f"generator {fc.generators[p].name} appears in d({g.name}) but does not sit "
                    f"strictly below it; these heights are invalid for this differential",
                    BAD_HEIGHT,
                )
    order = sorted(range(len(fc.generators)), key=scaled.__getitem__)  # stable: ids break ties
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

    names = [g.name for g in fc.generators]
    gradings = [g.grading for g in fc.generators]

    def label(mask: int) -> str:  # mask is over sorted positions
        return "+".join(map(names.__getitem__, sorted(map(order.__getitem__, _gids(mask)))))

    keyed = []  # (sort key, bar): ends compare as their scaled heights do
    for j, g in enumerate(order):
        if col := reduced[j]:
            i = order[col.bit_length() - 1]
            degree, birth_label, death_label = gradings[i], label(col), names[g]
            bar = Bar(degree, heights[i], heights[g], birth_label, death_label)
            keyed.append(((degree, scaled[i], False, scaled[g], birth_label, death_label), bar))
        elif j not in pivot_owner:
            degree, birth_label = gradings[g], label(combo[j])
            bar = Bar(degree, heights[g], math.inf, birth_label)
            keyed.append(((degree, scaled[g], True, 0, birth_label, ""), bar))
    keyed.sort(key=itemgetter(0))  # by key alone: bars are never compared
    return Barcode(tuple(map(itemgetter(1), keyed)))
