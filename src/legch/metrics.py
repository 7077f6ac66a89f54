"""Counting polynomials, the strong Morse identity, and barcode distance."""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem, itemgetter

from .algebra import DGA, _scaled
from .persist import Bar, Barcode


class LaurentPolynomial(Counter):
    """Integer coefficients by exponent: a count of generators or bars per degree.

    Counter's ``+`` and ``-`` drop non-positive counts, so differences are
    taken with ``subtract``.  Equality treats a missing exponent as zero."""

    def __str__(self) -> str:
        parts = []
        for e, c in sorted(self.items(), reverse=True):
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "z" if e == 1 else f"z^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append(("-" if c < 0 else "+" if parts else "") + body)
        return "".join(parts) or "0"


@dataclass(frozen=True)
class StrongMorseReport:
    mc: LaurentPolynomial
    pc: LaurentPolynomial
    finite_bars: LaurentPolynomial
    holds: bool


def check_strong_morse(dga: DGA, b: Barcode) -> StrongMorseReport:
    """MC counts generators by grading; PC (the rank of the full homology) and R
    count infinite and finite bars by degree.  MC - PC and (z+1)R come from
    independent code paths, so their equality cross-checks the barcode."""
    mc = LaurentPolynomial(g.grading for g in dga.generators)
    pc, r = LaurentPolynomial(), LaurentPolynomial()
    for bar in b.bars:
        (r if bar.finite else pc)[bar.degree] += 1
    lhs = mc.copy()
    lhs.subtract(pc)
    rhs = r.copy()
    rhs.update({e + 1: c for e, c in r.items()})
    return StrongMorseReport(mc, pc, r, lhs == rhs)


def _point(bar: Bar, scale: int) -> tuple[int, int]:
    birth, death = _scaled(bar.birth, scale), _scaled(bar.death, scale)
    return death + birth, death - birth


def _cheapest_first(costs, size: int) -> list[list[int]]:
    """For each row of match costs, its partners' indices, cheapest first."""
    partners = range(size)
    return [sorted(partners, key=row.__getitem__) for row in costs]


def _covers(must, costs, orders, delta: int, size: int) -> bool:
    """Whether one matching of cost at most ``delta`` matches every bar in
    ``must`` to one of ``size`` partners.

    Hopcroft-Karp: each phase layers the bars by breadth-first search from the
    unmatched ones, then augments along disjoint layered paths, found depth
    first on an explicit stack, so no recursion limit applies.  A bar's edges
    are the prefix of its cheapest-first order that costs at most ``delta``.
    """
    edges = {u: orders[u][: bisect_right(orders[u], delta, key=costs[u].__getitem__)] for u in must}
    mate = dict.fromkeys(must, -1)
    owner = [-1] * size
    while True:
        free = [u for u in must if mate[u] < 0]
        if not free:
            return True
        layer = dict.fromkeys(free, 0)
        queue, reached = list(free), False
        for u in queue:
            for v in edges[u]:
                w = owner[v]
                if w < 0:
                    reached = True
                elif w not in layer:
                    layer[w] = layer[u] + 1
                    queue.append(w)
        if not reached:  # no augmenting path left: some bar of must stays unmatched
            return False
        scans = {u: iter(edges[u]) for u in layer}  # shared: each edge is tried once a phase
        for root in free:
            lefts, rights = [root], []
            while lefts:
                u = lefts[-1]
                for v in scans[u]:
                    w = owner[v]
                    if w < 0 or layer.get(w) == layer[u] + 1:
                        break
                else:  # dead end: back up one step
                    lefts.pop()
                    if rights:
                        rights.pop()
                    continue
                rights.append(v)
                if w < 0:  # free: flip the path root -> v
                    for x, y in zip(lefts, rights):
                        owner[y], mate[x] = x, y
                    break
                lefts.append(w)


def _finite_distance(bars1: list[Bar], bars2: list[Bar], scale: int) -> int:
    """Bottleneck distance of finite bars, each matched or deleted, in units
    of 1/(2L), L = ``scale``.

    Every end times L is an integer, so every cost is one in these units.  A
    bar [b, d) becomes the point (u, v) = L(d + b, d - b).  Deleting it costs
    v, and matching it to another costs |u - u'| + |v - v'|: twice the larger
    endpoint displacement, since max(|x|, |y|) = (|x + y| + |x - y|) / 2.

    A cost delta is feasible exactly when the bars whose deletion costs more
    than delta can all be matched at cost at most delta.  By Mendelsohn-Dulmage
    that holds exactly when the bars of each side can be so matched on their
    own.

    Every bar is deleted or matched, so no delta is feasible below ``lower``,
    the largest over all bars of the smaller of v and the cheapest edge, and
    deleting every bar makes ``upper``, the largest v, feasible.  ``lower`` is
    a cost, and the answer when bars move to their own images, so it is tried
    first; otherwise the distinct costs in (lower, upper] are bisected.
    """
    pts1 = [_point(b, scale) for b in bars1]
    pts2 = [_point(b, scale) for b in bars2]
    deletes1 = [v for _, v in pts1]
    deletes2 = [v for _, v in pts2]
    upper = max(deletes1 + deletes2, default=0)
    if not pts1 or not pts2:
        return upper
    costs1 = [[abs(u1 - u2) + abs(v1 - v2) for u2, v2 in pts2] for u1, v1 in pts1]
    costs2 = list(zip(*costs1))
    orders1, orders2 = _cheapest_first(costs1, len(pts2)), _cheapest_first(costs2, len(pts1))
    sides = ((deletes1, costs1, orders1, len(pts2)), (deletes2, costs2, orders2, len(pts1)))

    def feasible(delta: int) -> bool:
        return all(
            _covers([u for u, d in enumerate(deletes) if d > delta], costs, orders, delta, size)
            for deletes, costs, orders, size in sides
        )

    # Each bar's cheaper option; its cheapest partner heads its order.
    lower = max(map(min, deletes1 + deletes2, map(getitem, costs1 + costs2, map(itemgetter(0), orders1 + orders2))))
    if lower == upper or feasible(lower):
        return lower
    candidates = sorted(set().union(deletes1, deletes2, *costs1))
    candidates = candidates[bisect_right(candidates, lower) : bisect_right(candidates, upper)]
    # The largest candidate, upper, is feasible.
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]


def _split_by_degree(barcode: Barcode, scale: int) -> dict[int, tuple[list[int], list[Bar]]]:
    """Per degree, the births of the infinite bars times ``scale``, and the
    finite bars.  The births come in order, as the bars are sorted by birth."""
    split: dict[int, tuple[list[int], list[Bar]]] = {}
    for bar in barcode.bars:
        infinite, finite = split.setdefault(bar.degree, ([], []))
        if bar.finite:
            finite.append(bar)
        else:
            infinite.append(_scaled(bar.birth, scale))
    return split


def interleaving_distance(b1: Barcode, b2: Barcode):
    """Bottleneck matching distance between barcodes, per degree, then maximized.

    A matched pair costs its largest endpoint displacement, an unmatched finite
    bar costs half its length, and infinite bars must be matched; mismatched
    infinite-bar counts make the distance infinite.  Exact over rational input:
    every end is scaled once to an integer, by the lcm of both barcodes' scales.
    """
    scale = math.lcm(b1.scale, b2.scale)
    split1, split2 = _split_by_degree(b1, scale), _split_by_degree(b2, scale)
    worst = 0  # in units of 1/(2 scale)
    for k in sorted(split1.keys() | split2.keys()):
        (inf1, finite1), (inf2, finite2) = split1.get(k, ([], [])), split2.get(k, ([], []))
        if len(inf1) != len(inf2):
            return math.inf
        # Infinite bars match only each other, at the birth gap, so they form
        # their own problem: on a line, pairing them in sorted order is optimal.
        infinite = 2 * max((abs(a - b) for a, b in zip(inf1, inf2)), default=0)
        worst = max(worst, infinite, _finite_distance(finite1, finite2, scale))
    return Fraction(worst, 2 * scale)
