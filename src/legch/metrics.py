"""Counting polynomials, the strong Morse identity, and barcode distance."""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .algebra import DGA
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
    pc = LaurentPolynomial(bar.degree for bar in b.bars if not bar.finite)
    r = LaurentPolynomial(bar.degree for bar in b.bars if bar.finite)
    lhs = mc.copy()
    lhs.subtract(pc)
    rhs = r.copy()
    rhs.update({e + 1: c for e, c in r.items()})
    return StrongMorseReport(mc, pc, r, lhs == rhs)


def _point(bar: Bar, scale: int) -> tuple[int, int]:
    birth, death = (x.numerator * (scale // x.denominator) for x in (bar.birth, bar.death))
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


def _finite_distance(bars1: list[Bar], bars2: list[Bar]) -> Fraction:
    """Bottleneck distance of finite bars, each matched or deleted.

    Every cost is an integer in units of 1/(2L), L the lcm of the endpoints'
    denominators.  A bar [b, d) becomes the point (u, v) = L(d + b, d - b).
    Deleting it costs v, and matching it to another costs |u - u'| + |v - v'|:
    twice the larger endpoint displacement, since
    max(|x|, |y|) = (|x + y| + |x - y|) / 2.

    A cost delta is feasible exactly when the bars whose deletion costs more
    than delta can all be matched at cost at most delta.  By Mendelsohn-Dulmage
    that holds exactly when the bars of each side can be so matched on their
    own.
    """
    scale = math.lcm(*(x.denominator for b in bars1 + bars2 for x in (b.birth, b.death)))
    pts1 = [_point(b, scale) for b in bars1]
    pts2 = [_point(b, scale) for b in bars2]
    costs1 = [[abs(u1 - u2) + abs(v1 - v2) for u2, v2 in pts2] for u1, v1 in pts1]
    costs2 = list(zip(*costs1)) if pts1 else [()] * len(pts2)
    deletes1 = [v for _, v in pts1]
    deletes2 = [v for _, v in pts2]
    sides = (
        (deletes1, costs1, _cheapest_first(costs1, len(pts2)), len(pts2)),
        (deletes2, costs2, _cheapest_first(costs2, len(pts1)), len(pts1)),
    )
    candidates = sorted({0}.union(deletes1, deletes2, *costs1))

    def feasible(delta: int) -> bool:
        return all(
            _covers([u for u, d in enumerate(deletes) if d > delta], costs, orders, delta, size)
            for deletes, costs, orders, size in sides
        )

    # The largest candidate is feasible: every bar can be deleted.
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return Fraction(candidates[lo], 2 * scale)


def _degree_distance(bars1: tuple[Bar, ...], bars2: tuple[Bar, ...]):
    """Infinite bars match only each other, at the birth gap, so they form
    their own problem: on a line, pairing them in sorted order is optimal."""
    inf1 = sorted(b.birth for b in bars1 if not b.finite)
    inf2 = sorted(b.birth for b in bars2 if not b.finite)
    if len(inf1) != len(inf2):
        return math.inf
    infinite = max((abs(a - b) for a, b in zip(inf1, inf2)), default=Fraction(0))
    finite = _finite_distance(
        [b for b in bars1 if b.finite], [b for b in bars2 if b.finite]
    )
    return max(infinite, finite)


def interleaving_distance(b1: Barcode, b2: Barcode):
    """Bottleneck matching distance between barcodes, per degree, then maximized.

    A matched pair costs its largest endpoint displacement, an unmatched finite
    bar costs half its length, and infinite bars must be matched; mismatched
    infinite-bar counts make the distance infinite.  Exact over rational input.
    """
    worst = Fraction(0)
    for k in sorted({b.degree for b in b1.bars + b2.bars}):
        d = _degree_distance(b1.in_degree(k), b2.in_degree(k))
        if d == math.inf:
            return math.inf
        worst = max(worst, d)
    return worst
