"""Counting polynomials, the strong Morse identity, and barcode distance."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .algebra import DGA
from .persist import Barcode


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


class StrongMorseReport(NamedTuple):
    mc: LaurentPolynomial
    pc: LaurentPolynomial
    finite_bars: LaurentPolynomial
    holds: bool


def check_strong_morse(dga: DGA, b: Barcode) -> StrongMorseReport:
    """MC counts generators by grading; PC and R count infinite and finite bars by degree.  MC - PC = (z+1)R
    holds for every barcode that ``compute_barcode`` makes from ``dga``: each generator ends exactly one bar,
    and each finite bar dies one degree above its birth.  A barcode not made from ``dga`` can fail it."""
    mc = LaurentPolynomial(g.grading for g in dga.generators)
    pc, r = LaurentPolynomial(), LaurentPolynomial()
    for bar in b.bars:
        (r if bar.finite else pc)[bar.degree] += 1
    lhs = mc.copy()
    lhs.subtract(pc)
    rhs = r.copy()
    rhs.update({e + 1: c for e, c in r.items()})
    return StrongMorseReport(mc, pc, r, lhs == rhs)


def _covers(edges: list[list[int]], size: int) -> bool:
    """Whether one matching matches every bar to one of its partners:
    ``edges[u]`` lists bar u's partners among ``size``.

    Hopcroft-Karp: each phase layers the bars by breadth-first search from the
    unmatched ones, then augments along disjoint layered paths, found depth
    first on an explicit stack, so no recursion limit applies.
    """
    mate = [-1] * len(edges)
    owner = [-1] * size
    while True:
        free = [u for u, v in enumerate(mate) if v < 0]
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
        if not reached:  # no augmenting path left: some bar stays unmatched
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


def _lower_bound(side1, side2) -> int:
    """The threshold bound (Garfinkel 1971): the largest over all bars of the
    smaller of v and the cheapest edge to the other side.

    Each bar scans the other side outward from its own place in x-order, and
    a direction stops once |dx| reaches the cheapest cost found so far."""
    lower = 0
    for (xs, ys, vs), (oxs, oys, _) in ((side1, side2), (side2, side1)):
        for x, y, best in zip(xs, ys, vs):
            if best <= lower:
                continue
            i = bisect_left(oxs, x)
            for scan in (range(i, len(oxs)), range(i - 1, -1, -1)):
                for j in scan:
                    dx = abs(oxs[j] - x)
                    if dx >= best:
                        break
                    best = min(best, max(dx, abs(oys[j] - y)))
            lower = max(lower, best)
    return lower


def _edges(side, other, delta: int) -> list[list[int]]:
    """The partners within ``delta`` of each bar of ``side`` that costs more
    than ``delta`` to delete: the points of ``other`` in the box |dx|, |dy| <=
    delta, an x-window found by bisection, filtered by y."""
    oxs, oys, _ = other
    return [
        [j for j in range(bisect_left(oxs, x - delta), bisect_right(oxs, x + delta)) if abs(oys[j] - y) <= delta]
        for x, y, v in zip(*side)
        if v > delta
    ]


def _candidate_runs(lo: int, hi: int, deletes, rows):
    """The candidate costs strictly between ``lo`` and ``hi``, as runs
    ``(seq, base, sign, start, stop)`` that hold the values sign * (seq[j] -
    base) for j in range(start, stop), sorted one way or the other.

    ``deletes`` is the sorted deletion costs, and each ``(coords, seq)`` of
    ``rows`` gives the differences |c - s| of one coordinate, for c in
    ``coords`` and s in the sorted ``seq``: per c, one run above c and one
    below, each found by bisection."""
    runs = [(deletes, 0, 1, bisect_right(deletes, lo), bisect_left(deletes, hi))]
    for coords, seq in rows:
        for c in coords:
            runs.append((seq, c, 1, bisect_right(seq, c + lo), bisect_left(seq, c + hi)))
            runs.append((seq, c, -1, bisect_right(seq, c - hi), bisect_left(seq, c - lo)))
    return [run for run in runs if run[3] < run[4]]


def _weighted_median(runs) -> int:
    """The median of the runs' middle values, each weighted by its run's
    length: at least a quarter of all values lie on each side of it."""
    middles = sorted((sign * (seq[(start + stop) // 2] - base), stop - start) for seq, base, sign, start, stop in runs)
    total, seen = sum(w for _, w in middles), 0
    for value, w in middles:
        seen += w
        if 2 * seen >= total:
            return value


def _finite_distance(pts1: list[tuple[int, int, int]], pts2: list[tuple[int, int, int]]) -> int:
    """Twice the bottleneck distance of finite bars, each matched or deleted,
    given as the points (x, y, v) = (2b, 2d, d - b) of their integer ends [b, d).

    Deleting a bar costs v, and matching it to another costs max(|x - x'|,
    |y - y'|): twice the larger endpoint displacement.  So a bar's edges at a
    cost delta are the bars of the other side in an axis-aligned box around it.

    A cost delta is feasible exactly when the bars whose deletion costs more
    than delta can all be matched at cost at most delta.  By Mendelsohn-Dulmage
    that holds exactly when the bars of each side can be so matched on their
    own.

    No delta below ``lower``, the threshold bound, is feasible, and deleting
    every bar makes ``upper``, the largest v, feasible.  ``lower`` is a cost,
    and the answer when bars move to their own images, so it is tried first.
    Otherwise the answer is one of the deletion costs and coordinate gaps
    |x - x'| and |y - y'| in (lower, upper].  Counted by bisection, never
    listed, they are narrowed at their weighted median of medians until at
    most 8 per bar remain; those are listed and bisected.
    """
    deletes = sorted(v for _, _, v in pts1 + pts2)
    upper = deletes[-1] if deletes else 0
    if not pts1 or not pts2:
        return upper
    side1, side2 = (tuple(zip(*sorted(pts))) for pts in (pts1, pts2))  # columns x, y, v, sorted by x

    def feasible(delta: int) -> bool:
        return _covers(_edges(side1, side2, delta), len(pts2)) and _covers(_edges(side2, side1, delta), len(pts1))

    lower = _lower_bound(side1, side2)
    if lower == upper or feasible(lower):
        return lower
    rows = ((side1[0], side2[0]), (side1[1], sorted(side2[1])))
    runs = _candidate_runs(lower, upper, deletes, rows)
    while sum(run[4] - run[3] for run in runs) > 8 * len(deletes):
        pivot = _weighted_median(runs)
        if feasible(pivot):
            upper = pivot
        else:
            lower = pivot
        runs = _candidate_runs(lower, upper, deletes, rows)
    candidates = sorted({sign * (seq[j] - base) for seq, base, sign, start, stop in runs for j in range(start, stop)})
    candidates.append(upper)  # feasible
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]


def _split_by_degree(barcode: Barcode, scale: int) -> dict[int, tuple[list[int], list[tuple[int, int, int]]]]:
    """Per degree, the births of the infinite bars times ``scale``, and the
    points (2b, 2d, d - b) of the finite bars [b, d) times ``scale``, each in
    the barcode's order."""
    split: dict[int, tuple[list[int], list[tuple[int, int, int]]]] = {}
    for bar in barcode.bars:
        infinite, finite = split.setdefault(bar.degree, ([], []))
        birth, death = bar.birth.numerator * (scale // bar.birth.denominator), bar.death
        if isinstance(death, float) and death == math.inf:  # not bar.finite
            infinite.append(birth)
        else:
            death = death.numerator * (scale // death.denominator)
            finite.append((2 * birth, 2 * death, death - birth))
    return split


def interleaving_distance(b1: Barcode, b2: Barcode):
    """Bottleneck matching distance between barcodes, per degree, then maximized.

    A matched pair costs its largest endpoint displacement, an unmatched finite
    bar costs half its length, and infinite bars must be matched; mismatched
    infinite-bar counts make the distance infinite.  Exact over rational input:
    every end is scaled once to an integer, by the lcm of the denominators of
    both barcodes' finite ends.
    """
    bars = b1.bars + b2.bars
    death_denominators = {d.denominator for bar in bars if not (isinstance(d := bar.death, float) and d == math.inf)}
    scale = math.lcm(*{bar.birth.denominator for bar in bars}, *death_denominators)
    split1, split2 = _split_by_degree(b1, scale), _split_by_degree(b2, scale)
    worst = 0  # in units of 1/(2 scale)
    for k in sorted(split1.keys() | split2.keys()):
        (inf1, finite1), (inf2, finite2) = split1.get(k, ([], [])), split2.get(k, ([], []))
        if len(inf1) != len(inf2):
            return math.inf
        # Infinite bars match only each other, at the birth gap, so they form
        # their own problem: on a line, pairing them in sorted order is optimal.
        infinite = 2 * max((abs(a - b) for a, b in zip(sorted(inf1), sorted(inf2))), default=0)
        worst = max(worst, infinite, _finite_distance(finite1, finite2))
    return Fraction(worst, 2 * scale)
