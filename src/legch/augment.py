"""Augmentations of a DGA and the induced linearized differential."""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import compress
from typing import NamedTuple, Sequence

from .algebra import DGA, Generator, StructureError, _gids

# Nodes, or partial assignments, the augmentation search tree may have; a
# subtree walked from its cached summary is charged its full size.  Without
# pruning, k grading-0 generators take 2^(k+1) - 1 of them, so this admits any
# DGA with up to 17 such generators, among them the (2,17) torus knot.
MAX_SEARCH_NODES = 1 << 18
# Search states whose subtree summaries are kept; past this many, states are
# expanded each time they are met.
MAX_CACHED_STATES = 1 << 10
SEARCH_BOUND = "SEARCH_BOUND"


class Augmentation(NamedTuple):
    """A {0,1} value per generator id, zero outside grading 0."""

    values: tuple[int, ...]


def _monomials(dga: DGA, zero_gens: list[int]) -> list[tuple[int, ...]]:
    """Each differential as a mod-2 sorted tuple of bitmask monomials over ``zero_gens``.

    ``zero_gens[i]`` is bit k - 1 - i, for k grading-0 generators, so the
    search, which fixes them in order, fixes the top bit first; the unit word
    is mask 0.  A word with a letter outside grading 0 evaluates to 0 and is
    dropped, and since values are 0 or 1, repeated letters collapse.  Zero
    polynomials are left out.  The bits are dense, not
    ``DGA.compiled_words``'s generator ids: where few generators have grading
    0, gid-wide masks make each substitution slower.
    """
    top = len(zero_gens) - 1
    bit = {gid: 1 << (top - i) for i, gid in enumerate(zero_gens)}
    polys = []
    for elem in dga.differential:
        poly: set[int] = set()
        for word in elem.words:
            mask = 0
            for g in word:
                if g not in bit:
                    break
                mask |= bit[g]
            else:
                poly ^= {mask}
        if poly:
            polys.append(tuple(sorted(poly)))
    return polys


_ONE = (0,)


def _fix(polys: Sequence[tuple[int, ...]], bit: int, value: int) -> list[tuple[int, ...]] | None:
    """Substitute ``value`` for the variable ``bit``; None once a polynomial is forced to 1.

    Every higher bit is already fixed and gone, so the monomials that contain
    the variable are those at least ``bit``: the sorted suffix from
    ``bisect_left``.  Setting 0 keeps the prefix before it; setting 1 clears
    the bit in the suffix and cancels the duplicates against the prefix.
    Polynomials that vanish are dropped.  A nonconstant polynomial takes both
    values, so the test is exact per column.
    """
    out = []
    for poly in polys:
        i = bisect_left(poly, bit)
        if i == len(poly):
            out.append(poly)
            continue
        rest = poly[:i]
        if value:
            rest = tuple(sorted(set(rest).symmetric_difference(map(bit.__xor__, poly[i:]))))
        if rest == _ONE:
            return None
        if rest:
            out.append(rest)
    return out


def _search(dga: DGA, lo: int, hi: float) -> tuple[list[Augmentation], int]:
    """The augmentations with index in ``[lo, hi)``, and how many there are in all.

    A depth-first search over the grading-0 generators, in generator order, 0
    before 1, cut as soon as some differential is forced to evaluate to 1, so
    the leaves come in lexicographic order of the value vector.  Depth d fixes
    bit k - d, the highest one left, so each substitution splits every live
    polynomial, a sorted tuple of monomials, at one bisection.  A subtree
    depends only on its depth and its live polynomials, and a sorted tuple
    names its polynomial uniquely, so up to
    ``MAX_CACHED_STATES`` such states are expanded once and summarised, after
    their children, as (leaves below, nodes below, the children's summaries,
    None for a cut).  A state met again is walked from its summary, on the
    same stack and with no substitution, where it holds wanted leaves, and
    skipped by its count elsewhere.  Every node of the whole tree is charged
    to the bound, a cut branch as 1 and a repeated state as its recorded
    size.  The walk uses explicit stacks, since the depth is the number of
    grading-0 generators.
    """
    zero_gens = [g.gid for g in dga.generators if g.grading == 0]
    polys = _monomials(dga, zero_gens)
    if _ONE in polys:
        return [], 0
    k = len(zero_gens)
    found: list[Augmentation] = []
    values = [0] * len(dga)
    cache: dict[tuple, tuple] = {}
    seen = nodes = 0  # leaves before the current position; nodes charged so far

    def charge(n: int) -> None:
        nonlocal nodes
        nodes += n
        if nodes > MAX_SEARCH_NODES:
            raise StructureError(
                f"augmentation search exceeds the bound of {MAX_SEARCH_NODES} search nodes "
                f"({k} grading-0 generators)",
                SEARCH_BOUND,
            )

    # Per expanded state on the current path: [key, seen, nodes, child summaries].
    frames: list[list] = []
    # (variables fixed, value of the last one, polynomials before fixing it,
    # None) to expand, or (..., None, a cached summary) to replay; None closes
    # the top frame once its children are done.
    todo: list = [(0, 0, polys, None)]
    while todo:
        item = todo.pop()
        if item is None:
            key, seen0, nodes0, children = frames.pop()
            # Nothing is cached past the cap, so a cached state's children are cached.
            summary = None
            if len(cache) < MAX_CACHED_STATES:
                summary = cache[key] = (seen - seen0, nodes - nodes0, children)
            if frames:
                frames[-1][3].append(summary)
            continue
        depth, value, live, summary = item
        if depth:
            values[zero_gens[depth - 1]] = value
        if summary is None:
            if depth:
                live = _fix(live, 1 << (k - depth), value)
                if live is None:
                    charge(1)
                    frames[-1][3].append(None)
                    continue
            live = tuple(live)  # one copy serves as the key and for the children
            key = (depth, live)
            summary = cache.get(key)
            if summary is None:
                charge(1)
                frames.append([key, seen, nodes - 1, []])
                todo.append(None)
                if depth < k:
                    todo += [(depth + 1, 1, live, None), (depth + 1, 0, live, None)]
                    continue
                summary = (1, 1, ())  # a new leaf is walked as its own summary
            else:
                charge(summary[1])  # before the replay, so a listing stays within the bound
                frames[-1][3].append(summary)
        # Skip a summarised state by its count, or walk its children.
        count, _, children = summary
        if seen + count <= lo or seen >= hi:
            seen += count
        elif depth == k:
            found.append(Augmentation(tuple(values)))
            seen += 1
        else:
            todo += [(depth + 1, v, None, c) for v, c in ((1, children[1]), (0, children[0])) if c]
    return found, seen


def enumerate_augmentations(dga: DGA) -> list[Augmentation]:
    """All augmentations, ordered lexicographically by the value vector, so
    augmentation indices are stable across runs.  Raises a StructureError coded
    ``SEARCH_BOUND`` once the search tree has more than ``MAX_SEARCH_NODES``
    nodes."""
    return _search(dga, 0, math.inf)[0]


def pick_augmentation(dga: DGA, index: int) -> tuple[Augmentation | None, int]:
    """The augmentation at ``index`` of ``enumerate_augmentations(dga)``, or None
    when out of range, and the number of augmentations.  Raises on the same
    search bound as ``enumerate_augmentations``."""
    found, count = _search(dga, index, index + 1)
    return (found[0] if found else None), count


class LinearizedComplex(NamedTuple):
    """Z2 chain complex on the generator span; columns[q] is the support of d1(q).

    Read from the words compiled once per DGA: where no word of two or more
    letters changes a column, the column is the DGA's own frozenset of
    one-letter words, not a copy.

    Not checked, and needs no check: the DGA passed ``validate_dga`` and the
    augmentation was checked by ``linearized_differential``.  So the
    differential conjugated by q -> q + eps(q) squares to zero and has no
    constant term, and its linear part drops the degree by 1 and squares to
    zero."""

    generators: tuple[Generator, ...]
    columns: tuple[frozenset[int], ...]


def linearized_differential(dga: DGA, eps: Augmentation) -> LinearizedComplex:
    """Linearize the differential with respect to ``eps``; raise ValueError,
    naming every fault, unless ``eps`` is an augmentation of ``dga``.

    The linear part of q -> q + eps(q) applied to a word q_{i1}..q_{ik} is the
    sum over positions l of q_{il} times prod_{m != l} eps(q_{im}); mod 2,
    over the compiled words (``DGA.compiled_words``):
      - a one-letter word gives its letter;
      - a word whose letters all have eps = 1 gives its letters of odd
        multiplicity;
      - a word with exactly one eps-zero letter, of multiplicity 1, gives that
        letter;
      - any other word gives nothing.
    The same pass evaluates each differential at ``eps``, one parity per word.
    The full symbolic conjugation is kept as a test oracle.
    """
    values = eps.values
    if len(values) != len(dga):
        raise ValueError(f"invalid augmentation: value vector has length {len(values)}, expected {len(dga)}")
    problems = [f"value {v!r} on {g.name} is not 0 or 1" for g, v in zip(dga.generators, values) if v not in (0, 1)]
    if problems:  # evaluating other values would blame a differential instead
        raise ValueError("invalid augmentation: " + "; ".join(problems))
    problems = [
        f"nonzero value on {g.name}, which has grading {g.grading}"
        for g, v in zip(dga.generators, values)
        if g.grading != 0 and v != 0
    ]
    off = ~sum(1 << gid for gid, v in enumerate(values) if v)
    columns, parities = [], []
    for linear, words in zip(*dga.compiled_words):
        acc, parity = 0, sum(map(values.__getitem__, linear))
        for letters, odd, once in words:
            zeros = letters & off
            if not zeros:
                acc ^= odd
                parity += 1
            elif zeros & once and not zeros & (zeros - 1):
                acc ^= zeros
        columns.append(linear.symmetric_difference(_gids(acc)) if acc else linear)
        parities.append(parity & 1)
    if 1 in parities:
        problems += [f"d({g.name}) does not evaluate to 0" for g in compress(dga.generators, parities)]
    if problems:
        raise ValueError("invalid augmentation: " + "; ".join(problems))
    return LinearizedComplex(dga.generators, tuple(columns))
