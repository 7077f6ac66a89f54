"""Augmentations of a DGA and the induced linearized differential."""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import compress
from typing import Iterator, NamedTuple, Sequence

from .algebra import DGA, Generator, StructureError, _gids

# Work the augmentation search may do (see ``_state_graph``); a listing also
# costs its length.  Free generators share one state per depth, so a listing
# admits up to 17 of them and a pick far more; the (2,25) torus knot's 73 fit.
MAX_SEARCH_NODES = 1 << 18
SEARCH_BOUND = "SEARCH_BOUND"


class Augmentation(NamedTuple):
    """A {0,1} value per generator id, zero outside grading 0."""

    values: tuple[int, ...]


def _monomials(dga: DGA, zero_gens: list[int]) -> list[tuple[int, ...]]:
    """Each differential as a mod-2 sorted tuple of bitmask monomials over ``zero_gens``.

    The bits are ``DGA.compiled_words``'s positions: ``zero_gens[i]``, of k, is
    bit k - 1 - i, so the search, which fixes them in order, fixes the top bit
    first.  As values are 0 or 1, a word is its letters mask, 0 for the unit;
    one with a bit at k or above has a letter outside grading 0, so it
    evaluates to 0 and is dropped.  Zero polynomials are left out.
    """
    top = 1 << len(zero_gens)
    polys = []
    for linear, words in zip(*dga.compiled_words[1:]):
        poly: set[int] = set()
        for g in linear:
            i = bisect_left(zero_gens, g)
            if zero_gens[i : i + 1] == [g]:
                poly ^= {top >> 1 + i}
        for letters, _, _ in words:
            if letters < top:
                poly ^= {letters}
        if poly:
            polys.append(tuple(sorted(poly)))
    return polys


_ONE = (0,)


def _fix(polys: Sequence[tuple[int, ...]], bit: int, value: int) -> tuple[tuple[int, ...], ...] | None:
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
    return tuple(out)


def _charge(work: int, k: int) -> None:
    """Raise the ``SEARCH_BOUND`` error once ``work`` passes ``MAX_SEARCH_NODES``."""
    if work > MAX_SEARCH_NODES:
        raise StructureError(
            f"augmentation search exceeds the bound of {MAX_SEARCH_NODES} search nodes ({k} grading-0 generators)",
            SEARCH_BOUND,
        )


def _state_graph(dga: DGA) -> tuple[list[int], list[array], list[list[int]], int]:
    """The search's states, built level by level, and the work charged for them.

    The search fixes the grading-0 generators in generator order and cuts a
    branch once some differential is forced to 1; depth d fixes bit k - 1 - d,
    the highest one left (see ``_fix``).  What lies below a partial assignment
    depends only on its depth and its live polynomials, which sorted tuples
    name uniquely, so each distinct state is expanded once: a reduced ordered
    decision diagram (Bryant 1986).  Each new state is charged 1 plus its live
    polynomials plus (k - d) >> 10 at depth d, one per 1024 bits its exact
    count can reach, and the keys of two levels at most are held.  Returns the
    grading-0 generator ids; ``children[d]``, the 0-child and the 1-child of
    each state at depth d side by side, as indices at depth d + 1 or -1 for a
    cut; ``counts[d]``, the leaves below each state at depth d, then a 0 for a
    cut to read; and the work.
    """
    zero_gens = [g.gid for g in dga.generators if g.grading == 0]
    k = len(zero_gens)
    polys = tuple(_monomials(dga, zero_gens))
    level = {} if _ONE in polys else {polys: 0}
    work = 1 + len(polys) + (k >> 10) if level else 0
    _charge(work, k)
    children = []
    for depth in range(k):
        bit = 1 << (k - 1 - depth)
        row, below = array("i"), {}
        for live in level:
            for value in (0, 1):
                child = _fix(live, bit, value)
                if child is None:
                    row.append(-1)
                    continue
                i = below.get(child)
                if i is None:
                    i = below[child] = len(below)
                    work += 1 + len(child) + (k - 1 - depth >> 10)
                    _charge(work, k)
                row.append(i)
        children.append(row)
        level = below
    counts = [[1] * len(level) + [0]]
    for row in reversed(children):
        below = counts[-1]
        counts.append([below[zero] + below[one] for zero, one in zip(row[::2], row[1::2])] + [0])
    counts.reverse()
    return zero_gens, children, counts, work


def _leaves(dga: DGA, start, pieces) -> tuple[int, Iterator]:
    """The number of augmentations and an iterator over them in lexicographic
    order, each read as ``start`` followed, per depth d, by ``pieces[d][v]``
    for its value v there.  The walk carries each path's prefix down the state
    graph, so a leaf costs one concatenation.  Raises the ``SEARCH_BOUND``
    error once the graph's work plus the count passes ``MAX_SEARCH_NODES``,
    before the walk starts."""
    _, children, counts, work = _state_graph(dga)
    count = counts[0][0]
    _charge(work + count, len(children))
    return count, _walk(children, counts, start, pieces) if children else iter([start] * count)


def _walk(children, counts, start, pieces) -> Iterator:
    last = len(children) - 1
    todo = [(0, 0, start)] if counts[0][0] else []  # (depth, state, prefix), 0 popped before 1
    while todo:
        depth, state, prefix = todo.pop()
        row, below, (zero, one) = children[depth], counts[depth + 1], pieces[depth]
        zero_child, one_child = row[2 * state], row[2 * state + 1]
        if depth == last:  # a leaf is yielded at once, saving a push and a pop
            if below[zero_child]:
                yield prefix + zero
            if below[one_child]:
                yield prefix + one
        else:
            if below[one_child]:
                todo.append((depth + 1, one_child, prefix + one))
            if below[zero_child]:
                todo.append((depth + 1, zero_child, prefix + zero))


def enumerate_augmentations(dga: DGA) -> list[Augmentation]:
    """All augmentations, ordered lexicographically by the value vector, so
    augmentation indices are stable across runs.  Raises a StructureError coded
    ``SEARCH_BOUND`` once the state graph's work plus the number of
    augmentations passes ``MAX_SEARCH_NODES``, before any is listed."""
    # a grading-0 generator's piece is its value, then the zeros up to the next one
    cuts = [g.gid for g in dga.generators if g.grading == 0] + [len(dga)]
    pieces = [((0,) * (b - a), (1,) + (0,) * (b - a - 1)) for a, b in zip(cuts, cuts[1:])]
    return list(map(Augmentation, _leaves(dga, (0,) * cuts[0], pieces)[1]))


def pick_augmentation(dga: DGA, index: int) -> tuple[Augmentation | None, int]:
    """The augmentation at ``index`` of ``enumerate_augmentations(dga)``, or None
    when out of range, and the number of augmentations.  It descends the state
    graph by its counts, so it is charged the graph's work alone and can
    answer where the listing is refused."""
    zero_gens, children, counts, _ = _state_graph(dga)
    count = counts[0][0]
    if not 0 <= index < count:
        return None, count
    values = [0] * len(dga)
    state = 0
    for gid, row, below in zip(zero_gens, children, counts[1:]):
        zero = row[2 * state]
        if index < below[zero]:
            state = zero
        else:
            index -= below[zero]
            state = row[2 * state + 1]
            values[gid] = 1
    return Augmentation(tuple(values)), count


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
    order, linears, masks = dga.compiled_words
    off = ~sum(1 << p for p, gid in enumerate(order) if values[gid])
    columns, parities = [], []
    for linear, words in zip(linears, masks):
        acc, parity = 0, sum(map(values.__getitem__, linear))
        for letters, odd, once in words:
            zeros = letters & off
            if not zeros:
                acc ^= odd
                parity += 1
            elif zeros & once and not zeros & (zeros - 1):
                acc ^= zeros
        columns.append(linear.symmetric_difference(map(order.__getitem__, _gids(acc))) if acc else linear)
        parities.append(parity & 1)
    if 1 in parities:
        problems += [f"d({g.name}) does not evaluate to 0" for g in compress(dga.generators, parities)]
    if problems:
        raise ValueError("invalid augmentation: " + "; ".join(problems))
    return LinearizedComplex(dga.generators, tuple(columns))
