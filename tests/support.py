"""Shared test helpers: independent oracles and random-instance generators.

Everything here deliberately recomputes results by a different route than the
library (symbolic conjugation, the per-word linearization formula applied
letter by letter, evaluation word by word, exhaustive matching, planted normal
forms) so the main code paths are cross-checked rather than self-checked.  The
library reads the formula from words compiled once per DGA into bitmasks.
"""

from __future__ import annotations

import importlib.util
import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from pathlib import Path
from random import Random

from hypothesis import strategies as st

from legch import corpus
from legch.algebra import (
    BAD_SCHEMA,
    D_SQUARED_NONZERO,
    DGA,
    GRADING_VIOLATION,
    Element,
    Generator,
    HeightAssignment,
    StructureError,
    format_element,
    format_word,
)
from legch.augment import Augmentation, enumerate_augmentations, linearized_differential
from legch.diagram import Tiering, assign_heights, flood
from legch.fileio import DUPLICATE_NAME, UNKNOWN_GENERATOR, KnotData, parse_knot_file
from legch.metrics import LaurentPolynomial
from legch.persist import Bar, Barcode, FilteredComplex, build_filtered_complex, compute_barcode


def perfbench_module(name: str):
    """``perfbench/<name>.py``, loaded by path: gen.py and spans.py import nothing from legch."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = perfbench_module("gen")  # the benchmark's seeded inputs and their expected values


CORPUS_NAMES = ("unknot", "trefoil", "trefoil_rii", "island")


def corpus_file(name: str) -> Path:
    """The bundled knot file ``name``, next to ``legch/corpus/__init__.py``."""
    return Path(corpus.__file__).with_name(f"{name}.json")


@lru_cache(maxsize=None)
def load_corpus(name: str) -> KnotData:
    return parse_knot_file(corpus_file(name).read_bytes())


def trefoil_after_rii(delta: Fraction) -> KnotData:
    """The trefoil diagram with an extra finger pushed through near q4, creating
    crossings a (grading 1) and b (grading 0) whose bigon has area ``delta``, an
    exact number in (0, 1): the shipped trefoil_rii.json (delta = 0.3) with
    h(a) = 2 + delta."""
    kd = load_corpus("trefoil_rii")
    a = gid_of(kd.dga, "a")
    heights = kd.heights.heights
    return kd._replace(heights=HeightAssignment(heights[:a] + (2 + delta,) + heights[a + 1 :]))


# Acceptance criterion 10's CLI commands, each naming its corpus knot in place
# of the file path.
CRITERION_10_COMMANDS = [
    ["validate", "unknot"],
    ["validate", "trefoil"],
    ["augment", "trefoil"],
    ["augment", "island"],
    ["linearize", "trefoil", "--aug", "2"],
    ["flood", "trefoil"],
    ["flood", "island"],
    ["barcode", "unknot"],
    ["barcode", "trefoil", "--aug", "2"],
    ["barcode", "trefoil", "--aug", "2", "--heights", "flood"],
    ["barcode", "trefoil_rii", "--aug", "2", "--render", "text"],
    ["barcode", "trefoil", "--aug", "2", "--render", "svg"],
    ["morse", "unknot"],
    ["morse", "trefoil", "--aug", "0"],
    ["morse", "trefoil_rii", "--aug", "2"],
]


def corpus_argv(command: list[str]) -> list[str]:
    """``command`` with its knot name replaced by the corpus file's path."""
    return [command[0], str(corpus_file(command[1])), *command[2:]]


def bar_born_at(literal: str) -> bytes:
    """A barcode file of one bar born at ``literal``, as written in its JSON text."""
    return b'{"bars": [{"degree": 0, "birth": %s, "death": "inf"}]}' % literal.encode()


def dga_of(generators, differential) -> DGA:
    """A DGA from (name, grading) pairs and each name's words as lists of names,
    unchecked: names must be distinct and every key and letter a generator."""
    index = {name: gid for gid, (name, _) in enumerate(generators)}
    gens = tuple(Generator(gid, *g) for gid, g in enumerate(generators))
    return DGA(gens, tuple(Element(map(index.__getitem__, w) for w in differential[g.name]) for g in gens))


def gid_of(dga: DGA, name: str) -> int:
    """The id of the generator called ``name``, by a linear scan."""
    return next(g.gid for g in dga.generators if g.name == name)


def barcode_of(kd, aug_index: int = 0) -> Barcode:
    """The barcode of ``kd`` at augmentation ``aug_index``, with the file's heights."""
    lin = linearized_differential(kd.dga, enumerate_augmentations(kd.dga)[aug_index])
    return compute_barcode(build_filtered_complex(lin, kd.heights))


def zero_grading_values(eps: Augmentation, dga: DGA) -> tuple[int, ...]:
    return tuple(eps.values[g.gid] for g in dga.generators if g.grading == 0)


def zero_grading_augmentation(dga: DGA, bits) -> Augmentation:
    """The vector with ``bits`` on the grading-0 generators, in id order, and
    0 elsewhere; the inverse of ``zero_grading_values``.  Not checked."""
    zero_gens = [g.gid for g in dga.generators if g.grading == 0]
    assert len(bits) == len(zero_gens)
    values = [0] * len(dga)
    for gid, bit in zip(zero_gens, bits):
        values[gid] = bit
    return Augmentation(tuple(values))


def triples(b: Barcode) -> tuple[tuple[int, Fraction, Fraction | float], ...]:
    """The bar multiset without labels, for comparisons."""
    return tuple((bar.degree, bar.birth, bar.death) for bar in b.bars)


def evaluate_at(p: LaurentPolynomial, x) -> Fraction:
    return sum((c * Fraction(x) ** e for e, c in p.items()), Fraction(0))


# ---------------------------------------------------------------------------
# JSON file mutations, for the fuzz tests

LETTERS = st.sampled_from(["q", "q1", "q3", "a", "b", "zz", ""])
# the line and paragraph separators and the bidirectional controls that names and labels may not hold
LINE_AND_BIDI = "\u061c\u200e\u200f\u2028\u2029\u202a\u202b\u202c\u202d\u202e\u2066\u2067\u2068\u2069"
# control characters, U+FFFF, which XML 1.0 excludes, and those, for names and
# labels; no output may hold one but "\n", nor U+FFFE
CONTROLS = ["\n", "\x1b", "\x01", "\x7f", "\x85", "\uffff", *LINE_AND_BIDI]
CONTROL_IN_OUTPUT = re.compile(f"[\x00-\x09\x0b-\x1f\x7f-\x9f\ufffe\uffff{LINE_AND_BIDI}]")
# fresh containers per draw: a later mutation must not leak into the next example
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), LETTERS, st.builds(list), st.builds(dict), st.builds(lambda: [[]])
)


def slots(node, out):
    """Every (container, key) pair at or below ``node``."""
    if isinstance(node, (dict, list)):
        for key in list(node) if isinstance(node, dict) else range(len(node)):
            out.append((node, key))
            slots(node[key], out)
    return out


def mutate(doc, data, steps: int, letters=LETTERS) -> None:
    """Drop or rename a key, or put a value of another type or a letter from
    ``letters`` in its place: ``steps`` times, in place, drawn from ``data``."""
    for _ in range(steps):
        found = slots(doc, [])
        if not found:
            break
        container, key = data.draw(st.sampled_from(found))
        kind = data.draw(st.sampled_from(["drop", "rename_key", "value", "letter"]))
        if kind == "value":
            container[key] = data.draw(VALUES)
        elif kind == "letter":
            container[key] = data.draw(letters)
        elif isinstance(container, dict):
            value = container.pop(key)
            if kind == "rename_key":
                container[data.draw(letters)] = value
        else:
            del container[key]


def validate_heights(h: HeightAssignment, forms) -> tuple[int, ...]:
    """The indices of the inequalities that ``h`` does not make strictly positive."""
    return tuple(
        i
        for i, form in enumerate(forms)
        if sum((coeff * h.of(g) for g, coeff in form), Fraction(0)) <= 0
    )


# ---------------------------------------------------------------------------
# words: gradings, heights, products and the differential

ONE = Element([()])


def plus(a: Element, b: Element) -> Element:
    return Element(a.words ^ b.words)


def times(a: Element, b: Element) -> Element:
    return Element(x + y for x in a.words for y in b.words)


def apply_differential(elem: Element, dga: DGA) -> Element:
    """Extend the generator-level differential by linearity and the Leibniz rule,
    one letter at a time."""
    out = Element()
    for word in elem.words:
        for i, letter in enumerate(word):
            prefix, suffix = word[:i], word[i + 1 :]
            out = plus(out, Element(prefix + dw + suffix for dw in dga.differential[letter].words))
    return out


def word_grading(word, dga: DGA) -> int:
    """Sum of letter gradings; the unit word has grading 0."""
    return sum(dga.generators[g].grading for g in word)


def height_of_element(elem: Element, h: HeightAssignment):
    """Max over word heights, a word's being the sum of its letters'; -inf for
    the zero element, 0 for the unit word."""
    if not elem.words:
        return -math.inf
    return max(sum((h.of(g) for g in w), Fraction(0)) for w in elem.words)


def substitute(elem: Element, images: dict[int, Element]) -> Element:
    """Image of ``elem`` under the algebra map that sends each key of
    ``images`` to its value and fixes every other letter, fully expanded."""
    out = []
    for word in elem.words:
        if images.keys().isdisjoint(word):
            out.append(word)
            continue
        prod = ONE
        for g in word:
            prod = times(prod, images.get(g) or Element([(g,)]))
        out.extend(prod.words)
    return Element(out)


# ---------------------------------------------------------------------------
# the former library evaluation and linearization, word by word and letter by
# letter, and augmentations by exhaustion through them

def evaluate(eps: Augmentation, elem: Element) -> int:
    """Algebra-map evaluation: unit word -> 1, word -> product of values, sums mod 2."""
    total = 0
    for word in elem.words:
        term = 1
        for g in word:
            term &= eps.values[g]
            if not term:
                break
        total ^= term
    return total


def linear_part(elem: Element, eps: Augmentation) -> frozenset[int]:
    """Length-1 part of the image of ``elem`` under q -> q + eps(q), as a generator set.

    Per word q_{i1}..q_{ik}, position l contributes q_{il} with coefficient
    prod_{m != l} eps(q_{im}); only words with at most one eps-zero letter survive.
    Letters are toggled, so repeated ones cancel mod 2.
    """
    values = eps.values
    acc: set[int] = set()
    for word in elem.words:
        zeros = [g for g in word if not values[g]]
        if len(zeros) < 2:
            for g in zeros or word:
                acc ^= {g}
    return frozenset(acc)


def compiled_words_by_counting(dga: DGA):
    """``DGA.compiled_words`` recomputed from a Counter of each word's letters:
    the generator id at each bit position, the grading-0 ids first from the
    highest, then the rest from the lowest; the one-letter words' letters per
    generator; and per longer word the position masks of its letters, of those
    of odd count and of those of count 1."""
    by_rank = sorted(dga.generators, key=lambda g: (g.grading != 0, -g.gid if g.grading == 0 else g.gid))
    order = tuple(g.gid for g in by_rank)
    bit = {gid: 1 << p for p, gid in enumerate(order)}
    linears, masks = [], []
    for elem in dga.differential:
        linear, words = set(), []
        for word in elem.words:
            if len(word) == 1:
                linear.add(word[0])
                continue
            letters = odd = once = 0
            for g, count in Counter(word).items():
                letters |= bit[g]
                odd |= bit[g] * (count & 1)
                once |= bit[g] * (count == 1)
            words.append((letters, odd, once))
        linears.append(frozenset(linear))
        masks.append(tuple(words))
    return order, tuple(linears), tuple(masks)


def enumerate_augmentations_brute(dga: DGA) -> list[Augmentation]:
    """Every {0,1} vector on the grading-0 generators, in lexicographic order,
    kept iff each differential evaluates to 0."""
    k = sum(1 for g in dga.generators if g.grading == 0)
    found = []
    for bits in product((0, 1), repeat=k):
        eps = zero_grading_augmentation(dga, bits)
        if all(evaluate(eps, col) == 0 for col in dga.differential):
            found.append(eps)
    return found


def moebius(table: int, m: int) -> int:
    """The algebraic normal form of a Boolean function of m variables.

    Bit x of ``table`` is the value at the point whose variables are the bits
    of x; bit x of the result is the coefficient of the product of those
    variables.  Round i adds, at every point with bit i set, the value at the
    point with it cleared: ``low`` marks the points with bit i clear."""
    points = (1 << (1 << m)) - 1
    for i in range(m):
        step = 1 << i
        low = points // ((1 << 2 * step) - 1) * ((1 << step) - 1)
        table ^= (table & low) << step
    return table


def search_work_brute(dga: DGA) -> int:
    """The work the augmentation search is charged, by evaluation alone: the sum,
    over its distinct states, of 1 plus their nonzero residuals plus (k - d) >> 10
    at depth d, one per 1024 bits of the count below them.

    Each differential's truth table over the grading-0 generators comes from
    evaluating it at every assignment, in lexicographic order, so that the
    first d generators pick out a slice.  A residual at a partial assignment
    of the first d generators is the algebraic normal form of its slice, from
    ``moebius``.  A partial assignment is a state when no residual is the
    constant 1, and two of one depth are the same state when their lists of
    nonzero residuals are equal."""
    k = sum(1 for g in dga.generators if g.grading == 0)
    tables = [0] * len(dga)
    for x, bits in enumerate(product((0, 1), repeat=k)):
        eps = zero_grading_augmentation(dga, bits)
        for j, col in enumerate(dga.differential):
            tables[j] |= evaluate(eps, col) << x
    work = 0
    for d in range(k + 1):
        size = 1 << (k - d)
        states = set()
        for prefix in range(1 << d):
            residuals = [moebius(t >> (size * prefix) & ((1 << size) - 1), k - d) for t in tables]
            if 1 not in residuals:
                states.add(tuple(filter(None, residuals)))
        work += sum(1 + len(state) + (k - d >> 10) for state in states)
    return work


# ---------------------------------------------------------------------------
# the (2,n) torus family, from the benchmark's own generator

def torus_2n_dga(n: int) -> DGA:
    """T(2,n)'s DGA, parsed from the knot file bytes that the benchmark times."""
    return parse_knot_file(gen.torus_bytes(n)).dga


class FirstTorusOracle(gen.TorusOracle):
    """``gen.TorusOracle`` for augmentation 0 alone: the oracle's lexicographic
    filter, stopped at its first hit, so that large n need no list of all 2^n
    vectors (the full oracle takes about 370 MB at n = 21)."""

    def __init__(self, n: int):
        self.n, self._lin = n, {}
        self.augs = [next(bits for bits in product((0, 1), repeat=n) if gen.continuant_bit(bits))]


def flood_heights(dga: DGA) -> HeightAssignment:
    """Flood the inequalities h(q) > h(w), one for each word w of d(q)."""
    forms = []
    for g, col in zip(dga.generators, dga.differential):
        for w in col.words:
            form = {g.gid: 1}
            for x in w:
                form[x] = form.get(x, 0) - 1
            forms.append(tuple(sorted(form.items())))
    tiering = flood(forms, range(len(dga)))
    return assign_heights(tiering)


# ---------------------------------------------------------------------------
# the former validation: d² accumulated one letter at a time, gradings looked
# up per letter through the DGA; and the former reading of a knot file's
# differential, which feeds it

def validate_dga_per_letter(dga: DGA) -> None:
    """Check that every differential word drops the grading by exactly 1 and that
    the differential squares to zero on every generator; raise at the first fault,
    checking every grading before any d², and each column's words shortest first."""
    for g in dga.generators:
        for word in sorted(dga.differential[g.gid].words, key=lambda w: (len(w), w)):
            wg = word_grading(word, dga)
            if wg != g.grading - 1:
                raise StructureError(
                    f"word {format_word(word, dga)} in d({g.name}) has grading "
                    f"{wg}, expected {g.grading - 1}",
                    GRADING_VIOLATION,
                )
    for g in dga.generators:
        dd = apply_differential(dga.differential[g.gid], dga)
        if dd:
            raise StructureError(
                f"d(d({g.name})) = {format_element(dd, dga)} is nonzero", D_SQUARED_NONZERO
            )


def knot_doc(dga: DGA) -> dict:
    """A knot document holding ``dga``: its generators, its words as lists of
    names, and no patches or heights."""
    name = [g.name for g in dga.generators]
    return {
        "generators": [{"name": g.name, "grading": g.grading} for g in dga.generators],
        "differential": {
            g.name: [[name[x] for x in word] for word in sorted(elem.words)]
            for g, elem in zip(dga.generators, dga.differential)
        },
        "patches": [],
    }


def differential_per_letter(doc) -> DGA:
    """The DGA of a knot document whose generators are well formed, read the
    former way: every value, word and letter type-checked key by key, each
    letter looked up by a scan of the names, one ``Element`` of each column's
    words in file order, then ``validate_dga_per_letter``.  It raises the
    faults of ``parse_knot_file``, in the same order."""
    names = [g["name"] for g in doc["generators"]]
    differential = doc["differential"]
    for key, words in differential.items():
        if not isinstance(words, list):
            raise StructureError(f"differential[{key!r}] must be an array of words", BAD_SCHEMA)
        for word in words:
            if not (isinstance(word, list) and all(isinstance(letter, str) for letter in word)):
                raise StructureError(f"differential[{key!r}] words must be arrays of generator names", BAD_SCHEMA)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise StructureError(f"generator name {name!r} appears twice", DUPLICATE_NAME)
    for key in differential:
        if key not in names:
            raise StructureError(f"differential key {key!r} is not a generator", UNKNOWN_GENERATOR)
    for name in names:
        if name not in differential:
            raise StructureError(f"missing differential for generator {name!r}", BAD_SCHEMA)
    columns = {}
    for key, words in differential.items():
        for letter in chain.from_iterable(words):
            if letter not in names:
                raise StructureError(f"differential[{key!r}] uses unknown generator {letter!r}", UNKNOWN_GENERATOR)
        columns[key] = Element([tuple(names.index(letter) for letter in word) for word in words])
    gens = tuple(Generator(i, g["name"], g["grading"]) for i, g in enumerate(doc["generators"]))
    dga = DGA(gens, tuple(columns[name] for name in names))
    validate_dga_per_letter(dga)
    return dga


# ---------------------------------------------------------------------------
# symbolic conjugation oracle for the linearized differential

def linearize_by_conjugation(dga: DGA, eps: Augmentation) -> tuple[frozenset[int], ...]:
    """Conjugate the full differential symbolically by q -> q + eps(q), then
    keep length-1 words."""
    shift = {g.gid: Element([(g.gid,), ()]) for g in dga.generators if eps.values[g.gid]}
    cols = []
    for g in dga.generators:
        image = substitute(dga.differential[g.gid], shift)
        cols.append(frozenset(w[0] for w in image.words if len(w) == 1))
    return tuple(cols)


# ---------------------------------------------------------------------------
# the two moves of the invariance theorem: stabilization, and conjugation by a
# semimonotonic elementary automorphism

def _unique_name(taken: set[str], base: str) -> str:
    if base not in taken:
        return base
    i = 2
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


def stabilize(dga: DGA, k: int, h_top, h_bot, h: HeightAssignment):
    """Adjoin a cancelling pair: a grading-k generator at height ``h_top`` mapping
    to a grading-(k-1) generator at height ``h_bot``; their ids are len(dga) and
    len(dga) + 1."""
    if not h_top > h_bot > 0:
        raise ValueError(f"need h_top > h_bot > 0, got {h_top}, {h_bot}")
    n = len(dga)
    taken = {g.name for g in dga.generators}
    top_name = _unique_name(taken, f"e{k}")
    taken.add(top_name)
    top = Generator(n, top_name, k)
    bot = Generator(n + 1, _unique_name(taken, f"e{k - 1}"), k - 1)
    diff = dga.differential + (Element([(bot.gid,)]), Element())
    return DGA(dga.generators + (top, bot), diff), HeightAssignment(h.heights + (h_top, h_bot))


def conjugate(dga: DGA, target: int, addend: Element) -> DGA:
    """Conjugate the differential by the elementary automorphism
    target -> target + addend, which is its own inverse over Z2."""
    grading = dga.generators[target].grading
    for word in addend.words:
        if target in word or word_grading(word, dga) != grading:
            raise ValueError(
                f"addend word {word} must avoid the target {target} and have grading {grading}"
            )

    image = {target: Element([(target,), *addend.words])}
    cols = []
    for g, col in zip(dga.generators, dga.differential):
        if g.gid == target:  # d(phi(q)) = d(q) + d(addend)
            col = plus(col, apply_differential(addend, dga))
        cols.append(substitute(col, image))
    return DGA(dga.generators, tuple(cols))


def is_semimonotonic(target: int, addend: Element, h: HeightAssignment) -> bool:
    """True when every letter of every addend word sits strictly below the target.

    A word may still outweigh the target: this letter-level reading is weaker
    than comparing the addend's height to the target's.  It is the reading the
    linearizations need, since each keeps one letter of a word.
    """
    bound = h.of(target)
    return all(h.of(g) < bound for word in addend.words for g in word)


# ---------------------------------------------------------------------------
# distance oracles: exhaustive matching for a few bars, and the former library
# matcher, recursive Kuhn matching on a balanced graph with deletion slots,
# re-run at each step of a binary search over Fraction costs

def in_degree(barcode: Barcode, degree: int) -> tuple[Bar, ...]:
    return tuple(b for b in barcode.bars if b.degree == degree)


def _match_cost(a: Bar, b: Bar):
    """Max endpoint displacement; infinite ends pair only with infinite ends."""
    if a.finite != b.finite:
        return math.inf
    birth_gap = abs(a.birth - b.birth)
    if not a.finite:
        return birth_gap
    return max(birth_gap, abs(a.death - b.death))


def _delete_cost(a: Bar):
    if not a.finite:
        return math.inf
    return (a.death - a.birth) / 2


def _bf_degree(bars1, bars2):
    best = [math.inf]

    def rec(i, used, cur):
        if cur >= best[0] and best[0] != math.inf:
            return
        if i == len(bars1):
            total = cur
            for j, b in enumerate(bars2):
                if j not in used:
                    total = max(total, _delete_cost(b))
            if total < best[0]:
                best[0] = total
            return
        a = bars1[i]
        rec(i + 1, used, max(cur, _delete_cost(a)))
        for j, b in enumerate(bars2):
            if j not in used:
                rec(i + 1, used | {j}, max(cur, _match_cost(a, b)))

    rec(0, frozenset(), Fraction(0))
    return best[0]


def _perfect_matching_exists(n_left: int, adjacency: list[list[int]]) -> bool:
    """Kuhn's augmenting-path matching on a balanced bipartite graph."""
    match_right: dict[int, int] = {}

    def try_augment(u: int, seen: set[int]) -> bool:
        for v in adjacency[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_right or try_augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    for u in range(n_left):
        if not try_augment(u, set()):
            return False
    return True


def _degree_distance(bars1: tuple[Bar, ...], bars2: tuple[Bar, ...]):
    inf1 = sum(1 for b in bars1 if not b.finite)
    inf2 = sum(1 for b in bars2 if not b.finite)
    if inf1 != inf2:
        return math.inf

    costs = [[_match_cost(a, b) for b in bars2] for a in bars1]
    deletes1 = [_delete_cost(a) for a in bars1]
    deletes2 = [_delete_cost(b) for b in bars2]
    candidates = sorted(
        {Fraction(0)}
        | {c for row in costs for c in row if c != math.inf}
        | {c for c in deletes1 + deletes2 if c != math.inf}
    )

    n1, n2 = len(bars1), len(bars2)

    def feasible(delta) -> bool:
        # Left: bars1 then one deletion slot per bars2 entry.
        # Right: bars2 then one deletion slot per bars1 entry.
        adjacency: list[list[int]] = []
        for i in range(n1):
            row = [j for j in range(n2) if costs[i][j] <= delta]
            if deletes1[i] <= delta:
                row.append(n2 + i)
            adjacency.append(row)
        for j in range(n2):
            row = list(range(n2, n2 + n1))  # unused deletion slots pair freely
            if deletes2[j] <= delta:
                row.insert(0, j)
            adjacency.append(row)
        return _perfect_matching_exists(n1 + n2, adjacency)

    # The optimum is one of the finitely many endpoint-derived costs.
    lo, hi = 0, len(candidates) - 1
    if not feasible(candidates[hi]):
        return math.inf
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]


def _max_over_degrees(b1: Barcode, b2: Barcode, degree_distance):
    worst = Fraction(0)
    for k in sorted({b.degree for b in b1.bars + b2.bars}):
        d = degree_distance(in_degree(b1, k), in_degree(b2, k))
        if d == math.inf:
            return math.inf
        worst = max(worst, d)
    return worst


def brute_force_distance(b1: Barcode, b2: Barcode):
    """Enumerate every matching-with-deletions; only viable for a few bars."""
    return _max_over_degrees(b1, b2, _bf_degree)


def kuhn_distance(b1: Barcode, b2: Barcode):
    """The distance by the former matcher; its recursion depth grows with the
    bar count, so it suits barcodes of up to a few hundred bars."""
    return _max_over_degrees(b1, b2, _degree_distance)


def threshold_bound(b1: Barcode, b2: Barcode):
    """The threshold lower bound of bottleneck assignment (Garfinkel 1971):
    every finite bar is deleted or matched to a finite bar of its degree on
    the other side, so no matching costs less than the largest, over all
    finite bars, of the cheaper of its deletion and its cheapest match."""
    bound = Fraction(0)
    for mine, theirs in ((b1, b2), (b2, b1)):
        for a in mine.bars:
            if a.finite:
                partners = (b for b in theirs.bars if b.finite and b.degree == a.degree)
                bound = max(bound, min([_delete_cost(a), *(_match_cost(a, b) for b in partners)]))
    return bound


def shift_pair(rng: Random, n: int, delta: Fraction, degree: int = 0):
    """Two barcodes of ``n`` bars in one degree at distance exactly ``delta``.

    The second moves every endpoint of the first up by ``delta``, and every
    finite bar is longer than 2 * delta.  Matching each bar to its shift costs
    delta.  Nothing is cheaper: deleting any bar costs more than delta, so a
    cheaper matching would pair the bars one to one, but the births rise by
    n * delta in all, so some pair moves by at least delta.  Every fifth bar is
    infinite; births repeat, so ties occur.  Births are multiples of 1/4 and
    lengths past 2 * delta multiples of 1/5, so with a decimal delta the pair
    can be written as barcode files.
    """
    bars1, bars2 = [], []
    for i in range(n):
        birth = Fraction(rng.randint(0, 8 * n), 4)
        if i % 5 == 4:
            bars1.append(Bar(degree, birth, math.inf))
            bars2.append(Bar(degree, birth + delta, math.inf))
        else:
            death = birth + 2 * delta + Fraction(rng.randint(1, 200), 5)
            bars1.append(Bar(degree, birth, death))
            bars2.append(Bar(degree, birth + delta, death + delta))
    return Barcode(tuple(bars1)), Barcode(tuple(bars2))


# ---------------------------------------------------------------------------
# planted filtered complexes with a known barcode, and a homology rank oracle

def planted_complex(rng: Random, max_n: int = 12):
    """A random valid filtered complex together with its exact barcode.

    Generators are created in canceling pairs (one finite bar each) and
    singletons (one infinite bar each), then the matrix is scrambled by random
    filtration-preserving changes of basis, which leave the barcode unchanged.
    """
    n = rng.randint(1, max_n)
    n_pairs = rng.randint(0, n // 2)

    slots = list(range(n))
    rng.shuffle(slots)
    gradings = [0] * n
    heights = [Fraction(0)] * n
    columns: list[set[int]] = [set() for _ in range(n)]
    bars = []

    idx = 0
    for _ in range(n_pairs):
        cycle, killer = slots[idx], slots[idx + 1]
        idx += 2
        g = rng.randint(-2, 2)
        birth = Fraction(rng.randint(1, 60), 4)
        death = birth + Fraction(rng.randint(1, 24), 4)
        gradings[cycle], gradings[killer] = g, g + 1
        heights[cycle], heights[killer] = birth, death
        columns[killer].add(cycle)
        bars.append((g, birth, death))
    for slot in slots[idx:]:
        gradings[slot] = rng.randint(-2, 3)
        heights[slot] = Fraction(rng.randint(1, 80), 4)
        bars.append((gradings[slot], heights[slot], math.inf))

    for _ in range(3 * n):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or gradings[u] != gradings[v]:
            continue
        if heights[u] >= heights[v]:
            u, v = v, u
        if heights[u] >= heights[v]:
            continue
        # row u += row v, column v += column u: conjugation by (v -> v + u)
        for col in columns:
            if v in col:
                col.symmetric_difference_update({u})
        columns[v].symmetric_difference_update(columns[u])

    generators = tuple(Generator(i, f"g{i}", gradings[i]) for i in range(n))
    fc = FilteredComplex(
        generators,
        HeightAssignment(tuple(heights)),
        tuple(frozenset(c) for c in columns),
    )
    check_chain_complex(fc.generators, fc.columns)
    return fc, tuple(sorted(bars))


def check_chain_complex(generators, columns) -> None:
    """Raise unless there is one column per generator, every entry sits one
    degree below its column and the columns square to zero: what
    ``FilteredComplex`` trusts of a linearized differential."""
    if len(columns) != len(generators):
        raise StructureError("one column per generator required", BAD_SCHEMA)
    for g, col in zip(generators, columns):
        for p in col:
            if generators[p].grading != g.grading - 1:
                raise StructureError(f"entry ({generators[p].name}, {g.name}) violates the degree -1 rule", GRADING_VIOLATION)
    for g, col in zip(generators, columns):
        square: set[int] = set()
        for p in col:
            square ^= columns[p]
        if square:
            raise StructureError(f"differential does not square to zero at {g.name}", D_SQUARED_NONZERO)


def gf2_rank(vectors) -> int:
    basis: dict[int, int] = {}
    rank = 0
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top in basis:
                v ^= basis[top]
            else:
                basis[top] = v
                rank += 1
                break
    return rank


def column_mask(fc: FilteredComplex, gid: int) -> int:
    """The column of ``gid`` as a bitmask over generator ids."""
    m = 0
    for p in fc.columns[gid]:
        m |= 1 << p
    return m


def homology_rank_oracle(fc: FilteredComplex, degree: int, t) -> int:
    """Rank of the homology of the sub-complex of generators with height <= t,
    by plain Gaussian elimination.  Cross-checks compute_barcode."""
    inside = [g.gid for g in fc.generators if fc.heights.of(g.gid) <= t]
    at = [g for g in inside if fc.generators[g].grading == degree]
    above = [g for g in inside if fc.generators[g].grading == degree + 1]

    rank_at = gf2_rank([column_mask(fc, g) for g in at])
    rank_above = gf2_rank([column_mask(fc, g) for g in above])
    return len(at) - rank_at - rank_above


def persistent_rank_oracle(fc: FilteredComplex, degree: int, s, t) -> int:
    """For s <= t, the persistent rank r(s, t): the rank of the map from the
    homology of C^{<=s} to that of C^{<=t} in ``degree`` (Zomorodian-Carlsson,
    "Computing persistent homology", 2005).  It fixes the barcode, pairing
    included: r(s, t) counts the bars with birth <= s and t < death.

    r(s, t) = dim Z_s - dim(B_t ∩ C^{<=s}), by plain Gaussian elimination:
    dim Z_s = |C_k^{<=s}| - rank d(C_k^{<=s}), and B_t ∩ C^{<=s} is the kernel
    on B_t = d(C_{k+1}^{<=t}) of the projection onto the generators above s."""
    def images(k: int, level) -> list[int]:
        return [column_mask(fc, g.gid) for g in fc.generators if g.grading == k and fc.heights.of(g.gid) <= level]

    at, above = images(degree, s), images(degree + 1, t)
    high = sum(1 << g.gid for g in fc.generators if fc.heights.of(g.gid) > s)
    return len(at) - gf2_rank(at) - gf2_rank(above) + gf2_rank([m & high for m in above])


def dga_from_complex(fc: FilteredComplex) -> DGA:
    """Wrap a linear differential as a DGA whose words all have length 1."""
    cols = tuple(
        Element((p,) for p in sorted(fc.columns[g.gid])) for g in fc.generators
    )
    return DGA(fc.generators, cols)


# ---------------------------------------------------------------------------
# random barcodes and inequality systems

def random_barcode(rng: Random, max_bars: int = 8) -> Barcode:
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        degree = rng.randint(-1, 2)
        birth = Fraction(rng.randint(1, 40), 4)
        if rng.random() < 0.3:
            bars.append(Bar(degree, birth, math.inf))
        else:
            bars.append(Bar(degree, birth, birth + Fraction(rng.randint(1, 20), 4)))
    return Barcode(tuple(bars))


def random_inequality_system(rng: Random, max_vars: int = 8, max_forms: int = 10):
    n = rng.randint(1, max_vars)
    forms = []
    for _ in range(rng.randint(1, max_forms)):
        k = rng.randint(1, min(n, 4))
        variables = rng.sample(range(n), k)
        form = tuple(
            sorted((v, rng.choice((-2, -1, 1, 1, 2, 2))) for v in variables)
        )
        forms.append(form)
    return tuple(forms), frozenset(range(n))


def flood_by_rescan(forms, crossings) -> Tiering:
    """``diagram.flood`` by its first loop: each round tests every untiered
    crossing against every remaining form, each form copied into a dict."""
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
