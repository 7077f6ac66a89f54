"""Free noncommutative Z2 algebra on graded generators, with a differential.

Words are tuples of generator ids; the empty tuple is the unit.  Elements are
mod-2 reduced finite sets of words.  Everything is immutable.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

Word = tuple[int, ...]

# Error codes, shared with the file parser, which reports them as they are.
BAD_SCHEMA = "BAD_SCHEMA"
UNKNOWN_GENERATOR = "UNKNOWN_GENERATOR"
DUPLICATE_NAME = "DUPLICATE_NAME"
BAD_HEIGHT = "BAD_HEIGHT"
GRADING_VIOLATION = "GRADING_VIOLATION"
D_SQUARED_NONZERO = "D_SQUARED_NONZERO"


class StructureError(ValueError):
    """A fault in the input; ``code`` names it.  The CLI prints it as
    ``error: [CODE] message``."""

    def __init__(self, message: str, code: str = BAD_SCHEMA):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True, slots=True)
class Generator:
    gid: int
    name: str
    grading: int


@dataclass(frozen=True, init=False, slots=True)
class Element:
    """A Z2-linear combination of words.  The empty combination is zero."""

    words: frozenset[Word]

    def __init__(self, words: Iterable[Word] = ()):
        words = list(map(tuple, words))
        acc = frozenset(words)
        if len(acc) < len(words):  # a repeated word: keep those of odd count
            acc = frozenset(w for w, count in Counter(words).items() if count & 1)
        object.__setattr__(self, "words", acc)

    def __bool__(self) -> bool:
        return bool(self.words)

    def __add__(self, other: "Element") -> "Element":
        return Element(self.words.symmetric_difference(other.words))


@dataclass(frozen=True)
class DGA:
    """Generators with gradings plus a differential, both indexed by generator id.

    Unchecked: ``from_data`` is where names and letters are checked, so code
    that builds a DGA directly keeps ids 0..n-1 in order, names distinct and
    every letter a generator id.
    """

    generators: tuple[Generator, ...]
    differential: tuple[Element, ...]

    @classmethod
    def from_data(
        cls,
        generators: Sequence[tuple[str, int]],
        differential: Mapping[str, Sequence[Sequence[str]]],
    ) -> "DGA":
        """Build from (name, grading) pairs and name-level differential words."""
        gens = tuple(
            Generator(i, name, grading) for i, (name, grading) in enumerate(generators)
        )
        # a duplicate name is reported before any fault in the differential
        index: dict[str, int] = {}
        for g in gens:
            if g.name in index:
                raise StructureError(f"generator name {g.name!r} appears twice", DUPLICATE_NAME)
            index[g.name] = g.gid
        for name in differential:
            if name not in index:
                raise StructureError(
                    f"differential key {name!r} is not a generator", UNKNOWN_GENERATOR
                )
        for g in gens:
            if g.name not in differential:
                raise StructureError(f"missing differential for generator {g.name!r}")
        cols = {}
        for name, words in differential.items():
            try:
                cols[name] = Element(map(index.__getitem__, w) for w in words)
            except KeyError as exc:
                raise StructureError(
                    f"differential[{name!r}] uses unknown generator {exc.args[0]!r}",
                    UNKNOWN_GENERATOR,
                ) from None
        return cls(gens, tuple(cols[g.name] for g in gens))

    def __len__(self) -> int:
        return len(self.generators)

    @cached_property
    def compiled_words(self) -> tuple[tuple[frozenset[int], ...], tuple[tuple[tuple[int, int, int], ...], ...]]:
        """The differential as augmentations read it, compiled on first use.

        Two tuples indexed by generator id: the letters of its one-letter
        words, and for each other word three gid bitmasks, of its letters, of
        those with odd multiplicity and of those that occur once.  Every word
        is kept, so the masks evaluate any 0/1 vector exactly.  A one-letter
        word gets no mask: it always contributes its letter.

        One pass over a word's letters builds its masks: a letter's bit joins
        ``twice`` when it is already in ``letters``, and toggles ``odd``; the
        letters that occur once are those never met twice.
        """
        linears, masks = [], []
        for elem in self.differential:
            linear, words = set(), []
            for word in elem.words:
                if len(word) == 1:
                    linear.add(word[0])
                else:
                    letters = odd = twice = 0
                    for g in word:
                        b = 1 << g
                        twice |= letters & b
                        letters |= b
                        odd ^= b
                    words.append((letters, odd, letters & ~twice))
            linears.append(frozenset(linear))
            masks.append(tuple(words))
        return tuple(linears), tuple(masks)


def _gids(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first."""
    gids = []
    while mask:
        low = mask & -mask
        gids.append(low.bit_length() - 1)
        mask ^= low
    return gids


def _scaled(x, scale: int) -> int:
    """``x`` times ``scale``, for a rational ``x`` whose denominator divides ``scale``."""
    return x.numerator * (scale // x.denominator)


@dataclass(frozen=True)
class HeightAssignment:
    """The filtration datum: ``heights[gid]`` is the strictly positive height
    of the generator with id ``gid``, indexed as ``DGA.generators`` is.
    Unchecked, like a ``DGA`` built directly: ``parse_knot_file`` checks the
    heights it reads."""

    heights: tuple[int | Fraction, ...]

    def of(self, gid: int) -> int | Fraction:
        return self.heights[gid]


def apply_differential(elem: Element, dga: DGA) -> Element:
    """Extend the generator-level differential by linearity and the Leibniz rule.
    A one-letter word's image is its letter's whole column, toggled in at once."""
    d = dga.differential
    out: set[Word] = set()
    longer = []
    for word in elem.words:
        if len(word) == 1:
            out ^= d[word[0]].words
        else:
            longer.append(word)
    if longer:
        out ^= Element(
            w[:i] + dw + w[i + 1 :] for w in longer for i, letter in enumerate(w) for dw in d[letter].words
        ).words
    return Element(out)


def format_word(word: Sequence[int], dga: DGA) -> str:
    if not word:
        return "1"
    return "".join(dga.generators[g].name for g in word)


def format_element(elem: Element, dga: DGA) -> str:
    """The words, shortest first; past 8 of them, the first 8 and a count."""
    if not elem.words:
        return "0"
    first = heapq.nsmallest(8, elem.words, key=lambda w: (len(w), w))
    text = " + ".join(format_word(w, dga) for w in first)
    more = len(elem.words) - 8
    return text + f" + {more} more word{'s' * (more > 1)}" if more > 0 else text


def validate_dga(dga: DGA) -> None:
    """Check that every differential word drops the grading by exactly 1 and that
    the differential squares to zero on every generator; raise at the first fault,
    checking every grading before any d²."""
    grading_of = [g.grading for g in dga.generators].__getitem__
    for g, elem in zip(dga.generators, dga.differential):
        want = g.grading - 1
        for word in elem.words:
            if sum(map(grading_of, word)) != want:
                raise StructureError(
                    f"word {format_word(word, dga)} in d({g.name}) has grading "
                    f"{sum(map(grading_of, word))}, expected {want}",
                    GRADING_VIOLATION,
                )
    for g, elem in zip(dga.generators, dga.differential):
        dd = apply_differential(elem, dga)
        if dd:
            raise StructureError(
                f"d(d({g.name})) = {format_element(dd, dga)} is nonzero", D_SQUARED_NONZERO
            )
