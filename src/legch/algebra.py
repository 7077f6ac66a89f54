"""Free noncommutative Z2 algebra on graded generators, with a differential.

Words are tuples of generator ids; the empty tuple is the unit.  Elements are
mod-2 reduced finite sets of words.  Everything is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class Generator:
    gid: int
    name: str
    grading: int


@dataclass(frozen=True, init=False, slots=True)
class Element:
    """A Z2-linear combination of words.  The empty combination is zero."""

    words: frozenset[Word]

    def __init__(self, words: Iterable[Word] = ()):
        acc: set[Word] = set()
        for w in words:
            w = tuple(w)
            if w in acc:
                acc.discard(w)
            else:
                acc.add(w)
        object.__setattr__(self, "words", frozenset(acc))

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
                cols[name] = Element(tuple(index[letter] for letter in w) for w in words)
            except KeyError as exc:
                raise StructureError(
                    f"differential[{name!r}] uses unknown generator {exc.args[0]!r}",
                    UNKNOWN_GENERATOR,
                ) from None
        return cls(gens, tuple(cols[g.name] for g in gens))

    def __len__(self) -> int:
        return len(self.generators)


def _as_height(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(
            "heights must be exact (int, Fraction or decimal string), not float"
        )
    return Fraction(value)


@dataclass(frozen=True)
class HeightAssignment:
    """Strictly positive height per generator id; the filtration datum."""

    heights: Mapping[int, Fraction]

    def __post_init__(self):
        fixed = {gid: _as_height(h) for gid, h in self.heights.items()}
        for gid, h in fixed.items():
            if h <= 0:
                raise ValueError(f"height of generator {gid} must be > 0, got {h}")
        object.__setattr__(self, "heights", fixed)

    def of(self, gid: int) -> Fraction:
        try:
            return self.heights[gid]
        except KeyError:
            raise StructureError(f"no height assigned to generator id {gid}") from None

    def with_entries(self, extra: Mapping[int, Fraction]) -> "HeightAssignment":
        merged = dict(self.heights)
        merged.update(extra)
        return HeightAssignment(merged)


def apply_differential(elem: Element, dga: DGA) -> Element:
    """Extend the generator-level differential by linearity and the Leibniz rule."""
    d = dga.differential
    return Element(
        word[:i] + dw + word[i + 1 :]
        for word in elem.words
        for i, letter in enumerate(word)
        for dw in d[letter].words
    )


def format_word(word: Sequence[int], dga: DGA) -> str:
    if not word:
        return "1"
    return "".join(dga.generators[g].name for g in word)


def format_element(elem: Element, dga: DGA) -> str:
    if not elem.words:
        return "0"
    ordered = sorted(elem.words, key=lambda w: (len(w), w))
    return " + ".join(format_word(w, dga) for w in ordered)


def validate_dga(dga: DGA) -> None:
    """Check that every differential word drops the grading by exactly 1 and that
    the differential squares to zero on every generator; raise at the first fault,
    checking every grading before any d²."""
    gradings = [g.grading for g in dga.generators]
    for g, elem in zip(dga.generators, dga.differential):
        for word in elem.words:
            wg = sum(map(gradings.__getitem__, word))
            if wg != g.grading - 1:
                raise StructureError(
                    f"word {format_word(word, dga)} in d({g.name}) has grading "
                    f"{wg}, expected {g.grading - 1}",
                    GRADING_VIOLATION,
                )
    for g, elem in zip(dga.generators, dga.differential):
        dd = apply_differential(elem, dga)
        if dd:
            raise StructureError(
                f"d(d({g.name})) = {format_element(dd, dga)} is nonzero", D_SQUARED_NONZERO
            )
