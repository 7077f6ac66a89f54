"""Free noncommutative Z2 algebra on graded generators, with a differential.

Words are tuples of generator ids; the empty tuple is the unit.  Elements are
mod-2 reduced finite sets of words.  Everything is immutable.
"""

from __future__ import annotations

import heapq
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import filterfalse
from typing import Iterable, NamedTuple, Sequence

Word = tuple[int, ...]

# Codes raised here or in persist; fileio defines those that only its parsers raise.
BAD_SCHEMA = "BAD_SCHEMA"
BAD_HEIGHT = "BAD_HEIGHT"
GRADING_VIOLATION = "GRADING_VIOLATION"
D_SQUARED_NONZERO = "D_SQUARED_NONZERO"


class StructureError(ValueError):
    """A fault in the input; ``code`` names it.  The CLI prints it as
    ``error: [CODE] message``."""

    def __init__(self, message: str, code: str):
        super().__init__(message)
        self.code = code


class _Record:
    """Value equality, hashing, a repr and read-only fields over ``_fields``, for records that are not tuples."""

    __slots__ = ()

    def __reduce__(self):  # the class and the field values, which pickle, copy, ==, hash and repr read
        return type(self), tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        return self.__reduce__() == other.__reduce__() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self.__reduce__()[1]))})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}: the record is read-only")
    __delattr__ = __setattr__


class Generator(NamedTuple):
    gid: int
    name: str
    grading: int


class Element(_Record):
    """A Z2-linear combination of words, the frozenset ``words``.  The empty combination is zero."""

    _fields = __slots__ = ("words",)

    def __init__(self, words: Iterable[Word] = ()):
        words = list(map(tuple, words))
        acc = frozenset(words)
        if len(acc) < len(words):  # a repeated word: keep those of odd count
            acc = frozenset(w for w, count in Counter(words).items() if count & 1)
        object.__setattr__(self, "words", acc)

    def __bool__(self) -> bool:
        return bool(self.words)


class DGA(_Record):
    """Generators with gradings plus a differential, both indexed by generator id.

    A read-only record, unchecked: ``parse_knot_file`` resolves and checks names
    and letters, so code that builds a DGA directly keeps ids 0..n-1 in order,
    names distinct and every letter a generator id.
    """

    _fields = ("generators", "differential")  # its __dict__ holds them and, once read, compiled_words

    def __init__(self, generators: tuple[Generator, ...], differential: tuple[Element, ...]):
        vars(self).update(generators=generators, differential=differential)

    def __len__(self) -> int:
        return len(self.generators)

    @cached_property
    def compiled_words(self) -> tuple[tuple[int, ...], tuple[frozenset[int], ...], tuple[tuple[tuple[int, int, int], ...], ...]]:
        """The differential as augmentations read it, compiled on first use.

        Three tuples: ``order``, the generator id at each bit position, the k
        grading-0 ids at k - 1 down to 0 and the rest above them, each in id
        order; then, indexed by generator id, the letters of its one-letter
        words, and for each other word three position masks, of its letters,
        of those with odd multiplicity and of those that occur once.  Every
        word is kept, so the masks evaluate any 0/1 vector exactly, and one
        over grading-0 letters is a letters mask below ``1 << k``.

        One pass over a word builds its masks: a letter's bit toggles ``odd``,
        and joins ``twice`` when ``letters`` holds it; ``once`` is the rest.
        """
        order = [g.gid for g in reversed(self.generators) if g.grading == 0]
        order += [g.gid for g in self.generators if g.grading != 0]
        position = sorted(range(len(order)), key=order.__getitem__)
        linears, masks = [], []
        for elem in self.differential:
            linear, words = set(), []
            for word in elem.words:
                if len(word) == 1:
                    linear.add(word[0])
                else:
                    letters = odd = twice = 0
                    for g in word:
                        b = 1 << position[g]
                        twice |= letters & b
                        letters |= b
                        odd ^= b
                    words.append((letters, odd, letters & ~twice))
            linears.append(frozenset(linear))
            masks.append(tuple(words))
        return tuple(order), tuple(linears), tuple(masks)


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


class HeightAssignment(NamedTuple):
    """The filtration datum: ``heights[gid]`` is the strictly positive height
    of the generator with id ``gid``, indexed as ``DGA.generators`` is.
    Unchecked, like a ``DGA`` built directly: ``parse_knot_file`` checks the
    heights it reads."""

    heights: tuple[int | Fraction, ...]

    def of(self, gid: int) -> int | Fraction:
        return self.heights[gid]


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
    checking every grading before any d².  A grading fault names the column's least
    bad word in ``format_element``'s order, so equal columns name the same word.
    d² expands only the words that hold a letter whose differential is nonzero: a
    one-letter word toggles its letter's whole column in, and the longer ones expand
    by the Leibniz rule, reduced mod 2 through one ``Element``."""
    d = dga.differential
    grading_of = [g.grading for g in dga.generators].__getitem__
    live = {g for g, elem in enumerate(d) if elem.words}
    for g, elem in zip(dga.generators, d):
        want = g.grading - 1
        for word in elem.words:
            if sum(map(grading_of, word)) != want:  # only on a fault: the least bad word
                word = min((w for w in elem.words if sum(map(grading_of, w)) != want), key=lambda w: (len(w), w))
                raise StructureError(
                    f"word {format_word(word, dga)} in d({g.name}) has grading "
                    f"{sum(map(grading_of, word))}, expected {want}",
                    GRADING_VIOLATION,
                )
    for g, elem in zip(dga.generators, d):
        dd, longer = set(), []
        for word in filterfalse(live.isdisjoint, elem.words):
            if len(word) == 1:
                dd ^= d[word[0]].words
            else:
                longer.append(word)
        if longer:
            dd ^= Element(w[:i] + dw + w[i + 1 :] for w in longer for i, letter in enumerate(w) for dw in d[letter].words).words
        if dd:
            raise StructureError(
                f"d(d({g.name})) = {format_element(Element(dd), dga)} is nonzero", D_SQUARED_NONZERO
            )
