"""Stabilizations, elementary automorphisms and their induced linear maps."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    DGA,
    Element,
    Generator,
    HeightAssignment,
    StructureError,
    apply_differential,
    word_grading,
)
from .augment import Augmentation, check_augmentation, linear_part


@dataclass(frozen=True)
class ElementaryAutomorphism:
    """The algebra map sending one generator to itself plus an addend.

    The addend must not involve the target generator, which makes the map an
    involution over Z2.
    """

    target: int
    addend: Element

    def __post_init__(self):
        for word in self.addend.words:
            if self.target in word:
                raise ValueError(
                    f"addend must avoid the target generator (id {self.target})"
                )


@dataclass(frozen=True)
class TameIsomorphism:
    """A composition of elementary automorphisms followed by a relabeling.

    The steps are kept as a list, never composed into one opaque map, because
    the monotonicity condition below is checked per elementary step.
    relabel[src_gid] gives the target id; it must preserve gradings.
    """

    steps: tuple[ElementaryAutomorphism, ...]
    relabel: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.relabel) != list(range(len(self.relabel))):
            raise ValueError("relabel must be a bijection of 0..n-1")


def _unique_name(taken: set[str], base: str) -> str:
    if base not in taken:
        return base
    i = 2
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


def stabilize(
    dga: DGA,
    k: int,
    h_top: Fraction,
    h_bot: Fraction,
    h: HeightAssignment,
) -> tuple[DGA, HeightAssignment]:
    """Adjoin a cancelling pair: a grading-k generator at height ``h_top`` mapping
    to a grading-(k-1) generator at height ``h_bot``."""
    h_top, h_bot = Fraction(h_top), Fraction(h_bot)
    if not (h_top > h_bot > 0):
        raise ValueError(f"need h_top > h_bot > 0, got {h_top}, {h_bot}")
    n = len(dga)
    taken = {g.name for g in dga.generators}
    top_name = _unique_name(taken, f"e{k}")
    taken.add(top_name)
    bot_name = _unique_name(taken, f"e{k - 1}")
    top = Generator(n, top_name, k)
    bot = Generator(n + 1, bot_name, k - 1)
    gens = dga.generators + (top, bot)
    diff = dga.differential + (Element.from_word((bot.gid,)), Element.zero())
    return DGA(gens, diff), h.with_entries({top.gid: h_top, bot.gid: h_bot})


def _substitute(elem: Element, target: int, image: Element) -> Element:
    """Apply the algebra map target -> image, identity elsewhere."""
    out = Element.zero()
    for word in elem.words:
        prod = Element.one()
        for g in word:
            prod = prod * (image if g == target else Element.from_word((g,)))
        out = out + prod
    return out


def apply_elementary(dga: DGA, phi: ElementaryAutomorphism) -> DGA:
    """Conjugate the differential by ``phi`` (which is its own inverse over Z2)."""
    target = dga.generator(phi.target)
    for word in phi.addend.words:
        wg = word_grading(word, dga)
        if wg != target.grading:
            raise ValueError(
                f"addend word of grading {wg} is not homogeneous of grading "
                f"{target.grading}"
            )
    image = Element.from_word((phi.target,)) + phi.addend
    new_cols = []
    for g in dga.generators:
        pre = dga.d(g.gid)
        if g.gid == phi.target:
            # d(phi(q)) = d(q) + d(u)
            pre = pre + apply_differential(phi.addend, dga)
        new_cols.append(_substitute(pre, phi.target, image))
    return DGA(dga.generators, tuple(new_cols))


def apply_tame(dga: DGA, iso: TameIsomorphism) -> DGA:
    """Apply the elementary steps in order, then relabel generator ids."""
    current = dga
    for step in iso.steps:
        current = apply_elementary(current, step)
    relabel = iso.relabel
    if len(relabel) != len(current):
        raise StructureError("relabel length must match the generator count")
    order = sorted(range(len(current)), key=lambda src: relabel[src])
    gens = []
    for new_gid, src in enumerate(order):
        old = current.generator(src)
        gens.append(Generator(new_gid, old.name, old.grading))
    cols = tuple(
        Element(tuple(relabel[g] for g in word) for word in current.d(src).words)
        for src in order
    )
    out = DGA(tuple(gens), cols)
    for src in range(len(current)):
        if out.grading_of(relabel[src]) != current.grading_of(src):
            raise StructureError("relabel must preserve gradings")
    return out


def is_semimonotonic(phi: ElementaryAutomorphism, h: HeightAssignment) -> bool:
    """True when every letter of every addend word sits strictly below the target.

    This letter-level reading is stronger than comparing the addend's height to
    the target's and makes the induced map height-preserving term by term.
    """
    bound = h.of(phi.target)
    return all(
        h.of(g) < bound for word in phi.addend.words for g in word
    )


def induced_linear_map(
    dga: DGA, phi: ElementaryAutomorphism, eps: Augmentation
) -> dict[int, frozenset[int]]:
    """Column form of the linearization of ``phi``: q -> {q} except at the target,
    which also picks up the length-1 part of the addend's image under ``eps``."""
    check_augmentation(dga, eps)
    columns = {g.gid: frozenset({g.gid}) for g in dga.generators}
    correction = linear_part(phi.addend, eps)
    columns[phi.target] = frozenset({phi.target}) ^ correction
    return columns
