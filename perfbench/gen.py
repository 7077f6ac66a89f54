"""Seeded inputs for the benchmark and the expected outputs it checks them by.

Nothing here imports legch.  Inputs are written as plain JSON bytes, and every
expected value is computed by a route that shares no code with the library:
augmentations of the (2,n) torus knots from a 2x2 recurrence for the mod-2
continuant, barcodes from planted pairings, distances from the shift argument.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from itertools import product

INF = math.inf


def fmt_decimal(x: Fraction) -> str:
    """Exact decimal text of a rational with a power-of-ten denominator."""
    x = Fraction(x)
    places = 0
    while (x * 10**places).denominator != 1:
        places += 1
    if places == 0:
        return str(x.numerator)
    digits = str(abs(x.numerator) * 10**places // x.denominator).rjust(places + 1, "0")
    return ("-" if x < 0 else "") + digits[:-places] + "." + digits[-places:]


def quarter(k: int) -> float:
    """k/4 as a JSON number; binary floats hold quarters exactly."""
    return k / 4


def parse_barcode_json(data: bytes) -> list:
    """Sorted (degree, birth, death) triples of a barcode file."""
    out = []
    for bar in json.loads(data, parse_float=Fraction)["bars"]:
        death = INF if bar["death"] == "inf" else Fraction(bar["death"])
        out.append((bar["degree"], Fraction(bar["birth"]), death))
    return sorted(out)


# ---------------------------------------------------------------------------
# (2, n) torus knots

def continuant_words(letters: list[str]) -> list[tuple[str, ...]]:
    """Words of the noncommutative continuant K(letters); no two coincide."""
    older, prev = [], [()]
    for x in letters:
        older, prev = prev, [w + (x,) for w in prev] + older
    return prev


def continuant_bit(bits) -> int:
    """K(bits) mod 2 by the recurrence K_i = K_{i-1} x_i + K_{i-2}."""
    cur, older = 1, 0
    for x in bits:
        cur, older = (cur & x) ^ older, cur
    return cur


def torus_doc(n: int) -> dict:
    """Knot file of the (2,n) torus knot: a1, a2 in grading 1, b1..bn in 0.

    d(a2) = 1 + K(b1..bn), d(a1) = 1 + K(bn..b1); heights a = n+1, b = 1
    satisfy every area patch.
    """
    b = [f"b{i}" for i in range(1, n + 1)]

    def corner(name, coeff=1):
        return {"name": name, "coeff": coeff}

    differential = {
        "a1": [[]] + [list(w) for w in continuant_words(b[::-1])],
        "a2": [[]] + [list(w) for w in continuant_words(b)],
    }
    differential.update({x: [] for x in b})
    patches = [[corner("a1")], [corner("a2")]]
    patches += [[corner(a)] + [corner(x, -1) for x in b] for a in ("a1", "a2")]
    patches += [[corner(b[i]), corner(b[i + 1])] for i in range(n - 1)]
    heights = {"a1": n + 1, "a2": n + 1}
    heights.update({x: 1 for x in b})
    return {
        "generators": [{"name": a, "grading": 1} for a in ("a1", "a2")]
        + [{"name": x, "grading": 0} for x in b],
        "differential": differential,
        "patches": patches,
        "heights": heights,
        "meta": {"name": f"torus_2_{n}"},
    }


def torus_bytes(n: int) -> bytes:
    return json.dumps(torus_doc(n), sort_keys=True).encode("utf-8")


def trefoil_mismatches(corpus_trefoil: bytes) -> list[str]:
    """Compare torus_doc(3), renamed a1,a2,b1..b3 -> q1..q5, with the corpus trefoil."""
    rename = {"a1": "q1", "a2": "q2", "b1": "q3", "b2": "q4", "b3": "q5"}
    ours, theirs = torus_doc(3), json.loads(corpus_trefoil)

    def gens(doc, r):
        return [(r(g["name"]), g["grading"]) for g in doc["generators"]]

    def diff(doc, r):
        return {r(k): sorted(tuple(map(r, w)) for w in v) for k, v in doc["differential"].items()}

    def patches(doc, r):
        return [sorted((r(c["name"]), c["coeff"]) for c in p) for p in doc["patches"]]

    def heights(doc, r):
        return {r(k): Fraction(v) for k, v in doc["heights"].items()}

    out = []
    for what, f in (("generators", gens), ("differential", diff), ("patches", patches), ("heights", heights)):
        if f(ours, rename.get) != f(theirs, str):
            out.append(f"torus (2,3) {what} differ from corpus trefoil")
    return out


def count_augmentations(n: int) -> int:
    """Augmentations of T(2,n) by a transfer matrix over the states (K_i, K_{i-1}) mod 2."""
    states = Counter({(1, 0): 1})
    for _ in range(n):
        nxt = Counter()
        for (cur, older), c in states.items():
            for x in (0, 1):
                nxt[((cur & x) ^ older, cur)] += c
        states = nxt
    return sum(c for (cur, _), c in states.items() if cur == 1)


def torus_self_check() -> None:
    for n in range(3, 15, 2):
        count = count_augmentations(n)
        if count != (4 ** ((n + 1) // 2) - 1) // 3:
            raise AssertionError(f"transfer-matrix count {count} for T(2,{n}) breaks the closed form")


class TorusOracle:
    """Expected CLI output for the (2,n) torus knot files of ``torus_doc``."""

    def __init__(self, n: int):
        self.n = n
        # Same order as the library: lexicographic over (b1..bn).
        self.augs = [bits for bits in product((0, 1), repeat=n) if continuant_bit(bits)]
        self._lin: dict[int, list[int]] = {}

    def linear_support(self, index: int) -> list[int]:
        """Indices j with b_j in d1(a1) = d1(a2): the derivative of K at the augmentation."""
        if index not in self._lin:
            bits = list(self.augs[index])
            support = []
            for j in range(self.n):
                lo = continuant_bit(bits[:j] + [0] + bits[j + 1:])
                hi = continuant_bit(bits[:j] + [1] + bits[j + 1:])
                if lo != hi:
                    support.append(j)
            self._lin[index] = support
        return self._lin[index]

    def rank(self, index: int) -> int:
        return 1 if self.linear_support(index) else 0

    def triples(self, index: int, h_a, h_b) -> list:
        n, r = self.n, self.rank(index)
        bars = [(0, h_b, h_a)] * r + [(0, h_b, INF)] * (n - r) + [(1, h_a, INF)] * (2 - r)
        return sorted((d, Fraction(b), e if e == INF else Fraction(e)) for d, b, e in bars)

    def validate(self) -> str:
        return f"OK: {self.n + 2} generators, {self.n + 3} patches, heights present\n"

    def augment(self) -> str:
        # the count from the transfer matrix, the list from brute force: both must match
        lines = [f"augmentations: {count_augmentations(self.n)}"]
        for i, bits in enumerate(self.augs):
            lines.append(f"aug {i}: " + " ".join(f"b{j + 1}={v}" for j, v in enumerate(bits)))
        return "\n".join(lines) + "\n"

    def flood(self) -> str:
        b = " ".join(f"b{j}" for j in range(1, self.n + 1))
        top = 2 * self.n + 1
        hs = " ".join([f"a1={top}", f"a2={top}"] + [f"b{j}=1" for j in range(1, self.n + 1)])
        return f"T1: a1 a2\nT2: {b}\nT3: (empty)\nheights: {hs}\n"

    def linearize(self, index: int) -> str:
        rhs = " + ".join(f"b{j + 1}" for j in self.linear_support(index)) or "0"
        lines = [f"d(a1) = {rhs}", f"d(a2) = {rhs}"]
        lines += [f"d(b{j}) = 0" for j in range(1, self.n + 1)]
        return "\n".join(lines) + "\n"

    def morse(self, index: int) -> str:
        n, r = self.n, self.rank(index)
        return (
            f"MC = 2z+{n}\nPC = {poly({1: 2 - r, 0: n - r})}\n"
            f"R = {poly({0: r})}\nstrong Morse identity: HOLDS\n"
        )


def poly(coeffs: dict[int, int]) -> str:
    """Nonnegative Laurent polynomial text: descending powers, 'z' for z^1."""
    parts = []
    for e in sorted((e for e, c in coeffs.items() if c), reverse=True):
        c = coeffs[e]
        var = "" if e == 0 else "z" if e == 1 else f"z^{e}"
        parts.append(str(c) if e == 0 else var if c == 1 else f"{c}{var}")
    return "+".join(parts) or "0"


# ---------------------------------------------------------------------------
# planted filtered complexes

def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def planted_complex(rng, n: int, entries_per_column: int = 6) -> tuple[bytes, list]:
    """Knot-file bytes of a filtered complex with all words of length 1, plus its
    barcode as sorted triples.

    Generators come in cancelling pairs (a finite bar each) and singletons (an
    infinite bar each).  Filtration-preserving basis changes v -> v + u, with
    h(u) < h(v) and equal gradings, then fill the matrix without changing the
    barcode; rows and columns are kept as bitmasks so that each change costs
    only its own entries.
    """
    gradings, heights = [0] * n, [0] * n
    col, row = [0] * n, [0] * n  # col[c] has bit r, row[r] has bit c, for entry r in d(c)
    slots = list(range(n))
    rng.shuffle(slots)
    bars = []
    n_pairs = 2 * n // 5
    # Gradings go round-robin, so every seed gives the same shape and only the
    # heights and the fill-in differ.
    for k in range(n_pairs):
        cycle, killer = slots[2 * k], slots[2 * k + 1]
        g = k % 3
        birth = rng.randint(4, 4000)
        death = birth + rng.randint(1, 400)
        gradings[cycle], gradings[killer] = g, g + 1
        heights[cycle], heights[killer] = birth, death
        col[killer] |= 1 << cycle
        row[cycle] |= 1 << killer
        bars.append((g, Fraction(birth, 4), Fraction(death, 4)))
    for k, s in enumerate(slots[2 * n_pairs:]):
        gradings[s], heights[s] = k % 4, rng.randint(4, 4400)
        bars.append((gradings[s], Fraction(heights[s], 4), INF))

    by_grading: dict[int, list[int]] = {}
    for gid, g in enumerate(gradings):
        by_grading.setdefault(g, []).append(gid)
    groups = [by_grading[g] for g in sorted(by_grading)]
    entries, changes = n_pairs, 0
    while entries < entries_per_column * n:
        group = groups[changes % len(groups)]
        u, v = rng.choice(group), rng.choice(group)
        if heights[u] == heights[v]:
            continue
        changes += 1
        if heights[u] > heights[v]:
            u, v = v, u
        # column v += column u, then row u += row v: conjugation by v -> v + u
        before = col[v].bit_count()
        col[v] ^= col[u]
        entries += col[v].bit_count() - before
        for r in _bits(col[u]):
            row[r] ^= 1 << v
        before = row[u].bit_count()
        row[u] ^= row[v]
        entries += row[u].bit_count() - before
        for c in _bits(row[v]):
            col[c] ^= 1 << u

    names = [f"g{i}" for i in range(n)]
    doc = {
        "generators": [{"name": names[i], "grading": gradings[i]} for i in range(n)],
        "differential": {names[i]: [[names[p]] for p in _bits(col[i])] for i in range(n)},
        "patches": [],
        "heights": {names[i]: quarter(heights[i]) for i in range(n)},
        "meta": {"name": f"planted_{n}"},
    }
    return json.dumps(doc).encode("utf-8"), sorted(bars)


# ---------------------------------------------------------------------------
# barcode pairs at an exact distance

def exact_pair(rng, sizes: dict[int, int], delta_quarters: int, short_bar: bool, infinite: bool = True):
    """Two barcode files at bottleneck distance exactly delta = delta_quarters/4.

    The second barcode shifts every endpoint of the first by delta, and every
    finite bar is longer than 2 delta.  Matching each bar to its shift costs
    delta.  Nothing cheaper exists: deleting a bar costs more than delta, so a
    cheaper matching pairs the bars bijectively, and then the births, which
    shift by delta in total per bar, move some bar by at least delta.  An
    optional extra bar shorter than 2 delta in the second file is deleted for
    less than delta and leaves the distance unchanged.  With ``infinite``,
    every tenth bar of a degree is infinite.
    """
    a, b = [], []
    for degree, count in sizes.items():
        for i in range(count):
            birth = rng.randint(4, 4000)
            if infinite and i % 10 == 9:
                death = None
            else:
                death = birth + 2 * delta_quarters + rng.randint(1, 400)
            for bars, shift in ((a, 0), (b, delta_quarters)):
                bars.append(
                    {
                        "degree": degree,
                        "birth": quarter(birth + shift),
                        "death": "inf" if death is None else quarter(death + shift),
                    }
                )
    if short_bar:
        birth = rng.randint(4, 4000)
        b.append({"degree": min(sizes), "birth": quarter(birth), "death": quarter(birth + delta_quarters)})
    a, b = (json.dumps({"bars": bars}).encode("utf-8") for bars in (a, b))
    return a, b, fmt_decimal(Fraction(delta_quarters, 4)) + "\n"
