#!/usr/bin/env python3
"""Run the whole pipeline over the bundled corpus and print a report per knot:
generators, augmentations, flooding, barcode, and the strong Morse check."""

from legch import corpus
from legch.augment import enumerate_augmentations, linearized_differential
from legch.diagram import area_inequalities, assign_heights, flood
from legch.fileio import format_extended, render_barcode
from legch.metrics import check_strong_morse
from legch.persist import build_filtered_complex, compute_barcode


def report(name: str) -> None:
    kd = corpus.load(name)
    print(f"=== {name} ===")
    gens = ", ".join(f"{g.name} (deg {g.grading})" for g in kd.dga.generators)
    print(f"generators: {gens}")

    tiering = flood(area_inequalities(kd.diagram), kd.diagram.crossings)
    if tiering.status == "success":
        flooded = assign_heights(tiering)
        tiers = "  ".join(
            "T%d={%s}" % (i, " ".join(kd.dga.generators[g].name for g in sorted(t)))
            for i, t in enumerate(tiering.tiers, start=1)
        )
        print(f"flooding: {tiers}")
        values = " ".join(
            f"{g.name}={format_extended(flooded.of(g.gid))}" for g in kd.dga.generators
        )
        print(f"flooded heights: {values}")
    else:
        stuck = " ".join(kd.dga.generators[g].name for g in sorted(tiering.unassigned))
        print(f"flooding: FAILED, unassigned crossings: {stuck}")

    augs = enumerate_augmentations(kd.dga)
    print(f"augmentations: {len(augs)}")

    heights = kd.heights
    if heights is None and tiering.status == "success":
        heights = assign_heights(tiering)
    if heights is None or not augs:
        print("no filtered complex available; skipping barcode")
        print()
        return

    eps = augs[0]
    lin = linearized_differential(kd.dga, eps)
    barcode = compute_barcode(build_filtered_complex(lin, heights))
    print(render_barcode(barcode, "text").decode("utf-8"), end="")

    morse = check_strong_morse(kd.dga, barcode)
    verdict = "HOLDS" if morse.holds else "FAILS"
    print(
        f"MC = {morse.mc}; PC = {morse.pc}; R = {morse.finite_bars}; "
        f"strong Morse identity {verdict}"
    )
    print()


def main() -> None:
    for name in corpus.NAMES:
        report(name)


if __name__ == "__main__":
    main()
