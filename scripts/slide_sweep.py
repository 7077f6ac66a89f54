#!/usr/bin/env python3
"""Sweep the bigon area of the crossing-pair move on the trefoil and measure
how far the barcode moves.

The move adds one finite bar of length delta, so the barcode distance should be
exactly delta/2 -- comfortably inside the 2*delta interleaving guarantee for a
diagram move of that size.
"""

from fractions import Fraction

from legch.augment import linearized_differential, pick_augmentation
from legch.corpus import load, trefoil_after_rii
from legch.fileio import format_extended
from legch.metrics import interleaving_distance
from legch.persist import build_filtered_complex, compute_barcode


def barcode_for(kd, index):
    eps, _ = pick_augmentation(kd.dga, index)
    lin = linearized_differential(kd.dga, eps)
    return compute_barcode(build_filtered_complex(lin, kd.heights))


def main() -> None:
    # Augmentation 2 is q3=1, q4=0, q5=0 on the trefoil, and the same with b=0
    # after the move.
    base = barcode_for(load("trefoil"), 2)
    print(f"{'delta':>8} {'distance':>10} {'delta/2':>10}  within bound")
    for numerator in (1, 2, 3, 5, 8, 12, 16, 19):
        delta = Fraction(numerator, 20)
        moved = barcode_for(trefoil_after_rii(delta), 2)
        d = interleaving_distance(base, moved)
        assert d == delta / 2
        print(
            f"{format_extended(delta):>8} {format_extended(d):>10} "
            f"{format_extended(delta / 2):>10}  {'yes' if d <= delta else 'NO'}"
        )


if __name__ == "__main__":
    main()
