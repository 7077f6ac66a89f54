"""End-to-end acceptance checks, one test per criterion.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and enforces
its runtime budget.  Random trials use fixed seeds, so runs are reproducible.
"""

import io
import math
from contextlib import contextmanager
from fractions import Fraction
from random import Random
from time import perf_counter

from legch.augment import (
    Augmentation,
    enumerate_augmentations,
    linearized_differential,
)
from legch.cli import cli_dispatch
from legch.diagram import area_inequalities, assign_heights, flood
from legch.fileio import format_extended
from legch.metrics import check_strong_morse, interleaving_distance
from legch.persist import build_filtered_complex, compute_barcode

from support import (
    CRITERION_10_COMMANDS,
    corpus_argv,
    corpus_file,
    dga_from_complex,
    gid_of,
    homology_rank_oracle,
    load_corpus,
    planted_complex,
    random_barcode,
    stabilize,
    trefoil_after_rii,
    triples,
    validate_heights,
    zero_grading_augmentation,
    zero_grading_values,
)


@contextmanager
def criterion(num: int, name: str, budget_seconds: float):
    start = perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = perf_counter() - start
        status = "PASS" if ok and elapsed < budget_seconds else "FAIL"
        print(f"[criterion {num:2d}] {name}: {status} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"runtime budget {budget_seconds}s exceeded"


def barcode_from(kd, eps):
    lin = linearized_differential(kd.dga, eps)
    return compute_barcode(build_filtered_complex(lin, kd.heights))


def pinned_augmentation(kd, zero_values):
    eps = zero_grading_augmentation(kd.dga, zero_values)
    assert eps in enumerate_augmentations(kd.dga)
    return eps


def corpus_complexes():
    unknot = load_corpus("unknot")
    trefoil = load_corpus("trefoil")
    rii = load_corpus("trefoil_rii")
    yield unknot, enumerate_augmentations(unknot.dga)[0]
    yield trefoil, pinned_augmentation(trefoil, (1, 0, 0))
    yield rii, pinned_augmentation(rii, (1, 0, 0, 0))


def test_criterion_1_unknot_pipeline():
    with criterion(1, "unknot pipeline", 1.0):
        kd = load_corpus("unknot")
        augs = enumerate_augmentations(kd.dga)
        assert len(augs) == 1
        barcode = barcode_from(kd, augs[0])
        assert triples(barcode) == ((1, Fraction(1), math.inf),)


def test_criterion_2_trefoil_augmentations():
    with criterion(2, "trefoil augmentations", 1.0):
        kd = load_corpus("trefoil")
        augs = enumerate_augmentations(kd.dga)
        assert len(augs) == 5

        # Independent brute force straight from the two differential word lists:
        # 1 + e5 + e5*e4*e3 + e3 and 1 + e3 + e3*e4*e5 + e5 must vanish mod 2.
        expected = set()
        for e3 in (0, 1):
            for e4 in (0, 1):
                for e5 in (0, 1):
                    if (1 + e5 + e5 * e4 * e3 + e3) % 2 == 0 and (
                        1 + e3 + e3 * e4 * e5 + e5
                    ) % 2 == 0:
                        expected.add((e3, e4, e5))
        got = {zero_grading_values(eps, kd.dga) for eps in augs}
        assert got == expected == {(1, 0, 0), (1, 1, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)}


def test_criterion_3_trefoil_barcode():
    with criterion(3, "trefoil barcode", 1.0):
        kd = load_corpus("trefoil")
        eps = pinned_augmentation(kd, (1, 0, 0))
        barcode = barcode_from(kd, eps)
        assert triples(barcode) == (
            (0, Fraction(1), Fraction(4)),
            (0, Fraction(1), math.inf),
            (0, Fraction(1), math.inf),
            (1, Fraction(4), math.inf),
        )


def test_criterion_4_strong_morse_identity():
    with criterion(4, "strong Morse identity", 30.0):
        unknot = load_corpus("unknot")
        report = check_strong_morse(
            unknot.dga, barcode_from(unknot, enumerate_augmentations(unknot.dga)[0])
        )
        assert report.holds and str(report.mc) == str(report.pc) == "z"

        trefoil = load_corpus("trefoil")
        report = check_strong_morse(
            trefoil.dga, barcode_from(trefoil, pinned_augmentation(trefoil, (1, 0, 0)))
        )
        assert report.holds and (str(report.mc), str(report.pc), str(report.finite_bars)) == ("2z+3", "z+2", "1")

        rng = Random(0xC0FFEE)
        for _ in range(200):
            fc, _ = planted_complex(rng, max_n=12)
            report = check_strong_morse(dga_from_complex(fc), compute_barcode(fc))
            assert report.holds


def test_criterion_5_flooding():
    with criterion(5, "flooding", 30.0):
        island = load_corpus("island")
        tiering = flood(area_inequalities(island.diagram), island.diagram.crossings)
        assert tiering.status == "failure"
        names = lambda gids: {island.dga.generators[g].name for g in gids}
        assert [names(t) for t in tiering.tiers] == [{"q1", "q2"}, {"q3"}]
        assert names(tiering.unassigned) == {"q4", "q5", "q6", "q7", "q8", "q9"}

        from support import random_inequality_system

        rng = Random(0x5EED)
        successes = 0
        attempts = 0
        while successes < 500:
            attempts += 1
            assert attempts < 50_000, "could not find 500 succeeding systems"
            sys_, crossings = random_inequality_system(rng)
            t = flood(sys_, crossings)
            if t.status != "success":
                continue
            successes += 1
            assert validate_heights(assign_heights(t), sys_) == ()


def twenty_levels(fc):
    heights = [fc.heights.of(g.gid) for g in fc.generators]
    lo = min(heights)
    hi = max(heights) + 1
    return [lo + (hi - lo) * Fraction(i, 19) for i in range(20)]


def oracle_agrees(fc, barcode):
    levels = twenty_levels(fc)
    for degree in sorted({g.grading for g in fc.generators}):
        for t in levels:
            counted = sum(
                1 for b in barcode.bars if b.degree == degree and b.birth <= t < b.death
            )
            assert counted == homology_rank_oracle(fc, degree, t)


def test_criterion_6_barcode_oracle_equivalence():
    with criterion(6, "barcode/oracle equivalence", 60.0):
        for kd, eps in corpus_complexes():
            lin = linearized_differential(kd.dga, eps)
            fc = build_filtered_complex(lin, kd.heights)
            oracle_agrees(fc, compute_barcode(fc))
        rng = Random(0xBA5E)
        for _ in range(200):
            fc, _ = planted_complex(rng, max_n=12)
            oracle_agrees(fc, compute_barcode(fc))


def test_criterion_7_strand_slide_interleaving(tmp_path):
    with criterion(7, "slide-move interleaving distance", 1.0):
        trefoil = load_corpus("trefoil")
        rii = load_corpus("trefoil_rii")
        delta = Fraction(3, 10)
        assert rii.heights.of(gid_of(rii.dga, "a")) - rii.heights.of(gid_of(rii.dga, "b")) == delta
        b1 = barcode_from(trefoil, pinned_augmentation(trefoil, (1, 0, 0)))
        b2 = barcode_from(rii, pinned_augmentation(rii, (1, 0, 0, 0)))
        d = interleaving_distance(b1, b2)
        assert d == Fraction(3, 20)
        assert d <= delta
        # Every augmentation of the trefoil extends to exactly one of the slid
        # diagram (d(a) = q4 + b forces b = q4), and at each bigon area delta
        # the barcodes lie delta/2 apart, within the paper's bound 2 delta.
        for delta in (Fraction(1, 20), Fraction(3, 10), Fraction(19, 20)):
            slid = trefoil_after_rii(delta)
            slid_augs = enumerate_augmentations(slid.dga)
            for eps in enumerate_augmentations(trefoil.dga):
                values = zero_grading_values(eps, trefoil.dga)
                extensions = [zero_grading_augmentation(slid.dga, (*values, b)) for b in (0, 1)]
                (ext,) = [e for e in extensions if e in slid_augs]
                d = interleaving_distance(barcode_from(trefoil, eps), barcode_from(slid, ext))
                assert d == delta / 2 <= 2 * delta
        # The same through the CLI, on file bytes: augmentation 2 is q3 = 1,
        # q4 = q5 = 0 on the trefoil, and the same with b = 0 after the move.
        def stdout(*argv):
            out, err = io.StringIO(), io.StringIO()
            assert cli_dispatch(list(argv), stdout=out, stderr=err) == 0, err.getvalue()
            return out.getvalue()

        before, slid, after = tmp_path / "before.json", tmp_path / "slid.json", tmp_path / "after.json"
        before.write_text(stdout("barcode", str(corpus_file("trefoil")), "--aug", "2"))
        rii_bytes = corpus_file("trefoil_rii").read_bytes()
        assert rii_bytes.count(b'"a": 2.3,') == 1
        for numerator in (1, 2, 3, 5, 8, 12, 16, 19):
            delta = Fraction(numerator, 20)
            slid.write_bytes(rii_bytes.replace(b'"a": 2.3,', b'"a": %s,' % format_extended(2 + delta).encode()))
            after.write_text(stdout("barcode", str(slid), "--aug", "2"))
            assert stdout("distance", str(before), str(after)) == format_extended(delta / 2) + "\n"


def test_criterion_8_stabilization_bound():
    with criterion(8, "stabilization interleaving bound", 30.0):
        rng = Random(0x57AB)

        def check(dga, heights, eps_values, barcode):
            delta = Fraction(rng.randint(1, 8), 4)
            h_bot = Fraction(rng.randint(1, 40), 4)
            k = rng.randint(2, 4)
            sdga, sh = stabilize(dga, k, h_bot + 2 * delta, h_bot, heights)
            eps = Augmentation(tuple(eps_values) + (0, 0))
            lin = linearized_differential(sdga, eps)
            stabilized = compute_barcode(build_filtered_complex(lin, sh))
            assert interleaving_distance(barcode, stabilized) <= delta

        for kd, eps in corpus_complexes():
            check(kd.dga, kd.heights, eps.values, barcode_from(kd, eps))
        for _ in range(50):
            fc, _ = planted_complex(rng, max_n=10)
            dga = dga_from_complex(fc)
            eps = Augmentation((0,) * len(dga))
            barcode = compute_barcode(fc)
            check(dga, fc.heights, eps.values, barcode)


def test_criterion_9_metric_axioms():
    with criterion(9, "metric axioms", 30.0):
        rng = Random(0xD157)
        zero = Fraction(0)
        for _ in range(300):
            b1 = random_barcode(rng)
            b2 = random_barcode(rng)
            b3 = random_barcode(rng)
            assert interleaving_distance(b1, b1) == zero
            d12 = interleaving_distance(b1, b2)
            assert d12 == interleaving_distance(b2, b1)
            d13 = interleaving_distance(b1, b3)
            d23 = interleaving_distance(b2, b3)
            assert d13 <= d12 + d23


def test_criterion_10_cli_determinism():
    with criterion(10, "CLI determinism", 30.0):
        def run_all():
            results = []
            for command in CRITERION_10_COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                code = cli_dispatch(corpus_argv(command), stdout=out, stderr=err)
                results.append((code, out.getvalue().encode(), err.getvalue().encode()))
            return results

        first = run_all()
        second = run_all()
        assert first == second
        codes = [code for code, _, _ in first]
        assert codes == [0] * 6 + [2] + [0] * 8
