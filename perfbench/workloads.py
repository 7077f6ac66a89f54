"""The four benchmark workloads.

A workload builds its inputs from a seed, then runs passes over a fixed job.
``PASS_SECONDS`` is a pass's length on a small 2-core virtual machine; a run
makes as many passes as fill ``--seconds`` at that length, a count that does
not depend on the clock.
``run_pass`` calls the program through ``Pass.op``, one call per op, and
returns nothing; ``check`` then judges one op's recorded output, outside any
timed region.  Every program call goes through a module attribute of legch
(``lg.cli.cli_dispatch``, ...), so the traced run sees it once the tracer has
rebound that attribute.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from random import Random
from time import perf_counter as clock

import gen
from speed import Speed

TORUS_SIZES = (3, 5, 7, 9, 11, 13)


class Pass:
    """Runs the ops of one pass and records when each ran; an op that raises is
    recorded, not re-raised.  The machine speed is sampled between ops, and
    long ops sample it between their stages too."""

    def __init__(self, speed: Speed, tracer=None):
        self.speed = speed
        self.tracer = tracer
        self.intervals: list[tuple[float, float]] = []
        self.outputs: list = []
        self.errors: list[str | None] = []
        self.extra = None  # pass-level program output, checked by check_pass

    def op(self, fn, *args):
        self.speed.maybe_sample()
        span = self.tracer.begin("op") if self.tracer else None
        start = clock()
        try:
            out, err = fn(*args), None
        except Exception as exc:  # the harness counts the failure and keeps running
            out, err = None, f"{type(exc).__name__}: {str(exc)[:120]}"
        self.intervals.append((start, clock()))
        if span is not None:
            self.tracer.end(span)
        self.outputs.append(out)
        self.errors.append(err)
        return out


def _cli(lg, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    code = lg.cli.cli_dispatch(argv, stdout=out, stderr=err)
    return code, out.getvalue()


class CliTorus:
    """In-process CLI commands on the corpus and on (2,n) torus knot files.

    The mix is shaped so that each percentile falls inside a block of similar
    commands: the one command at n=13 lies above p90, the 18 enumerating
    commands at n=11 hold p90, and the 48 at n=9 hold p50.  A command at n=13
    runs about a second in one call, too long for the speed sampling to
    normalise well; with 3 of them per pass wall_s spread by 10% across seeds.
    """

    PASS_SECONDS = 3.3
    # (command, knot, extra args, expected exit code): the criterion-10 list.
    CORPUS = [
        ("validate", "unknot", [], 0),
        ("validate", "trefoil", [], 0),
        ("augment", "trefoil", [], 0),
        ("augment", "island", [], 0),
        ("linearize", "trefoil", ["--aug", "2"], 0),
        ("flood", "trefoil", [], 0),
        ("flood", "island", [], 2),
        ("barcode", "unknot", [], 0),
        ("barcode", "trefoil", ["--aug", "2"], 0),
        ("barcode", "trefoil", ["--aug", "2", "--heights", "flood"], 0),
        ("barcode", "trefoil_rii", ["--aug", "2", "--render", "text"], 0),
        ("barcode", "trefoil", ["--aug", "2", "--render", "svg"], 0),
        ("morse", "unknot", [], 0),
        ("morse", "trefoil", ["--aug", "0"], 0),
        ("morse", "trefoil_rii", ["--aug", "2"], 0),
    ]
    ENUMERATING = ("augment", "linearize", "barcode", "barcode-text", "barcode-svg", "morse")
    REPEATS = {3: 1, 5: 1, 7: 1, 9: 8, 11: 3}
    AT_13 = ("morse",)

    def __init__(self, lg, seed: int, workdir: Path):
        gen.torus_self_check()
        self.lg = lg
        rng = Random(seed)
        self.files = {}
        for n in TORUS_SIZES:
            self.files[n] = workdir / f"torus_2_{n}.json"
            self.files[n].write_bytes(gen.torus_bytes(n))
        corpus = Path(lg.corpus.__file__).parent
        self.trefoil = (corpus / "trefoil.json").read_bytes()

        # spec: (kind, n, aug index or None, argv, expected code); n is None for corpus commands
        specs = [(cmd, None, None, [cmd, str(corpus / f"{knot}.json"), *extra], code)
                 for cmd, knot, extra, code in self.CORPUS]
        for n in TORUS_SIZES:
            specs += [(kind, n, None, [kind, str(self.files[n])], 0) for kind in ("validate", "flood")]
        kinds = [(n, kind) for n, reps in self.REPEATS.items() for _ in range(reps) for kind in self.ENUMERATING]
        kinds += [(13, kind) for kind in self.AT_13]
        for n, kind in kinds:
            aug = None if kind == "augment" else rng.randrange(gen.count_augmentations(n))
            specs.append((kind, n, aug, self._argv(kind, n, aug), 0))
        rng.shuffle(specs)
        self.specs = specs
        self.oracles = {}

    def _argv(self, kind, n, aug):
        argv = [kind.split("-")[0], str(self.files[n])]
        if aug is not None:
            argv += ["--aug", str(aug)]
        if kind.startswith("barcode-"):
            argv += ["--render", kind.split("-")[1]]
        return argv

    def warm_up(self):
        for kind in ("validate", "flood") + self.ENUMERATING:
            _cli(self.lg, self._argv(kind, 3, None if kind in ("validate", "flood", "augment") else 0))

    def run_pass(self, p: Pass):
        for spec in self.specs:
            p.op(_cli, self.lg, spec[3])

    def check_pass(self, p: Pass) -> list[str]:
        return gen.trefoil_mismatches(self.trefoil)

    def check(self, i: int, out) -> str | None:
        kind, n, aug, argv, want_code = self.specs[i]
        code, stdout = out
        if code != want_code:
            return f"{' '.join(argv[:1] + argv[2:])}: exit {code}, expected {want_code}"
        if n is None:
            return None
        if n not in self.oracles:
            self.oracles[n] = gen.TorusOracle(n)
        oracle = self.oracles[n]
        if kind == "barcode":
            got = gen.parse_barcode_json(stdout.encode("utf-8"))
            ok = got == oracle.triples(aug, n + 1, 1)
        elif kind == "barcode-text":
            ok = _text_triples(stdout) == oracle.triples(aug, n + 1, 1)
        elif kind == "barcode-svg":
            ok = _svg_bars(stdout) == len(oracle.triples(aug, n + 1, 1))
        elif kind in ("linearize", "morse"):
            ok = stdout == getattr(oracle, kind)(aug)
        else:
            ok = stdout == getattr(oracle, kind)()
        return None if ok else f"torus (2,{n}) {kind} --aug {aug}: unexpected output"


_TEXT_BAR = re.compile(r"^H(-?\d+)  \[([^,]+), ([^)]+)\)")


def _text_triples(text: str) -> list | None:
    lines = text.splitlines()
    if not lines or lines[0] != f"# bars: {len(lines) - 1}":
        return None
    out = []
    for line in lines[1:]:
        m = _TEXT_BAR.match(line)
        if not m:
            return None
        death = gen.INF if m[3] == "inf" else gen.Fraction(m[3])
        out.append((int(m[1]), gen.Fraction(m[2]), death))
    return sorted(out)


def _svg_bars(svg: str) -> int | None:
    if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
        return None
    return svg.count('stroke-width="4"')


class AugSweep:
    """The library pipeline over every augmentation of T(2,11), in seeded order."""

    PASS_SECONDS = 4.0

    def __init__(self, lg, seed: int, workdir: Path, n: int = 11):
        gen.torus_self_check()
        self.lg = lg
        self.n = n
        self.data = gen.torus_bytes(n)
        self.order = list(range(gen.count_augmentations(n)))
        Random(seed).shuffle(self.order)
        self.oracle = None
        self.prev = None

    def warm_up(self):
        AugSweep(self.lg, 0, None, n=3).run_pass(Pass(Speed()))

    def run_pass(self, p: Pass):
        lg = self.lg
        kd = lg.fileio.parse_knot_file(self.data)
        tiering = lg.diagram.flood(lg.diagram.area_inequalities(kd.diagram), kd.diagram.crossings)
        heights = lg.diagram.assign_heights(tiering)
        augs = lg.augment.enumerate_augmentations(kd.dga)
        p.extra = ([eps.values for eps in augs], [heights.of(g.gid) for g in kd.dga.generators])
        self.prev = None
        for i in self.order:
            p.op(self._one, kd.dga, heights, augs[i])

    def _one(self, dga, heights, eps):
        lg = self.lg
        lin = lg.augment.linearized_differential(dga, eps)
        barcode = lg.persist.compute_barcode(lg.persist.build_filtered_complex(lin, heights))
        holds = lg.metrics.check_strong_morse(dga, barcode).holds
        data = lg.fileio.serialize_barcode_file(barcode)
        distance = lg.metrics.interleaving_distance(self.prev or barcode, barcode)
        self.prev = barcode
        return data, str(distance), holds

    def _oracle(self):
        if self.oracle is None:
            self.oracle = gen.TorusOracle(self.n)
        return self.oracle

    def check_pass(self, p: Pass) -> list[str]:
        values, heights = p.extra
        n, oracle = self.n, self._oracle()
        problems = []
        if values != [(0, 0) + bits for bits in oracle.augs]:
            problems.append("enumerate_augmentations differs from the lexicographic continuant oracle")
        if heights != [2 * n + 1] * 2 + [1] * n:
            problems.append(f"flood heights {heights} differ from a=2n+1, b=1")
        return problems

    def check(self, i: int, out) -> str | None:
        data, distance, holds = out
        oracle, n = self._oracle(), self.n
        aug, prev = self.order[i], self.order[i - 1] if i else self.order[i]
        if gen.parse_barcode_json(data) != oracle.triples(aug, 2 * n + 1, 1):
            return f"aug {aug}: barcode differs from the rank oracle"
        if not holds:
            return f"aug {aug}: strong Morse identity fails"
        want = "0" if oracle.rank(prev) == oracle.rank(aug) else "inf"
        if distance != want:
            return f"aug {aug}: distance {distance} to aug {prev}, expected {want}"
        return None


class BigComplex:
    """Planted filtered complexes read as knot files and reduced to barcodes."""

    PASS_SECONDS = 3.3
    SIZE = 3000
    PER_PASS = 3

    def __init__(self, lg, seed: int, workdir: Path):
        self.lg = lg
        rng = Random(seed)
        self.inputs = [gen.planted_complex(rng, self.SIZE) for _ in range(self.PER_PASS)]
        self.small = gen.planted_complex(rng, 200)

    def warm_up(self):
        self._one(Speed(), self.small[0])

    def run_pass(self, p: Pass):
        for data, _ in self.inputs:
            p.op(self._one, p.speed, data)

    def _one(self, speed: Speed, data: bytes):
        # An op takes about a second, long enough for the machine's speed to
        # change, so the speed is also sampled between its stages.
        lg = self.lg
        kd = lg.fileio.parse_knot_file(data)
        speed.maybe_sample()
        zero = lg.augment.Augmentation((0,) * len(kd.dga))
        lin = lg.augment.linearized_differential(kd.dga, zero)
        fc = lg.persist.build_filtered_complex(lin, kd.heights)
        speed.maybe_sample()
        barcode = lg.persist.compute_barcode(fc)
        speed.maybe_sample()
        holds = lg.metrics.check_strong_morse(kd.dga, barcode).holds
        out = lg.fileio.serialize_barcode_file(barcode), lg.fileio.render_barcode(barcode, "text")
        speed.maybe_sample()
        return (*out, lg.fileio.render_barcode(barcode, "svg"), holds)

    def check_pass(self, p: Pass) -> list[str]:
        return []

    def check(self, i: int, out) -> str | None:
        data, text, svg, holds = out
        planted = self.inputs[i][1]
        if gen.parse_barcode_json(data) != planted:
            return f"complex {i}: barcode differs from the planted bars"
        if _text_triples(text.decode("utf-8")) != planted:
            return f"complex {i}: text rendering differs from the planted bars"
        if _svg_bars(svg.decode("utf-8")) != len(planted):
            return f"complex {i}: svg does not draw one bar per planted bar"
        if not holds:
            return f"complex {i}: strong Morse identity fails"
        return None


class Bottleneck:
    """``legch distance`` on barcode pairs whose distance is known exactly.

    Per pass, 4 large pairs lie above p90, 8 medium pairs hold p90 in the
    middle of their block and 68 small pairs hold p50.  Matching time varies
    by up to 2x from pair to pair of one size, so each percentile and the
    large pairs' share of ``wall_s`` rest on several pairs, never on one or
    two.  Once per run, after the passes, ``run_probe`` tries a pair with 580
    finite bars in one degree, past the depth at which the recursive matcher
    raises RecursionError, so that the known defect is counted among the
    failures.  It stays out of the passes because that one
    call runs 5-10 s, too long for the speed sampling to normalise: with it in
    every pass, wall_s spread by 23% across seeds.
    """

    PASS_SECONDS = 4.0
    MIX = [(4, {1: 120, 0: 20}), (8, {1: 50, 0: 10}), (68, {0: 20, 1: 10})]
    OVER_DEPTH = {1: 580}

    def __init__(self, lg, seed: int, workdir: Path):
        self.lg = lg
        rng = Random(seed)
        self.workdir, self.written = workdir, 0
        self.pairs = []  # (path a, path b, expected stdout)
        for copies, sizes in self.MIX:
            for _ in range(copies):
                self.pairs.append(self._write(gen.exact_pair(rng, sizes, rng.randint(1, 6), rng.random() < 0.5)))
        rng.shuffle(self.pairs)
        self.over_depth = self._write(gen.exact_pair(rng, self.OVER_DEPTH, rng.randint(1, 6), False, infinite=False))
        self.warm = self._write(gen.exact_pair(rng, {0: 5}, 1, True))

    def _write(self, pair) -> tuple[str, str, str]:
        """Write both barcode files; return their paths and the expected stdout."""
        a, b, want = pair
        self.written += 1
        paths = [str(self.workdir / f"pair{self.written}{side}.json") for side in "ab"]
        for path, data in zip(paths, (a, b)):
            Path(path).write_bytes(data)
        return paths[0], paths[1], want

    def warm_up(self):
        _cli(self.lg, ["distance", self.warm[0], self.warm[1]])

    def run_pass(self, p: Pass):
        for a, b, _ in self.pairs:
            p.op(_cli, self.lg, ["distance", a, b])

    def run_probe(self, p: Pass):
        p.op(_cli, self.lg, ["distance", self.over_depth[0], self.over_depth[1]])

    def check_pass(self, p: Pass) -> list[str]:
        return []

    def check(self, i: int, out) -> str | None:
        return self._check(self.pairs[i], out)

    def check_probe(self, i: int, out) -> str | None:
        return self._check(self.over_depth, out)

    @staticmethod
    def _check(pair, out) -> str | None:
        if out != (0, pair[2]):
            return f"distance {pair[0]} {pair[1]}: got {out!r}, expected exit 0 and {pair[2]!r}"
        return None


WORKLOADS = {
    "cli_torus": CliTorus,
    "aug_sweep": AugSweep,
    "big_complex": BigComplex,
    "bottleneck": Bottleneck,
}

