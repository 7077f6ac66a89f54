"""Benchmark of legch: four seeded workloads, end-to-end timings and traced spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository: legch is imported
from the checkout's ``src/``, and inputs, spans and scratch files go under its
``.perfbench/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the
metrics are the ``end_to_end`` list of BENCHMARK.json, with ``--trace 1`` its
``per_layer`` list.  perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter as clock

from spans import Tracer
from speed import Speed
from workloads import WORKLOADS, Pass

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5  # this process plus four fresh ones; setup_s is their median
COLD_SPAWNS = 20
BARE_START = 0.045  # seconds; a typical bare interpreter start on a small 2-core virtual machine
COLD_OUTPUT = b"OK: 5 generators, 6 patches, heights present\n"


def setup(name: str, seed: int, workdir: Path):
    """Import legch, build the workload's inputs and warm up; return both and
    the normalised seconds taken, with the speed sampled between the steps."""
    speed = Speed()
    speed.sample()
    start = clock()
    lg = importlib.import_module("legch")
    importlib.import_module("legch.cli")
    importlib.import_module("legch.corpus")
    if Path(lg.__file__).resolve().parent != (SRC / "legch").resolve():
        raise SystemExit(f"error: imported legch from {lg.__file__}, not from {SRC}")
    speed.sample()
    workload = WORKLOADS[name](lg, seed, workdir)
    speed.sample()
    workload.warm_up()
    end = clock()
    speed.sample()
    return lg, workload, speed.between(start, end)


def setup_in_child(name: str, seed: int) -> float:
    argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def cold_command(lg) -> tuple[float, int]:
    """Median milliseconds of ``python -m legch validate`` on the corpus trefoil,
    and how many spawns gave a wrong answer.

    Process start-up follows the in-process reference loosely, so each spawn is
    normalised instead by the bare ``python -c pass`` spawns just before and
    after it: the result reads as milliseconds on a machine where a bare start
    takes BARE_START.
    """
    trefoil = str(Path(lg.corpus.__file__).parent / "trefoil.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def spawn(*argv):
        start = clock()
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, timeout=60)
        return clock() - start, proc

    bare = [spawn("-c", "pass")[0]]
    ratios, wrong = [], 0
    for _ in range(COLD_SPAWNS):
        seconds, proc = spawn("-m", "legch", "validate", trefoil)
        wrong += proc.returncode != 0 or proc.stdout != COLD_OUTPUT
        bare.append(spawn("-c", "pass")[0])
        ratios.append(seconds / ((bare[-2] + bare[-1]) / 2))
    return statistics.median(ratios) * BARE_START * 1000, wrong


class Tally:
    """Failures and output checks over all passes of a run.

    An op fails if it raises, if its output check fails, or if its exit code
    or output differs from the first pass.  ``correct`` turns false on a failed
    check or a difference; an op that raises counts only as failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.causes: Counter[str] = Counter()
        self.reference = None

    def add(self, workload, p: Pass, check=None) -> None:
        """Judge a pass's ops; ``check`` replaces ``workload.check`` for an op
        outside the passes, which has no first pass to compare with."""
        results = [(out, err and err.split(":")[0]) for out, err in zip(p.outputs, p.errors)]
        reference = self.reference if check is None else None
        for i, (out, err) in enumerate(results):
            self.attempted += 1
            if reference is not None and (out, err) != reference[i]:
                why = f"op {i}: exit code or output differs from the first pass"
            elif err is not None:
                self.failed += 1
                self.causes[p.errors[i]] += 1
                continue
            else:
                why = (check or workload.check)(i, out)
            if why is not None:
                self.failed += 1
                self.correct = False
                self.causes[why] += 1
        if check is not None:
            return
        for why in workload.check_pass(p):
            self.correct = False
            self.causes[why] += 1
        if self.reference is None:
            self.reference = results


def pass_count(workload, seconds: float, least: int) -> int:
    """How many passes fill ``seconds`` at the workload's typical pass length.

    The count depends on ``seconds`` alone, never on the clock, so every run of
    a workload attempts the same ops and its failed fraction is the same."""
    return max(least, round(seconds / workload.PASS_SECONDS))


def run_passes(workload, tally: Tally, speed: Speed, tracer, count: int):
    """Run ``count`` passes; return their normalised walls and op latencies."""
    walls, latencies = [], []
    for _ in range(count):
        gc.collect()
        p = Pass(speed, tracer)
        speed.sample()
        start = clock()
        workload.run_pass(p)
        end = clock()
        speed.sample()
        walls.append(speed.between(start, end))
        latencies += [speed.between(*interval) for interval in p.intervals]
        tally.add(workload, p)
    return walls, latencies


def run_probe(workload, tally: Tally, speed: Speed, tracer) -> None:
    """The workload's once-per-run op, if it has one: counted and checked, never timed."""
    if hasattr(workload, "run_probe"):
        p = Pass(speed, tracer)
        workload.run_probe(p)
        tally.add(workload, p, workload.check_probe)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and exit")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "legch" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no legch sources (src/legch) or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, workdir: Path) -> int:
    lg, workload, own_setup = setup(args.workload, args.seed, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    tally = Tally()
    speed = Speed()
    if not args.trace:
        setups = [own_setup] + [setup_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    if args.trace:
        half = pass_count(workload, args.seconds / 2, 1)
        untraced, _ = run_passes(workload, tally, speed, None, half)
        tracer = Tracer()
        tracer.install()
        traced, _ = run_passes(workload, tally, speed, tracer, half)
        passes = tracer.totals(speed.factor)
        run_probe(workload, tally, speed, tracer)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        # per pass, with the once-per-run probe counted once; a function never called reports zero
        values = defaultdict(float)
        for key, total in tracer.totals(speed.factor).items():
            values[key] = passes[key] / len(traced) + total - passes[key]
        tried = values["augment.enumerate_augmentations.assignments_tried"]
        if tried:
            values["augment.enumerate_augmentations.yield"] = values["augment.enumerate_augmentations.found"] / tried
        values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
        wanted = spec["per_layer"]
    else:
        cold_ms, wrong = cold_command(lg)
        if wrong:
            tally.correct = False
            tally.causes[f"python -m legch validate: wrong output on {wrong} spawns"] += 1
        start = clock()
        walls, latencies = run_passes(workload, tally, speed, None, pass_count(workload, args.seconds, 2))
        raw = clock() - start
        run_probe(workload, tally, speed, None)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cold_cmd_ms": cold_ms,
        }
        print(f"passes {len(walls)} in {raw:.1f} s, op samples {len(latencies)}, setup samples {setups}")
        wanted = spec["end_to_end"]

    print(f"failed_frac {tally.failed / tally.attempted:.6f} ({tally.failed} of {tally.attempted} ops)")
    for cause, count in sorted(tally.causes.items()):
        print(f"  {count} x {cause}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
