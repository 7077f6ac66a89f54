"""Hostile files: small, valid-looking inputs on which a careless stage costs
far more than the file's size.  Each runs through ``cli_dispatch`` under a
generous wall bound, and its stdout and stderr stay within a byte bound."""

import io
import json
import time
import tracemalloc
from random import Random

import pytest

from legch.cli import cli_dispatch

from support import gen

WALL_SECONDS = 5.0


def run_bounded(argv, max_out: int, max_err: int):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = cli_dispatch(argv, stdout=out, stderr=err)
    elapsed = time.perf_counter() - start
    assert elapsed < WALL_SECONDS, f"{argv[0]} took {elapsed:.1f} s"
    assert len(out.getvalue()) <= max_out
    assert len(err.getvalue()) <= max_err
    return code, out.getvalue(), err.getvalue()


def chain_file(tmp_path, n: int, extra_patches=()) -> str:
    """Grading-0 generators x0..x{n-1} with empty differentials and the
    patches x{i+1} - x{i}, which free one crossing per flooding round."""
    names = [f"x{i}" for i in range(n)]
    patches = [
        [{"name": names[i + 1], "coeff": 1}, {"name": names[i], "coeff": -1}] for i in range(n - 1)
    ]
    knot = {
        "generators": [{"name": name, "grading": 0} for name in names],
        "differential": {name: [] for name in names},
        "patches": patches + list(extra_patches),
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(knot))
    return str(path)


# n tiers give heights of about 0.48 n digits each: about 240 KB of them here.
CHAIN_OUT_BYTES = 1 << 20


def test_flood_of_a_1000_crossing_chain(tmp_path):
    code, out, err = run_bounded(["flood", chain_file(tmp_path, 1000)], CHAIN_OUT_BYTES, 0)
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 1001
    assert lines[0] == "T1: x999"
    assert lines[999] == "T1000: x0"
    assert lines[1000].startswith("heights: x0=")


def test_flood_of_a_blocked_1000_crossing_chain(tmp_path):
    blocked = chain_file(tmp_path, 1000, [[{"name": "x0", "coeff": -1}]])
    code, out, err = run_bounded(["flood", blocked], CHAIN_OUT_BYTES, 0)
    lines = out.splitlines()
    assert code == 2
    assert len(lines) == 1000
    assert lines[0] == "T1: x999"
    assert lines[998] == "T999: x1"
    assert out.endswith("\nunassigned: x0\n")


def random_pair(tmp_path, n: int) -> list[str]:
    """Two files of ``n`` finite bars in degree 0, from ``Random(1)`` and
    ``Random(2)``: births k/4 with 0 <= k <= 8n and lengths j/4 with
    1 <= j <= 400, so the density of bars along the line is the same at
    every n.  Their distance is above the threshold bound, so it is found by
    bisection over candidate costs."""
    paths = []
    for seed in (1, 2):
        rng = Random(seed)
        bars = []
        for _ in range(n):
            k, j = rng.randint(0, 8 * n), rng.randint(1, 400)
            bars.append({"degree": 0, "birth": k / 4, "death": (k + j) / 4})
        path = tmp_path / f"bars{seed}.json"
        path.write_text(json.dumps({"bars": bars}))
        paths.append(str(path))
    return paths


def test_distance_of_a_10000_bar_random_pair(tmp_path):
    # A cost table would hold 10^8 entries.
    code, out, err = run_bounded(["distance", *random_pair(tmp_path, 10_000)], 16, 0)
    assert (code, out) == (0, "32.25\n")


@pytest.mark.parametrize("n, distance", [(250, "25.25"), (1000, "36.625")])
def test_distance_memory_grows_linearly_in_bars(tmp_path, n, distance):
    # The same bound per bar at both sizes: a table of n^2 costs breaks it.
    paths = random_pair(tmp_path, n)
    tracemalloc.start()
    try:
        code, out, err = run_bounded(["distance", *paths], 16, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, distance + "\n")
    assert peak < 4096 * n


def test_augmentation_search_on_a_planted_3000_generator_file(tmp_path):
    # 550 grading-0 generators whose states never repeat: the bound charges
    # each state its live polynomials, so it ends the search early.
    knot = tmp_path / "planted.json"
    knot.write_bytes(gen.planted_complex(Random(7), 3000)[0])
    start = time.perf_counter()
    code, out, err = run_bounded(["barcode", str(knot), "--aug", "0"], 0, 200)
    elapsed = time.perf_counter() - start
    assert (code, out) == (1, "")
    assert err.startswith("error: [SEARCH_BOUND] augmentation search exceeds the bound of ")
    assert elapsed < 1.5, f"took {elapsed:.2f} s"
