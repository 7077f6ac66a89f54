"""Growth checks: a stage's ``tracemalloc`` peak at sizes n and 2n, for the
stages that grow linearly today.  A peak ratio, not a time ratio: it is exact
from run to run, so a stage that starts to hold more than its input fails
tier-1 even where the benchmark's noise would hide it."""

import io
import tracemalloc
from random import Random

from legch import cli
from legch.fileio import parse_knot_file

from support import gen


def peak_of(call):
    """What ``call()`` returns, and the peak of the memory it allocates."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parsing_a_planted_file_takes_memory_linear_in_its_size():
    data = {n: gen.planted_complex(Random(7), n)[0] for n in (1000, 2000)}
    peaks = {n: peak_of(lambda: parse_knot_file(data[n]))[1] for n in data}
    assert peaks[2000] <= 2.5 * peaks[1000], peaks


class Sink:
    """A stdout that keeps only the number of lines written to it."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)


def test_the_augment_listing_takes_memory_flat_in_the_augmentation_count(monkeypatch):
    # T(2,15) has 4 times T(2,13)'s augmentations; its file is loaded before
    # the trace starts, so the peak is the state graph's and the listing's.
    peaks = {}
    for n, count in ((13, 5461), (15, 21845)):
        kd = parse_knot_file(gen.torus_bytes(n))
        monkeypatch.setattr(cli, "load_knot", lambda path: kd)
        sink = Sink()
        code, peaks[n] = peak_of(lambda: cli.cli_dispatch(["augment", "knot.json"], stdout=sink, stderr=io.StringIO()))
        assert (code, sink.lines) == (0, 1 + count)
    assert peaks[15] <= 2 * peaks[13], peaks
