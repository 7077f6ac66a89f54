"""Tracing from outside the library, for the traced run only.

``Tracer.install`` wraps legch's public functions by rebinding their names in
every legch module that holds them (``legch.cli.compute_barcode``,
``legch.fileio.validate_dga``, ...); no library file changes.  Each call
records a span (name, start, end, parent) in memory, and the counters below,
which are computed from the call's own arguments and result.  Spans are
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _words(dga) -> int:
    return sum(len(elem.words) for elem in dga.differential)


def _size(data) -> int:
    return len(data) if isinstance(data, bytes) else len(data.encode("utf-8"))


def _bar_pairs(b1, b2) -> int:
    n1, n2 = Counter(b.degree for b in b1.bars), Counter(b.degree for b in b2.bars)
    return sum(n1[k] * n2[k] for k in n1)


# "module.function" -> (counters from the arguments, counters from the result).
# Argument counters count every call, result counters only calls that return;
# every wrapped call also counts ".errors" when it raises.
COUNTERS = {
    "augment.enumerate_augmentations": (
        lambda a: {"assignments_tried": 2 ** sum(1 for g in a[0].generators if g.grading == 0)},
        lambda r: {"found": len(r)},
    ),
    "augment.linearized_differential": (lambda a: {"words": _words(a[0])}, None),
    "algebra.validate_dga": (lambda a: {"words": _words(a[0])}, None),
    "fileio.parse_knot_file": (lambda a: {"bytes_in": _size(a[0])}, None),
    "fileio.parse_barcode_file": (lambda a: {"bytes_in": _size(a[0])}, None),
    "fileio.serialize_barcode_file": (None, lambda r: {"bytes_out": len(r)}),
    "fileio.render_barcode": (None, lambda r: {"bytes_out": len(r)}),
    "diagram.flood": (None, lambda r: {"rounds": len(r.tiers), "failures": int(r.status != "success")}),
    "diagram.assign_heights": (None, None),
    "persist.build_filtered_complex": (lambda a: {"entries": sum(map(len, a[0].columns))}, None),
    "persist.compute_barcode": (
        lambda a: {"generators": len(a[0].generators)},
        lambda r: {
            "bars_finite": sum(1 for b in r.bars if b.finite),
            "bars_infinite": sum(1 for b in r.bars if not b.finite),
        },
    ),
    "metrics.interleaving_distance": (lambda a: {"bar_pairs": _bar_pairs(a[0], a[1])}, None),
    "metrics.check_strong_morse": (None, lambda r: {"fails": int(not r.holds)}),
    "cli.cli_dispatch": (None, lambda r: {"nonzero_exits": int(r != 0)}),
}


class Tracer:
    def __init__(self):
        # one entry per span, in flat lists of numbers so that the collector has little to walk
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # index of the enclosing span, or -1
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._open.pop()

    def _count(self, name: str, counts: dict) -> None:
        for key, value in counts.items():
            self.counts[f"{name}.{key}"] += value

    def _wrap(self, name, fn, on_args, on_result):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(span)
                self.counts[name + ".errors"] += 1
                if on_args is not None:
                    self._count(name, on_args(args))
                raise
            self.end(span)
            if on_args is not None:
                self._count(name, on_args(args))
            if on_result is not None:
                self._count(name, on_result(result))
            return result

        return traced

    def install(self) -> None:
        """Rebind every COUNTERS function in each loaded legch module that holds it."""
        modules = [m for key, m in sys.modules.items() if key == "legch" or key.startswith("legch.")]
        for name, (on_args, on_result) in COUNTERS.items():
            module, function = name.split(".")
            original = getattr(sys.modules[f"legch.{module}"], function)
            traced = self._wrap(name, original, on_args, on_result)
            for m in modules:
                if getattr(m, function, None) is original:
                    setattr(m, function, traced)

    def totals(self, factor) -> dict[str, float]:
        """Per name: ``.calls``, ``.self_s`` (duration less the child spans, times
        ``factor(start)``), and the counters."""
        inside = [0.0] * len(self.names)
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                inside[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float, self.counts)
        for name, start, end, child in zip(self.names, self.starts, self.ends, inside):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (end - start - child) * factor(start)
        return out

    def dump(self, path) -> None:
        """One JSON line per span: [name, start, end, parent], raw perf_counter seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(span) + "\n")
