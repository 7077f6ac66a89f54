"""Command-line interface.  Exit codes: 0 success, 1 input or usage error, 2 flooding
failure.  The handlers import augment, persist and metrics, so a command loads only what it runs."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

from .algebra import HeightAssignment, StructureError
from .diagram import area_inequalities, assign_heights, flood
from .fileio import (
    KnotData,
    format_extended,
    load_barcode,
    load_knot,
    render_barcode,
    serialize_barcode_file,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLOOD_FAILURE = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _FloodFailure(Exception):
    """Flooding failed; ``_flood`` has printed the report."""


@functools.cache  # parse_args keeps no state in the parser, so one serves every call
def _build_parser() -> _Parser:
    """The one table of commands: each subparser carries its handler as ``run``."""
    parser = _Parser(prog="legch", description="Persistent contact homology of knot diagrams")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def command(name, run, help, positionals=("file",), aug=False):
        p = sub.add_parser(name, help=help)
        for positional in positionals:
            p.add_argument(positional)
        if aug:
            p.add_argument("--aug", type=int, default=0, metavar="I")
        p.set_defaults(run=run)
        return p

    command("validate", _cmd_validate, "check a knot file")
    command("augment", _cmd_augment, "list the augmentations of a knot file")
    command("linearize", _cmd_linearize, "print the linearized differential", aug=True)
    command("flood", _cmd_flood, "tier the crossings and assign heights")
    p = command("barcode", _cmd_barcode, "compute the barcode of a knot file", aug=True)
    p.add_argument("--heights", choices=("file", "flood"), default=None)
    p.add_argument("--render", choices=("text", "svg"), default=None)
    command("distance", _cmd_distance, "distance between two barcode files", ("barcode1", "barcode2"))
    command("morse", _cmd_morse, "counting polynomials and the strong Morse check", aug=True)
    parser.commands = sub.choices  # a usage error names the command that argv opens with
    return parser


def _names(kd: KnotData, gids) -> str:
    return " ".join(kd.dga.generators[g].name for g in sorted(gids))


def _pick_augmentation(kd: KnotData, index: int):
    from .augment import pick_augmentation
    eps, count = pick_augmentation(kd.dga, index)
    if not count:
        raise StructureError("this differential admits no augmentation", "NO_AUGMENTATION")
    if eps is None:
        raise StructureError(
            f"augmentation index {index} out of range 0..{count - 1}", "BAD_AUG_INDEX"
        )
    return eps


def _resolve_heights(kd: KnotData, mode: str | None) -> HeightAssignment:
    if mode == "file" or (mode is None and kd.heights is not None):
        if kd.heights is None:
            raise StructureError("knot file carries no heights", "NO_HEIGHTS")
        return kd.heights
    return assign_heights(_flood(kd))


def _flood(kd: KnotData):
    tiering = flood(area_inequalities(kd.diagram), kd.diagram.crossings)
    if tiering.status != "success":
        _print_tiers(kd, tiering)
        print(f"unassigned: {_names(kd, tiering.unassigned)}")
        raise _FloodFailure
    return tiering


def _print_tiers(kd: KnotData, tiering) -> None:
    for i, tier in enumerate(tiering.tiers, start=1):
        print(f"T{i}: {_names(kd, tier) or '(empty)'}")


def _cmd_validate(args) -> int:
    kd = load_knot(args.file)
    heights = "present" if kd.heights is not None else "absent"
    print(
        f"OK: {len(kd.dga)} generators, {len(kd.diagram.patches)} patches, heights {heights}"
    )
    return EXIT_OK


def _cmd_augment(args) -> int:
    from .augment import _leaves
    kd = load_knot(args.file)
    pieces = [(f" {g.name}=0", f" {g.name}=1") for g in kd.dga.generators if g.grading == 0]
    count, lines = _leaves(kd.dga, "", pieces)
    print(f"augmentations: {count}")
    # About 64 KB per write, a pipe's default capacity: lines differ only in
    # their index, of at most 6 digits.
    step = (1 << 16) // (12 + sum(len(one) for _, one in pieces)) + 1
    for i in range(0, count, step):
        print("".join([f"aug {j}:{line}\n" for j, line in zip(range(i, i + step), lines)]), end="")
    return EXIT_OK


def _cmd_linearize(args) -> int:
    from .augment import linearized_differential
    kd = load_knot(args.file)
    eps = _pick_augmentation(kd, args.aug)
    lin = linearized_differential(kd.dga, eps)
    for g in kd.dga.generators:
        rhs = " + ".join(kd.dga.generators[p].name for p in sorted(lin.columns[g.gid]))
        print(f"d({g.name}) = {rhs or '0'}")
    return EXIT_OK


def _cmd_flood(args) -> int:
    kd = load_knot(args.file)
    tiering = _flood(kd)
    _print_tiers(kd, tiering)
    h = assign_heights(tiering)
    parts = " ".join(
        f"{g.name}={format_extended(h.of(g.gid))}" for g in kd.dga.generators
    )
    print(f"heights: {parts}")
    return EXIT_OK


def _barcode_for(kd: KnotData, aug_index: int, heights_mode: str | None):
    from .augment import linearized_differential
    from .persist import build_filtered_complex, compute_barcode
    eps = _pick_augmentation(kd, aug_index)
    heights = _resolve_heights(kd, heights_mode)
    lin = linearized_differential(kd.dga, eps)
    return compute_barcode(build_filtered_complex(lin, heights))


def _cmd_barcode(args) -> int:
    kd = load_knot(args.file)
    barcode = _barcode_for(kd, args.aug, args.heights)
    if args.render is None:
        print(serialize_barcode_file(barcode).decode("utf-8"), end="")
    else:
        color = args.render == "text" and _color_enabled()
        print(render_barcode(barcode, args.render, color=color).decode("utf-8"), end="")
    return EXIT_OK


def _color_enabled() -> bool:
    if os.environ.get("LEGCH_COLOR") == "0":
        return False
    try:
        return sys.stdout.isatty()
    except (AttributeError, ValueError):
        return False


def _cmd_distance(args) -> int:
    from .metrics import interleaving_distance
    b1 = load_barcode(args.barcode1)
    b2 = load_barcode(args.barcode2)
    print(format_extended(interleaving_distance(b1, b2)))
    return EXIT_OK


def _cmd_morse(args) -> int:
    from .metrics import check_strong_morse
    kd = load_knot(args.file)
    barcode = _barcode_for(kd, args.aug, None)
    report = check_strong_morse(kd.dga, barcode)
    print(f"MC = {report.mc}")
    print(f"PC = {report.pc}")
    print(f"R = {report.finite_bars}")
    print(f"strong Morse identity: {'HOLDS' if report.holds else 'FAILS'}")
    return EXIT_OK if report.holds else EXIT_ERROR


def cli_dispatch(argv, stdout=None, stderr=None) -> int:
    """Run one command; streams default to the process streams."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = parser.parse_args(argv)
        except _UsageError as exc:
            parser.commands.get(argv[0] if argv else None, parser).print_usage(sys.stderr)
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        except SystemExit as exc:  # --help
            return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_ERROR
        try:
            return args.run(args)
        except _FloodFailure:
            return EXIT_FLOOD_FAILURE
        except StructureError as exc:
            print(f"error: [{exc.code}] {exc}", file=sys.stderr)
            return EXIT_ERROR
        except (OSError, ValueError) as exc:
            if stdout is None and isinstance(exc, BrokenPipeError):
                raise  # the process's reader closed stdout: ``main`` ends quietly
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR


def main() -> None:
    # A reader that closes stdout early (``legch augment knot.json | head``)
    # gets exit 1 and no report: fd 1 goes to devnull, so the flush at exit
    # fails no more (the Python docs' note on SIGPIPE).
    try:
        code = cli_dispatch(sys.argv[1:])
        print(end="", flush=True)  # flushes stdout, if the process has one
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_ERROR
    sys.exit(code)
