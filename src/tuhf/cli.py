"""Command-line surface.

One command per invocation, plain deterministic text on stdout.  Exit
codes: 0 on success (including a negative verdict such as "not
isomorphic"), 1 when the inputs are well-formed but outside a
command's domain, 2 when an input cannot be parsed.  Argument errors
from the parser itself also exit 2.  A reader that closes stdout early
(``| head``) ends the command with exit code 1 and no message.

Each command imports the modules it calls when it runs, so building
the parser, ``--help`` and an argument error load no module of the
calculus, and ``tower show`` loads no automorphism, Gelfand or matrix
code.  A command line that starts with a whole command is parsed by
that command's own parser, the one the root parser would hand it to.

``main`` sets two things for its own process.  It lifts Python's cap
on int <-> str conversion.  And once numpy has run in the process, it
raises glibc's ``M_MMAP_THRESHOLD`` to 1 MB and ``M_TRIM_THRESHOLD`` to
8 MB, once.  With glibc's defaults, the 0.3-2 MB arrays behind a
partition go back to the kernel when they are freed, and the next
command faults the same pages in again: about 5,700 minor faults, a
fifth of the time, in each pass of a process that runs ``shift``,
``factor`` and ``embed compose`` over deep towers.  With the settings
the next command reuses that memory.  A process that runs one command
faults its pages in once either way, and one that never runs numpy
(``tower show``, ``iso``) never imports ``ctypes`` for them.  Where
``mallopt`` cannot be resolved (outside glibc) nothing is set.  Only
``main`` sets them: a program that calls ``tuhf.partitions`` or the
other modules itself keeps its allocator as it is.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import os
import re
import sys
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn, Optional, Sequence

from .errors import FormatError, TuhfError

if TYPE_CHECKING:
    from .embeddings import RegularEmbedding


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot read {path}: not UTF-8 ({exc.reason})") from None


def _load_tower_file(path: str):
    from .towers import load_tower

    return load_tower(_read(path))


def _parse_level_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise FormatError(f"level range must be written a..b, got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise FormatError(f"level range bounds must be integers: {text!r}") from None
    if a < 1 or b <= a:
        raise FormatError(f"need 1 <= a < b in a level range, got {a}..{b}")
    return a, b


def _positive(value: int, option: str) -> int:
    if value < 1:
        raise FormatError(f"{option} must be at least 1, got {value}")
    return value


# -- subcommand bodies ---------------------------------------------------

# `tower show` walks the levels as exact decimals: a step multiplies by a
# ratio in time linear in the length, and libmpdec prints in linear time,
# where CPython converts an int to text in quadratic time.  A rounding
# would raise here instead of printing a wrong digit.  Each number is
# printed with str() (`{k!s}`): a bare `{k}` calls format(), whose
# Decimal.__format__ costs about 0.4 us more per number at every length.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.Rounded],
)


def _cmd_tower_show(args: argparse.Namespace) -> int:
    tower = _load_tower_file(args.file)
    levels = _positive(args.levels, "--levels")
    # The pair is read first, so a refusal leaves stdout empty.
    pair = tower.supernatural_pair() if tower.is_alternating_form else None
    with decimal.localcontext(_EXACT):
        first = tuple(decimal.Decimal(v) for v in (tower.k1, tower.s1, tower.t1))
        # The range comes first, so no level past the last one is stepped.
        walk = chain((first,), tower._walk(1, *first))
        for n, (k, s, t) in zip(range(1, levels + 1), walk):
            if s is None:
                print(f"level {n} k {k!s}")
            else:
                print(f"level {n} k {k!s} s {s!s} t {t!s}")
    if pair is not None:
        print(f"s-side {pair[0]}")
        print(f"t-side {pair[1]}")
    else:
        print("supernatural pair undefined (tower leaves interval form)")
    return 0


def _cmd_tower_normalize(args: argparse.Namespace) -> int:
    from .automorphisms import normalize_for_prime, normalize_for_word, parse_word
    from .towers import format_tower

    tower = _load_tower_file(args.file)
    if args.word is not None:
        result = normalize_for_word(tower, parse_word(args.word))
    else:
        result = normalize_for_prime(tower, args.prime)
    sys.stdout.write(format_tower(result))
    return 0


def _cmd_out_rank(args: argparse.Namespace) -> int:
    from .automorphisms import out_rank

    print(out_rank(_load_tower_file(args.file)))
    return 0


def _cmd_iso(args: argparse.Namespace) -> int:
    from .automorphisms import alternating_iso

    a = _load_tower_file(args.file_a)
    b = _load_tower_file(args.file_b)
    r = alternating_iso(a, b)
    if r is None:
        print("not isomorphic")
    else:
        print(f"isomorphic, r = {r.numerator}/{r.denominator}")
    return 0


def _cmd_factor(args: argparse.Namespace) -> int:
    from .automorphisms import factor_report, load_auto_data

    tower = _load_tower_file(args.file)
    data = load_auto_data(_read(args.auto))
    sys.stdout.write(factor_report(tower, data))
    return 0


def _cmd_shift(args: argparse.Namespace) -> int:
    from .automorphisms import format_auto_data, shift_auto

    tower = _load_tower_file(args.file)
    a, b = _parse_level_range(args.levels)
    for record in shift_auto(tower, args.prime, a, b):
        sys.stdout.write(format_auto_data([record]))
    return 0


def _print_embedding(emb: RegularEmbedding) -> int:
    """Print k_from, k_to and the partition, and give exit code 0.  The
    partition is formatted first, so a refused build leaves stdout empty."""
    from .partitions import format_partition

    text = format_partition(emb.diag)
    print(f"k_from {emb.k_from}")
    print(f"k_to {emb.k_to}")
    print(text)
    return 0


def _cmd_embed_compose(args: argparse.Namespace) -> int:
    from .embeddings import compose_embeddings
    from .towers import parse_descriptor

    k = args.k
    emb = None
    for text in args.descriptors:
        step = parse_descriptor(text).embedding(k if emb is None else emb.k_to)
        emb = step if emb is None else compose_embeddings(step, emb)
    assert emb is not None  # argparse enforces at least one descriptor
    return _print_embedding(emb)


def _cmd_embed_compare(args: argparse.Namespace) -> int:
    from .embeddings import compare_embeddings
    from .partitions import Order
    from .towers import parse_descriptor

    a = parse_descriptor(args.descriptor_a).embedding(args.k)
    b = parse_descriptor(args.descriptor_b).embedding(args.k)
    verdict = compare_embeddings(a, b)
    # Equal diagonal partitions only certify agreement on diagonal projections.
    print("equal-on-projections" if verdict is Order.EQUAL else verdict.value)
    return 0


def _cmd_embed_tensor(args: argparse.Namespace) -> int:
    from .embeddings import tensor_embed
    from .towers import parse_descriptor

    a = parse_descriptor(args.descriptor_a).embedding(args.k)
    b = parse_descriptor(args.descriptor_b).embedding(args.j)
    return _print_embedding(tensor_embed(a, b))


def _cmd_gelfand_cmp(args: argparse.Namespace) -> int:
    from .gelfand import gelfand_readings, parse_point

    tower = _load_tower_file(args.file)
    x = parse_point(args.x, args.tail_x)
    y = parse_point(args.y, args.tail_y)
    coordinate, projection, member = gelfand_readings(tower, x, y)
    print(f"coordinate-order {coordinate.value}")
    print(f"projection-order {projection.value}")
    if member is None:
        print("witness absent")
    else:
        print(f"witness level {member.level} i {member.i} j {member.j}")
    return 0


def _cmd_normalizer_split(args: argparse.Namespace) -> int:
    from .matrices import normalizer_split, parse_matrix

    v = parse_matrix(_read(args.matrix))
    d, w = normalizer_split(v)
    print(
        "phases "
        + " ".join(f"{p.real:.17g},{p.imag:.17g}" for p in d.phases)
    )
    print("pattern " + " ".join(f"{r},{c}" for r, c in w.pairs))
    return 0


def _cmd_check_all(args: argparse.Namespace) -> int:
    from .checks import run_all

    tower = _load_tower_file(args.file)
    failures = 0
    for name, ok, detail in run_all(tower, args.seed, _positive(args.cases, "--cases")):
        if ok:
            print(f"{name} ok ({detail})", flush=True)
        else:
            print(f"{name} FAIL {detail}", flush=True)
            failures += 1
    if failures:
        print(f"{failures} suite(s) failed")
        return 1
    print("all suites passed")
    return 0


# -- parser --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as one ``error: <message>`` line, exit 2.

    No option starts with ``-`` and a digit, so an argument that does is
    a value, such as the level range ``-1..3`` or the point ``-1,1``,
    and reaches the command's own checks.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tuhf",
        description="Exact calculus for triangular limit-algebra towers.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    tower = top.add_parser("tower", help="inspect or rewrite a tower file")
    tower_sub = tower.add_subparsers(dest="subcommand", required=True)
    show = tower_sub.add_parser("show", help="dimensions and supernatural pair")
    show.add_argument("file")
    show.add_argument("--levels", type=int, default=4, help="levels to print")
    show.set_defaults(fn=_cmd_tower_show)
    norm = tower_sub.add_parser(
        "normalize", help="regroup levels so a word or prime acts at every step"
    )
    norm.add_argument("file")
    group = norm.add_mutually_exclusive_group(required=True)
    group.add_argument("-p", "--prime", type=int)
    group.add_argument("--word", help="shift word u/v")
    norm.set_defaults(fn=_cmd_tower_normalize)

    rank = top.add_parser("out-rank", help="rank of the outer automorphism group")
    rank.add_argument("file")
    rank.set_defaults(fn=_cmd_out_rank)

    iso = top.add_parser("iso", help="isomorphism verdict with rational witness")
    iso.add_argument("file_a")
    iso.add_argument("file_b")
    iso.set_defaults(fn=_cmd_iso)

    factor = top.add_parser("factor", help="recover the word behind recorded actions")
    factor.add_argument("file")
    factor.add_argument("--auto", required=True, help="action-record file")
    factor.set_defaults(fn=_cmd_factor)

    shift = top.add_parser("shift", help="materialize shift actions per level")
    shift.add_argument("file")
    shift.add_argument("-p", "--prime", type=int, required=True)
    shift.add_argument(
        "--levels", default="1..3", help="half-open level range a..b (records a..b-1)"
    )
    shift.set_defaults(fn=_cmd_shift)

    embed = top.add_parser("embed", help="embedding calculus on descriptors")
    embed_sub = embed.add_subparsers(dest="subcommand", required=True)
    comp = embed_sub.add_parser("compose", help="chain descriptors from a base size")
    comp.add_argument("--k", type=int, required=True, help="starting dimension")
    comp.add_argument("descriptors", nargs="+", help='e.g. "std 2" "alt 2 3"')
    comp.set_defaults(fn=_cmd_embed_compose)
    cmp_p = embed_sub.add_parser("compare", help="order two same-shape embeddings")
    cmp_p.add_argument("--k", type=int, required=True)
    cmp_p.add_argument("descriptor_a")
    cmp_p.add_argument("descriptor_b")
    cmp_p.set_defaults(fn=_cmd_embed_compare)
    tens = embed_sub.add_parser("tensor", help="tensor two descriptors")
    tens.add_argument("--k", type=int, required=True, help="first-factor dimension")
    tens.add_argument("--j", type=int, required=True, help="second-factor dimension")
    tens.add_argument("descriptor_a")
    tens.add_argument("descriptor_b")
    tens.set_defaults(fn=_cmd_embed_tensor)

    gelfand = top.add_parser("gelfand", help="diagonal-spectrum order")
    gelfand_sub = gelfand.add_subparsers(dest="subcommand", required=True)
    gcmp = gelfand_sub.add_parser("cmp", help="compare two points both ways")
    gcmp.add_argument("file")
    gcmp.add_argument("--x", required=True, help="comma-separated coordinates")
    gcmp.add_argument("--y", required=True)
    gcmp.add_argument("--tail-x", default="", help="tail-class label of x")
    gcmp.add_argument("--tail-y", default="", help="tail-class label of y")
    gcmp.set_defaults(fn=_cmd_gelfand_cmp)

    splitter = top.add_parser("normalizer", help="diagonal-normalizer matrix tools")
    splitter_sub = splitter.add_subparsers(dest="subcommand", required=True)
    nsplit = splitter_sub.add_parser("split", help="factor V = D W")
    nsplit.add_argument("--matrix", required=True, help="matrix file")
    nsplit.set_defaults(fn=_cmd_normalizer_split)

    check = top.add_parser("check", help="randomized property suites")
    check_sub = check.add_subparsers(dest="subcommand", required=True)
    call = check_sub.add_parser("all", help="run every suite")
    call.add_argument("file")
    call.add_argument("--seed", type=int, default=0)
    call.add_argument("--cases", type=int, default=50)
    call.set_defaults(fn=_cmd_check_all)

    return parser


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The parsers of ``parser``'s subcommands by name; empty for a command."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _command_parser(argv: list[str]) -> tuple[argparse.ArgumentParser, list[str]]:
    """The parser of the command that the first one or two words of
    ``argv`` name, and the arguments after those words.

    It is the parser that the root would hand the same arguments to, so
    usage, help and errors are the same, without the root's pass over
    the whole command line.  Without a whole command in front (no
    command, a group without its subcommand, a leading option) the root
    parser takes all of ``argv``.
    """
    root = build_parser()
    choices = _subcommands(root)
    for depth, word in enumerate(argv[:2], 1):
        parser = choices.get(word)
        if parser is None:
            break
        choices = _subcommands(parser)
        if not choices:
            return parser, argv[depth:]
    return root, argv


# glibc's mallopt parameters (malloc.h) and the values main sets, the
# smallest powers of two that leave a warm process without page faults
# over repeated shift, factor, embed compose and check all: a block under
# 1 MB comes from the heap, not from a mapping of its own, and the heap
# keeps up to 8 MB free at its top instead of handing it back.  Setting
# either one also stops glibc from moving its thresholds by itself.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_ARRAY_MEMORY = ((_M_MMAP_THRESHOLD, 1 << 20), (_M_TRIM_THRESHOLD, 8 << 20))


@functools.cache
def _keep_array_memory() -> bool:
    """Keep freed array memory in the process for the next command; True
    when glibc took both settings.  Cached, so it runs once per process;
    ``main`` calls it only after numpy has run, which has imported
    ``ctypes`` already."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library by name, or no mallopt
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 when it takes a setting and 0 when it refuses one.
    return [mallopt(param, value) for param, value in _ARRAY_MEMORY] == [1, 1]


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Level data are exact integers of any length; lift Python's default
    # cap on int <-> str conversion (4300 digits) where it exists.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    # Once numpy has run, keep the memory of its arrays for the next
    # command (see the module docstring).
    if "numpy._core" in sys.modules:
        _keep_array_memory()
    parser, rest = _command_parser(sys.argv[1:] if argv is None else list(argv))
    args = parser.parse_args(rest)
    try:
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except TuhfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, FormatError) else 1
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  Point fd 1 at devnull so
        # the interpreter's last flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
