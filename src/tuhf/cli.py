"""Command-line surface.

One command per invocation, plain deterministic text on stdout.  Exit
codes: 0 on success (including a negative verdict such as "not
isomorphic"), 1 when the inputs are well-formed but outside a
command's domain, 2 when an input cannot be parsed.  Argument errors
from the parser itself also exit 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NoReturn, Optional, Sequence

from .automorphisms import (
    factor_report,
    format_auto_data,
    load_auto_data,
    normalize_for_prime,
    normalize_for_word,
    out_rank,
    parse_word,
    alternating_iso,
    shift_auto,
)
from .checks import run_all
from .embeddings import compare_embeddings, compose_embeddings, tensor_embed
from .errors import FormatError, TuhfError
from .gelfand import (
    gelfand_compare,
    gelfand_compare_via_projections,
    parse_point,
    relation_member,
)
from .matrices import normalizer_split, parse_matrix
from .partitions import format_partition
from .towers import format_tower, load_tower, parse_descriptor


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_tower_file(path: str):
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

def _cmd_tower_show(args: argparse.Namespace) -> int:
    tower = _load_tower_file(args.file)
    for n in range(1, _positive(args.levels, "--levels") + 1):
        k, s, t = tower.level_dims(n)
        if s is None:
            print(f"level {n} k {k}")
        else:
            print(f"level {n} k {k} s {s} t {t}")
    if tower.is_alternating_form:
        s_side, t_side = tower.supernatural_pair()
        print(f"s-side {s_side}")
        print(f"t-side {t_side}")
    else:
        print("supernatural pair undefined (tower leaves interval form)")
    return 0


def _cmd_tower_normalize(args: argparse.Namespace) -> int:
    tower = _load_tower_file(args.file)
    if args.word is not None:
        result = normalize_for_word(tower, parse_word(args.word))
    else:
        result = normalize_for_prime(tower, args.prime)
    sys.stdout.write(format_tower(result))
    return 0


def _cmd_out_rank(args: argparse.Namespace) -> int:
    print(out_rank(_load_tower_file(args.file)))
    return 0


def _cmd_iso(args: argparse.Namespace) -> int:
    a = _load_tower_file(args.file_a)
    b = _load_tower_file(args.file_b)
    r = alternating_iso(a, b)
    if r is None:
        print("not isomorphic")
    else:
        print(f"isomorphic, r = {r.numerator}/{r.denominator}")
    return 0


def _cmd_factor(args: argparse.Namespace) -> int:
    tower = _load_tower_file(args.file)
    data = load_auto_data(_read(args.auto))
    sys.stdout.write(factor_report(tower, data))
    return 0


def _cmd_shift(args: argparse.Namespace) -> int:
    tower = _load_tower_file(args.file)
    a, b = _parse_level_range(args.levels)
    for record in shift_auto(tower, args.prime, a, b):
        sys.stdout.write(format_auto_data([record]))
    return 0


def _cmd_embed_compose(args: argparse.Namespace) -> int:
    k = args.k
    emb = None
    for text in args.descriptors:
        step = parse_descriptor(text).embedding(k if emb is None else emb.k_to)
        emb = step if emb is None else compose_embeddings(step, emb)
    assert emb is not None  # argparse enforces at least one descriptor
    print(f"k_from {emb.k_from}")
    print(f"k_to {emb.k_to}")
    print(format_partition(emb.diag))
    return 0


def _cmd_embed_compare(args: argparse.Namespace) -> int:
    a = parse_descriptor(args.descriptor_a).embedding(args.k)
    b = parse_descriptor(args.descriptor_b).embedding(args.k)
    print(compare_embeddings(a, b).value)
    return 0


def _cmd_embed_tensor(args: argparse.Namespace) -> int:
    a = parse_descriptor(args.descriptor_a).embedding(args.k)
    b = parse_descriptor(args.descriptor_b).embedding(args.j)
    emb = tensor_embed(a, b)
    print(f"k_from {emb.k_from}")
    print(f"k_to {emb.k_to}")
    print(format_partition(emb.diag))
    return 0


def _cmd_gelfand_cmp(args: argparse.Namespace) -> int:
    tower = _load_tower_file(args.file)
    x = parse_point(args.x, args.tail_x)
    y = parse_point(args.y, args.tail_y)
    print(f"coordinate-order {gelfand_compare(tower, x, y).value}")
    print(f"projection-order {gelfand_compare_via_projections(tower, x, y).value}")
    member = relation_member(tower, x, y, x.depth)
    if member is None:
        print("witness absent")
    else:
        print(f"witness level {member.level} i {member.i} j {member.j}")
    return 0


def _cmd_normalizer_split(args: argparse.Namespace) -> int:
    v = parse_matrix(_read(args.matrix))
    d, w = normalizer_split(v)
    print(
        "phases "
        + " ".join(f"{p.real:.17g},{p.imag:.17g}" for p in d.phases)
    )
    print("pattern " + " ".join(f"{r},{c}" for r, c in w.pairs))
    return 0


def _cmd_check_all(args: argparse.Namespace) -> int:
    tower = _load_tower_file(args.file)
    failures = 0
    for name, ok, detail in run_all(tower, args.seed, _positive(args.cases, "--cases")):
        if ok:
            print(f"{name} ok ({detail})")
        else:
            print(f"{name} FAIL {detail}")
            failures += 1
    if failures:
        print(f"{failures} suite(s) failed")
        return 1
    print("all suites passed")
    return 0


# -- parser --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as one ``error: <message>`` line, exit 2."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Level data are exact integers of any length; lift Python's default
    # cap on int <-> str conversion (4300 digits) where it exists.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TuhfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, FormatError) else 1


if __name__ == "__main__":
    sys.exit(main())
