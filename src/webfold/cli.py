"""Command line surface: operators, bijections, verification, SVG output.

Exit codes: 0 on success, 1 on a domain error (the message names the
error class) or a failed verification, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import MalformedInput, WebfoldError
from .matchings import Matching2, fold2, tableau_of_web2, web2_of_tableau
from .oracle import PREDICATES, THEOREMS, EnumerationFilter, enumerate_tableaux, verify
from .oracle import _check_word_limit
from .planarweb import PlanarWeb
from .render import svg_of_json, svg_of_matching2, svg_of_web
from .tableaux import (
    Shape,
    Tableau,
    evacuate,
    fold,
    from_word,
    promote,
    rotate180_complement,
    unfold,
)
from .web3 import (
    crossed_web,
    domino_of_symmetric_web,
    tableau_of_web,
    web_of_tableau,
)

OPERATORS = {
    "promote": promote,
    "evacuate": evacuate,
    "fold": fold,
    "unfold": unfold,
    "rotate-complement": rotate180_complement,
}


def _read_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _read_object(parse, path: str):
    """parse() of the JSON file at path; a payload of the wrong shape is MalformedInput."""
    data = _read_json(path)
    try:
        return parse(data)
    except (TypeError, KeyError, ValueError, AttributeError, IndexError) as exc:
        raise MalformedInput(f"{path}: {type(exc).__name__}: {exc}") from None


def _read_tableau(args: argparse.Namespace) -> tuple[Tableau, bool]:
    """The input tableau plus whether it arrived as an inline word."""
    if args.word is not None:
        return from_word(args.word), True
    return _read_object(Tableau.from_dict, args.infile), False


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _add_tableau_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--word", help="inline row-index word")
    src.add_argument("--in", dest="infile", help="tableau JSON file")


def _cmd_op(args: argparse.Namespace) -> int:
    t, inline = _read_tableau(args)
    result = OPERATORS[args.apply](t)
    if inline:
        _emit(args, result.word + "\n")
    else:
        _emit(args, _dumps(result.to_dict()))
    return 0


def _cmd_web2(args: argparse.Namespace) -> int:
    if args.action == "from-tableau":
        t, _ = _read_tableau(args)
        m = web2_of_tableau(t)
        _emit(args, svg_of_matching2(m) if args.format == "svg" else _dumps(m.to_dict()))
        return 0
    if args.word is not None:
        m = web2_of_tableau(from_word(args.word))
    else:
        m = _read_object(Matching2.from_dict, args.infile)
    if args.action == "to-tableau":
        _emit(args, tableau_of_web2(m).word + "\n")
        return 0
    folded = fold2(m)
    _emit(args, svg_of_matching2(folded) if args.format == "svg" else _dumps(folded.to_dict()))
    return 0


def _cmd_web3(args: argparse.Namespace) -> int:
    if args.action in ("from-tableau", "crossed"):
        t, _ = _read_tableau(args)
        w = web_of_tableau(t) if args.action == "from-tableau" else crossed_web(t)
        _emit(args, svg_of_web(w) if args.format == "svg" else _dumps(w.to_dict()))
        return 0
    if args.word is not None:
        w = web_of_tableau(from_word(args.word))
    else:
        w = _read_object(PlanarWeb.from_dict, args.infile)
    if args.action == "to-tableau":
        _emit(args, tableau_of_web(w).word + "\n")
    else:
        _emit(args, domino_of_symmetric_web(w).word + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify(args.theorem, args.max_n)
    if args.format == "json":
        _emit(args, _dumps(report.to_dict()))
    else:
        _emit(args, report.text() + "\n")
    return 0 if report.passed else 1


def _cmd_render(args: argparse.Namespace) -> int:
    _emit(args, _read_object(svg_of_json, args.infile))
    return 0


def _rectangle(text: str) -> tuple[int, int]:
    """Rows and columns of an RxC shape argument; bad syntax is a usage error."""
    rows_text, _, cols_text = text.partition("x")
    try:
        rows, cols = int(rows_text), int(cols_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"shape must look like 3x4, got {text!r}") from None
    if rows < 1 or cols < 1:
        raise argparse.ArgumentTypeError(f"shape needs at least one row and column, got {text!r}")
    return rows, cols


def _cmd_enumerate(args: argparse.Namespace) -> int:
    rows, cols = args.shape
    _check_word_limit([(rows, cols)], f"enumerate --shape {rows}x{cols} would list")
    filt = EnumerationFilter(Shape((cols,) * rows), args.filter)
    lines = [t.word for t in enumerate_tableaux(filt)]
    _emit(args, "".join(line + "\n" for line in lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webfold",
        description="Bijections between rectangular tableaux and webs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("op", help="apply a tableau operator")
    p.add_argument("--apply", required=True, choices=sorted(OPERATORS))
    _add_tableau_source(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_op)

    p = sub.add_parser("web2", help="two-row tableaux and noncrossing matchings")
    p.add_argument("action", choices=["from-tableau", "to-tableau", "fold"])
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--word", help="inline row-index word (from-tableau)")
    src.add_argument("--in", dest="infile", help="tableau or matching JSON file")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "svg"], default="json")
    p.set_defaults(func=_cmd_web2)

    p = sub.add_parser("web3", help="three-row tableaux, webs, domino tableaux")
    p.add_argument(
        "action", choices=["from-tableau", "to-tableau", "to-domino", "crossed"]
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--word", help="inline row-index word")
    src.add_argument("--in", dest="infile", help="tableau or web JSON file")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "svg"], default="json")
    p.set_defaults(func=_cmd_web3)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("--theorem", required=True, metavar=f"{{{','.join(THEOREMS)}}}")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--out")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="render a JSON artifact as SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("enumerate", help="list standard tableaux of a shape")
    p.add_argument("--shape", required=True, type=_rectangle, help="RxC, e.g. 3x4")
    p.add_argument("--filter", choices=PREDICATES, default="all")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WebfoldError, ValueError, KeyError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(argv=None))
