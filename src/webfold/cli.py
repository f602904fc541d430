"""Command line surface: operators, bijections, verification, SVG output.

Exit codes: 0 on success, 1 on a domain error (the message names the
error class) or a failed verification, 2 on usage errors.

`op`, `web2` and `web3` read their object through one reader, `_read`
(an inline `--word` or an `--in` JSON file), and `web2` and `web3` write a
drawing through one writer, `_emit_drawing` (JSON, or SVG under `--format
svg`).  Each command imports the modules it runs when it runs, so one call
loads only what it uses: `op` loads nothing past `tableaux`, `render`
loads only for SVG output, and `json` only to read `--in` or to write
JSON.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable

from .errors import MalformedInput, WebfoldError
from .tableaux import (
    PREDICATES,
    Tableau,
    evacuate,
    fold,
    from_word,
    promote,
    rotate180_complement,
    unfold,
)

OPERATORS = {
    "promote": promote,
    "evacuate": evacuate,
    "fold": fold,
    "unfold": unfold,
    "rotate-complement": rotate180_complement,
}


def _read_object(parse, path: str):
    """parse() of the JSON file at path; JSON nested too deeply or a payload
    of the wrong shape is MalformedInput."""
    import json

    with open(path) as f:
        try:
            data = json.load(f)
        except RecursionError:
            raise MalformedInput(f"{path}: JSON nested too deeply") from None
    try:
        return parse(data)
    except (TypeError, KeyError, ValueError, AttributeError, IndexError, ArithmeticError) as exc:
        raise MalformedInput(f"{path}: {type(exc).__name__}: {exc}") from None


def _read(args: argparse.Namespace, parse, build=None):
    """The --in file read by parse, or the --word tableau, passed through
    build when the command wants a web."""
    if args.word is None:
        return _read_object(parse, args.infile)
    t = from_word(args.word)
    return t if build is None else build(t)


def _emit(args: argparse.Namespace, text: str) -> None:
    _emit_lines(args, [text])


def _emit_lines(args: argparse.Namespace, lines: Iterable[str]) -> None:
    """Write each piece as it is produced, to --out if given, else to stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def _dumps(obj: dict) -> str:
    import json

    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit_drawing(args: argparse.Namespace, obj, svg: str) -> None:
    """obj as JSON, or under --format svg as the `render` function named svg draws it."""
    if args.format == "svg":
        from . import render

        _emit(args, getattr(render, svg)(obj))
    else:
        _emit(args, _dumps(obj.to_dict()))


def _add_source(p: argparse.ArgumentParser, in_help: str) -> None:
    """The exclusive --word/--in source of op, web2 and web3, and their --out."""
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--word", help="inline row-index word")
    src.add_argument("--in", dest="infile", help=in_help)
    p.add_argument("--out")


def _cmd_op(args: argparse.Namespace) -> int:
    result = OPERATORS[args.apply](_read(args, Tableau.from_dict))
    _emit(args, result.word + "\n" if args.word is not None else _dumps(result.to_dict()))
    return 0


def _cmd_web2(args: argparse.Namespace) -> int:
    from .matchings import Matching2, fold2, tableau_of_web2, web2_of_tableau

    if args.action == "from-tableau":
        m = web2_of_tableau(_read(args, Tableau.from_dict))
    else:
        m = _read(args, Matching2.from_dict, web2_of_tableau)
        if args.action == "to-tableau":
            _emit(args, tableau_of_web2(m).word + "\n")
            return 0
        m = fold2(m)
    _emit_drawing(args, m, "svg_of_matching2")
    return 0


def _cmd_web3(args: argparse.Namespace) -> int:
    from .planarweb import PlanarWeb
    from .web3 import crossed_web, domino_of_symmetric_web, tableau_of_web, web_of_tableau

    if args.action in ("from-tableau", "crossed"):
        build = web_of_tableau if args.action == "from-tableau" else crossed_web
        _emit_drawing(args, build(_read(args, Tableau.from_dict)), "svg_of_web")
    else:
        w = _read(args, PlanarWeb.from_dict, web_of_tableau)
        read_back = tableau_of_web if args.action == "to-tableau" else domino_of_symmetric_web
        _emit(args, read_back(w).word + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import verify

    report = verify(args.theorem, args.max_n)
    if args.format == "json":
        _emit(args, _dumps(report.to_dict()))
    else:
        _emit(args, report.text() + "\n")
    return 0 if report.passed else 1


def _cmd_render(args: argparse.Namespace) -> int:
    from .render import svg_of_json

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
    from .oracle import _FAMILIES, _check_rows, _check_word_limit, enumerate_words

    rows, cols = args.shape
    # every word of the shape counts, whatever the filter: a symmetric count
    # of one long rectangle would build a hook per cell
    _check_word_limit([(rows, cols, "all")], f"enumerate --shape {rows}x{cols} would list")
    _check_rows(rows)
    shape = (cols,) * rows
    # `all` lists the walk's words as they come and builds no tableau; so does
    # one row, whose one tableau 1..N every family keeps
    if args.filter == "all" or rows == 1:
        words = enumerate_words(shape)
    else:
        words = (t.word for t in _FAMILIES[args.filter](shape))
    _emit_lines(args, (w + "\n" for w in words))
    return 0


class _TheoremMetavar:
    """The metavar of `verify --theorem`: the suite names, which argparse
    formats only to print usage or help, so other commands never load the
    oracle.
    """

    def __str__(self) -> str:
        from .oracle import THEOREMS

        return f"{{{','.join(THEOREMS)}}}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webfold",
        description="Bijections between rectangular tableaux and webs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("op", help="apply a tableau operator")
    p.add_argument("--apply", required=True, choices=sorted(OPERATORS))
    _add_source(p, "tableau JSON file")
    p.set_defaults(func=_cmd_op)

    p = sub.add_parser("web2", help="two-row tableaux and noncrossing matchings")
    p.add_argument("action", choices=["from-tableau", "to-tableau", "fold"])
    _add_source(p, "tableau or matching JSON file")
    p.add_argument("--format", choices=["json", "svg"], default="json")
    p.set_defaults(func=_cmd_web2)

    p = sub.add_parser("web3", help="three-row tableaux, webs, domino tableaux")
    p.add_argument("action", choices=["from-tableau", "to-tableau", "to-domino", "crossed"])
    _add_source(p, "tableau or web JSON file")
    p.add_argument("--format", choices=["json", "svg"], default="json")
    p.set_defaults(func=_cmd_web3)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    theorem = p.add_argument("--theorem", required=True)
    # set after add_argument, which formats the metavar once to check it
    theorem.metavar = _TheoremMetavar()
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
        # one line, even when the message quotes a label from the input
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")
        print(f"{type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(argv=None))
