"""Command-line interface.

Subcommands:

  graph info | graph export   inspect or re-serialize a graph
  complexity                  exact spanning-tree count
  walks                       closed-walk count table
  series                      partial sums (--eval) or integer identification (--identify)
  bounds prop1|prop2|thm2|thm3
  construct                   build family members or seeded random regular graphs
  synchrony                   p_k / e_k sweeps, exhaustive or Monte Carlo

Output is a single JSON document (CSV where offered) on stdout, byte-identical
across runs for identical inputs.  Exit codes: 0 success, 2 domain or
precondition failure, or a numeric failure (overflow, recursion depth) in a
command (a JSON error document is still printed), 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Any

from . import bounds as bounds_mod
from . import families, series, synchrony
from .errors import InputReadError, NumericFailureError, ToolkitError, excerpt, shown
from .exact import closed_walk_counts, complement_tree_count, spanning_tree_count, triangle_count
from .graph import (
    Graph,
    _read_int,
    bipartition,
    complement,
    parse_edge_list,
    parse_graph6,
    regular_degree,
    require_regular,
    to_edge_list_text,
)


_MAX_MESSAGE_CHARS = 200  # of a usage error's message, which may echo an argument of any length


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with status 64, their message bounded."""

    def error(self, message):
        self.print_usage(sys.stderr)
        message = message[:_MAX_MESSAGE_CHARS] + ("..." if len(message) > _MAX_MESSAGE_CHARS else "")
        self.exit(64, f"{self.prog}: error: {message}\n")


def _int(text: str) -> int:
    try:
        return _read_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {shown(value)}")
    return value


def _format_real(x: float) -> str:
    return format(x, ".17g")


def _json(value: Any, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, reals at 17 significant digits, null for inf and nan.

    A Fraction prints as its string, "p/q" or "p".
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_real(value) if math.isfinite(value) else "null"
    if isinstance(value, (str, Fraction)):
        return json.dumps(str(value))
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(inner + _json(v, indent + 1) for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{inner}"{key}": ' + _json(value[key], indent + 1)
            for key in sorted(value, key=str)
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _read_graph(args: argparse.Namespace) -> Graph:
    """The graph the source options name, as read: --complement is the caller's to apply."""
    if args.named is not None:
        return families.named_graph(args.named)
    if args.edge_list is not None:
        try:
            with open(args.edge_list, encoding="utf-8-sig") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputReadError(f"cannot read {excerpt(args.edge_list)}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise InputReadError(f"cannot read {excerpt(args.edge_list)}: not UTF-8 text") from exc
        except ValueError as exc:  # open() refuses a path that holds a NUL character
            raise InputReadError(f"cannot read {excerpt(args.edge_list)}: {exc}") from exc
        return parse_edge_list(text, directed=bool(getattr(args, "directed", False)))
    return parse_graph6(args.graph6)


def _load_graph(args: argparse.Namespace) -> Graph:
    """The graph a command reads: the source, complemented under --complement."""
    g = _read_graph(args)
    return complement(g) if args.complement else g


def _command(sub, name: str, help: str, handler, graph: bool = True, directed_ok: bool = False) -> _Parser:
    """One command's declaration: its parser, its handler, and unless graph is False its graph source.

    A graph command's handler receives the graph _load_graph reads and the
    parsed args; any other receives the args alone.  Each returns its JSON
    document, which _run serializes, or CSV text.  The command's own parser
    reports _validate's usage errors.
    """
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(parser=parser, run=handler)
    if graph:
        parser.set_defaults(run=lambda args: handler(_load_graph(args), args))
        _source(parser, directed_ok)
    return parser


def _source(parser: _Parser, directed_ok: bool = False) -> None:
    """The graph source options: one of --named, --edge-list and --graph6, then --complement."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--named", choices=families.NAMED_GRAPHS, help="bundled example graph")
    group.add_argument("--edge-list", metavar="PATH", help="path to an edge-list file")
    group.add_argument("--graph6", metavar="STRING", help="short-form graph6 string")
    parser.add_argument("--complement", action="store_true", help="operate on the complement of the input")
    if directed_ok:
        parser.add_argument("--directed", action="store_true", help="read the edge list as directed arcs")


def build_parser() -> _Parser:
    parser = _Parser(prog="spanwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    graph_parser = sub.add_parser("graph", help="inspect or re-serialize a graph")
    graph_sub = graph_parser.add_subparsers(dest="graph_command", required=True)
    _command(graph_sub, "info", "order, size, regularity, bipartiteness", _cmd_info, directed_ok=True)
    _command(graph_sub, "export", "serialize to the edge-list format", _cmd_export, directed_ok=True)

    # complexity reads its source itself: --complement counts from the rows read, with no complement built
    _source(_command(sub, "complexity", "exact spanning-tree count", _cmd_complexity, graph=False))

    walks = _command(sub, "walks", "closed-walk counts w_1..w_K", _cmd_walks)
    walks.add_argument("--max-k", type=_positive_int, required=True, metavar="K")

    series_parser = _command(sub, "series", "log-complexity series of the complement", _cmd_series)
    mode = series_parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--eval", action="store_true", help="partial sums through --max-k")
    mode.add_argument("--identify", action="store_true", help="exact integer identification")
    series_parser.add_argument("--max-k", type=_positive_int, metavar="K")

    bounds_parser = sub.add_parser("bounds", help="closed-form bound families")
    bounds_sub = bounds_parser.add_subparsers(dest="bound", required=True)
    _command(bounds_sub, "prop1", "degree-only lower bound on t(G), dense regular G", _cmd_prop1)
    _command(bounds_sub, "prop2", "triangle-aware lower bound on t(G)", _cmd_prop2)
    thm2 = _command(bounds_sub, "thm2", "Laplacian-trace lower bound on t(complement)", _cmd_thm2)
    thm2.add_argument("--m", type=_int, required=True)
    thm3 = _command(bounds_sub, "thm3", "two-sided bounds for regular bipartite inputs", _cmd_thm3)
    thm3.add_argument("--m", type=_int, required=True)
    thm3.add_argument("--k", type=_int, required=True)
    thm3.add_argument("--format", choices=("json", "csv"), default="json")

    construct = _command(
        sub, "construct", "build a family member or a random regular graph", _cmd_construct, graph=False
    )
    target = construct.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--g-family", nargs=2, type=_int, metavar=("K", "L"), help="triangle-minimal family member"
    )
    target.add_argument(
        "--random", nargs=3, type=_int, metavar=("N", "D", "SEED"), help="seeded random regular graph"
    )

    sync = _command(sub, "synchrony", "threshold-spreading p_k / e_k sweep", _cmd_synchrony, directed_ok=True)
    sync.add_argument("--t", type=_int, required=True, help="activation threshold")
    sync.add_argument("--k", type=_int, required=True, help="seed size")
    sync.add_argument("--mode", choices=("exhaustive", "mc"), default="exhaustive")
    sync.add_argument("--samples", type=_int, metavar="S")
    sync.add_argument("--seed", type=_int, metavar="SEED")
    sync.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser every run of this process shares, built on first use."""
    return build_parser()


def _validate(args: argparse.Namespace) -> None:
    if getattr(args, "directed", False) and args.edge_list is None:
        args.parser.error("--directed applies only to --edge-list")
    if args.command == "series":
        if args.eval and args.max_k is None:
            args.parser.error("--eval requires --max-k")
        if args.identify and args.max_k is not None:
            args.parser.error("--max-k applies only to --eval")
    if args.command == "synchrony":
        if args.mode == "mc":
            if args.samples is None or args.seed is None:
                args.parser.error("--mode mc requires --samples and --seed")
        elif args.samples is not None or args.seed is not None:
            args.parser.error("--samples and --seed apply only to --mode mc")


def _graph_summary(g: Graph) -> dict:
    doc: dict[str, Any] = {"n": g.n, "size": g.size, "directed": g.directed}
    if g.directed:
        doc["regular_degree"] = None
        doc["bipartite"] = None
    else:
        doc["regular_degree"] = regular_degree(g)
        doc["bipartite"] = bipartition(g) is not None
    return doc


def _bound_doc(report: bounds_mod.BoundReport) -> dict:
    """The report's fields; a failed bound's unset values are left out."""
    return {
        f.name: value
        for f in dataclasses.fields(report)
        if (value := getattr(report, f.name)) is not None
    }


def _cmd_info(g: Graph, args) -> dict:
    return _graph_summary(g)


def _cmd_export(g: Graph, args) -> dict:
    return {"edge_list": to_edge_list_text(g)}


def _cmd_complexity(args) -> dict:
    g = _read_graph(args)
    count = complement_tree_count(g) if args.complement else spanning_tree_count(g)
    return {"n": g.n, "spanning_trees": str(count)}


def _cmd_walks(g: Graph, args) -> dict:
    table = closed_walk_counts(g, args.max_k)
    return {"max_k": table.max_k, "counts": [str(w) for w in table.counts]}


def _cmd_series(g: Graph, args) -> dict:
    if args.eval:
        return dataclasses.asdict(series.evaluate_series(g, args.max_k))
    report = series.identify_complexity_report(g)
    return {
        "t_complement": str(report.value),
        "terms_used": report.terms_used,
        "bracket_width": report.bracket_width,
        "precision_bits": report.precision_bits,
    }


def _cmd_prop1(g: Graph, args) -> dict:
    return _bound_doc(bounds_mod.prop1_lower(g.n, require_regular(g)))


def _cmd_prop2(g: Graph, args) -> dict:
    return _bound_doc(bounds_mod.prop2_lower(g.n, require_regular(g), triangle_count(g)))


def _cmd_thm2(g: Graph, args) -> dict:
    return _bound_doc(bounds_mod.thm2_lower(g, args.m))


def _cmd_thm3(g: Graph, args) -> dict | str:
    lower, upper = bounds_mod.thm3_bounds(g, args.m, args.k)
    if args.format == "csv":
        low = _format_real(lower.linear_value) if lower.preconditions_ok else ""
        high = _format_real(upper.linear_value) if upper.preconditions_ok else ""
        return f"m,k,lower,upper\n{args.m},{args.k},{low},{high}\n"
    return {"lower": _bound_doc(lower), "upper": _bound_doc(upper)}


def _cmd_construct(args) -> dict:
    if args.g_family is not None:
        k, l = args.g_family
        g = families.g_family(k, l)
        origin: dict[str, Any] = {"family": "g", "k": k, "l": l}
    else:
        n, d, seed = args.random
        g = families.random_regular(n, d, seed)
        origin = {"family": "random-regular", "n": n, "d": d, "seed": seed}
    doc = _graph_summary(g)
    doc["origin"] = origin
    doc["edges"] = [[u, v] for u, v in sorted(g.edges)]
    doc["edge_list"] = to_edge_list_text(g)
    return doc


def _cmd_synchrony(g: Graph, args) -> dict | str:
    mode = "exhaustive" if args.mode == "exhaustive" else "monte-carlo"
    outcome = synchrony.measure_synchrony(
        g, args.t, args.k, mode=mode, samples=args.samples, seed64=args.seed
    )
    if args.format == "csv":
        lines = ["i_star,count"]
        for index in sorted(outcome.i_star_histogram):
            lines.append(f"{index},{outcome.i_star_histogram[index]}")
        lines.append(f"inf,{outcome.non_synchronizing}")
        return "\n".join(lines) + "\n"
    return dataclasses.asdict(outcome)


def run(argv: list[str], out=None) -> int:
    """Parse argv, execute, and write the result; returns the process exit code.

    Every call in a process parses with one shared parser, built on the first
    call; parsing leaves it unchanged, so calls may repeat and nest freely.
    Exact integers print in full: the interpreter's limit on the digits of an
    int-to-str conversion is lifted while the command runs and restored after.
    Integer options and edge-list tokens are checked for length before int()
    reads them (graph._read_int), so reading them is fast without the limit.
    """
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is None:
        return _run(argv, out)
    saved = sys.get_int_max_str_digits()
    set_digits(0)
    try:
        return _run(argv, out)
    finally:
        set_digits(saved)


def _run(argv: list[str], out) -> int:
    out = out if out is not None else sys.stdout
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc = args.run(args)
        text = doc if isinstance(doc, str) else _json(doc) + "\n"
    except ToolkitError as exc:
        code, message = exc.code, str(exc)
    except ValueError as exc:
        code, message = "invalid-parameter", str(exc)
    except (ArithmeticError, RecursionError) as exc:
        code, message = NumericFailureError.code, f"{type(exc).__name__}: {exc}"
    else:
        out.write(text)
        return 0
    out.write(_json({"error": {"code": code, "message": message}}) + "\n")
    return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
