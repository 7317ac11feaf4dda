"""Command-line front end.

Subcommands: generate, decode, route, stats, betweenness, electrical,
verify.  Labels are given in their textual form ("2011.5"); a vertex id
works too, written "#17".  Exit codes: 0 success / all checks pass,
1 verification failure, 2 usage error, 3 size-cap exceeded.  Output for
identical invocations is byte-identical.  ``stats --empirical`` and
``electrical --cfb`` print exact values at every size, made from the
triangles' corner parts; only ``verify`` samples, with a --seed that has
a fixed default.  The module imports only the label, graph and routing
core; ``stats``, ``betweenness``, ``electrical`` and ``verify`` import
the module they run when they run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import _VERIFY_SUITES
from .errors import KochError, SizeCapError
from .graph import (
    EDGE_CLASSES,
    KochGraph,
    _block,
    _decimal,
    _table,
    _write_rows,
    build,
    check_size,
    edge_class_ids,
)
from .labels import (
    Label,
    children,
    companion,
    degree_of,
    father,
    format_label,
    parse_label,
)
from .routing import ancestor_chain, bfs_distances, route

if TYPE_CHECKING:
    from fractions import Fraction

    from .analytics import ClosedForms

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_SIZE = 3

MAX_PAIRS = 10**6  # cap on verify's pair options: sampled pairs are held in memory at once


class UsageError(KochError):
    pass


def _int_at_least(low: int, high: int | None = None):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def _add_mt(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=_int_at_least(1), required=True, help="groups per triangle vertex (>= 1)")
    parser.add_argument("--t", type=_int_at_least(0), required=True, help="growth steps (>= 0)")


_VERTEX_ID_RE = re.compile(r"#[0-9]+")


def _resolve_vertex(graph: KochGraph, text: str) -> int:
    if text.startswith("#"):
        # int() alone would also take signs, spaces, underscores and non-ASCII digits
        if not _VERTEX_ID_RE.fullmatch(text):
            raise UsageError(f"bad vertex id {text!r}")
        try:
            vid = int(text[1:])
        except ValueError:  # more digits than int() converts
            raise UsageError(f"bad vertex id {text!r}") from None
        if not 0 <= vid < graph.n_vertices:
            raise UsageError(f"vertex id {vid} out of range 0..{graph.n_vertices - 1}")
        return vid
    return graph.vertex_by_label(parse_label(text, graph.m))


def _resolve_labels(args, texts) -> tuple[KochGraph | None, list[Label]]:
    """Textual labels, or '#<id>' resolved through one build of K_{m,t}, made at the first id.

    Returns the graph too, None when no id needed it.
    """
    graph, labels = None, []
    for text in texts:
        if text.startswith("#"):
            graph = graph or build(args.m, args.t)
            labels.append(graph.label_of(_resolve_vertex(graph, text)))
        else:
            labels.append(parse_label(text, args.m))
    return graph, labels


def _jdump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    graph = build(args.m, args.t)
    try:
        out = open(args.output, "w") if args.output else sys.stdout
    except OSError as exc:
        raise UsageError(f"cannot write {args.output}: {exc.strerror}") from None
    try:
        if args.format == "edgelist":
            graph.write_edgelist(out)
        elif args.format == "json":
            graph.write_json(out)
        else:
            graph.write_dot(out)
    finally:
        if args.output:
            out.close()
    return EXIT_OK


def _cmd_decode(args) -> int:
    m, t = args.m, args.t
    check_size(m, t)  # a hub of a graph past the cap has more children than can be listed
    _, (label,) = _resolve_labels(args, [args.label])
    doc = {
        "label": format_label(label),
        "subnet": label.subnet,
        "bits": label.bits,
        "index": label.index,
        "birth": label.birth,
        "degree": degree_of(m, t, label),
        "father": None if label.is_hub else format_label(father(m, label)),
        "companion": None if label.is_hub else format_label(companion(label)),
        "ancestors": [format_label(x) for x in ancestor_chain(m, label)[1:]],
        "children": sorted(format_label(c) for c in children(m, t, label)),
    }
    print(_jdump(doc))
    return EXIT_OK


def _cmd_route(args) -> int:
    graph, (a, b) = _resolve_labels(args, [args.a, args.b])
    path = route(args.m, args.t, a, b)
    for hop in path.hops:
        print(format_label(hop))
    summary = {"length": path.length, "ops": path.ops_used}
    if args.oracle:
        graph = graph or build(args.m, args.t)
        dist = bfs_distances(graph, graph.vertex_by_label(a))
        summary["oracle_length"] = int(dist[graph.vertex_by_label(b)])
    print(_jdump(summary))
    return EXIT_OK


def _exact_text(cf: ClosedForms, name: str, value: Fraction) -> str:
    """str() of an exact closed form; past Python's int-to-str digit limit, a size error."""
    try:
        return str(value)
    except ValueError:
        raise SizeCapError(
            f"the exact {name} of K_{{{cf.m},{cf.t}}} has more digits than Python converts to text"
            f" (sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()})"
        ) from None


def _closed_form_doc(cf: ClosedForms) -> dict:
    return {
        "m": cf.m,
        "t": cf.t,
        "vertices": cf.n_vertices,
        "edges": cf.n_edges,
        "triangles": cf.n_triangles,
        "delta_v": cf.delta_v,
        "gamma": cf.gamma,
        "apl": _exact_text(cf, "average path length", cf.apl),
        "apl_float": float(cf.apl),
        "clustering": _exact_text(cf, "average clustering", cf.clustering),
        "clustering_float": float(cf.clustering),
        "degree_histogram": {str(k): v for k, v in sorted(cf.degree_histogram.items())},
    }


def _cmd_stats(args) -> int:
    from . import analytics

    check_size(args.m, args.t)  # the closed forms' exact integers grow with N
    cf = analytics.closed_forms(args.m, args.t)
    if args.csv:
        print("degree,count_closed_form")
        for k, v in sorted(cf.degree_histogram.items()):
            print(f"{k},{v}")
        return EXIT_OK
    doc = {"closed_form": _closed_form_doc(cf)}
    if args.empirical:
        report = analytics.stats_report(build(args.m, args.t))
        emp = report.empirical
        doc["empirical"] = {
            "vertices": emp.n_vertices,
            "edges": emp.n_edges,
            "degree_histogram": {str(k): v for k, v in emp.degree_histogram.items()},
            "clustering": str(emp.clustering),
            "clustering_float": float(emp.clustering),
            "apl": str(emp.apl),
            "apl_float": float(emp.apl),
            "apl_stderr": None,  # the apl is exact; the key stays for readers of the document
        }
        audit = {
            "counts_match": report.counts_match,
            "histogram_matches": report.histogram_matches,
            "apl_matches": report.apl_matches,
            "clustering_matches": emp.clustering == cf.clustering,
        }
        if args.t >= 2:
            ca = analytics.claim_audit(report)
            audit["apl_increment"] = ca.apl_increment
            audit["apl_increment_target"] = ca.apl_increment_target
            if args.m == 1:
                audit["clustering_gap_vs_limit"] = ca.clustering_gap_vs_limit
        doc["audit"] = audit
    print(_jdump(doc))
    return EXIT_OK


def _float_column(values: np.ndarray) -> tuple:
    """``repr`` of each float64 as a text column, made once per distinct bit pattern.

    The unique runs on the int64 view, so 0.0 and -0.0 stay apart.
    """
    bits = np.ascontiguousarray(values, np.float64).view(np.int64)
    patterns, which = np.unique(bits, return_inverse=True)
    return _table(_block([repr(x) for x in patterns.view(np.float64).tolist()]), which)


def _write_csv(n: int, head: str, keys, columns: dict[str, np.ndarray], order=None) -> None:
    """A CSV of n rows: ``keys(at)``, then each column's ``repr`` at ``at``, a chunk of the rows or of ``order``."""
    sys.stdout.write(",".join([head, *columns]) + "\n")

    def cells(rows):
        at = rows if order is None else order[rows]
        return [*keys(at), *(cell for values in columns.values() for cell in (",", _float_column(values[at]))), "\n"]

    _write_rows(sys.stdout, n, cells)


def _cmd_betweenness(args) -> int:
    from . import centrality

    graph = build(args.m, args.t)
    if args.edges:
        # values are by corner-pair position, rows go out by sorted key: ordered before any value is held
        pair_keys = graph._corner_pair_keys()
        order = np.argsort(pair_keys, kind="stable")  # a merge sort: the keys come in sorted runs
        head, n, classes, names = "u,v,class", graph.n_edges, edge_class_ids(graph), _block(EDGE_CLASSES)

        def keys(at):
            u, v = np.divmod(pair_keys[at], graph.n_vertices)
            return [*graph._label_columns(u), ",", *graph._label_columns(v), ",", _table(names, classes[at])]
    else:
        head, n, order = "label,birth,degree", graph.n_vertices, None

        def keys(rows):
            return [*graph._label_columns(rows), ",", _decimal(graph.birth[rows]), ",", _decimal(graph.degrees[rows])]

    columns = {}
    if args.mode == "exact":
        counts = centrality.edge_betweenness_counts if args.edges else centrality.vertex_betweenness_counts
        columns["exact"] = counts(graph) / centrality._pair_norm(graph.n_vertices)
    if args.mode == "compare":
        report = centrality.centrality_report(graph)
        columns["exact"] = report.edge if args.edges else report.vertex
    if args.mode != "exact":
        steps = centrality.edge_steps(graph) if args.edges else graph.birth
        for name, forms in centrality.step_forms(args.m, args.t, args.edges).items():
            columns[name] = centrality.per_element(forms, steps)
    _write_csv(n, head, keys, columns, order)
    if args.mode == "compare":
        print(_jdump(report.audit()))
    return EXIT_OK


def _cmd_electrical(args) -> int:
    from . import electrical

    if args.cfb and (args.source is not None or args.target is not None):
        raise UsageError("--source and --target do not apply to --cfb")
    graph = build(args.m, args.t)
    if args.cfb:
        values = electrical.current_flow_betweenness(graph)
        _write_csv(graph.n_vertices, "label", graph._label_columns, {"current_flow_betweenness": values})
        return EXIT_OK

    if args.source is None or args.target is None:
        raise UsageError("--source and --target are required for --profile/--gap")
    s = _resolve_vertex(graph, args.source)
    v = _resolve_vertex(graph, args.target)
    if s == v:
        raise UsageError("source and target must differ")
    if args.gap:
        gap = electrical.voltage_gap(electrical.solve(graph, s, v))
        print(_jdump({"gap": gap.gap, "spectrum": [float(x) for x in gap.spectrum]}))
        return EXIT_OK
    prof = electrical.path_profile(graph, s, v)
    print(
        _jdump(
            {
                "d": prof.distance,
                "R_eff": prof.field.effective_resistance,
                "path_voltages": prof.on_path_voltages,
                "companion_voltages": prof.companion_voltages,
                "support_edges": len(prof.support_edges),
                "max_offpath_current": prof.max_offpath_current,
                "thm6": prof.thm_support_ok,
                "thm7": prof.thm_voltages_ok,
                "thm8": prof.thm_split_ok,
            }
        )
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify

    suites = verify.SUITE_ORDER if args.suite == "all" else (args.suite,)
    result = verify.run(
        args.m,
        args.t,
        suites=suites,
        seed=args.seed,
        sample_pairs=args.pairs,
        electrical_pairs=args.electrical_pairs,
    )
    sys.stdout.write(verify.render(result))
    return result.exit_code


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kochnet",
        description="Deterministic Koch network laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build K_{m,t} and export it")
    _add_mt(p)
    p.add_argument("--format", choices=("edgelist", "json", "dot"), default="edgelist")
    p.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("decode", help="explain one label: father, companion, children, degree")
    _add_mt(p)
    p.add_argument("label")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("route", help="shortest path between two labels, label arithmetic only")
    _add_mt(p)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--oracle", action="store_true", help="also report the BFS distance")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("stats", help="closed-form and measured structural statistics")
    _add_mt(p)
    p.add_argument("--empirical", action="store_true", help="build the graph and measure")
    p.add_argument("--csv", action="store_true", help="flat per-degree rows")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("betweenness", help="vertex/edge betweenness: oracle vs printed formulas")
    _add_mt(p)
    p.add_argument("--mode", choices=("formula", "exact", "compare"), default="compare")
    p.add_argument("--edges", action="store_true", help="emit edge rows instead of vertex rows")
    p.set_defaults(func=_cmd_betweenness)

    p = sub.add_parser("electrical", help="unit-resistor analysis")
    _add_mt(p)
    p.add_argument("--source", default=None)
    p.add_argument("--target", default=None)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--profile", action="store_true", help="pair profile (default)")
    mode.add_argument("--cfb", action="store_true", help="current-flow betweenness over pairs")
    mode.add_argument("--gap", action="store_true", help="voltage-gap community statistic")
    p.set_defaults(func=_cmd_electrical)

    p = sub.add_parser("verify", help="run the verification suites")
    _add_mt(p)
    p.add_argument("--suite", choices=("all",) + _VERIFY_SUITES, default="all")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument(
        "--pairs",
        type=_int_at_least(1, MAX_PAIRS),
        default=10**5,
        help="routing pairs when sampling",
    )
    p.add_argument("--electrical-pairs", type=_int_at_least(1, MAX_PAIRS), default=50)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a failed write shows here, not in the flush at exit
        return code
    except SizeCapError as exc:
        print(f"size error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KochError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # downstream consumer (head, less) closed the stream; not an error
        _drop_unwritten_stdout()
        sys.stderr.close()
        return EXIT_OK
    except OSError as exc:
        _drop_unwritten_stdout()
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


def _drop_unwritten_stdout() -> None:
    """Point a stdout that cannot be flushed at devnull.

    A failed flush leaves its bytes in the buffer, so the interpreter's own
    flush at exit would fail again, print a second error and turn the exit
    status into 120.
    """
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
