"""Command line interface.

Subcommands: classify, witness, pairs, bounds, encode, decode. Graphs are
given as a catalog name, graph6, or an edge-list literal via --edges.
Note that path:k counts vertices, not edges; star:k counts leaves.
Every subcommand takes --json and --out. A command returns its text, or
its --json document as a dict, and main alone writes the output.

Exit codes, stable across releases:
  0  success
  2  unparseable input text (also argparse usage errors)
  3  requested (n, m) or similar numeric argument out of range
  4  input valid but beyond a hard size cap
  5  forbidden graph admits no witness family (TNF or single vertex)
  6  internal invariant failure (a verified certificate went bad)
  7  construction parameters violate their invariants
  8  the output could not be written: --out failed, or stdout was
     closed before the output was written (as by `| head`)
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .catalog import parse_edge_list, parse_graph
from .classifier import (
    ClassTag,
    TnfKind,
    classify,
    tnf_infeasible_region,
    witness,
)
from .enumeration import FamilySpec, _check_n, feasible_pairs, table_to_csv, table_to_json
from .errors import (
    CapacityError,
    DegenerateForbiddenError,
    IndfreeError,
    InfeasibleFamilyError,
    InternalInvariantError,
    ParameterError,
    ParseError,
    RangeError,
    ValidationError,
)
from .graph6 import _decode_typed, encode_graph6
from .graphs import Graph

_KIND_NAMES = [k.value for k in TnfKind]
# most edge counts `bounds --json` lists, since the list and its text
# are built in memory (n = 4096, 4,192,256 entries, writes 54 MB);
# the plain output prints a region's endpoints at any n
BOUNDS_JSON_CAP = 1 << 22


def _input_graph(args) -> tuple[Graph, str]:
    if args.edges:
        return parse_edge_list(args.edges), args.edges
    if args.spec:
        return parse_graph(args.spec), args.spec
    raise ParseError("no graph given: pass a specifier or --edges", 0)


def cmd_classify(args) -> str | dict:
    g, text = _input_graph(args)
    cls = classify(g)
    feasible = cls.tag is not ClassTag.TNF
    if args.json:
        return {
            "input": text,
            "order": g.order,
            "edge_count": g.edge_count,
            "verdict": "Feasible" if feasible else "Infeasible",
            "tag": cls.tag.value,
            "tnf_kind": cls.tnf_kind.value if cls.tnf_kind else None,
            "k": cls.k,
            "h": {"p": cls.h.p, "q": cls.h.q, "r": cls.h.r} if cls.h else None,
        }
    lines = [f"order {g.order}, edges {g.edge_count}"]
    if feasible:
        lines.append("verdict: Feasible")
    else:
        lines.append(f"verdict: Infeasible ({cls.tnf_kind.value}, k={cls.k})")
    if cls.tag is ClassTag.H_GRAPH:
        lines.append(f"shape: H({cls.h.p},{cls.h.q},{cls.h.r})")
    elif cls.tag is ClassTag.GENERAL:
        lines.append("shape: general (not an H-graph)")
    return "\n".join(lines)


def cmd_witness(args) -> str | dict:
    g, text = _input_graph(args)
    cert = witness(g, args.n, args.m, verify=args.verify)
    g6 = encode_graph6(cert.graph)
    if args.json:
        return {
            "forbidden": text,
            "n": cert.n,
            "m": cert.m,
            "graph6": g6,
            "construction": cert.construction.value,
            "verified": cert.verified,
        }
    return "\n".join(
        [
            g6,
            f"construction: {cert.construction.value}",
            f"verified: {'yes' if cert.verified else 'no (pass --verify to check)'}",
        ]
    )


def cmd_pairs(args) -> str:
    texts = args.specs + (args.edges or [])
    graphs = [parse_graph(s) for s in args.specs] + [parse_edge_list(e) for e in args.edges or []]
    if not graphs:
        raise ParseError("pairs needs at least one forbidden graph", 0)
    # before FamilySpec, whose canonical forms can be slow on large patterns
    _check_n(args.n)
    family = FamilySpec(graphs)
    table = feasible_pairs(family, args.n)
    if args.json:
        return table_to_json(table, family)
    if args.csv:
        return table_to_csv(table).rstrip("\n")
    bad = [m for m, ok in enumerate(table.feasible) if not ok]
    lines = [
        f"family of {len(family.forbidden)} forbidden graph(s): "
        + " ".join(texts),
        f"n = {table.n}: {len(table.feasible) - len(bad)} of {len(table.feasible)} edge counts feasible",
    ]
    if bad:
        lines.append("infeasible m: " + " ".join(str(m) for m in bad))
        lines.append(f"f = {table.f}, F = {table.F}")
    else:
        lines.append("all edge counts feasible")
    return "\n".join(lines)


def cmd_bounds(args) -> str | dict:
    kind = TnfKind(args.kind)
    region, exact = tnf_infeasible_region(kind, args.k, args.n)
    if args.json:
        # stop - start, since len() overflows past sys.maxsize
        size = region.stop - region.start
        if size > BOUNDS_JSON_CAP:
            raise CapacityError(f"bounds --json lists at most {BOUNDS_JSON_CAP} edge counts, got {size}")
        return {"kind": kind.value, "k": args.k, "n": args.n, "infeasible": list(region), "exact": exact}
    span = f"[{region[0]}, {region[-1]}]" if region else "(empty)"
    return "\n".join(
        [
            f"{kind.value} k={args.k}, n={args.n}",
            f"known infeasible m: {span}",
            f"exact: {'yes' if exact else 'no (one-sided bound)'}",
        ]
    )


def cmd_encode(args) -> str | dict:
    g6 = encode_graph6(_input_graph(args)[0])
    return {"graph6": g6} if args.json else g6


def cmd_decode(args) -> str | dict:
    g = _decode_typed(args.graph6)
    if args.json:
        return {"order": g.order, "edge_count": g.edge_count, "edges": [[u, v] for u, v in g.edges()]}
    return f"{g.order};" + ",".join(f"{u}-{v}" for u, v in g.edges())


def _add_graph_input(sub):
    sub.add_argument(
        "spec",
        nargs="?",
        help="graph specifier: catalog name (claw, paw, diamond, complete:k, "
        "empty:k, path:k with k vertices, cycle:k, star:k with k leaves, "
        "matching:k, H:p,q,r, S:p,r, Q:p,r,x,y) or graph6",
    )
    sub.add_argument("--edges", help='edge-list literal "n;u-v,u-w,..."')


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `indfree` argument parser, built once per process: parse_args
    keeps no state between calls, and building it is most of a warm
    call's cost."""
    parser = argparse.ArgumentParser(
        prog="indfree",
        description="witness constructions and feasibility tables for "
        "induced-subgraph-free graph families",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="feasibility verdict and shape of a forbidden graph")
    _add_graph_input(p)
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("witness", help="construct a graph on (n, m) avoiding the forbidden graph")
    _add_graph_input(p)
    p.add_argument("n", type=int, help="vertex count")
    p.add_argument("m", type=int, help="edge count")
    p.add_argument("--verify", action="store_true", help="re-check with the embedding oracle")
    p.set_defaults(func=cmd_witness)

    p = subs.add_parser("pairs", help="exact feasible-pair table by exhaustive enumeration")
    p.add_argument("specs", nargs="*", help="forbidden graphs (catalog names or graph6)")
    p.add_argument("--edges", action="append", help="additional forbidden graph as edge list")
    p.add_argument("-n", type=int, required=True, help="vertex count (at most 8)")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_pairs)

    p = subs.add_parser("bounds", help="known-infeasible region for a TNF forbidden graph")
    p.add_argument("kind", choices=_KIND_NAMES)
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_bounds)

    p = subs.add_parser("encode", help="print the graph6 form of a graph")
    _add_graph_input(p)
    p.set_defaults(func=cmd_encode)

    p = subs.add_parser("decode", help="print the edge list of a graph6 string")
    p.add_argument("graph6")
    p.set_defaults(func=cmd_decode)

    for sp in subs.choices.values():
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--out", help="write output to a file instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.func(args)
    except IndfreeError as e:
        return fail(e)
    if isinstance(out, dict):
        out = json.dumps(out, indent=2)
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(out + "\n")
        else:
            print(out, flush=True)
    except OSError as e:
        return fail(e)
    return 0


# the codes of the table in the module docstring, by exception class
EXIT_CODES = {
    ParseError: 2,
    RangeError: 3,
    CapacityError: 4,
    InfeasibleFamilyError: 5,
    DegenerateForbiddenError: 5,
    InternalInvariantError: 6,
    ParameterError: 7,
    ValidationError: 7,
    OSError: 8,
}


def fail(err: Exception) -> int:
    """Report err on stderr and return its exit code from EXIT_CODES.

    err must be an instance of one of EXIT_CODES' classes: an
    IndfreeError, or an OSError from writing the output. A
    BrokenPipeError means stdout's reader is gone, so stdout is pointed
    at devnull, and the interpreter's own flush at exit does not fail
    a second time.
    """
    if isinstance(err, BrokenPipeError):
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    print(f"error: {err}", file=sys.stderr)
    return next(EXIT_CODES[c] for c in type(err).__mro__ if c in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
