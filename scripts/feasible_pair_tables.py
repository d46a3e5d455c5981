#!/usr/bin/env python3
"""Tabulate exact feasible pairs for a forbidden family over a range of n.

Each row of output covers one vertex count: a strip with one character
per edge count ('#' feasible, '.' infeasible), plus the least and
greatest infeasible counts when a gap exists. Each table is exact,
computed over every isomorphism class on n vertices, so n is capped
at 8. The range is checked before any table is computed, and every
failure exits with the exit code the indfree command gives it (2
unparseable spec, 3 bad range, 4 over the cap, 8 CSV or stdout not
written) and no traceback.

Example, the family that pins a gap around the middle of the range:

    python3 scripts/feasible_pair_tables.py "4;0-1,0-2" "4;0-1,0-2,1-2" --n-max 7
"""

import argparse
import sys

from indfree import (
    ENUMERATION_CAP,
    FamilySpec,
    IndfreeError,
    RangeError,
    feasible_pairs,
    parse_graph,
    table_to_csv,
)
from indfree.cli import fail
from indfree.enumeration import _check_n


def strip(table):
    return "".join("#" if ok else "." for ok in table.feasible)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Exact feasibility tables for a forbidden family. "
        "Errors exit with the codes of the indfree command."
    )
    parser.add_argument(
        "specs", nargs="+",
        help="forbidden graphs: catalog names, edge lists, or graph6",
    )
    parser.add_argument("--n-min", type=int, default=4, help="first vertex count")
    parser.add_argument(
        "--n-max", type=int, default=8,
        help=f"last vertex count (cap {ENUMERATION_CAP})",
    )
    parser.add_argument(
        "--csv", metavar="FILE",
        help="also write all rows as n,m,feasible CSV",
    )
    args = parser.parse_args(argv)
    try:
        tabulate(args)
        # a closed stdout shows here, not in the flush at exit
        sys.stdout.flush()
    except (IndfreeError, OSError) as e:
        return fail(e)
    return 0


def tabulate(args):
    if args.n_min > args.n_max:
        raise RangeError(f"empty order range {args.n_min}..{args.n_max}")
    _check_n(args.n_min)
    _check_n(args.n_max)
    family = FamilySpec([parse_graph(s) for s in args.specs])
    print("forbidden:", ", ".join(args.specs))

    tables = []
    for n in range(args.n_min, args.n_max + 1):
        table = feasible_pairs(family, n)
        tables.append(table)
        if table.f is None:
            gap = "no infeasible m"
        else:
            gap = f"f={table.f} F={table.F}"
        print(f"n={n:<2} [{strip(table)}]  {gap}")

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(table_to_csv(*tables))
        print(f"wrote {sum(len(t.feasible) for t in tables)} rows to {args.csv}")


if __name__ == "__main__":
    sys.exit(main())
