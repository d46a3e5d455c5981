#!/usr/bin/env python3
"""Sweep the witness dispatcher across every small forbidden pattern.

For each isomorphism class G on 2..max-order vertices that is not one of
the four blocked shapes (clique, clique minus an edge, or a complement of
those), build a witness for every pair (n, m) with n <= max-n and
0 <= m <= C(n, 2), re-checking each output with the embedding oracle.
The tally shows which construction served each class and confirms, at
desk scale, that every non-blocked pattern admits the full pair range.
Both bounds are checked before any sweep, and every failure exits with
the exit code the indfree command gives it (3 a negative bound, 4 over
a cap, 8 stdout not written) and no traceback. Each line is flushed as
it is printed, so a reader that goes away stops the sweep at the next
pattern.
"""

import argparse
import sys
import time
from collections import Counter

from indfree import (
    ClassTag,
    IndfreeError,
    classify,
    encode_graph6,
    enumerate_nonisomorphic,
    witness,
)
from indfree.cli import fail
from indfree.constructions import _check_pair
from indfree.enumeration import _check_n
from indfree.graphs import _check_order


def sweep_pattern(pattern, max_n):
    tally = Counter()
    for n in range(1, max_n + 1):
        for m in range(n * (n - 1) // 2 + 1):
            cert = witness(pattern, n, m, verify=True)
            tally[cert.construction.value] += 1
    return tally


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Build and verify witnesses for every small forbidden pattern."
    )
    parser.add_argument(
        "--max-order", type=int, default=5,
        help="largest forbidden-pattern order to sweep (default 5)",
    )
    parser.add_argument(
        "--max-n", type=int, default=10,
        help="largest witness order to cover (default 10)",
    )
    args = parser.parse_args(argv)
    try:
        sweep(args)
    except (IndfreeError, OSError) as e:
        return fail(e)
    return 0


def sweep(args):
    _check_n(args.max_order)
    # the witness command's checks on n: RangeError below 0, then the cap
    _check_pair(args.max_n, 0)
    _check_order(args.max_n)
    start = time.perf_counter()
    patterns = 0
    blocked = 0
    certificates = 0
    for order in range(2, args.max_order + 1):
        for g in enumerate_nonisomorphic(order):
            cls = classify(g)
            if cls.tag is ClassTag.TNF:
                blocked += 1
                continue
            tally = sweep_pattern(g, args.max_n)
            patterns += 1
            certificates += sum(tally.values())
            parts = " ".join(f"{k}={v}" for k, v in sorted(tally.items()))
            print(f"{encode_graph6(g):>8}  order={order}  {cls.tag.value:<7} {parts}", flush=True)
    elapsed = time.perf_counter() - start
    print(
        f"\n{patterns} patterns swept ({blocked} blocked shapes skipped), "
        f"{certificates} certificates verified in {elapsed:.1f}s",
        flush=True,
    )


if __name__ == "__main__":
    sys.exit(main())
