#!/usr/bin/env python3
"""Write perfbench/golden.json, the values the benchmark's checks compare with.

    python3 perfbench/record.py

Run it only on a commit whose outputs are known to be right: the record
holds the class counts (OEIS A000088) and each n's classes per edge count,
every exact-tables table (feasible strip, f and F), and for seeds
0..SEEDS-1 the sha256 over the reference graph6 text of every witness the
two witness workloads request.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import indfree  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402

CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
SEEDS = 100


def main() -> int:
    hist = {}
    for n in wl.CLASS_N:
        counts = [0] * (n * (n - 1) // 2 + 1)
        for g in indfree.enumerate_nonisomorphic(n):
            counts[g.edge_count] += 1
        if sum(counts) != CLASS_COUNTS[n]:
            raise SystemExit(f"n={n}: {sum(counts)} classes, expected {CLASS_COUNTS[n]}")
        hist[n] = counts

    tables = {}
    for family in wl.FAMILIES:
        graphs = [indfree.parse_graph(spec) for spec in family]
        spec = indfree.FamilySpec(graphs)
        for n in wl.TABLE_N:
            t = indfree.feasible_pairs(spec, n)
            tables[f"{' '.join(family)}/n={n}"] = {
                "feasible": "".join("1" if ok else "0" for ok in t.feasible), "f": t.f, "F": t.F,
            }

    digests = {}
    for workload in ("witness-verify", "witness-build"):
        digests[workload] = {
            str(seed): checks.witness_digest(
                indfree.witness(pattern, n, m).graph
                for _, pattern, n, m in wl.make_inputs(workload, seed)
            )
            for seed in range(SEEDS)
        }

    golden = {"class_counts": CLASS_COUNTS, "class_edge_hist": hist,
              "tables": tables, "witness_digests": digests}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
