"""Output checks for the benchmark, run outside every timed region.

Each check returns a list of problems; an empty list means the outputs are
right. The reference graph6 encoder here is the benchmark's own (short and
long form), so the witness digest does not depend on the codec under test
and stays the same when the package's graph6 learns orders 63 and 64.
"""

from __future__ import annotations

import hashlib
import json
import random

import indfree


def ref_graph6(graph) -> str:
    """graph6 text of a graph from its order and adjacency rows."""
    n = graph.order
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    bits = [graph.rows[u] >> v & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[i:i + 6])), 2)) for i in range(0, len(bits), 6)
    )
    return head + body


def witness_digest(graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        h.update(ref_graph6(g).encode())
        h.update(b"\n")
    return h.hexdigest()


def check_witness(spec, n, m, expected_tag, graph, tag) -> list[str]:
    problems = []
    edges = sum(r.bit_count() for r in graph.rows) // 2
    if (graph.order, edges) != (n, m):
        problems.append(f"{spec} ({n},{m}): witness has (order, edges) = ({graph.order},{edges})")
    if tag != expected_tag:
        problems.append(f"{spec} ({n},{m}): construction {tag}, expected {expected_tag}")
    for v, row in enumerate(graph.rows):
        if row >> v & 1 or row >> n:
            problems.append(f"{spec} ({n},{m}): row {v} has a loop or an out-of-range bit")
            break
        for u in range(n):
            if (row >> u & 1) != (graph.rows[u] >> v & 1):
                problems.append(f"{spec} ({n},{m}): adjacency not symmetric at {u},{v}")
                return problems
    return problems


def check_digest(workload: str, seed: int, graphs, golden: dict, canary) -> list[str]:
    """The witness digest must match the one recorded for the seed.

    Digests are recorded for a range of seeds; for a seed outside it the
    canary (the recorded seed 0, rebuilt by the caller) is checked instead.
    """
    recorded = golden["witness_digests"][workload]
    if str(seed) in recorded:
        got = witness_digest(graphs)
        if got != recorded[str(seed)]:
            return [f"{workload} seed {seed}: witness digest {got[:16]} != recorded {recorded[str(seed)][:16]}"]
        return []
    got = witness_digest(canary())
    if got != recorded["0"]:
        return [f"{workload} canary seed 0: witness digest {got[:16]} != recorded {recorded['0'][:16]}"]
    return []


def nx_recheck(samples) -> list[str] | None:
    """Independent check of verified witnesses with networkx's VF2 matcher.

    samples are (spec, pattern, host) triples; GraphMatcher's
    subgraph_is_isomorphic tests node-induced subgraphs. Returns None when
    networkx is not installed.
    """
    try:
        import networkx as nx
        from networkx.algorithms.isomorphism import GraphMatcher
    except ImportError:
        return None

    def to_nx(g):
        out = nx.Graph()
        out.add_nodes_from(range(g.order))
        out.add_edges_from(g.edges())
        return out

    problems = []
    for spec, pattern, host in samples:
        if GraphMatcher(to_nx(host), to_nx(pattern)).subgraph_is_isomorphic():
            problems.append(f"{spec}: networkx finds it induced in the verified witness {ref_graph6(host)}")
    return problems


def parse_table(form: str, text: str) -> tuple[int, list[bool]]:
    if form == "--json":
        data = json.loads(text)
        return data["n"], [bool(x) for x in data["feasible"]]
    lines = text.strip().split("\n")
    if lines[0] != "n,m,feasible":
        raise ValueError(f"bad CSV header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[1]) for r in rows] != list(range(len(rows))):
        raise ValueError("CSV edge counts are not 0, 1, 2, ...")
    return int(rows[0][0]), [r[2] == "true" for r in rows]


def _strip(feasible) -> str:
    return "".join("1" if ok else "0" for ok in feasible)


def check_table(entry: dict, golden: dict) -> list[str]:
    """One table against the recorded strip and f/F, in both output forms."""
    key = f"{entry['family']}/n={entry['n']}"
    want = golden["tables"].get(key)
    if want is None:
        return [f"{key}: no recorded table"]
    if entry["code"] != 0 or entry["other_code"] != 0:
        return [f"{key}: exit codes {entry['code']}, {entry['other_code']}"]
    other = "--csv" if entry["form"] == "--json" else "--json"
    try:
        n1, f1 = parse_table(entry["form"], entry["text"])
        n2, f2 = parse_table(other, entry["other_text"])
    except (ValueError, KeyError, IndexError) as e:
        return [f"{key}: unreadable table output ({e})"]
    problems = []
    if (n1, f1) != (n2, f2):
        problems.append(f"{key}: --json and --csv forms disagree")
    if n1 != entry["n"] or _strip(f1) != want["feasible"]:
        problems.append(f"{key}: feasible strip {_strip(f1)} != recorded {want['feasible']}")
    text = entry["text"] if entry["form"] == "--json" else entry["other_text"]
    data = json.loads(text)
    if [data["f"], data["F"]] != [want["f"], want["F"]]:
        problems.append(f"{key}: f, F = {data['f']}, {data['F']} != recorded {want['f']}, {want['F']}")
    return problems


def check_classes(child: dict, golden: dict) -> list[str]:
    problems = []
    for n, want in golden["class_counts"].items():
        got = child["classes"][n]
        if got != want or child["distinct"][n] != want:
            problems.append(f"n={n}: {got} classes ({child['distinct'][n]} distinct), expected {want}")
        if child["hist"][n] != golden["class_edge_hist"][n]:
            problems.append(f"n={n}: classes per edge count differ from the record")
    return problems


def self_test(golden: dict) -> list[str]:
    """Prove the gate: one flipped edge and one flipped table entry are caught."""
    problems = []
    spec, n, m = "claw", 9, 20
    cert = indfree.witness(indfree.parse_graph(spec), n, m)
    rows = list(cert.graph.rows)
    u, v = 0, n - 1
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    bad = indfree.Graph(n, tuple(rows))
    if check_witness(spec, n, m, "UEP", cert.graph, cert.construction.value):
        problems.append("self-test: the check rejects a correct witness")
    if not check_witness(spec, n, m, "UEP", bad, cert.construction.value):
        problems.append("self-test: the check accepts a witness with one flipped edge")
    if witness_digest([bad]) == witness_digest([cert.graph]):
        problems.append("self-test: the digest misses a flipped edge")

    key = "claw complete:3/n=6"
    want = golden["tables"][key]
    feasible = [c == "1" for c in want["feasible"]]
    good_json = json.dumps({"n": 6, "feasible": feasible, "f": want["f"], "F": want["F"]})
    good_csv = "n,m,feasible\n" + "".join(f"6,{i},{str(ok).lower()}\n" for i, ok in enumerate(feasible))
    entry = {"family": "claw complete:3", "n": 6, "form": "--json", "code": 0, "other_code": 0,
             "text": good_json, "other_text": good_csv}
    if check_table(entry, golden):
        problems.append("self-test: the check rejects a correct table")
    i = random.Random(0).randrange(len(feasible))
    flipped = feasible[:i] + [not feasible[i]] + feasible[i + 1:]
    bad_csv = "n,m,feasible\n" + "".join(f"6,{j},{str(ok).lower()}\n" for j, ok in enumerate(flipped))
    if not check_table(dict(entry, other_text=bad_csv), golden):
        problems.append("self-test: the check accepts a table with one flipped entry")
    bad_json = json.dumps({"n": 6, "feasible": flipped, "f": want["f"], "F": want["F"]})
    if not check_table(dict(entry, text=bad_json, other_text=bad_csv), golden):
        problems.append("self-test: the check accepts a table flipped in both forms")
    return problems
