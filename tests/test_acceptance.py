"""Acceptance suite: ten checks, one printed pass/fail line each.

Runs under pytest like any other module, or standalone:

    python tests/test_acceptance.py

Standalone mode runs every check in order, prints its line, and exits
nonzero if any check fails.
"""

import random
import sys
import time
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from indfree import (
    FamilySpec,
    HParams,
    TnfKind,
    complement,
    complete_graph,
    contains_induced,
    disjoint_union,
    empty_graph,
    enumerate_nonisomorphic,
    feasible_pairs,
    h_graph,
    interval_check_p3k1,
    k3k2_decompose,
    k3k2_witness,
    make_graph,
    matching_graph,
    path_graph,
    recognize_tnf,
    split_pack_witness,
    star_graph,
    tnf_infeasible_region,
    turan_max_edges,
    uep_witness,
    witness,
)
from oracles import orbit_class_count

PAW = make_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
CLAW = star_graph(3)
P3_K1 = disjoint_union(path_graph(3), empty_graph(1))
K3_K1 = disjoint_union(complete_graph(3), empty_graph(1))
K4_K1 = disjoint_union(complete_graph(4), empty_graph(1))
K14 = star_graph(4)


def binom2(n):
    return n * (n - 1) // 2


def _report(label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  {label}{tail}")
    assert ok, f"{label}{tail}"


def test_criterion_1_dispatcher_sweep():
    t0 = time.time()
    nontnf = [
        g
        for order in range(2, 6)
        for g in enumerate_nonisomorphic(order)
        if recognize_tnf(g) is None
    ]
    ok = len(nontnf) == 37
    count = 0
    for g in nontnf:
        for n in range(0, 11):
            for m in range(binom2(n) + 1):
                cert = witness(g, n, m, verify=True)
                ok = ok and cert.verified and cert.graph.order == n and cert.graph.edge_count == m
                count += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    _report(
        "criterion 1: dispatcher sweep, every non-TNF forbidden graph of order 2..5",
        ok,
        f"{len(nontnf)} classes, {count} verified witnesses, {elapsed:.1f}s",
    )


def _tnf_graph(kind, k):
    if kind is TnfKind.CLIQUE:
        return complete_graph(k)
    if kind is TnfKind.EMPTY:
        return empty_graph(k)
    if kind is TnfKind.CLIQUE_MINUS_EDGE:
        return make_graph(
            k, [(u, v) for u, v in combinations(range(k), 2) if (u, v) != (0, 1)]
        )
    return make_graph(k, [(0, 1)])


def test_criterion_2_tnf_converse():
    ok = turan_max_edges(5, 3) == 6 and turan_max_edges(6, 3) == 9
    checked = 0
    for kind in TnfKind:
        for k in range(2, 6):
            fam = FamilySpec([_tnf_graph(kind, k)])
            for n in range(1, 8):
                table = feasible_pairs(fam, n)
                bad = {m for m, m_ok in enumerate(table.feasible) if not m_ok}
                region, exact = tnf_infeasible_region(kind, k, n)
                ok = ok and set(region) <= bad
                if exact:
                    ok = ok and set(region) == bad
                if n >= k:
                    ok = ok and bool(bad)
                checked += 1
    _report(
        "criterion 2: TNF converse, regions confirmed by enumeration",
        ok,
        f"{checked} (kind,k,n) combinations, Clique/Empty exact",
    )


def test_criterion_3_extremal_values():
    fam_a = FamilySpec([P3_K1, K3_K1])
    fam_b = FamilySpec([PAW, CLAW])
    ok = not feasible_pairs(fam_a, 5).feasible[3]
    ok = ok and not feasible_pairs(fam_a, 6).feasible[4]
    ok = ok and not feasible_pairs(fam_b, 5).feasible[7]
    ok = ok and not feasible_pairs(fam_b, 6).feasible[11]
    for n in (5, 6, 7):
        lo, hi = interval_check_p3k1(n)
        ta = feasible_pairs(fam_a, n)
        ok = ok and all(not ta.feasible[m] for m in range(lo, hi + 1))
        ok = ok and ta.f == n // 2 + 1
        ok = ok and feasible_pairs(fam_b, n).F == binom2(n) - n // 2 - 1
    _report(
        "criterion 3: pinned non-feasible pairs and extremal thresholds reproduced",
        ok,
        "(5,3) (6,4) (5,7) (6,11), interval and f/F at n=5,6,7",
    )


def test_criterion_4_split_pack_feasibility():
    ok = True
    count = 0
    for n in range(3, 13):
        for m in range(binom2(n) + 1):
            g = split_pack_witness(n, m)
            ok = ok and g.order == n and g.edge_count == m
            ok = ok and contains_induced(g, P3_K1) is None
            ok = ok and contains_induced(g, K4_K1) is None
            co = complement(g)
            ok = ok and contains_induced(co, PAW) is None
            ok = ok and contains_induced(co, K14) is None
            count += 1
            if not ok:
                break
    _report(
        "criterion 4: split-graph packing covers every (n,m) for n=3..12",
        ok,
        f"{count} witnesses, both families oracle-verified",
    )


def test_criterion_5_k3k2_exhaustive():
    t0 = time.time()
    ok = True
    for n in range(2, 41):
        for t in range(0, n - 1):
            x, y = k3k2_decompose(n, t)
            ok = ok and x >= 0 and y >= 0 and 3 * x + y == t and 3 * x + 2 * y <= n
            brute = [
                (bx, t - 3 * bx)
                for bx in range(t // 3 + 1)
                if 3 * bx + 2 * (t - 3 * bx) <= n
            ]
            ok = ok and (x, y) in brute
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _report(
        "criterion 5: triangle-edge decomposition exhaustive for n <= 40",
        ok,
        f"{elapsed * 1000:.0f}ms",
    )


def test_criterion_6_uep_freeness():
    two_k2 = matching_graph(2)
    p4 = path_graph(4)
    ok = True
    count = 0
    for n in range(0, 13):
        for m in range(binom2(n) + 1):
            g = uep_witness(n, m)
            ok = ok and contains_induced(g, CLAW) is None
            ok = ok and contains_induced(g, two_k2) is None
            ok = ok and contains_induced(g, p4) is None
            count += 1
    _report(
        "criterion 6: UEP graphs are claw-, matching- and path-free",
        ok,
        f"{count} witnesses up to n=12",
    )


def test_criterion_7_q_family_freeness():
    patterns = [
        h_graph(HParams(p, q, r))
        for p in range(4, 9)
        for q in range(2, p - 1)
        for r in range(0, 3)
    ]
    ok = True
    count = 0
    for n in range(0, 11):
        for m in range(binom2(n) + 1):
            g = k3k2_witness(n, m)
            for pat in patterns:
                ok = ok and contains_induced(g, pat) is None
                count += 1
    _report(
        "criterion 7: elimination graphs avoid every H(p,q,r), p=4..8, q=2..p-2",
        ok,
        f"{len(patterns)} patterns x {count // len(patterns)} witnesses",
    )


def test_criterion_8_complement_duality_randomized():
    rng = random.Random(46_01_2024)
    ok = True
    for _ in range(10_000):
        hn = rng.randrange(1, 9)
        pn = rng.randrange(1, 9)
        hd = rng.random()
        pd = rng.random()
        host = make_graph(
            hn, [e for e in combinations(range(hn), 2) if rng.random() < hd]
        )
        pattern = make_graph(
            pn, [e for e in combinations(range(pn), 2) if rng.random() < pd]
        )
        direct = contains_induced(host, pattern) is not None
        mirrored = contains_induced(complement(host), complement(pattern)) is not None
        ok = ok and direct == mirrored
    _report(
        "criterion 8: complement duality on 10000 randomized (host, pattern) pairs",
        ok,
        "orders <= 8, fixed seed",
    )


def test_criterion_9_enumeration_self_check():
    expected = [1, 2, 4, 11, 34, 156, 1044, 12346]
    counts = [sum(1 for _ in enumerate_nonisomorphic(n)) for n in range(1, 9)]
    ok = counts == expected
    brute = [orbit_class_count(n) for n in range(1, 7)]
    ok = ok and brute == expected[:6]
    _report(
        "criterion 9: class counts 1..8 with independent dedup for n <= 6",
        ok,
        f"generator {counts}, orbit brute force {brute}",
    )


def test_criterion_10_tnf_theorem_off_the_tables():
    # The paper's theorem both ways with no construction in the loop: a
    # pattern on k vertices has an infeasible (n, m) at some n = k..8 iff
    # it is one of the four TNF shapes.
    t0 = time.time()
    patterns = [g for order in range(2, 8) for g in enumerate_nonisomorphic(order)]
    violations = 0
    for g in patterns:
        family = FamilySpec([g])
        infeasible = any(feasible_pairs(family, n).f is not None for n in range(g.order, 9))
        violations += infeasible != (recognize_tnf(g) is not None)
    _report(
        "criterion 10: infeasible somewhere at n <= 8 iff TNF, classes on 2..7 vertices",
        len(patterns) == 1251 and violations == 0,
        f"{len(patterns)} classes, {violations} violations, {time.time() - t0:.1f}s",
    )


def _main() -> int:
    checks = [
        test_criterion_1_dispatcher_sweep,
        test_criterion_2_tnf_converse,
        test_criterion_3_extremal_values,
        test_criterion_4_split_pack_feasibility,
        test_criterion_5_k3k2_exhaustive,
        test_criterion_6_uep_freeness,
        test_criterion_7_q_family_freeness,
        test_criterion_8_complement_duality_randomized,
        test_criterion_9_enumeration_self_check,
        test_criterion_10_tnf_theorem_off_the_tables,
    ]
    failures = 0
    for check in checks:
        try:
            check()
        except AssertionError:
            failures += 1
    print(f"{len(checks) - failures} of {len(checks)} acceptance checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(_main())
