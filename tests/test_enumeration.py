import csv
import hashlib
import io
import json

import pytest

from indfree import (
    CapacityError,
    FamilySpec,
    PairTable,
    RangeError,
    ValidationError,
    canonical_form,
    complement,
    complete_graph,
    empty_graph,
    encode_graph6,
    enumerate_nonisomorphic,
    feasible_pairs,
    interval_check_p3k1,
    make_graph,
    path_graph,
    star_graph,
    table_to_csv,
    table_to_json,
)
from oracles import orbit_class_count, orbit_size_total

EXPECTED_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

# sha256 of the graph6 codes of the classes, one per line, in enumeration
# order; feasible_pairs stops at the first feasible class of each edge
# count, so the order is part of what makes the tables fast
CLASS_SEQUENCE_SHA256 = {
    6: "15d9b311909b44e3609f3168467390215f2773bf6429dd9a8ea0e99a2658fbc4",
    7: "9fa223f771825bc1690e648cb963f31ddd5c6a33b710a83c5a4702072f7e16e1",
    8: "d36458132489c3eaad0cdc822c977e6ce341c9e7e7e38de26f9868105beba6aa",
}


def binom2(n):
    return n * (n - 1) // 2


def test_class_counts_up_to_eight():
    for n, want in EXPECTED_COUNTS.items():
        assert sum(1 for _ in enumerate_nonisomorphic(n)) == want


def test_class_sequence_is_pinned():
    for n, want in CLASS_SEQUENCE_SHA256.items():
        text = "\n".join(encode_graph6(g) for g in enumerate_nonisomorphic(n))
        assert hashlib.sha256(text.encode()).hexdigest() == want, n


def test_counts_confirmed_by_orbit_brute_force():
    for n in range(1, 7):
        assert orbit_class_count(n) == EXPECTED_COUNTS[n]


def test_orbit_sizes_cover_all_labeled_graphs():
    for n in range(1, 6):
        assert orbit_size_total(n) == 1 << binom2(n)


def test_representatives_are_pairwise_nonisomorphic():
    for n in range(1, 7):
        reps = list(enumerate_nonisomorphic(n))
        assert len({canonical_form(g) for g in reps}) == len(reps)
        assert all(g == canonical_form(g) for g in reps)


def test_five_vertex_graphs_with_three_edges():
    count = sum(1 for g in enumerate_nonisomorphic(5) if g.edge_count == 3)
    assert count == 4


def test_single_vertex():
    assert list(enumerate_nonisomorphic(1)) == [complete_graph(1)]


def test_enumeration_cap():
    with pytest.raises(CapacityError):
        list(enumerate_nonisomorphic(9))
    with pytest.raises(RangeError):
        list(enumerate_nonisomorphic(-1))


# FamilySpec


def test_family_spec_dedups_up_to_isomorphism():
    a = make_graph(3, [(0, 1), (1, 2)])
    b = make_graph(3, [(0, 2), (2, 1)])
    fam = FamilySpec([a, b, complete_graph(2)])
    assert len(fam.forbidden) == 2


def test_family_spec_sorted_small_first():
    fam = FamilySpec([complete_graph(4), complete_graph(2)])
    assert [g.order for g in fam.forbidden] == [2, 4]


def test_family_spec_rejects_empty():
    with pytest.raises(ValidationError):
        FamilySpec([])
    with pytest.raises(ValidationError):
        FamilySpec([make_graph(0, [])])


def test_family_spec_hashable_and_equal():
    f1 = FamilySpec([path_graph(3)])
    f2 = FamilySpec([make_graph(3, [(2, 1), (1, 0)])])
    assert f1 == f2
    assert hash(f1) == hash(f2)


# feasible_pairs and friends


def test_pairs_p3k1_k3k1_at_five(p3_k1, k3_k1):
    table = feasible_pairs(FamilySpec([p3_k1, k3_k1]), 5)
    assert not table.feasible[3]
    assert table.f == 3


def test_pairs_paw_claw_at_six(paw, claw):
    table = feasible_pairs(FamilySpec([paw, claw]), 6)
    assert not table.feasible[11]
    assert table.F == 11


def test_pairs_triangle_at_four():
    table = feasible_pairs(FamilySpec([complete_graph(3)]), 4)
    assert [m for m, ok in enumerate(table.feasible) if ok] == [0, 1, 2, 3, 4]


def test_pairs_cap():
    with pytest.raises(CapacityError):
        feasible_pairs(FamilySpec([complete_graph(3)]), 9)


def test_table_complement_symmetry(paw):
    co = complement(paw)
    for n in range(1, 7):
        t = feasible_pairs(FamilySpec([paw]), n)
        tc = feasible_pairs(FamilySpec([co]), n)
        top = binom2(n)
        assert all(t.feasible[m] == tc.feasible[top - m] for m in range(top + 1))


def test_monotone_containment(paw, claw):
    # adding vertices to the forbidden graph can only widen feasibility:
    # P_3 sits induced inside the paw, the claw inside K_{1,4}
    for small, large in [(path_graph(3), paw), (claw, star_graph(4))]:
        for n in range(1, 8):
            ts = feasible_pairs(FamilySpec([small]), n)
            tl = feasible_pairs(FamilySpec([large]), n)
            for m, ok in enumerate(ts.feasible):
                if ok:
                    assert tl.feasible[m], (n, m)


def test_extremal_stats_formulas(paw, claw, p3_k1, k3_k1):
    famA = FamilySpec([p3_k1, k3_k1])
    famB = FamilySpec([paw, claw])
    for n in (5, 6, 7):
        assert feasible_pairs(famA, n).f == n // 2 + 1
        assert feasible_pairs(famB, n).F == binom2(n) - n // 2 - 1


def test_extremal_stats_feasible_family_is_none(paw):
    table = feasible_pairs(FamilySpec([paw]), 6)
    assert (table.f, table.F) == (None, None)


def test_interval_check_values():
    assert interval_check_p3k1(5) == (3, 3)
    assert interval_check_p3k1(6) == (4, 4)
    assert interval_check_p3k1(8) == (5, 6)
    with pytest.raises(RangeError):
        interval_check_p3k1(4)


def test_interval_infeasible_in_table(p3_k1, k3_k1):
    fam = FamilySpec([p3_k1, k3_k1])
    for n in (5, 6, 7):
        lo, hi = interval_check_p3k1(n)
        table = feasible_pairs(fam, n)
        assert all(not table.feasible[m] for m in range(lo, hi + 1))


def test_pair_table_f_and_big_f_none_when_all_feasible():
    table = PairTable(3, (True, True, True, True))
    assert table.f is None and table.F is None


def test_csv_export(p3_k1, k3_k1):
    table = feasible_pairs(FamilySpec([p3_k1, k3_k1]), 5)
    rows = list(csv.DictReader(io.StringIO(table_to_csv(table))))
    assert len(rows) == binom2(5) + 1
    assert rows[3] == {"n": "5", "m": "3", "feasible": "false"}
    assert rows[0] == {"n": "5", "m": "0", "feasible": "true"}


def test_json_export(p3_k1, k3_k1):
    family = FamilySpec([p3_k1, k3_k1])
    table = feasible_pairs(family, 5)
    data = json.loads(table_to_json(table, family))
    assert list(data) == ["n", "forbidden", "feasible", "f", "F"]
    assert data["n"] == 5
    assert data["forbidden"] == [encode_graph6(g) for g in family.forbidden]
    assert data["f"] == 3 and data["F"] == 3
    assert data["feasible"][3] is False and data["feasible"][2] is True


def test_oracle_agreement_with_dispatcher():
    # the dispatcher claims every (n, m) works for non-TNF forbidden
    # graphs; the exhaustive table must agree
    from indfree import recognize_tnf

    for order in (4, 5):
        for g in enumerate_nonisomorphic(order):
            if recognize_tnf(g) is not None:
                continue
            for n in range(1, 7):
                table = feasible_pairs(FamilySpec([g]), n)
                assert all(table.feasible), (g, n)
