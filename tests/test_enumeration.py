import csv
import hashlib
import io
import itertools
import json
import os
import threading

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
    induced_subgraph,
    interval_check_p3k1,
    make_graph,
    parse_graph,
    path_graph,
    star_graph,
    table_to_csv,
    table_to_json,
)
from indfree import enumeration
from oracles import orbit_class_count, orbit_size_total, reference_feasible_pairs

EXPECTED_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

# sha256 of the graph6 codes of the classes, one per line, in enumeration
# order; the tables do not depend on the order, but the sequence
# enumerate_nonisomorphic yields is part of the interface
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


def class_digest(classes):
    return hashlib.sha256("\n".join(encode_graph6(g) for g in classes).encode()).hexdigest()


def test_class_sequence_is_pinned():
    for n, want in CLASS_SEQUENCE_SHA256.items():
        assert class_digest(enumerate_nonisomorphic(n)) == want, n


# children _reps canonicalizes at each order, one per orbit of each
# parent's automorphism group on neighbourhood masks; an incomplete
# generator set splits orbits and raises these, while the class digests
# above cannot see it
CHILDREN_CANONICALIZED = {1: 1, 2: 2, 3: 6, 4: 20, 5: 90, 6: 544, 7: 5096, 8: 79264}


def test_reps_canonicalizes_one_child_per_orbit(monkeypatch):
    enumeration._reps(7)
    calls = []
    # in one process, since a forked helper's calls never reach this list
    monkeypatch.setattr(enumeration, "_cpus", lambda: 1)
    # the count depends on the parents and their orbits only, so the
    # children are counted and returned as they are, not canonicalized
    monkeypatch.setattr(enumeration, "canonical_form", lambda g: calls.append(g) or g)
    got = {}
    for n in CHILDREN_CANONICALIZED:
        calls.clear()
        # the uncached body, discarded; the parents come from the cache
        enumeration._reps.__wrapped__(n)
        got[n] = len(calls)
    assert got == CHILDREN_CANONICALIZED
    assert sum(got.values()) == 85023


def assert_no_helper_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The forks _reps makes, counted; the parents on 7 vertices cached."""
    enumeration._reps(7)
    made = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
    return made


def split_children(monkeypatch, helper_slice):
    """Run helper_slice(parents) in place of _children in forked helpers;
    return the list of this process's own _children calls."""
    main, mine = os.getpid(), []
    children = enumeration._children

    def wrapper(n, parents):
        if os.getpid() != main:
            return helper_slice(children(n, parents), parents)
        mine.append(len(parents))
        return children(n, parents)

    monkeypatch.setattr(enumeration, "_children", wrapper)
    return mine


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("w", [1, 2, 3])
def test_reps_same_for_any_number_of_slices(monkeypatch, forks, n, w):
    monkeypatch.setattr(enumeration, "_cpus", lambda: w)
    classes, up = enumeration._reps.__wrapped__(n)
    assert_no_helper_left()
    assert len(forks) == w - 1
    assert class_digest(classes) == CLASS_SEQUENCE_SHA256[n]
    assert up == enumeration._reps(n)[1]


def test_reps_small_levels_stay_in_process(monkeypatch, forks):
    # 11 parents on 4 vertices make one slice; 34 on 5 make two
    monkeypatch.setattr(enumeration, "_cpus", lambda: 8)
    for n in range(1, 7):
        assert enumeration._reps.__wrapped__(n) == enumeration._reps(n)
    assert len(forks) == 1


def test_reps_forks_nothing_while_a_thread_runs(monkeypatch, forks):
    monkeypatch.setattr(enumeration, "_cpus", lambda: 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        got = enumeration._reps.__wrapped__(7)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert got == enumeration._reps(7)


def test_reps_recomputes_a_slice_whose_fork_fails(monkeypatch):
    enumeration._reps(7)
    monkeypatch.setattr(enumeration, "_cpus", lambda: 2)

    def fork():
        raise OSError("no fork")

    monkeypatch.setattr(os, "fork", fork)
    mine = split_children(monkeypatch, lambda forms, parents: forms)
    assert enumeration._reps.__wrapped__(7) == enumeration._reps(7)
    assert mine == [78, 78]


def test_reps_recomputes_the_slice_of_a_failed_helper(monkeypatch, forks):
    monkeypatch.setattr(enumeration, "_cpus", lambda: 2)

    def crash(forms, parents):
        os._exit(3)

    mine = split_children(monkeypatch, crash)
    assert enumeration._reps.__wrapped__(7) == enumeration._reps(7)
    assert_no_helper_left()
    assert len(forks) == 1
    assert mine == [78, 78]


def test_reps_recomputes_the_slice_of_a_truncated_blob(monkeypatch, forks):
    monkeypatch.setattr(enumeration, "_cpus", lambda: 2)
    # the helper writes its parents' forms but the last's, and exits 0
    mine = split_children(monkeypatch, lambda forms, parents: itertools.islice(forms, len(parents) - 1))
    assert enumeration._reps.__wrapped__(7) == enumeration._reps(7)
    assert_no_helper_left()
    assert len(forks) == 1
    assert mine == [78, 78]


def test_reps_reaps_its_helpers_when_it_raises(monkeypatch, forks):
    monkeypatch.setattr(enumeration, "_cpus", lambda: 3)
    main, children = os.getpid(), enumeration._children

    def wrapper(n, parents):
        if os.getpid() == main:
            raise KeyboardInterrupt
        return children(n, parents)

    monkeypatch.setattr(enumeration, "_children", wrapper)
    with pytest.raises(KeyboardInterrupt):
        enumeration._reps.__wrapped__(8)
    assert len(forks) == 2
    assert_no_helper_left()


def test_unpack_takes_exactly_its_parents():
    parents = enumeration._reps(5)[0][:3]
    want = list(enumeration._children(6, parents))
    blob = b"".join(
        len(forms).to_bytes(2, "little") + b"".join(bytes(c.rows) for c in forms) for forms in want
    )
    assert list(enumeration._unpack(6, blob, 3)) == want
    for bad in (blob[:-1], blob[:-6], blob + b"\0", blob[:1], b""):
        assert enumeration._unpack(6, bad, 3) is None
    assert enumeration._unpack(6, blob, 2) is None
    assert enumeration._unpack(6, blob, 4) is None


def test_reps_records_every_card():
    # the classes whose up mask holds a class C are exactly the classes
    # of C's cards, each found here by deleting a vertex and canonicalizing
    for n in range(2, 8):
        classes, up = enumeration._reps(n)
        index = {g: j for j, g in enumerate(enumeration._reps(n - 1)[0])}
        for i, c in enumerate(classes):
            deck = {
                index[canonical_form(induced_subgraph(c, [u for u in range(n) if u != v]))]
                for v in range(n)
            }
            assert {j for j, kids in enumerate(up) if kids >> i & 1} == deck, (n, i)


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


# the families of the exact-tables benchmark with wide infeasible regions
WIDE_GAP_FAMILIES = (
    ("cycle:4", "complete:4", "empty:4"),
    ("complete:3", "empty:3"),
    ("claw", "complete:3"),
    ("diamond", "empty:3"),
    ("H:3,1,1", "H:3,0,1"),
    ("H:4,0,1", "empty:4"),
)


def test_feasible_pairs_matches_reference_scan():
    families = [FamilySpec([g]) for k in (4, 5) for g in enumerate_nonisomorphic(k)]
    families += [FamilySpec([parse_graph(s) for s in specs]) for specs in WIDE_GAP_FAMILIES]
    for n in (6, 7, 8):
        for family in families:
            assert feasible_pairs(family, n) == reference_feasible_pairs(family, n), (family, n)


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
