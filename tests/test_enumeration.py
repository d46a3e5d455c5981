import csv
import errno
import hashlib
import io
import itertools
import json
import os
import random
import threading

import pytest

from indfree import (
    CapacityError,
    FamilySpec,
    Graph,
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
from indfree import enumeration, iso
from indfree.iso import _aut_generators, _search
from oracles import (
    generated_group,
    orbit_class_count,
    orbit_size_total,
    reference_automorphisms,
    reference_children,
    reference_feasible_pairs,
)

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


# sha256 of the class masks, one lowercase hex number per line: the up
# masks of _reps(n) and the edge masks of _edge_masks(n), recorded from
# the build that set one bit at a time on Python ints; the n = 8 up masks
# are checked bit for bit nowhere else
UP_MASK_SHA256 = {
    1: "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    2: "4e07408562bedb8b60ce05c1decfe3ad16b72230967de01f640b7e4729b49fce",
    3: "1011c676968490970f4ca4e575c70319400f387bf565de8c1b5c7bf9acc584d7",
    4: "c6c5a5933dc76599fa3f51a53add163f1df667bc4ccbab04a35c5032e28bd687",
    5: "fc59038f97b21b40b62b99ac42aa550855ac8a9b925be9ae1bfab48ef74bd36c",
    6: "abe718b11e25fe2d26f4c43f40ca21c716edee27ecfc6d3c8b578855fa8d0bd6",
    7: "fd5268b7dbd0d1a1d387bada487e8f1a56d7fb476296cad81f573a098b633937",
    8: "e2d15249bfdd0881eba6b0fef355ef8b4c55e9d306bc84952774ec3c1e66a1f9",
}
EDGE_MASK_SHA256 = {
    1: "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    2: "b598b3a62a3f7cedb17e66d1cb31d53dffeebaf5c07e2c60d5e31971936fd35e",
    3: "8592cfb8e0714e79e431eb507431beb3f75b70ba292883a92d08a663d21f53ba",
    4: "f40d0ec14eba2e96919aefc6b421b8e9e7ed33fb341019ab07bc27816e0df17f",
    5: "ef9bce9678f960c95b6aebb0510861558c2bb38fb98e54d52ca78951dc37c00f",
    6: "7574d41412f798d1d3b33c69de19b7759c78031837c8e10390559efe22e4a17f",
    7: "5b9e34e8cf6a564d5da5b69adce1f1b49da824007fb282cce51d40bedacffa02",
    8: "a3358020d22a44fe3e9b97610518d4532ed31271f88284ee73c0fec407b9d20a",
}


def mask_digest(masks):
    return hashlib.sha256("\n".join(format(m, "x") for m in masks).encode()).hexdigest()


def test_class_masks_are_pinned():
    for n in range(1, 9):
        assert mask_digest(enumeration._reps(n)[1]) == UP_MASK_SHA256[n], n
        assert mask_digest(enumeration._edge_masks(n)) == EDGE_MASK_SHA256[n], n


# children _reps makes at each order, one per orbit of each parent's
# automorphism group on neighbourhood masks; an incomplete generator set
# splits orbits and raises these, while the class digests above cannot
# see it
CHILDREN_PER_ORBIT = {1: 1, 2: 2, 3: 6, 4: 20, 5: 90, 6: 544, 7: 5096, 8: 79264}

# canonical forms _reps computes in one process, each one call of the
# kernel _canon_rows: the second parent of each unit reads its children's
# forms off the first's, canonicalizing each complement once (no parent
# on 7 vertices is its own complement, so n = 8 makes 79264 / 2 direct
# calls and 6178 complements)
CANONICAL_FORM_CALLS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 67, 6: 364, 7: 3070, 8: 45810}

# _search calls _reps makes in one process: one per kernel call and one
# per unit, which both pairs the unit's parents and generates the
# first's automorphism group; a second search for the group would add
# one more per unit, 522 at n = 8
SEARCH_CALLS = {1: 2, 2: 3, 3: 6, 4: 18, 5: 73, 6: 382, 7: 3148, 8: 46332}


def test_reps_canonicalizes_one_child_per_orbit(monkeypatch):
    enumeration._reps(7)
    # in one process, since a forked helper's calls never reach these
    monkeypatch.setattr(enumeration, "_cpus", lambda: 1)
    calls, searches = [], []
    canon = enumeration._canon_rows
    monkeypatch.setattr(enumeration, "_canon_rows", lambda rows: calls.append(1) or canon(rows))
    search = iso._search

    def counted_search(rows):
        searches.append(1)
        return search(rows)

    # _canon_rows reads iso's name, _units enumeration's
    monkeypatch.setattr(iso, "_search", counted_search)
    monkeypatch.setattr(enumeration, "_search", counted_search)
    kids = []
    children = enumeration._children

    def counted(n, parents, units):
        for forms in children(n, parents, units):
            kids.append(len(forms))
            yield forms

    monkeypatch.setattr(enumeration, "_children", counted)
    got, made, searched = {}, {}, {}
    for n in CHILDREN_PER_ORBIT:
        calls.clear()
        kids.clear()
        searches.clear()
        # the uncached body, discarded; the parents come from the cache
        enumeration._reps.__wrapped__(n)
        got[n], made[n], searched[n] = len(calls), sum(kids), len(searches)
    assert made == CHILDREN_PER_ORBIT
    assert sum(made.values()) == 85023
    assert got == CANONICAL_FORM_CALLS
    assert searched == SEARCH_CALLS


def unit_list(n):
    """The parents on n - 1 vertices as row tuples, and their units."""
    parents = enumeration._reps(n - 1)[0]
    return parents, enumeration._units(parents)


def cut(units, w):
    """units cut into w contiguous runs, as _reps cuts them."""
    return [units[len(units) * k // w:len(units) * (k + 1) // w] for k in range(w)]


def run_parents(run):
    """The parent indices of a run, in the order _children yields them."""
    return [x for i, j, _, _ in run for x in ((i,) if i == j else (i, j))]


@pytest.mark.parametrize("n", range(3, 8))
def test_children_match_reference(n):
    parents, units = unit_list(n)
    want = list(reference_children(n, [Graph(n - 1, p) for p in parents]))
    # (a) in runs of units, merged back into class order
    for w in (1, 2, 3):
        got = [None] * len(parents)
        for run in cut(units, w):
            for i, forms in zip(run_parents(run), enumeration._children(n, parents, run)):
                got[i] = forms
        assert got == want, w
    # (b) every parent a unit of its own, so every parent takes the direct path
    own = [(i, i, None, _aut_generators(p, _search(p))) for i, p in enumerate(parents)]
    assert list(enumeration._children(n, parents, own)) == want


def test_units_pair_each_parent_with_its_complement():
    for n in range(1, 9):
        parents, units = unit_list(n)
        # every parent in exactly one unit, the units in class order of i
        assert sorted(run_parents(units)) == list(range(len(parents)))
        firsts = [i for i, _, _, _ in units]
        assert firsts == sorted(set(firsts))
        for i, j, lam, _ in units:
            assert i <= j
            p, q = Graph(n - 1, parents[i]), Graph(n - 1, parents[j])
            assert q == canonical_form(complement(p))
            # lam maps parents[j] onto complement(parents[i]): parents[j]'s
            # vertex k is its vertex lam[k]
            assert induced_subgraph(complement(p), lam) == q


def test_unit_generators_generate_the_parent_group():
    # read off complement(P)'s search, they generate Aut(complement P) = Aut(P)
    for n in range(1, 9):
        parents, units = unit_list(n)
        for i, _, _, gens in units:
            want = set(reference_automorphisms(Graph(n - 1, parents[i])))
            assert generated_group(gens, n - 1) == want, (n, i)


def no_fork():
    raise OSError("no fork")


def test_groups_keep_partners_together(monkeypatch):
    # every fork fails, so this process takes every run _reps cuts, and
    # _children only records them
    monkeypatch.setattr(os, "fork", no_fork)
    seen = []

    def record(n, parents, units):
        seen.append(units)
        return [[] for _ in run_parents(units)]

    monkeypatch.setattr(enumeration, "_children", record)
    for n in (6, 7, 8):
        parents, units = unit_list(n)
        for w in (1, 2, 3):
            monkeypatch.setattr(enumeration, "_cpus", lambda: w)
            seen.clear()
            enumeration._reps.__wrapped__(n)
            # whole units, in class order of their first parent
            assert seen == cut(units, min(w, len(parents) // enumeration._MIN_RUN))
            if w == 2:
                assert [len(run_parents(run)) for run in seen] == {
                    6: [17, 17], 7: [78, 78], 8: [522, 522]}[n]


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


def split_children(monkeypatch, helper_run):
    """Run helper_run(lists, units) in place of _children in forked
    helpers; return the list of the units of this process's own
    _children calls."""
    main, mine = os.getpid(), []
    children = enumeration._children

    def wrapper(n, parents, units):
        if os.getpid() != main:
            return helper_run(children(n, parents, units), units)
        mine.append(units)
        return children(n, parents, units)

    monkeypatch.setattr(enumeration, "_children", wrapper)
    return mine


def unit_runs(n, w):
    """The runs of units _reps(n) makes with w runs."""
    return cut(unit_list(n)[1], w)


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("w", [1, 2, 3])
def test_reps_same_for_any_number_of_slices(monkeypatch, forks, n, w):
    monkeypatch.setattr(enumeration, "_cpus", lambda: w)
    classes, up = enumeration._reps.__wrapped__(n)
    assert_no_helper_left()
    assert len(forks) == w - 1
    assert class_digest(Graph(n, c) for c in classes) == CLASS_SEQUENCE_SHA256[n]
    assert up == enumeration._reps(n)[1]


def test_reps_small_levels_stay_in_process(monkeypatch, forks):
    # 11 parents on 4 vertices make one group; 34 on 5 make two
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

    monkeypatch.setattr(os, "fork", no_fork)
    mine = split_children(monkeypatch, lambda lists, units: lists)
    assert enumeration._reps.__wrapped__(7) == enumeration._reps(7)
    assert mine == unit_runs(7, 2)


def test_reps_recomputes_a_slice_whose_pipe_fails(monkeypatch, forks):
    # out of file descriptors, os.pipe raises before any fork is tried
    monkeypatch.setattr(enumeration, "_cpus", lambda: 2)

    def no_pipe():
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(os, "pipe", no_pipe)
    assert enumeration._reps.__wrapped__(7) == enumeration._reps(7)
    assert forks == []
    assert_no_helper_left()


def test_reps_recomputes_the_slice_of_a_failed_helper(monkeypatch, forks):
    monkeypatch.setattr(enumeration, "_cpus", lambda: 2)

    def crash(lists, units):
        os._exit(3)

    mine = split_children(monkeypatch, crash)
    assert enumeration._reps.__wrapped__(7) == enumeration._reps(7)
    assert_no_helper_left()
    assert len(forks) == 1
    assert mine == unit_runs(7, 2)


def test_reps_recomputes_the_slice_of_a_truncated_blob(monkeypatch, forks):
    monkeypatch.setattr(enumeration, "_cpus", lambda: 2)
    # the helper writes its parents' forms but the last's, and exits 0
    mine = split_children(
        monkeypatch, lambda lists, units: itertools.islice(lists, len(run_parents(units)) - 1))
    assert enumeration._reps.__wrapped__(7) == enumeration._reps(7)
    assert_no_helper_left()
    assert len(forks) == 1
    assert mine == unit_runs(7, 2)


def test_reps_reaps_its_helpers_when_it_raises(monkeypatch, forks):
    monkeypatch.setattr(enumeration, "_cpus", lambda: 3)
    main, children = os.getpid(), enumeration._children

    def wrapper(n, parents, units):
        if os.getpid() == main:
            raise KeyboardInterrupt
        return children(n, parents, units)

    monkeypatch.setattr(enumeration, "_children", wrapper)
    with pytest.raises(KeyboardInterrupt):
        enumeration._reps.__wrapped__(8)
    assert len(forks) == 2
    assert_no_helper_left()


def test_spans_take_exactly_their_parents():
    parents, units = unit_list(6)
    want = list(enumeration._children(6, parents, units[:2]))
    k = len(want)
    blob = enumeration._pack(want)
    spans = enumeration._spans(6, blob, k)
    assert [[tuple(blob[j:j + 6]) for j in range(a, b, 6)] for a, b in spans] == want
    for bad in (blob[:-1], blob[:-6], blob + b"\0", blob[:1], b""):
        assert enumeration._spans(6, bad, k) is None
    assert enumeration._spans(6, blob, k - 1) is None
    assert enumeration._spans(6, blob, k + 1) is None


def test_reps_records_every_card():
    # the classes whose up mask holds a class C are exactly the classes
    # of C's cards, each found here by deleting a vertex and canonicalizing
    for n in range(2, 8):
        classes, up = enumeration._reps(n)
        index = {rows: j for j, rows in enumerate(enumeration._reps(n - 1)[0])}
        for i, c in enumerate(classes):
            g = Graph(n, c)
            deck = {
                index[canonical_form(induced_subgraph(g, [u for u in range(n) if u != v])).rows]
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


def test_enumeration_wraps_the_rows_reps_holds():
    # _reps keeps each class as its row tuple; enumerate_nonisomorphic
    # wraps that same tuple in a Graph, in class order
    for n in range(9):
        reps = enumeration._reps(n)[0]
        got = list(enumerate_nonisomorphic(n))
        assert len(got) == len(reps) == (EXPECTED_COUNTS.get(n, 1))
        for g, rows in zip(got, reps):
            assert type(g) is Graph and g.order == n
            assert g.rows is rows


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


def test_enumeration_cap_raises_at_the_call():
    # the order is checked before any iterator is handed out
    with pytest.raises(CapacityError):
        enumerate_nonisomorphic(9)
    with pytest.raises(RangeError):
        enumerate_nonisomorphic(-1)


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


def large_patterns(k):
    """Classes on k vertices to forbid alone: the two that are each alone
    at their edge count (1 and binom(k, 2) - 1 edges), so a table with the
    wrong class marked shows it, and two drawn at random."""
    classes = list(enumerate_nonisomorphic(k))
    pats = [g for g in classes if g.edge_count in (1, binom2(k) - 1)]
    return pats + random.Random(f"single-patterns/{k}").sample(classes, 2)


def test_feasible_pairs_matches_reference_scan():
    cases = [(FamilySpec([g]), n) for k in (4, 5) for g in enumerate_nonisomorphic(k) for n in (6, 7, 8)]
    cases += [(FamilySpec([g]), n) for k in (6, 7, 8) for g in large_patterns(k) for n in range(k, 9)]
    # every order for these: {K3, E3} leaves one class on 5 vertices, C5,
    # and none on 6, so a table that gives up a level early gets n = 5 wrong
    cases += [
        (FamilySpec([parse_graph(s) for s in specs]), n)
        for specs in WIDE_GAP_FAMILIES
        for n in range(0, 9)
    ]
    for family, n in cases:
        assert feasible_pairs(family, n) == reference_feasible_pairs(family, n), (family, n)


def test_tables_read_no_level_above_an_all_bad_one(monkeypatch):
    # every graph on 6 vertices holds a triangle or an independent 3-set
    # (R(3, 3) = 6), so level 6 is all bad and levels 7 and 8 are never
    # read, nor any containment mask of their classes built
    read = []
    reps = enumeration._reps
    monkeypatch.setattr(enumeration, "_reps", lambda k: read.append(k) or reps(k))
    built = []
    containing = enumeration._containing
    containing.cache_clear()
    monkeypatch.setattr(enumeration, "_containing", lambda n, k: built.append(n) or containing(n, k))
    table = feasible_pairs(FamilySpec([complete_graph(3), empty_graph(3)]), 8)
    assert table.feasible == (False,) * (binom2(8) + 1)
    assert (table.f, table.F) == (0, binom2(8))
    assert max(read) == 6
    assert max(built) == 6


# the class counts with the one class on no vertices
CLASS_COUNTS = {0: 1, **EXPECTED_COUNTS}


def containment_agrees(n, k, sources, targets):
    """Bit c of _containing(n, k)[i] is set iff class c on n vertices
    contains class i on k, for each i in sources and each c that
    targets gives for i's mask."""
    masks = enumeration._containing(n, k)
    small, large = list(enumerate_nonisomorphic(k)), list(enumerate_nonisomorphic(n))
    for i in sources:
        for c in targets(masks[i]):
            found = iso.contains_induced(large[c], small[i]) is not None
            assert (masks[i] >> c & 1) == found, (n, k, i, c)


def test_containing_matches_the_embedding_search():
    for n in range(1, 7):
        for k in range(n):
            containment_agrees(n, k, range(CLASS_COUNTS[k]), lambda mask: range(CLASS_COUNTS[n]))
    # above, up to 20 classes with the bit set and 20 without, so both
    # kinds of error can show
    rng = random.Random("containing")
    for n in (7, 8):

        def targets(mask):
            bits = [[], []]
            for c in range(CLASS_COUNTS[n]):
                bits[mask >> c & 1].append(c)
            return [c for side in bits for c in rng.sample(side, min(20, len(side)))]

        for k in range(n):
            sources = rng.sample(range(CLASS_COUNTS[k]), min(3, CLASS_COUNTS[k]))
            containment_agrees(n, k, sources, targets)


def test_containing_holds_tuples_of_masks():
    # cached for the process, so no caller may change what later ones read
    for n in range(1, 9):
        for k in range(n):
            masks = enumeration._containing(n, k)
            assert type(masks) is tuple and len(masks) == CLASS_COUNTS[k]
            assert all(type(m) is int and 0 < m < 1 << CLASS_COUNTS[n] for m in masks)


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
    family = FamilySpec([p3_k1, k3_k1])
    table = feasible_pairs(family, 5)
    rows = list(csv.DictReader(io.StringIO(table_to_csv(table))))
    assert len(rows) == binom2(5) + 1
    assert rows[3] == {"n": "5", "m": "3", "feasible": "false"}
    assert rows[0] == {"n": "5", "m": "0", "feasible": "true"}
    # two tables: one header, then each table's rows in turn
    six = feasible_pairs(family, 6)
    text = table_to_csv(table, six)
    assert text.count("n,m,feasible") == 1
    assert text == table_to_csv(table) + table_to_csv(six).partition("\n")[2]
    both = list(csv.DictReader(io.StringIO(text)))
    assert len(both) == binom2(5) + 1 + binom2(6) + 1
    assert both[:len(rows)] == rows
    assert both[len(rows)] == {"n": "6", "m": "0", "feasible": "true"}
    # K6 has no induced P3 + K1 or K3 + K1
    assert both[-1] == {"n": "6", "m": str(binom2(6)), "feasible": "true"}


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
