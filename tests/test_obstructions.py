import gc
import hashlib
import json
import random
import weakref

import pytest

from polarcographs import cotrees, expressions, graphs, obstructions, polarity
from polarcographs.obstructions import (
    BoundExceededError,
    CographEnumerator,
    ObstructionRecord,
    cograph_counts,
    cotree_to_expr,
    enumerate_cographs,
    is_minimal_obstruction,
    mine_obstructions,
    remove_leaf,
)
from polarcographs.polarity import INF

from util import (
    ORACLE_PAIRS,
    class_level_records,
    classify_type,
    copies_walk_add,
    delete_vertex,
    deletion_profiles,
    deletions_admit_materialised,
    induced_subgraph,
    memo_free_copy,
    minimal_by_all_deletions,
    node_building_order,
    per_base_add,
    per_class_bisect_order,
    random_cotree,
    type_of,
)

# unlabeled cograph counts, frozen from two independent enumerators
COGRAPH_COUNTS_10 = [1, 2, 4, 10, 24, 66, 180, 522, 1532, 4624]


def test_cograph_counts():
    assert cograph_counts(10) == COGRAPH_COUNTS_10


def test_enumeration_is_isomorph_free():
    seen = set()
    previous = (0, b"")
    for t in enumerate_cographs(7):
        code = cotrees.canonical_code(t)
        assert code not in seen
        seen.add(code)
        assert (t.order, code) > previous  # each order sorted by code
        previous = (t.order, code)
    assert len(seen) == sum(COGRAPH_COUNTS_10[:7])


def test_enumeration_realizes_cographs():
    for t in enumerate_cographs(5):
        g = cotrees.realize(t)
        assert cotrees.is_cograph(g)
        assert g.n == t.order


def test_enumeration_bound():
    with pytest.raises(BoundExceededError):
        enumerate_cographs(obstructions.ENUMERATION_MAX_ORDER + 1)


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if any enumerator walks an order or any type algebra is made."""

    def work(*args):
        raise AssertionError("work began")

    monkeypatch.setattr(CographEnumerator, "_walk", work)
    monkeypatch.setattr(polarity, "TypeAlgebra", work)


def test_cograph_counts_fail_before_building_anything(no_work):
    with pytest.raises(BoundExceededError, match="enumeration bound 16 exceeds 15"):
        cograph_counts(16)


BAD_PARAMETERS = [
    (lambda enum: mine_obstructions(INF, -1, 5), "k"),
    (lambda enum: mine_obstructions(-1, 2, 5), "s"),
    (lambda enum: mine_obstructions(INF, 2, -1), "n_max"),
    (lambda enum: mine_obstructions(2.5, 2, 5), "s"),
    (lambda enum: mine_obstructions(INF, True, 5), "k"),
    (lambda enum: mine_obstructions(INF, 2, 5.0), "n_max"),
    (lambda enum: enum.classes_of_order(0), "n"),
    pytest.param(lambda enum: enum.trees_of_order(0), "n", id="trees_of_order-n"),
    (lambda enum: cograph_counts(-1), "n_max"),
    (lambda enum: enumerate_cographs(3.0), "n_max"),
]


@pytest.mark.parametrize("call, name", BAD_PARAMETERS)
def test_bad_parameters_raise_before_any_work(no_work, call, name):
    # a call that walked an order or made a type algebra would raise AssertionError
    fresh = CographEnumerator()
    with pytest.raises(ValueError, match=f"^{name} must be") as raised:
        call(fresh)
    assert type(raised.value) is ValueError
    assert len(fresh.codes) == len(fresh.trees) == 1


def test_order_zero_has_no_classes_and_no_obstructions():
    assert cograph_counts(0) == [] and list(enumerate_cographs(0)) == []
    # at (0,0) the leaf is a minimal obstruction, but of order 1
    for s, k in ORACLE_PAIRS:
        assert mine_obstructions(s, k, 0) == [], (s, k)


def test_remove_leaf_matches_vertex_deletion():
    rng = random.Random(13)
    for _ in range(60):
        t = random_cotree(rng, rng.randint(2, 9))
        g = cotrees.realize(t)
        index = rng.randrange(t.order)
        pruned = remove_leaf(t, index)
        expected = delete_vertex(g, index)
        if pruned is None:
            assert g.n == 1
        else:
            assert cotrees.is_isomorphic(cotrees.realize(pruned), expected)


def test_remove_leaf_rejects_an_index_outside_the_tree():
    t = cotrees.cotree_of(graphs.Graph.path(3))
    for tree, index in ((t, -1), (t, 3), (t, 99), (cotrees.leaf(), 1)):
        with pytest.raises(IndexError):
            remove_leaf(tree, index)
    assert remove_leaf(cotrees.leaf(), 0) is None


def test_known_minimal_obstruction():
    t = cotrees.cotree_of(expressions.evaluate(expressions.parse("K1 + 3K2")))
    assert is_minimal_obstruction(t, INF, 2)
    assert not is_minimal_obstruction(t, INF, 3)
    bigger = cotrees.cotree_of(expressions.evaluate(expressions.parse("2K1 + 3K2")))
    assert not is_minimal_obstruction(bigger, INF, 2)


def test_mine_unique_cluster_obstruction():
    records = mine_obstructions(INF, 0, 4)
    assert len(records) == 1
    g = graphs.graph6_decode(records[0].graph6)
    assert cotrees.is_isomorphic(g, graphs.complement(graphs.Graph.path(3)))


def test_mine_split_obstructions():
    records = mine_obstructions(1, 1, 6)
    assert len(records) == 2
    found = {r.code for r in records}
    expected = {
        cotrees.canonical_code(cotrees.cotree_of(expressions.evaluate(expressions.parse(text))))
        for text in ("2K2", "C4")
    }
    assert found == expected


def test_records_are_sorted_and_typed():
    # at (0,0) the one record is K1: one component, and a trivial one
    for s, k, n_max in ((INF, 2, 9), (0, 0, 3)):
        records = mine_obstructions(s, k, n_max)
        assert records == sorted(records, key=lambda r: r.sort_key())
        for r in records:
            g = graphs.graph6_decode(r.graph6)
            assert (r.c, r.i) == classify_type(g)
            assert r.order == g.n
            assert r.bound == n_max
            # the expression field reproduces the graph
            e = expressions.evaluate(expressions.parse(r.expression))
            assert cotrees.is_isomorphic(e, g)


def test_records_keep_the_cotree_they_were_mined_as():
    # a record's tree gives its code, graph6 and type (c, i); the tree is in
    # neither its JSON nor its equality, so two minings give equal records
    records = mine_obstructions(INF, 3, 13)
    assert records
    for r in records:
        g = cotrees.realize(r.tree)
        assert cotrees.canonical_code(r.tree) == r.code
        assert cotrees.canonical_code(memo_free_copy(r.tree)) == r.code
        assert graphs.graph6_encode(g) == r.graph6
        assert (r.c, r.i) == obstructions.cotree_type(r.tree) == classify_type(g)
        assert "tree" not in json.loads(r.to_json())
        bare = ObstructionRecord(
            r.code, r.order, r.graph6, r.expression, r.s, r.k, r.c, r.i, r.provenance, r.bound
        )
        assert bare.tree is None
        assert bare == r and hash(bare) == hash(r) and repr(bare) == repr(r)
    again = mine_obstructions(INF, 3, 13)
    assert again == records
    assert all(a.tree is not b.tree for a, b in zip(again, records))


def test_record_graph6_is_the_realized_graphs():
    # a record's graph6 is written from its cotree's adjacency rows, with no
    # Graph built: every class up to order 9 and the records of a few minings
    trees = list(enumerate_cographs(9))
    for key in [(INF, 4, 14), (2, 2, 13), (4, 4, 20)]:
        trees.extend(r.tree for r in mine_obstructions(*key))
    for t in trees:
        record = obstructions._record_from_tree(t, INF, 4, 14)
        assert record.graph6 == graphs.graph6_encode(cotrees.realize(t)), cotrees.render(t)


def test_record_json_fields():
    record = mine_obstructions(INF, 0, 4)[0]
    payload = json.loads(record.to_json())
    assert payload["k"] == 0 and payload["s"] == "inf"
    assert set(payload) >= {"code", "graph6", "order", "c", "i", "expression", "bound"}


def test_minimality_against_random_induced_subgraphs():
    # deletion-based minimality implies every proper induced subgraph is polar
    rng = random.Random(19)
    for r in mine_obstructions(INF, 2, 9)[:8]:
        g = graphs.graph6_decode(r.graph6)
        for _ in range(10):
            size = rng.randint(1, g.n - 1)
            mask = graphs.mask_of(rng.sample(range(g.n), size))
            sub = induced_subgraph(g, mask)
            assert polarity.profile_of_graph(sub).admits(INF, 2)


def test_cotree_to_expr_roundtrip():
    rng = random.Random(29)
    for _ in range(60):
        t = random_cotree(rng, rng.randint(1, 10))
        e = cotree_to_expr(t)
        g = expressions.evaluate(e)
        assert cotrees.canonical_code(cotrees.cotree_of(g)) == cotrees.canonical_code(t)


def test_fresh_enumerator_matches_shared():
    fresh = CographEnumerator()
    counts = [len(fresh.classes_of_order(n)) for n in range(1, 7)]
    assert counts == cograph_counts(6) == COGRAPH_COUNTS_10[:6]


def test_minimality_matches_all_deletions_oracle():
    # the type's verdict against explicit deletions and against the exact
    # deletion set, and the check of one deletion per class against all of
    # them; the type is the sink exactly when the class is neither polar nor
    # a minimal obstruction
    algebras = [(polarity.TypeAlgebra(s, k), {}, s, k) for s, k in ORACLE_PAIRS]
    for t in enumerate_cographs(10):
        dels = None  # built once per class, on the first non-polar root
        for algebra, memo, s, k in algebras:
            i = type_of(algebra, t, memo)
            hit = algebra.hit[i]
            oracle = minimal_by_all_deletions(t, s, k)
            assert hit == oracle, (cotrees.render(t), s, k)
            minimal = is_minimal_obstruction(t, s, k)
            assert minimal == oracle, (cotrees.render(t), s, k)
            polar = polarity.profile_dp(t).admits(s, k)
            assert (i == algebra.sink) == (not polar and not minimal), (cotrees.render(t), s, k)
            if not polar:
                if dels is None:
                    dels = deletion_profiles(t)
                assert hit == deletions_admit_materialised(t, s, k, dels), (
                    cotrees.render(t), s, k
                )


def test_one_deletion_per_class_meets_every_deleted_class():
    # deleting a leaf of a skipped sibling gives a class that a kept leaf gives
    def codes(t, indices):
        return {cotrees.canonical_code(remove_leaf(t, index)) for index in indices}

    for t in enumerate_cographs(9):
        if t.order == 1:
            assert list(obstructions._deletion_leaves(t)) == [0]
            continue
        kept = list(obstructions._deletion_leaves(t))
        assert kept == sorted(set(kept)) and kept[-1] < t.order, cotrees.render(t)
        assert codes(t, kept) == codes(t, range(t.order)), cotrees.render(t)


def test_stored_lists_are_code_sorted_and_complements_of_each_other():
    # each order is one tuple ascending by code; its first half holds the
    # connected classes (JOIN) and its second the disconnected ones (UNION);
    # complementation maps one half onto the other, so their lengths agree and
    # one index walk builds both; the code and cotree tuples of an order agree
    # entry by entry, and are what the enumerator returns
    enum = CographEnumerator()
    enum.trees_of_order(10)
    assert enum.trees[1] == (obstructions._SHARED_LEAF,)
    stored = {id(t) for n in range(1, 11) for t in enum.trees[n]}
    for n in range(2, 11):
        trees, codes = enum.trees[n], enum.codes[n]
        assert codes == tuple(t._code for t in trees), n
        assert all(a < b for a, b in zip(codes, codes[1:])), n
        half = len(trees) // 2
        assert len(trees) == 2 * half, n
        conn, disc = trees[:half], trees[half:]
        for classes, label in zip((conn, disc), (cotrees.JOIN, cotrees.UNION)):
            assert {t.op for t in classes} == {label}
            for t in classes:
                assert all(id(child) in stored for child in t.children), cotrees.render(t)
        flipped = {cotrees.canonical_code(cotrees.flip_labels(t)) for t in conn}
        assert flipped == {t._code for t in disc}
        assert enum.trees_of_order(n) is trees
        assert enum.classes_of_order(n) is codes


def test_build_time_values_match_the_dp_and_the_oracle():
    # the enumerator sets order and code only; profiles wait for the DP
    fresh = CographEnumerator()
    fresh.classes_of_order(10)
    classes = [t for n in range(1, 11) for t in fresh.trees_of_order(n)]
    assert all(t._profile is None for t in classes if t.order > 1)  # the leaf is shared
    for t in classes:
        copy = memo_free_copy(t)
        prof = polarity.profile_dp(t).signatures
        assert prof == polarity.profile_dp(copy).signatures, cotrees.render(t)
        assert t._code == cotrees.canonical_code(copy)
        assert t._order == copy.order
        if t.order <= 8:
            expected = polarity.profile_bruteforce(cotrees.realize(t)).signatures
            assert prof == expected, cotrees.render(t)


# sha256 of code.hex() + "\n" over enumerate_cographs(12), in its order
ENUMERATED_12_DIGEST = "a8e1eecc1d4e1bf7c3be1522ba565843d933020bd2cb97746b917360d141ea8a"


def test_enumerated_codes_and_child_order_byte_for_byte():
    # realize and graph6 read children in stored order, so it must be code order
    digest = hashlib.sha256()
    for t in enumerate_cographs(12):
        digest.update((t._code.hex() + "\n").encode())
    assert digest.hexdigest() == ENUMERATED_12_DIGEST
    for t in enumerate_cographs(10):
        if t.op == cotrees.LEAF:
            continue
        codes = [child._code for child in t.children]
        assert codes == sorted(codes), cotrees.render(t)
        head = t.op.encode("ascii") + bytes((len(codes),))
        assert t._code == head + b"".join(codes), cotrees.render(t)


def test_codes_and_trees_match_the_node_building_walk_byte_for_byte():
    # the same classes from the same stored children, in the same list order;
    # the codes-only walk gives the oracle's codes, and so does a tree build
    # of orders already held as codes
    codes_first = CographEnumerator()
    codes_first.classes_of_order(12)
    assert len(codes_first.trees) == 1
    enum = CographEnumerator()
    assert enum.classes_of_order(1) == (obstructions._SHARED_LEAF._code,)
    assert enum.trees_of_order(1) == (obstructions._SHARED_LEAF,)
    for m in range(2, 13):
        want = node_building_order(enum, m)
        got = enum.trees_of_order(m)
        codes = codes_first.classes_of_order(m)
        assert len(got) == len(codes) == len(want) == A000084[m - 1], m
        assert codes == tuple(t._code for t in want), m
        for a, b in zip(got, want):
            assert (a._code, a._order, a.op) == (b._code, b._order, b.op)
            assert [id(c) for c in a.children] == [id(c) for c in b.children]
        assert codes_first.trees_of_order(m) is codes_first.trees[m]
        assert codes_first.classes_of_order(m) is codes
        assert codes == enum.codes[m]


def test_per_place_runs_match_the_per_class_bisect_oracle():
    enum = CographEnumerator()
    for m in range(2, 12):
        want = per_class_bisect_order(enum, m)
        got = enum.trees_of_order(m)
        assert len(got) == len(want) == A000084[m - 1], m
        for a, b in zip(got, want):
            assert (a._code, a._order, a.op) == (b._code, b._order, b.op)
            assert [id(c) for c in a.children] == [id(c) for c in b.children]


def test_trees_built_after_codes_give_the_enumerated_digest():
    enum = CographEnumerator()
    enum.classes_of_order(11)
    assert len(enum.trees) == 1
    digest = hashlib.sha256()
    for n in range(1, 13):
        for t in enum.trees_of_order(n):
            digest.update((t._code.hex() + "\n").encode())
    assert digest.hexdigest() == ENUMERATED_12_DIGEST


# sha256 of code.hex() + "\n" over enumerate_cographs(13), in its order,
# computed from the tree walk before the codes-only walk joined each code
ENUMERATED_13_DIGEST = "237e3223a52e7f12fb7131403d4fc67f682045af87fa05be94b8e2b0197c3a92"


def test_codes_only_through_order_13_give_the_enumerated_digest():
    # one order past the oracle comparison, with no cotree built but the leaf
    enum = CographEnumerator()
    assert [len(enum.classes_of_order(n)) for n in range(1, 14)] == list(A000084[:13])
    assert len(enum.trees) == 1
    digest = hashlib.sha256()
    for n in range(1, 14):
        for code in enum.classes_of_order(n):
            digest.update((code.hex() + "\n").encode())
    assert digest.hexdigest() == ENUMERATED_13_DIGEST


@pytest.mark.parametrize("doctor", ["drop", "swap", "replace"])
def test_a_tree_build_that_misses_the_held_codes_raises(doctor):
    # the last disconnected code dropped, the first two connected ones
    # swapped, or the last connected one replaced
    enum = CographEnumerator()
    codes = enum.classes_of_order(10)
    half = len(codes) // 2
    if doctor == "drop":
        enum.codes[10] = codes[:-1]
    elif doctor == "swap":
        enum.codes[10] = (codes[1], codes[0]) + codes[2:]
    else:
        enum.codes[10] = codes[: half - 1] + (codes[half - 1] + b"L",) + codes[half:]
    with pytest.raises(AssertionError, match="cotrees of order 10"):
        enum.trees_of_order(10)
    assert len(enum.trees) == 9


@pytest.fixture
def made(monkeypatch):
    """A weak reference to each enumerator made while the test runs."""
    refs = []

    class Recorded(CographEnumerator):
        def __init__(self):
            super().__init__()
            refs.append(weakref.ref(self))

    monkeypatch.setattr(obstructions, "CographEnumerator", Recorded)
    return refs


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: cograph_counts(12), id="cograph_counts"),
        pytest.param(lambda: mine_obstructions(INF, 4, 12), id="mine_obstructions"),
        pytest.param(lambda: list(enumerate_cographs(9)), id="enumerate_cographs"),
    ],
)
def test_a_call_given_no_enumerator_frees_the_one_it_made(made, call):
    result = call()
    assert result
    assert len(made) == 1 and made[0]() is None


def test_an_enumeration_keeps_its_enumerator_until_drained(made):
    classes = enumerate_cographs(9)
    first = next(classes)
    assert len(made) == 1 and made[0]() is not None
    rest = list(classes)
    assert made[0]() is None
    assert [first] + rest == sorted(rest + [first], key=lambda t: (t.order, t._code))
    assert len(rest) + 1 == sum(A000084[:9])


def test_a_verification_walks_each_split_order_once(monkeypatch):
    # a verification runs one pass, whose enumerator walks the cotrees of
    # each order up to the split once and builds no other codes
    from polarcographs import catalog

    walk = CographEnumerator._walk
    walks = []

    def recording(enum, m, trees):
        walks.append((enum, m, trees is not None))
        return walk(enum, m, trees)

    monkeypatch.setattr(CographEnumerator, "_walk", recording)
    cache = catalog.MiningCache()
    catalog.verify_all(3, cache=cache)
    assert len(cache.passes) == len({enum for enum, _, _ in walks}) == 1
    assert [(m, trees) for _, m, trees in walks] == [
        (m, True) for m in range(2, obstructions._SPLIT_ORDER + 1)
    ]


def test_an_order_is_held_once_and_returned_as_is():
    enum = CographEnumerator()
    for n in range(1, 10):
        codes = enum.classes_of_order(n)
        assert enum.classes_of_order(n) is codes
        trees = enum.trees_of_order(n)
        assert enum.trees_of_order(n) is trees
        assert enum.classes_of_order(n) is codes  # a tree build keeps the held codes


def test_a_build_leaves_no_generation_0_debt():
    # the new nodes go to the oldest generation, not to the caller's next
    # pass; with the collector off, no pass can clear the count before it is read
    was_enabled = gc.isenabled()
    try:
        gc.disable()
        CographEnumerator().trees_of_order(10)
        count = gc.get_count()[0]
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert count < gc.get_threshold()[0]


def test_a_build_keeps_the_callers_frozen_objects_frozen():
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        CographEnumerator().trees_of_order(8)
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("enabled", [True, False])
def test_build_pauses_and_restores_gc(monkeypatch, enabled):
    seen = []

    class Recording(cotrees.Cotree):
        def __new__(cls):
            seen.append(gc.isenabled())
            return super().__new__(cls)

    monkeypatch.setattr(obstructions, "Cotree", Recording)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        enum = CographEnumerator()
        enum.trees_of_order(6)
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert seen and not any(seen)
    assert [len(enum.classes_of_order(n)) for n in range(1, 7)] == COGRAPH_COUNTS_10[:6]
    # one construction per class, and no slot left for a later read to miss
    classes = [t for n in range(2, 7) for t in enum.trees_of_order(n)]
    assert len(seen) == len(classes) and all(type(t) is Recording for t in classes)
    for t in classes:
        assert all(hasattr(t, name) for name in cotrees.Cotree.__slots__), cotrees.render(t)


def test_build_restores_gc_when_it_raises(monkeypatch):
    class Failing(cotrees.Cotree):
        def __new__(cls):
            raise RuntimeError("node construction failed")

    monkeypatch.setattr(obstructions, "Cotree", Failing)
    was_enabled = gc.isenabled()
    try:
        gc.enable()
        with pytest.raises(RuntimeError):
            CographEnumerator().trees_of_order(5)
        assert gc.isenabled()
    finally:
        gc.enable() if was_enabled else gc.disable()


# OEIS A000084, unlabeled cographs of orders 1..15
A000084 = (1, 2, 4, 10, 24, 66, 180, 522, 1532, 4624, 14136, 43930, 137908, 437502, 1399068)

# sha256 of the JSONL of each mining, from the class-level miner
MINED_DIGESTS = {
    (INF, 4, 14): (84, "3232e4b6a14b8c18f51407f63d5d96f1ed09c84e3642d65f5a50bdd7638a7b19"),
    (2, 2, 13): (50, "f4ee6c3e048cdec80102860003349f4f90c239327583923225eac26b9933ad60"),
    (1, 3, 10): (13, "b07a3a306d6b8ee4b89a11601785f9fff6ee79abb96bcf93bc2c69bb8e6baeb4"),
    (0, 0, 4): (1, "5d7ed7c5b824eb5b90fa14454940174d0ab9b4fde149ecea838f2c18f97bcb1a"),
    (INF, INF, 10): (8, "3f9e7a4795bda7ffb302d9ec530f2c652ff6cfa34174085e35e6206fb257f8e2"),
}


def _jsonl(records):
    return [r.to_json() for r in records]


def test_type_mining_at_any_split_matches_class_level_mining(monkeypatch):
    # the split sets only how deep the enumerated cross-check goes
    for s, k in ORACLE_PAIRS:
        oracle = _jsonl(class_level_records(s, k, 10))
        for split in (1, 4, 8):
            monkeypatch.setattr(obstructions, "_SPLIT_ORDER", split)
            assert _jsonl(mine_obstructions(s, k, 10)) == oracle, (s, k, split)


def test_mining_at_the_smallest_orders_matches_class_level_mining():
    # K1 is a record at (0,0) only, and at order 1 no knapsack order is read
    for s, k in ORACLE_PAIRS:
        for n in (1, 2, 3):
            oracle = _jsonl(class_level_records(s, k, n))
            assert _jsonl(mine_obstructions(s, k, n)) == oracle, (s, k, n)
    assert [r.order for r in mine_obstructions(0, 0, 3)] == [1]


@pytest.mark.parametrize("key", list(MINED_DIGESTS))
def test_mined_records_match_the_pinned_digests(key):
    records = mine_obstructions(*key)
    digest = hashlib.sha256(obstructions.records_to_jsonl(records).encode()).hexdigest()
    assert (len(records), digest) == MINED_DIGESTS[key]


@pytest.mark.parametrize("s, k, n_max", [(INF, 2, 10), (2, 3, 12), (1, 4, 12), (0, 3, 12)])
def test_mined_lists_are_complement_dual(s, k, n_max):
    # G is (s,k)-polar iff its complement is (k,s)-polar, so complementing the
    # minimal (s,k)-obstructions gives the minimal (k,s)-obstructions
    records = mine_obstructions(s, k, n_max)
    flipped = [cotrees.canonical_code(cotrees.flip_labels(r.tree)) for r in records]
    dual = [r.code for r in mine_obstructions(k, s, n_max)]
    assert flipped and sorted(flipped) == sorted(dual)


# sha256 of the JSONL of each mining at the largest order the enumerator supports
LARGEST_ORDER_DIGESTS = {
    (INF, 4, 15): (85, "183474a8ffcd5752d724b7ca53f9193300714c46d41e51ff1660bd3fca961f89"),
    (1, 8, 15): (26, "3cdc2015da264770ce26d8d1ac3a62a760f63746cd98d88d8e5899b0a2e39674"),
}

# past the enumeration limit: one mining at the mining limit, one per family past 15
PAST_ENUMERATION_DIGESTS = {
    (INF, 4, 40): (85, "3901173c3dbec4f96b7975094645a47ecb0e3ed7721104c48c93d1e9cecc471c"),
    (INF, 5, 19): (143, "16cec7158cf37c320be29eef78ccbbd5a6736fe1ac33dec4b20566bc1a536200"),
    (1, 8, 20): (130, "a89b25fe7b0c72ac8d77770e541d93149f99c8d69669d34e2dbbedf873d90a51"),
}


def test_mining_at_the_largest_supported_order():
    assert obstructions.ENUMERATION_MAX_ORDER == 15
    assert obstructions.MINING_MAX_ORDER == 40
    for key, pinned in {**LARGEST_ORDER_DIGESTS, **PAST_ENUMERATION_DIGESTS}.items():
        records = mine_obstructions(*key)
        digest = hashlib.sha256(obstructions.records_to_jsonl(records).encode()).hexdigest()
        assert (len(records), digest) == pinned, key


def test_type_knapsack_counts_every_class_up_to_order_15(monkeypatch):
    assert obstructions._euler_cograph_counts(15) == list(A000084)
    nodes = obstructions._TypeKnapsack.nodes
    totals = {}

    def counting(knapsack, n):
        kept, dead = nodes(knapsack, n)
        live = knapsack.algebra.live
        assert all(live[i] or knapsack.algebra.hit[i] for i in kept)
        totals[(n, knapsack.op)] = sum(c for i, c in kept.items() if live[i]) + dead
        return kept, dead

    monkeypatch.setattr(obstructions._TypeKnapsack, "nodes", counting)
    mine_obstructions(INF, 4, 15)
    assert sorted({n for n, _ in totals}) == list(range(2, 16))
    for n in range(2, 16):
        assert totals[(n, cotrees.UNION)] == totals[(n, cotrees.JOIN)] == A000084[n - 1] // 2


def test_type_knapsack_counts_the_enumerated_classes_type_by_type(monkeypatch):
    # below the top order, a knapsack keeps each live or hit type's classes
    # and counts the rest, hits included, as not live
    nodes = obstructions._TypeKnapsack.nodes
    enum = CographEnumerator()
    for s, k in ORACLE_PAIRS:
        counted, algebras = {}, set()

        def recording(knapsack, n):
            algebras.add(knapsack.algebra)
            counted[(knapsack.op, n)] = nodes(knapsack, n)
            return counted[(knapsack.op, n)]

        monkeypatch.setattr(obstructions._TypeKnapsack, "nodes", recording)
        mine_obstructions(s, k, 9)
        (algebra,) = algebras
        memo = {}
        for n in range(2, 9):
            by_type = {cotrees.UNION: {}, cotrees.JOIN: {}}
            for t in enum.trees_of_order(n):
                i = type_of(algebra, t, memo)
                by_type[t.op][i] = by_type[t.op].get(i, 0) + 1
            for op, counts in by_type.items():
                kept = {i: c for i, c in counts.items() if algebra.live[i] or algebra.hit[i]}
                not_live = sum(c for i, c in counts.items() if not algebra.live[i])
                assert counted[(op, n)] == (kept, not_live), (s, k, n, op)


# types numbered and blocks added by both knapsacks, with only the least
# polar deleted profiles kept, and every type that is neither live nor a hit
# sent to the one sink (129 / 527 and 280 / 742 when each such type had its
# own number; 1,213 / 4,282 and 2,407 / 3,557 with every deleted profile
# kept, when the enumerated classes were typed as well)
ORDER_15_SIZES = {(INF, 4, 15): (124, 527), (1, 8, 15): (246, 742)}


@pytest.mark.parametrize("key", list(ORDER_15_SIZES))
def test_type_mining_sizes_at_order_15(monkeypatch, key):
    init = obstructions._TypeKnapsack.__init__
    knapsacks = []

    def recording(knapsack, *args):
        init(knapsack, *args)
        knapsacks.append(knapsack)

    monkeypatch.setattr(obstructions._TypeKnapsack, "__init__", recording)
    mine_obstructions(*key)
    algebra = knapsacks[0].algebra
    assert len(knapsacks) == 2 and knapsacks[1].algebra is algebra
    blocks = sum(len(knapsack.blocks) for knapsack in knapsacks)
    assert (len(algebra.hit), blocks) == ORDER_15_SIZES[key]


@pytest.mark.parametrize("key", [(INF, 4, 14), (2, 2, 13), (1, 8, 15)])
def test_folded_deaths_match_the_per_base_add(monkeypatch, key):
    # a twin knapsack on the same algebra takes each block by the per-base
    # loop; each mining adds None blocks, and (1,8,15) one of order 5, which
    # a base can take twice
    add = obstructions._TypeKnapsack.add
    twins = {}  # id(knapsack) -> (knapsack, twin)
    blocks = {None: 0, "typed": 0}

    def both(knapsack, o, i, c):
        if id(knapsack) not in twins:
            assert not knapsack.blocks
            twin = obstructions._TypeKnapsack(
                knapsack.algebra, knapsack.op, knapsack.n_max, knapsack.levels
            )
            twins[id(knapsack)] = knapsack, twin
        twin = twins[id(knapsack)][1]
        add(knapsack, o, i, c)
        per_base_add(twin, o, i, c)
        blocks[None if i is None else "typed"] += 1
        assert knapsack.blocks == twin.blocks
        assert knapsack.dead == twin.dead, (key, o, i)
        for m, (ours, theirs) in enumerate(zip(knapsack.kept, twin.kept, strict=True)):
            assert list(ours.items()) == list(theirs.items()), (key, o, i, m)

    monkeypatch.setattr(obstructions._TypeKnapsack, "add", both)
    mine_obstructions(*key)
    assert len(twins) == 2 and blocks["typed"] and blocks[None]


def _mined_tables(monkeypatch, key, add):
    """The records of one mining with ``add`` as the knapsack's, and its tables:
    per knapsack, its blocks, kept entries, dead counts and limits, then the
    algebra's successor rows, pairs and type keys."""
    init = obstructions._TypeKnapsack.__init__
    knapsacks = []

    def recording(knapsack, *args):
        init(knapsack, *args)
        knapsacks.append(knapsack)

    with monkeypatch.context() as patch:
        patch.setattr(obstructions._TypeKnapsack, "__init__", recording)
        patch.setattr(obstructions._TypeKnapsack, "add", add)
        records = mine_obstructions(*key)
    algebra = knapsacks[0].algebra
    tables = [
        (
            knapsack.blocks,
            [list(kept.items()) for kept in knapsack.kept],
            knapsack.dead,
            knapsack.limits,
        )
        for knapsack in knapsacks
    ]
    rows = {
        op: [(j, list(row.items())) for j, row in by_j.items()]
        for op, by_j in algebra._rows.items()
    }
    return records, tables, (rows, algebra.pairs, algebra._keys)


@pytest.mark.parametrize("key", [(INF, 4, 14), (2, 2, 13), (1, 8, 15), (4, 4, 20), (INF, 8, 24)])
def test_inline_first_copies_match_the_copies_walk(monkeypatch, key):
    # the walk over every copy from the first, kept as the oracle, gives the
    # same counts, back-pointers and deaths, and combines the same pairs in
    # the same order, so the algebra numbers the same types; (inf,8,24)
    # takes long chains of copies of one block
    records, tables, algebra = _mined_tables(monkeypatch, key, obstructions._TypeKnapsack.add)
    oracle = _mined_tables(monkeypatch, key, copies_walk_add)
    assert records == oracle[0]
    assert tables == oracle[1], key
    assert algebra == oracle[2], key
    pointers = (entry[1:] for _, kept, _, _ in tables for entries in kept for _, entry in entries)
    assert max(r for chain in pointers for _, _, r in chain) > 2, key


def test_mining_frees_its_tables_without_the_cyclic_collector(monkeypatch):
    # reference counting alone frees the algebra, and with it the knapsacks'
    # tables, when mining returns
    refs = []

    class Recording(polarity.TypeAlgebra):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(polarity, "TypeAlgebra", Recording)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert len(mine_obstructions(INF, 4, 14)) == 84
        assert len(refs) == 1 and refs[0]() is None
    finally:
        if was_enabled:
            gc.enable()


def test_a_pass_keeps_none_of_its_tables_once_made(monkeypatch):
    # reference counting alone frees each pass's algebra, knapsacks and
    # enumerator when the pass is made, even while a cache holds the pass
    # for a list not read yet, and when a mining returns
    from polarcographs import catalog

    refs = []

    def recorded(base):
        class Recorded(base):
            def __init__(self, *args):
                super().__init__(*args)
                refs.append(weakref.ref(self))

        return Recorded

    monkeypatch.setattr(polarity, "TypeAlgebra", recorded(polarity.TypeAlgebra))
    monkeypatch.setattr(obstructions, "_TypeKnapsack", recorded(obstructions._TypeKnapsack))
    monkeypatch.setattr(obstructions, "CographEnumerator", recorded(CographEnumerator))
    plan = [(INF, 3, 13), (INF, 2, 10)]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        one = obstructions.MiningPass(plan)
        assert len(refs) == 4 and not any(ref() for ref in refs)
        cache = catalog.MiningCache()
        cache.plan(plan)
        assert cache.mine(INF, 2, 10)
        assert list(cache._pending) == [(INF, 3, 13)]  # its pass is held, unread
        assert len(refs) == 8 and not any(ref() for ref in refs)
        assert len(mine_obstructions(INF, 4, 14)) == 84
        assert len(refs) == 12 and not any(ref() for ref in refs)
    finally:
        if was_enabled:
            gc.enable()
    assert _jsonl(one.records(INF, 3, 13)) == _jsonl(cache.mine(INF, 3, 13))


def test_a_mining_past_the_pair_limit_raises(monkeypatch):
    # (inf,4,14) fills 5,455 successor-row entries; the check runs after each block
    monkeypatch.setattr(obstructions, "MINING_MAX_PAIRS", 5_000)
    with pytest.raises(BoundExceededError, match="above the limit 5000"):
        mine_obstructions(INF, 4, 14)
    monkeypatch.setattr(obstructions, "MINING_MAX_PAIRS", 5_455)
    assert len(mine_obstructions(INF, 4, 14)) == 84


def test_a_knapsack_that_misses_a_block_fails_the_completeness_check(monkeypatch):
    add = obstructions._TypeKnapsack.add
    dropped = []

    def skipping(knapsack, o, i, c):
        if o == obstructions._SPLIT_ORDER + 1 and not dropped:
            dropped.append((o, i, c))
            return
        add(knapsack, o, i, c)

    monkeypatch.setattr(obstructions._TypeKnapsack, "add", skipping)
    with pytest.raises(AssertionError, match="the type knapsack counts"):
        mine_obstructions(INF, 4, 10)
    assert dropped


def test_a_lost_back_pointer_fails_the_expansion_count_check(monkeypatch):
    nodes = obstructions._TypeKnapsack.nodes
    lost = []

    def losing(knapsack, n):
        kept, dead = nodes(knapsack, n)
        hits = [i for i in kept if knapsack.algebra.hit[i]]
        if hits and not lost:
            lost.append(knapsack.kept[n][min(hits)].pop())  # the count stays
        return kept, dead

    monkeypatch.setattr(obstructions._TypeKnapsack, "nodes", losing)
    with pytest.raises(AssertionError, match="a hit type expands to"):
        mine_obstructions(INF, 4, 14)
    assert lost


def test_a_lost_record_fails_the_split_cross_check(monkeypatch):
    # every count check still holds: only the enumerated minimal obstructions
    # of order <= the split show that a mined cotree is missing
    expand = obstructions._expand
    dropped = []

    def dropping(knapsacks, hits):
        built = expand(knapsacks, hits)  # one list per hit, all of its order
        low = [trees for trees in built if trees[0].order <= obstructions._SPLIT_ORDER]
        dropped.append(low[-1].pop())
        return built

    monkeypatch.setattr(obstructions, "_expand", dropping)
    with pytest.raises(
        AssertionError, match=r"\(1\) are not the enumerated minimal obstructions \(2\)"
    ):
        mine_obstructions(INF, 4, 14)
    assert len(dropped) == 1


def _dropping_last_children(t, memo):
    """A mutant fold of deleted profiles: each node's last child's deletions are dropped."""
    if t.op == cotrees.LEAF:
        return frozenset({polarity._EMPTY_SIGS})
    profs = [polarity.profile_dp(kid).signatures for kid in t.children]
    out = set()
    for i, kid in enumerate(t.children[:-1]):
        rest = polarity._EMPTY_SIGS
        for prof in profs[:i] + profs[i + 1 :]:
            rest = polarity._merged(t.op, rest, prof)
        out.update(polarity._merged(t.op, rest, d) for d in _dropping_last_children(kid, memo))
    return frozenset(out)


def test_a_fold_that_drops_deletions_fails_the_split_cross_check(monkeypatch):
    # fewer deletions make classes of order <= the split read as minimal that
    # the type knapsacks rightly do not mine
    monkeypatch.setattr(polarity, "deleted_profiles", _dropping_last_children)
    with pytest.raises(AssertionError, match="enumerated minimal obstructions"):
        mine_obstructions(0, 3, 12)


def test_the_deleted_profile_memo_holds_the_split_orders_only(monkeypatch):
    from polarcographs import catalog

    minimal_codes = obstructions._minimal_codes
    memos = {}  # id -> each memo the cross-check folds into

    def recording(classes, s, k, memo):
        memos[id(memo)] = memo
        return minimal_codes(classes, s, k, memo)

    monkeypatch.setattr(obstructions, "_minimal_codes", recording)
    catalog.verify_all(3)
    (memo,) = memos.values()  # one pass, one memo for all its pairs
    assert memo
    found = 0
    for t in enumerate_cographs(obstructions._SPLIT_ORDER):
        if t._code in memo:
            found += 1
            assert memo[t._code] == deletion_profiles(t), cotrees.render(t)
    assert found == len(memo)


class MostPolarAlgebra(polarity.TypeAlgebra):
    """A mutant type algebra: ``combine`` keeps the most polar deleted profiles.

    A deleted profile is dropped when another one's polar pairs strictly
    contain its own, the reverse of the library's least polar filter.
    """

    def combine(self, op, i, j):
        row = self.row(op, j)
        out = row.get(i)
        if out is None:
            (p1, d1), (p2, d2) = self._keys[i], self._keys[j]
            dels = {self._merge(op, d, p2) for d in d1} | {self._merge(op, p1, d) for d in d2}
            polar = self._polar

            def above(e, d):  # e's polar pairs strictly contain d's
                return polar[e] != polar[d] and not polar[d] & ~polar[e]

            deleted = sum(1 << d for d in dels if not any(above(e, d) for e in dels))
            key = (self._merge(op, p1, p2), deleted)
            self.pairs += 1
            out = self._numbers.get(key)
            if out is None:
                out = self._new_type(*key)
            row[i] = out
        return out


@pytest.mark.parametrize("key", [(2, 2, 13), (1, 3, 10)])
def test_keeping_the_most_polar_deletions_fails_mining(monkeypatch, key):
    # the mutant's hits disagree with the enumerated minimal obstructions
    monkeypatch.setattr(polarity, "TypeAlgebra", MostPolarAlgebra)
    with pytest.raises(AssertionError, match="enumerated minimal obstructions"):
        mine_obstructions(*key)


def test_live_types_absorb_and_hits_have_live_children():
    # live: the class and each one-leaf deletion are polar; exhaustive at order
    # <= 10; a class with a child that is not live has the sink type, which
    # absorbs on either side of every pair
    algebras = [(polarity.TypeAlgebra(s, k), {}, s, k) for s, k in ORACLE_PAIRS]
    for t in enumerate_cographs(10):
        deleted = [remove_leaf(t, index) for index in range(t.order)]
        profiles = [polarity.profile_dp(t)] + [
            polarity.profile_dp(sub) for sub in deleted if sub is not None
        ]
        for algebra, memo, s, k in algebras:
            i = type_of(algebra, t, memo)
            live = all(p.admits(s, k) for p in profiles)
            assert algebra.live[i] == live, (cotrees.render(t), s, k)
            if t.op == cotrees.LEAF:
                continue
            kids = [type_of(algebra, child, memo) for child in t.children]
            if not all(algebra.live[j] for j in kids):
                assert i == algebra.sink, (cotrees.render(t), s, k)
            if algebra.hit[i]:
                # each child, and the fold of all children but one, is live
                assert all(algebra.live[j] for j in kids), (cotrees.render(t), s, k)
                for skip in range(len(kids)):
                    rest = algebra.empty
                    for j in kids[:skip] + kids[skip + 1 :]:
                        rest = algebra.combine(t.op, rest, j)
                    assert algebra.live[rest], (cotrees.render(t), s, k)
    for algebra, _, s, k in algebras:
        sink = algebra.sink
        assert not algebra.live[sink] and not algebra.hit[sink], (s, k)
        for op in (cotrees.UNION, cotrees.JOIN):
            for i in range(len(algebra.hit)):
                assert algebra.combine(op, i, sink) == algebra.combine(op, sink, i) == sink


# plans mined by one pass: mixed bounds; a list at the join's top order;
# (0,0), whose record is the leaf, beside (0,3); repeated keys and a key read
# below its pair's bound; a finite join, (2,3); an (inf,3) list whose order-12
# records are (inf,4)-polar at the top order; and verify_all(4)'s plan
ONE_PASS_PLANS = [
    [(INF, INF, 10), (INF, 3, 13), (1, 1, 6)],
    [(1, INF, 10), (INF, INF, 10)],
    [(0, 0, 4), (0, 3, 14)],
    [(INF, 3, 13), (INF, 2, 10), (INF, 3, 13), (INF, 3, 12)],
    [(2, 2, 13), (1, 3, 10), (0, 0, 0)],
    [(INF, 4, 10), (INF, 3, 12)],
    [(1, INF, 10), (INF, INF, 10), (INF, 4, 16), (INF, 3, 13), (1, 1, 6), (1, 2, 8)],
]


@pytest.mark.parametrize("plan", ONE_PASS_PLANS)
def test_one_pass_gives_each_list_the_records_of_its_own_mining(plan):
    # mining each list alone, with its own caps and sink, is the oracle
    one = obstructions.MiningPass(plan)
    s, k, n_max = zip(*plan)
    assert one.join == (max(s), max(k), max(n_max))
    assert one.lists == tuple(dict.fromkeys(plan))
    for key in plan:
        assert _jsonl(one.records(*key)) == _jsonl(mine_obstructions(*key)), key
    with pytest.raises(KeyError):
        one.records(max(s), max(k), max(n_max) + 1)


def test_a_pass_holds_the_pinned_records_of_each_list():
    keys = [(INF, INF, 10), (0, 0, 4), (1, 3, 10), (2, 2, 13)]
    one = obstructions.MiningPass(keys)
    for key in keys:
        jsonl = obstructions.records_to_jsonl(one.records(*key))
        digest = hashlib.sha256(jsonl.encode()).hexdigest()
        assert (jsonl.count("\n") + 1, digest) == MINED_DIGESTS[key], key


def test_a_pass_checks_every_list_before_any_work(no_work):
    with pytest.raises(BoundExceededError, match="mining bound 41 exceeds 40"):
        obstructions.MiningPass([(INF, 2, 10), (INF, 13, 41)])
    with pytest.raises(ValueError, match="k must be"):
        obstructions.MiningPass([(INF, 2, 10), (1, -1, 5)])


def test_a_hit_base_with_a_row_entry_from_a_lower_order_dies_once():
    # lists (inf,3) to order 6 and (inf,2) to order 10: a multiset of order
    # below 6 is live when (inf,3)-polar, from 6 on when (inf,2)-polar.
    # K1 + 3K2, a minimal (inf,2)-obstruction that is (inf,3)-polar, sits at
    # order 7 as a hit only, counted in dead[7]; its row entry with P3, the
    # sink (K1 + 3K2 + P3 less a leaf of P3 is K1 + 4K2), was filled where it
    # was live.  Read before its liveness, that entry would count it in
    # dead[10] a second time.
    algebra = polarity.TypeAlgebra(INF, 3, [(INF, 3), (INF, 2)])
    knapsack = obstructions._TypeKnapsack(algebra, cotrees.UNION, 10, [0] * 6 + [1] * 4 + [2])
    memo = {}
    base, p3 = (
        type_of(algebra, expressions.to_cotree(expressions.parse(text)), memo)
        for text in ("K1 + 3K2", "P3")
    )
    assert algebra.live_at[0][base] and not algebra.live_at[1][base] and algebra.hit[base] == 2
    assert algebra.combine(cotrees.UNION, base, p3) == algebra.sink
    knapsack.kept[7][base] = [1]
    knapsack.dead[7] = 1
    knapsack.add(3, p3, 1)
    assert knapsack.dead[10] == 1
    assert list(knapsack.kept[10]) == []


def test_the_top_order_counts_a_hit_that_is_polar_at_the_join_as_not_live(monkeypatch):
    # some minimal (inf,3)-obstructions of order 12 are (inf,4)-polar: at the
    # pass's top order they are kept as hits, with the live bit of the join
    # (inf,4), and counted in dead; the count check must not add them again
    nodes = obstructions._TypeKnapsack.nodes
    widened, knapsacks = [], {}

    def recording(knapsack, n):
        kept, dead = nodes(knapsack, n)
        knapsacks[knapsack.op] = knapsack
        if n == knapsack.n_max:
            widened.extend(i for i in kept if knapsack.algebra.live[i])
        return kept, dead

    monkeypatch.setattr(obstructions._TypeKnapsack, "nodes", recording)
    plan = [(INF, 4, 10), (INF, 3, 12)]
    one = obstructions.MiningPass(plan)
    assert widened and knapsacks[cotrees.UNION].levels[12] == 2  # no list reads past 12
    monkeypatch.undo()
    for key in plan:
        assert _jsonl(one.records(*key)) == _jsonl(mine_obstructions(*key)), key
