import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from polarcographs import cotrees, expressions, graphs, polarity
from polarcographs.cotrees import JOIN, UNION, Cotree, MalformedCotreeError
from polarcographs.graphs import Graph
from polarcographs.polarity import INF

from util import (
    MERGES,
    ORACLE_PAIRS,
    SetTypeAlgebra,
    cap_profile,
    delete_vertex,
    deletion_profiles,
    deletions_admit_materialised,
    least_polar,
    memo_free_copy,
    merge_join,
    merge_union,
    polar_pairs,
    profile_form,
    profile_of_id,
    random_cotree,
    reduce_quadratic,
    type_of,
    unreduced_type,
)


def _graph(text):
    return expressions.evaluate(expressions.parse(text))


def test_known_profiles():
    assert polarity.profile_of_graph(Graph.path(3)).sorted_signatures() == [(1, 1), (2, 0)]
    assert polarity.profile_of_graph(Graph.empty(1)).sorted_signatures() == [(0, 1), (1, 0)]
    assert polarity.profile_of_graph(Graph.complete(3)).sorted_signatures() == [(0, 1), (3, 0)]
    assert polarity.profile_of_graph(Graph.empty(0)).sorted_signatures() == [(0, 0)]


def test_admits_with_inf():
    prof = polarity.profile_of_graph(_graph("K1 + 3K2"))
    assert not prof.admits(INF, 2)
    assert prof.admits(INF, 3)
    assert prof.admits(INF, INF)
    assert not prof.admits(0, 2)


def test_profile_is_antichain():
    rng = random.Random(17)
    for _ in range(50):
        t = random_cotree(rng, rng.randint(1, 10))
        sigs = polarity.profile_dp(t).sorted_signatures()
        for a in sigs:
            for b in sigs:
                if a != b:
                    assert not (a[0] <= b[0] and a[1] <= b[1])


def test_dp_matches_bruteforce_small():
    rng = random.Random(23)
    for _ in range(60):
        t = random_cotree(rng, rng.randint(1, 8))
        g = cotrees.realize(t)
        assert polarity.profile_dp(t).closure() == polarity.profile_bruteforce(g).closure()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_dp_matches_bruteforce_property(n, seed):
    t = random_cotree(random.Random(seed), n)
    g = cotrees.realize(t)
    assert polarity.profile_dp(t).closure() == polarity.profile_bruteforce(g).closure()


def test_complement_duality():
    # an (s,k)-partition of G is a (k,s)-partition of the complement
    rng = random.Random(31)
    for _ in range(40):
        t = random_cotree(rng, rng.randint(1, 9))
        sigs = polarity.profile_dp(t).signatures
        flipped = polarity.profile_dp(cotrees.flip_labels(t)).signatures
        assert {(k, s) for s, k in sigs} == flipped


def test_hereditary_monotonicity():
    rng = random.Random(37)
    for _ in range(30):
        t = random_cotree(rng, rng.randint(2, 9))
        g = cotrees.realize(t)
        prof = polarity.profile_of_graph(g)
        for v in range(g.n):
            sub_prof = polarity.profile_of_graph(delete_vertex(g, v)) \
                if g.n > 1 else None
            if sub_prof is None:
                continue
            for s, k in prof.signatures:
                assert sub_prof.admits(s, k)


def test_witness_reconstruction_and_validation():
    rng = random.Random(41)
    for _ in range(60):
        t = random_cotree(rng, rng.randint(1, 10))
        g = cotrees.realize(t)
        for sig in polarity.profile_dp(t).signatures:
            w = polarity.witness_for(t, sig)
            assert w.signature == sig
            assert polarity.validate_witness(g, w)


def test_witness_for_rejects_unknown_signature():
    t = cotrees.cotree_of(Graph.path(3))
    with pytest.raises(ValueError):
        polarity.witness_for(t, (9, 9))


def test_validate_witness_rejects_bad_partitions():
    g = Graph.path(3)
    w = polarity.PartitionWitness(0b011, 0b110, (1, 1))  # overlapping
    assert not polarity.validate_witness(g, w)
    w = polarity.PartitionWitness(0b001, 0b110, (2, 1))  # wrong signature
    assert not polarity.validate_witness(g, w)


def test_is_polar_verdicts():
    verdict, witness = polarity.is_polar(_graph("2K2"), 0, 2)
    assert verdict and witness.a_mask == 0
    verdict, witness = polarity.is_polar(_graph("K1 + 3K2"), INF, 2)
    assert not verdict and witness is None
    verdict, _ = polarity.is_polar(_graph("C4"), 2, 0)
    assert verdict


@pytest.mark.parametrize("s, k", [(-1, 5), (True, 3), (2, False), (1.5, 2), (1, "2")])
def test_is_polar_rejects_invalid_parameters(s, k):
    with pytest.raises(ValueError):
        polarity.is_polar(Graph.path(3), s, k)


def test_is_polar_rejects_non_cograph():
    with pytest.raises(cotrees.NotCographError):
        polarity.is_polar(Graph.path(4), 1, 1)


def test_bruteforce_order_cap():
    with pytest.raises(graphs.GraphError):
        polarity.profile_bruteforce(Graph.empty(polarity.BRUTE_FORCE_MAX_ORDER + 1))


@settings(max_examples=200, deadline=None)
@given(st.frozensets(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=30))
def test_reduce_matches_quadratic_oracle(sigs):
    assert polarity._reduce(sigs) == reduce_quadratic(sigs)


@pytest.mark.parametrize("kind", ["unary", "non-alternating"])
@pytest.mark.parametrize(
    "memoized_sibling, warm_memo",
    [
        pytest.param(False, False, id="False"),
        pytest.param(True, False, id="True"),
        pytest.param(True, True, id="warm"),
    ],
)
def test_profile_dp_rejects_malformed_node(kind, memoized_sibling, warm_memo):
    leaf = cotrees.leaf
    if kind == "unary":
        bad, good = Cotree(UNION, (leaf(),)), leaf()
    else:
        bad = Cotree(UNION, (leaf(), Cotree(UNION, (leaf(), leaf()))))
        good = Cotree(UNION, (leaf(), leaf(), leaf()))
    sibling = cotrees.cotree_of(_graph("K1 + K2"))
    if memoized_sibling:
        polarity.profile_dp(sibling)

    def around(node):
        return Cotree(JOIN, (sibling, Cotree(UNION, (leaf(), Cotree(JOIN, (leaf(), node))))))

    if warm_memo:
        # the well-formed tree of the same profiles leaves every merge that
        # the malformed one would make in the per-label memo
        polarity.profile_dp(memo_free_copy(around(good)))
    entries = sum(map(len, polarity._MERGED.values()))
    root = around(bad)
    with pytest.raises(MalformedCotreeError):
        polarity.profile_dp(root)
    assert bad._profile is None and root._profile is None
    if warm_memo:
        assert sum(map(len, polarity._MERGED.values())) == entries


def _clear_merge_memo():
    for memo in polarity._MERGED.values():
        memo.clear()


def test_merge_memo_holds_the_reduced_merges():
    from polarcographs import catalog, obstructions

    _clear_merge_memo()
    catalog.verify_all(2)
    obstructions.mine_obstructions(INF, 3, 13)
    for op, memo in polarity._MERGED.items():
        assert memo
        for (p, q), merged in memo.items():
            assert merged == polarity._reduce(MERGES[op](p, q))


def test_the_pair_rule_gives_the_one_point_of_the_merge_of_points():
    for op in (UNION, JOIN):
        for a in itertools.product(range(5), repeat=2):
            for b in itertools.product(range(5), repeat=2):
                merged = MERGES[op]({a}, {b})
                assert len(merged) <= 1, (op, a, b)
                want = next(iter(merged)) if merged else None
                assert polarity._point(op, a, b) == want, (op, a, b)


def test_the_empty_profile_passes_through_the_merge_memo():
    q = polarity.profile_dp(cotrees.cotree_of(_graph("P3 + K2"))).signatures
    entries = sum(map(len, polarity._MERGED.values()))
    for op in (UNION, JOIN):
        assert polarity._merged(op, polarity._EMPTY_SIGS, q) is q
        assert polarity._merged(op, q, polarity._EMPTY_SIGS) is q
    assert sum(map(len, polarity._MERGED.values())) == entries


def test_profiles_agree_from_a_cleared_and_a_warm_memo():
    rng = random.Random(47)
    trees = [random_cotree(rng, rng.randint(1, 12)) for _ in range(40)]
    cold = []
    for t in trees:
        _clear_merge_memo()
        cold.append(polarity.profile_dp(memo_free_copy(t)).signatures)
    for t in trees:
        polarity.profile_dp(memo_free_copy(t))
    # every tree again, on new nodes, with the merges of all of them memoized:
    # each merge is read from the memo, none is added
    entries = sum(map(len, polarity._MERGED.values()))
    warm = [polarity.profile_dp(memo_free_copy(t)).signatures for t in trees]
    assert sum(map(len, polarity._MERGED.values())) == entries
    for t, c, w in zip(trees, cold, warm):
        assert c == w == polarity.profile_bruteforce(cotrees.realize(t)).signatures


def _bruteforce_deletion_profiles(g):
    return {
        polarity.profile_bruteforce(delete_vertex(g, v)).signatures
        for v in range(g.n)
    }


def test_deletion_profiles_match_bruteforce():
    rng = random.Random(43)
    for _ in range(40):
        t = random_cotree(rng, rng.randint(1, 11))
        g = cotrees.realize(t)
        assert deletion_profiles(t) == _bruteforce_deletion_profiles(g), (
            cotrees.render(t)
        )


def test_deleted_profile_fold_matches_the_rebuilt_deletions():
    # the fold against the profile DP on remove_leaf's trees, one leaf per
    # class of identical siblings; a deleted leaf leaves the empty graph
    from polarcographs.obstructions import _deletion_leaves, enumerate_cographs, remove_leaf

    memo = {}
    for t in enumerate_cographs(9):
        rebuilt = set()
        for index in _deletion_leaves(t):
            sub = remove_leaf(t, index)
            rebuilt.add(polarity._EMPTY_SIGS if sub is None else polarity.profile_dp(sub).signatures)
        assert polarity.deleted_profiles(t, memo) == rebuilt, cotrees.render(t)
    rng = random.Random(53)
    for _ in range(40):
        t = random_cotree(rng, rng.randint(1, 11))
        assert polarity.deleted_profiles(t, {}) == deletion_profiles(t), cotrees.render(t)


def test_split_cross_check_verdicts_match_is_minimal_obstruction():
    from polarcographs import obstructions

    classes = list(obstructions.enumerate_cographs(obstructions._SPLIT_ORDER))
    memo = {}
    for s, k in ORACLE_PAIRS:
        expected = [t._code for t in classes if obstructions.is_minimal_obstruction(t, s, k)]
        assert obstructions._minimal_codes(classes, s, k, memo) == expected, (s, k)


def _stored_profiles(n_max):
    """Each distinct (profile, order) of the classes of order <= n_max."""
    from polarcographs.obstructions import enumerate_cographs

    return {(polarity.profile_dp(t).signatures, t.order) for t in enumerate_cographs(n_max)}


def test_capping_commutes_with_merges_and_complement():
    profiles = {p for p, _ in _stored_profiles(10)}
    for caps in {polarity.TypeAlgebra(s, k).caps for s, k in ORACLE_PAIRS}:
        capped = {p: cap_profile(p, caps) for p in profiles}
        swapped_caps = caps[::-1]
        for p in profiles:
            swap = frozenset((b, a) for a, b in capped[p])
            complement = frozenset((b, a) for a, b in p)
            assert swap == cap_profile(complement, swapped_caps)
            for q in profiles:
                for merge in (merge_union, merge_join):
                    assert cap_profile(merge(p, q), caps) == cap_profile(
                        merge(capped[p], capped[q]), caps
                    ), (p, q, caps, merge.__name__)


def test_caps_keep_every_verdict():
    profiles = {p for p, _ in _stored_profiles(10)}
    for s, k in ORACLE_PAIRS:
        caps = polarity.TypeAlgebra(s, k).caps
        for p in profiles:
            capped = cap_profile(p, caps)
            assert polarity._admits(capped, s, k) == polarity._admits(p, s, k), (p, s, k)


def test_pair_rule_folds_children_to_the_class_type():
    # type_of folds the children's types; the oracle caps the exact profile
    # and deletion set of each class and keeps the least polar deleted
    # profiles; a class that is neither polar nor a minimal obstruction, by
    # its exact profile and deletion set, has the sink type
    from polarcographs.obstructions import enumerate_cographs

    algebras = [(polarity.TypeAlgebra(s, k), {}, s, k) for s, k in ORACLE_PAIRS]
    for t in enumerate_cographs(10):
        prof, dels = polarity.profile_dp(t), deletion_profiles(t)
        for algebra, memo, s, k in algebras:
            i = type_of(algebra, t, memo)
            dead = not prof.admits(s, k) and not deletions_admit_materialised(t, s, k, dels)
            assert (i == algebra.sink) == dead, (cotrees.render(t), s, k)
            if dead:
                continue
            caps = algebra.caps
            capped_dels = {cap_profile(d, caps) for d in dels}
            exact = (cap_profile(prof.signatures, caps), least_polar(capped_dels, caps))
            assert profile_form(algebra, i) == exact, (cotrees.render(t), caps)


def test_least_polar_deletions_are_a_congruence_of_the_pair_rule():
    # the unreduced pair rule gives the same verdicts, and reducing its type
    # gives the algebra's, for every class of order <= 10
    from polarcographs.obstructions import enumerate_cographs

    def polar(p, s, k):
        return any(a <= s and b <= k for a, b in p)

    algebras = [(polarity.TypeAlgebra(s, k), {}, s, k) for s, k in ORACLE_PAIRS]
    memos = {algebra.caps: {} for algebra, _, _, _ in algebras}
    reduced = {}  # (caps, unreduced type) -> the reduced type
    for t in enumerate_cographs(10):
        for algebra, numbers, s, k in algebras:
            caps = algebra.caps
            typ = unreduced_type(t, caps, memos[caps])
            if (caps, typ) not in reduced:
                reduced[(caps, typ)] = (typ[0], least_polar(typ[1], caps))
            prof, dels = typ
            i = type_of(algebra, t, numbers)
            assert algebra.live[i] == polar(prof, s, k), (cotrees.render(t), s, k)
            hit = not polar(prof, s, k) and all(polar(d, s, k) for d in dels)
            assert algebra.hit[i] == hit, (cotrees.render(t), s, k)
            if algebra.live[i] or hit:
                assert profile_form(algebra, i) == reduced[(caps, typ)], (cotrees.render(t), s, k)
            else:
                assert i == algebra.sink, (cotrees.render(t), s, k)


def _mined_algebra(monkeypatch, cls, key):
    """The algebra of class ``cls`` that ``mine_obstructions(*key)`` used, and its records."""
    from polarcographs import obstructions

    algebras = []

    class Recording(cls):
        def __init__(self, *args):
            super().__init__(*args)
            algebras.append(self)

    monkeypatch.setattr(polarity, "TypeAlgebra", Recording)
    records = obstructions.mine_obstructions(*key)
    (algebra,) = algebras
    return algebra, [r.to_json() for r in records]


@pytest.mark.parametrize("key", [(INF, 4, 15), (1, 8, 15), (4, 4, 20)])
def test_polar_masks_are_the_up_set_closures(monkeypatch, key):
    # every profile a mining interns, every type it numbers, and every pair
    # it combines; (4,4,20) has wide caps, (5,5), on both sides
    algebra, _ = _mined_algebra(monkeypatch, polarity.TypeAlgebra, key)
    s, k = key[:2]
    cs, ck = caps = algebra.caps
    profiles = [profile_of_id(algebra, p) for p in range(len(algebra._points))]
    assert profiles, key
    box = [(x, y) for x in range(cs + 1) for y in range(ck + 1)]
    for prof, mask in zip(profiles, algebra._polar, strict=True):
        bits = {(x, y) for x, y in box if mask >> (x * (ck + 1) + y) & 1}
        assert bits == polar_pairs(prof, caps), (prof, caps)
        assert mask >> ((cs + 1) * (ck + 1)) == 0, (prof, caps)

    def polar(p):
        return any(a <= s and b <= k for a, b in p)

    # every type but the sink is numbered with its profile form, and is
    # live or a hit
    types = [profile_form(algebra, i) for i in range(len(algebra._keys))]
    assert types[algebra.sink] is None and not algebra.live[algebra.sink], key
    assert not algebra.hit[algebra.sink], key
    for i, typ in enumerate(types):
        if i == algebra.sink:
            continue
        prof, dels = typ
        assert algebra.live[i] == polar(prof), (prof, key)
        assert algebra.hit[i] == (not polar(prof) and all(polar(d) for d in dels)), (prof, key)
        assert algebra.live[i] or algebra.hit[i], (prof, key)
        assert least_polar(dels, caps) == dels, (dels, key)

    # combine's one greedy pass is exact only if distinct profiles have
    # distinct masks; each combined type's deletions are the least polar of
    # all its merged deleted profiles, and a pair goes to the sink exactly
    # when its merged profile and some merged deleted profile are not polar
    assert len(set(algebra._polar)) == len(algebra._polar), key
    merged, least = {}, {}  # memos of the oracle's merges and filters

    def capped(op, p, q):
        if (op, p, q) not in merged:
            merged[(op, p, q)] = cap_profile(MERGES[op](p, q), caps)
        return merged[(op, p, q)]

    combined = 0
    for op, rows in algebra._rows.items():
        for j, row in rows.items():
            p2, d2 = types[j]
            for i, out in row.items():
                p1, d1 = types[i]
                dels = {capped(op, d, p2) for d in d1} | {capped(op, p1, d) for d in d2}
                prof = capped(op, p1, p2)
                if not polar(prof) and not all(polar(d) for d in dels):
                    assert out == algebra.sink, key
                else:
                    dels = frozenset(dels)
                    if dels not in least:
                        least[dels] = least_polar(dels, caps)
                    assert types[out] == (prof, least[dels]), key
                combined += 1
    assert combined, key


@pytest.mark.parametrize(
    "key", [(INF, 4, 15), (1, 8, 15), (2, 2, 13), (4, 4, 20), (12, 12, 14)]
)
def test_point_table_algebra_matches_the_set_based_one(monkeypatch, key):
    # the same numbering, profiles, masks, verdicts and successor rows;
    # (12,12,14) has the widest caps, (13,13)
    ours, records = _mined_algebra(monkeypatch, polarity.TypeAlgebra, key)
    oracle, oracle_records = _mined_algebra(monkeypatch, SetTypeAlgebra, key)
    assert records == oracle_records, key
    assert [profile_form(ours, i) for i in range(len(ours._keys))] == oracle.types, key
    assert [profile_of_id(ours, p) for p in range(len(ours._points))] == oracle._profiles, key
    assert ours._polar == oracle._polar, key
    assert (ours.hit, ours.live) == (oracle.hit, oracle.live), key
    assert ours._rows == oracle._rows, key
    assert ours.pairs == oracle.pairs == sum(
        len(row) for rows in ours._rows.values() for row in rows.values()
    ), key


@pytest.mark.parametrize("pairs", [[(1, 1), (INF, 1), (1, INF), (INF, INF)], [(4, 4), (4, 4)]])
def test_algebras_with_equal_caps_build_equal_tables_and_types(pairs):
    # caps (2,2) and (5,5); each algebra builds its own point tables, equal
    # to those of every algebra with its caps, and two algebras of one pair
    # give the same types, type by type, on every class up to order 9
    from polarcographs.obstructions import enumerate_cographs

    def tables(algebra):
        return algebra._box, algebra._up, algebra._below, algebra._tables

    first = [polarity.TypeAlgebra(s, k) for s, k in pairs]
    second = [polarity.TypeAlgebra(s, k) for s, k in pairs]
    assert len({algebra.caps for algebra in first}) == 1
    for algebra in first[1:] + second:
        assert tables(algebra) == tables(first[0])
    classes = list(enumerate_cographs(9))
    for ours, theirs, key in zip(first, second, pairs):
        ours_memo, theirs_memo = {}, {}
        for t in classes:
            assert type_of(ours, t, ours_memo) == type_of(theirs, t, theirs_memo), key
        assert (ours._keys, ours.hit, ours.live) == (theirs._keys, theirs.hit, theirs.live), key
        assert ours._polar == theirs._polar and ours._rows == theirs._rows, key


@pytest.mark.parametrize("s, k", [(1, 1), (INF, 4), (4, 4), (INF, 10), (12, 12)])
def test_point_tables_hold_the_capped_merges_of_points(s, k):
    # caps (2,2), (2,5), (5,5), (2,11) and (13,13)
    algebra = polarity.TypeAlgebra(s, k)
    cs, ck = caps = algebra.caps
    box = [(x, y) for x in range(cs + 1) for y in range(ck + 1)]
    ups = {}  # capped profile -> its up-set mask
    for op, table in algebra._tables.items():
        assert len(table) == len(box)
        for a, entries in zip(box, table, strict=True):
            for b, mask in zip(box, entries, strict=True):
                prof = cap_profile(MERGES[op]({a}, {b}), caps)
                if prof not in ups:
                    ups[prof] = sum(1 << (x * (ck + 1) + y) for x, y in polar_pairs(prof, caps))
                assert mask == ups[prof], (op, a, b, caps)
