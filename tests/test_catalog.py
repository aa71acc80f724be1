import random
from collections import Counter
from types import SimpleNamespace

import pytest

from polarcographs import catalog, cotrees, expressions, graphs, obstructions, polarity
from polarcographs.catalog import (
    FIG1,
    ClaimParameterError,
    UnknownClaimError,
    instantiate,
    verify_all,
    conjectured_order,
    verify_claim,
    write_claim_files,
)
from polarcographs.obstructions import (
    BoundExceededError,
    enumerate_cographs,
    mine_obstructions,
    remove_leaf,
)
from polarcographs.polarity import INF

import util
from util import (
    components_graphs,
    delete_vertex,
    has_p3_component,
    is_cluster,
    is_complete,
    lemma_failures_by_graphs,
)


def _codes(exprs):
    return {
        cotrees.canonical_code(cotrees.cotree_of(expressions.evaluate(e)))
        for e in exprs
    }


def test_instantiate_counts():
    assert len(instantiate("fig1")) == 4
    assert len(instantiate("thm2")) == 8
    assert len(instantiate("thm6", 2)) == 4
    assert len(instantiate("thm15", 2)) == 3
    assert len(instantiate("thm15", 3)) == 10
    assert len(instantiate("thm18", 3)) == 2
    assert len(instantiate("cor-type-k+1-k", 2)) == 7
    assert len(instantiate("cor-type-k-k-1", 3)) == 8
    assert len(instantiate("thm21")) == 23
    assert len(instantiate("thm22")) == 49


def test_instantiated_lists_are_isomorph_free():
    for claim, k in (("thm21", 2), ("thm22", 3), ("thm15", 3), ("fig1", None)):
        exprs = instantiate(claim, k)
        assert len(_codes(exprs)) == len(exprs)


def test_thm2_is_complement_closed():
    codes = _codes(instantiate("thm2"))
    for e in instantiate("thm2"):
        comp = graphs.complement(expressions.evaluate(e))
        assert cotrees.canonical_code(cotrees.cotree_of(comp)) in codes


def test_parameter_validation():
    with pytest.raises(ClaimParameterError):
        instantiate("thm15", 1)
    with pytest.raises(ClaimParameterError):
        instantiate("thm21", 3)
    with pytest.raises(UnknownClaimError):
        instantiate("nope", 2)


def test_verify_fig1_list(cache):
    report = verify_claim("fig1", cache=cache)
    assert report.status == "PASS"
    assert report.expected == report.actual == 4


def test_verify_detects_tampering(tmp_path, cache):
    # drop one expression: the verifier must flag the mined record as extra
    (tmp_path / "fig1.txt").write_text("\n".join(FIG1[:3]) + "\n")
    report = verify_claim("fig1", cache=cache, catalog_dir=str(tmp_path))
    assert report.status == "FAIL"
    assert len(report.extra) == 1


def test_empty_claim_file_fails_with_every_record_extra(tmp_path, cache):
    # an empty list is the file's list, never a fall-back to the built-in one
    (tmp_path / "fig1.txt").write_text("# fig1, every line removed\n")
    report = verify_claim("fig1", cache=cache, catalog_dir=str(tmp_path))
    assert (report.status, report.expected, report.actual) == ("FAIL", 0, 4)
    assert len(report.extra) == 4 and report.missing == []


def test_verify_thm17_recursion(cache):
    assert verify_claim("thm17", 2, cache=cache).status == "PASS"


def test_conjectured_order():
    assert conjectured_order(2) == 9
    assert conjectured_order(3) == 12
    assert conjectured_order(INF) == 10


def test_conjecture_reports(cache):
    for claim in ("conj1", "conj2"):
        report = verify_claim(claim, 2, cache, n_max=10)
        assert (report.claim, report.status) == (claim, "PASS")


def test_unprobed_order_bound_is_inconclusive(cache):
    for claim in ("conj1", "conj2"):
        report = verify_claim(claim, 2, cache, n_max=9)
        assert report.status == "INCONCLUSIVE"
        assert not report.passed
        assert "bound 9 does not probe" in report.notes


def test_a_zero_bound_is_mined_exactly_and_probes_nothing(cache):
    # mine_obstructions(s, k, 0) is []; nothing was probed, so not a pass
    for claim_id, k in (("thm21", None), ("conj2", 2)):
        report = verify_claim(claim_id, k, cache=cache, n_max=0)
        assert (report.bound, report.actual, report.status) == (0, 0, "INCONCLUSIVE")


def test_conjecture_reports_follow_the_registry():
    # conj1 needs k >= 2, so at k = 1 only conj2 is reported
    assert [r.claim for r in verify_all(1) if r.claim.startswith("conj")] == ["conj2"]
    with pytest.raises(ClaimParameterError):
        verify_claim("conj1", 1)


def test_uniqueness_below_the_probe_fails_only_on_two_records():
    # at order 3 no type has its record yet; that is not a failure
    report = verify_claim("conj1", 2, n_max=3)
    assert report.status == "INCONCLUSIVE"
    assert (report.missing, report.actual) == ([], 0)
    two = [SimpleNamespace(c=3, i=1, order=7, graph6=g6) for g6 in ("F????", "F???_")]
    report = verify_claim("conj1", 2, _FixedCache(two), n_max=8)
    assert report.status == "FAIL"
    assert report.missing == ["type (3,1): 2 records"]


class _FixedCache:
    def __init__(self, records):
        self.records = records

    def plan(self, keys):
        pass

    def mine(self, s, k, n_max):
        return self.records


def test_record_over_the_order_bound_fails_even_unprobed():
    over = SimpleNamespace(c=1, i=0, order=7, graph6="F????")
    for n_max in (6, 7):
        report = verify_claim("conj2", 1, _FixedCache([over]), n_max=n_max)
        assert report.status == "FAIL"
        assert report.extra == ["F????"]


def test_conjecture_probe_past_order_15_passes():
    # one record in every type (c,i) conj1 covers at k=4; the default probe,
    # order 16, is past the enumeration limit but within the mining limit
    k = 4
    records = [
        SimpleNamespace(c=c, i=i, order=9, graph6="")
        for c in range(3, k + 3)
        for i in range(1, c - 1)
    ]
    for claim in ("conj1", "conj2"):
        report = verify_claim(claim, k, cache=_FixedCache(records))
        assert report.status == "PASS" and report.bound == 16
        assert "clamped" not in report.notes


def test_thm11_fails_loudly_above_the_mining_limit(monkeypatch):
    # at k=3 thm11 mines (1,1)-obstructions to order 2m+4 = 6
    monkeypatch.setattr(obstructions, "MINING_MAX_ORDER", 5)
    with pytest.raises(BoundExceededError, match="mining bound 6 exceeds 5"):
        verify_claim("thm11", 3, catalog.MiningCache(), n_max=3)


@pytest.mark.parametrize(
    "claim, k, n_max, dropped, kept",
    [
        ("thm11", 3, 3, 3, 0),  # sums of order 8 to 10
        ("thm11", 3, 9, 1, 2),
        ("thm17", 3, 5, 9, 0),
        ("thm17", 3, 9, 6, 3),
        ("thm19", 3, 5, 6, 0),
        ("thm19", 3, 10, 1, 5),
    ],
)
def test_recursion_compares_only_graphs_within_the_bound(cache, claim, k, n_max, dropped, kept):
    report = verify_claim(claim, k, cache=cache, n_max=n_max)
    assert (report.expected, report.missing, report.extra) == (kept, [], [])
    assert report.notes.startswith(f"left out {dropped} expected graph(s) above order {n_max}")
    assert report.status == ("PASS" if kept else "INCONCLUSIVE")
    default = verify_claim(claim, k, cache=cache)
    assert default.status == "PASS" and "left out" not in default.notes


# the default bound at k = 1..10, and the bounds of
# test_recursion_compares_only_graphs_within_the_bound
@pytest.mark.parametrize("k, n_max", [(k, None) for k in range(1, 11)] + [(3, 5), (3, 9), (3, 10)])
def test_lift_checks_match_the_hand_written_ones(cache, k, n_max):
    # thm17 and thm19 as one lift check give the reports of the two loops
    # they replaced, notes included
    for claim_id, oracle in (("thm17", util.verify_thm17), ("thm19", util.verify_thm19)):
        if catalog._row(claim_id).applies_at(k):
            report = verify_claim(claim_id, k, cache=cache, n_max=n_max)
            assert report.to_json() == oracle(claim_id, k, cache, n_max).to_json()


class _AdmitsEverything:
    def admits(self, s, k):
        return True


@pytest.mark.parametrize("k", range(3, 7))
def test_a_lift_check_without_the_polar_filter_fails(monkeypatch, cache, k):
    # every (inf,k-1) source lifted, (1,k)-polar or not: more graphs are
    # built than mined, so both rows must FAIL
    for claim_id in ("thm17", "thm19"):
        verify_claim(claim_id, k, cache=cache)  # mines both levels unpatched
    unfiltered = SimpleNamespace(profile_dp=lambda t: _AdmitsEverything())
    monkeypatch.setattr(catalog, "polarity", unfiltered)
    for claim_id in ("thm17", "thm19"):
        report = verify_claim(claim_id, k, cache=cache)
        assert report.status == "FAIL" and report.missing, (claim_id, k)


@pytest.mark.parametrize("k", range(2, 11))
def test_thm11_split_reads_the_level_sum_once(cache, k):
    # the split test agrees with composing and profiling both sides of every
    # split, on every record thm11 scopes
    for r in catalog._read(cache, INF, k)[1]:
        if r.c >= 2 and r.i == 0 and not catalog._has_p3_component(r.tree):
            assert catalog._admits_thm11_split(r.tree, k) == util.admits_thm11_split(r.tree, k)


def test_thm11_split_matches_on_random_unions():
    # unions of 2-4 connected cographs, most of which have no split, at
    # their own level sum and beside it
    rng = random.Random(11)
    verdicts = Counter()
    for _ in range(300):
        sizes = [rng.randint(1, 6) for _ in range(rng.randint(2, 4))]
        comps = [util.random_cotree(rng, n, cotrees.JOIN) for n in sizes]
        t = cotrees.compose(cotrees.UNION, comps)
        levels = [catalog._min_one_k(c) for c in comps]
        near = sum(levels) - 1 if None not in levels else 3
        for k in (near - 1, near, near + 1):
            got = catalog._admits_thm11_split(t, k)
            assert got == util.admits_thm11_split(t, k)
            verdicts[got] += 1
    assert verdicts[True] and verdicts[False]


def test_a_unions_one_k_level_is_the_sum_of_its_sides():
    # a disjoint union splits into an independent set and cliques side by
    # side, so its least (1,m) level adds up, and is None when a side has none
    rng = random.Random(4000)
    nones = 0
    for _ in range(4000):
        a, b = (util.random_cotree(rng, rng.randint(1, 7)) for _ in range(2))
        la, lb = catalog._min_one_k(a), catalog._min_one_k(b)
        want = None if la is None or lb is None else la + lb
        assert catalog._min_one_k(cotrees.compose(cotrees.UNION, [a, b])) == want
        nones += want is None
    assert 0 < nones < 4000


class _PlanCache:
    """Records every (s, k, n_max) it is declared and asked to mine, and mines nothing."""

    def __init__(self):
        self.planned = set()
        self.keys = set()

    def plan(self, keys):
        self.planned.update(keys)

    def mine(self, s, k, n_max):
        self.keys.add((s, k, n_max))
        return []


@pytest.mark.parametrize("k", range(2, 13))
def test_verification_plan_stays_within_the_mining_limit(k):
    cache = _PlanCache()
    verify_all(k, cache=cache)
    assert cache.keys
    assert cache.planned == cache.keys
    assert max(n for _, _, n in cache.keys) <= obstructions.MINING_MAX_ORDER
    # one mining per (s,k): every claim on it reads the same bound
    assert len({(s, k) for s, k, _ in cache.keys}) == len(cache.keys)


def test_verification_past_the_mining_limit_fails_loudly(monkeypatch):
    # remark4 asks for (inf,13,43); the one pass checks every list of the
    # plan before it builds an algebra or enumerates a class
    algebras = []

    class Recording(polarity.TypeAlgebra):
        def __init__(self, *args):
            algebras.append(args)
            super().__init__(*args)

    walks = []
    monkeypatch.setattr(polarity, "TypeAlgebra", Recording)
    monkeypatch.setattr(
        obstructions.CographEnumerator, "_walk", lambda enum, m, trees: walks.append(m)
    )
    cache = catalog.MiningCache()
    with pytest.raises(BoundExceededError, match="mining bound 43 exceeds 40"):
        verify_all(13, cache=cache)
    assert (INF, 13, 43) in catalog._ROWS["remark4"].lists(13)
    assert algebras == [] and cache.passes == []
    assert walks == [] and cache._mined == {}


class _ReadingCache(catalog.MiningCache):
    """A mining cache that records the (s, k, n_max) of every read."""

    def __init__(self):
        super().__init__()
        self.read = []

    def mine(self, s, k, n_max):
        self.read.append((s, k, n_max))
        return super().mine(s, k, n_max)


@pytest.mark.parametrize("k", range(1, 9))
def test_each_row_declares_the_lists_it_reads(k):
    # the keys _read and _probe ask the cache for are the row's declared lists
    for n_max in (None, 7):
        cache = _ReadingCache()
        for row in catalog.CLAIMS:
            if row.applies_at(k):
                cache.read.clear()
                verify_claim(row.id, k, cache=cache, n_max=n_max)
                assert set(cache.read) == set(row.lists(k, n_max)), (row.id, k, n_max)
                assert bool(cache.read) == (row.id != "sixteen-note"), (row.id, k, n_max)


@pytest.mark.parametrize("k", range(1, 7))
def test_a_verification_runs_one_pass(k):
    cache = catalog.MiningCache()
    verify_all(k, cache=cache)
    keys = {key for row in catalog.CLAIMS if row.applies_at(k) for key in row.lists(k)}
    ((join, lists, cpu),) = cache.passes
    assert set(lists) == keys and len(lists) == len(keys)
    assert join == tuple(max(column) for column in zip(*keys))
    assert cpu > 0
    assert cache._pending == {}  # every list was read, and the pass is dropped


def test_a_read_outside_the_plan_joins_the_next_pass():
    cache = catalog.MiningCache()
    cache.plan([(INF, 2, 10), (1, INF, 10)])
    cache.plan([(INF, 2, 10)])  # declared twice, mined once
    assert len(cache.mine(INF, 3, 13)) == 49
    assert [lists for _, lists, _ in cache.passes] == [((INF, 2, 10), (1, INF, 10), (INF, 3, 13))]
    cache.plan([(INF, 2, 10), (INF, 3, 13)])  # pending or mined: not planned again
    assert len(cache.mine(INF, 2, 10)) == 23 and len(cache.mine(1, INF, 10)) == 4
    assert len(cache.passes) == 1 and cache._pending == {}
    assert len(cache.mine(INF, 0, 4)) == 1  # no plan: a pass of its own
    assert cache.passes[-1][:2] == ((INF, 0, 4), ((INF, 0, 4),))


def test_cor20_takes_p_from_each_listed_graph(tmp_path, cache):
    write_claim_files(tmp_path, 3)
    path = tmp_path / "cor20-item1.k3.txt"
    header, *lines = path.read_text().splitlines()
    assert "4K1 + K{4,4}" in lines

    report = verify_claim("cor20-item1", 3, cache=cache, catalog_dir=str(tmp_path))
    assert (report.status, report.actual, report.expected) == ("PASS", 4, 4)

    path.write_text("\n".join([header] + [x for x in lines if x != "4K1 + K{4,4}"]))
    report = verify_claim("cor20-item1", 3, cache=cache, catalog_dir=str(tmp_path))
    assert (report.status, report.actual) == ("FAIL", 3)
    assert report.missing == ["type (5,4): not listed"]

    path.write_text("\n".join([header] + lines[::-1]))
    report = verify_claim("cor20-item1", 3, cache=cache, catalog_dir=str(tmp_path))
    assert (report.status, report.actual, report.missing) == ("PASS", 4, [])


@pytest.mark.parametrize(
    "claim, n_max, status, kept, dropped",
    [
        ("thm21", 8, "PASS", 19, 4),  # the four order-9 graphs
        ("thm21", 5, "INCONCLUSIVE", 0, 23),
        ("thm2", 6, "INCONCLUSIVE", 0, 8),
    ],
)
def test_list_compares_only_graphs_within_the_bound(cache, claim, n_max, status, kept, dropped):
    report = verify_claim(claim, cache=cache, n_max=n_max)
    assert (report.status, report.expected, report.actual) == (status, kept, kept)
    assert (report.missing, report.extra) == ([], [])
    assert report.notes.startswith(f"left out {dropped} expected graph(s) above order {n_max}")
    default = verify_claim(claim, cache=cache)
    assert default.status == "PASS" and "left out" not in default.notes


@pytest.mark.parametrize(
    "n_max, status, kept, dropped",
    [
        (10, "PASS", 2, 2),  # p = 1, 2 have order 9, 10; p = 3, 4 have order 11, 12
        (6, "INCONCLUSIVE", 0, 4),
    ],
)
def test_cor20_compares_only_graphs_within_the_bound(cache, n_max, status, kept, dropped):
    report = verify_claim("cor20-item1", 3, cache=cache, n_max=n_max)
    assert (report.status, report.expected, report.actual) == (status, kept, kept)
    assert (report.missing, report.extra) == ([], [])
    assert report.notes.startswith(f"left out {dropped} expected graph(s) above order {n_max}")
    default = verify_claim("cor20-item1", 3, cache=cache)
    assert (default.status, default.expected) == ("PASS", 4)
    assert "left out" not in default.notes


def test_lemma_suites(cache):
    assert lemma_failures_by_graphs(cache.mine(INF, 2, 9), 2) == ([], [])


def test_cotree_structure_tests_match_the_graph_ones():
    # components, P3 components, clusters and cliques read from the cotree
    # agree with the same tests on the realized graph, up to order 9; the
    # cluster test also on every one-leaf deletion up to order 7
    for t in enumerate_cographs(9):
        g = cotrees.realize(t)
        comps = components_graphs(g)
        want = sorted(cotrees.canonical_code(cotrees.cotree_of(sub)) for sub in comps)
        assert sorted(cotrees.canonical_code(c) for c in catalog._components(t)) == want
        assert sorted(map(catalog._is_clique, catalog._components(t))) == sorted(
            map(is_complete, comps)
        )
        assert catalog._has_p3_component(t) == has_p3_component(g)
        assert catalog._is_cluster(t) == is_cluster(g)[0]
        if t.order <= 7:
            for index in range(t.order):
                deleted = delete_vertex(g, index)
                assert catalog._is_cluster(remove_leaf(t, index)) == is_cluster(deleted)[0]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_lemma_suites_match_the_graph_versions(k):
    # Lemmas 5 and 7 hold on the records mined to 3(k+1); every class up to
    # order 8 taken as a record fails each of them somewhere, so the graph
    # versions can fail
    assert lemma_failures_by_graphs(mine_obstructions(INF, k, conjectured_order(k)), k) == ([], [])
    records = [obstructions._record_from_tree(t, INF, k, 8) for t in enumerate_cographs(8)]
    five, seven = lemma_failures_by_graphs(records, k)
    assert five and seven


def test_to_cotree_matches_evaluate_on_every_list_claim():
    # the code and order of each expression's cotree, built with no Graph,
    # against recognizing the evaluated graph
    seen = 0
    for k in range(1, 9):
        for row in catalog.CLAIMS:
            if row.texts is None or not row.applies_at(k):
                continue
            for e in instantiate(row.id, k):
                t = expressions.to_cotree(e)
                g = expressions.evaluate(e)
                assert cotrees.canonical_code(t) == cotrees.canonical_code(cotrees.cotree_of(g))
                assert t.order == g.n
                seen += 1
    assert seen > 500


def test_verdict_json_shape(cache):
    report = verify_claim("fig1", cache=cache)
    import json

    payload = json.loads(report.to_json())
    assert payload["status"] == "PASS"
    assert payload["claim"] == "fig1"
    assert "missing" in payload and "extra" in payload


def test_claim_files_roundtrip(tmp_path, cache):
    written = write_claim_files(tmp_path, 2)
    assert written
    report = verify_claim("thm21", 2, cache=cache, catalog_dir=str(tmp_path))
    assert report.status == "PASS"


def test_missing_catalog_file_is_an_error(tmp_path, cache):
    with pytest.raises(ClaimParameterError, match="thm21.k2.txt"):
        verify_claim("thm21", 2, cache=cache, catalog_dir=str(tmp_path))
    # claims without a list read no file
    assert verify_claim("thm17", 2, cache=cache, catalog_dir=str(tmp_path)).status == "PASS"


def test_verify_all_reads_written_claim_files(tmp_path, cache):
    write_claim_files(tmp_path, 3)
    reports = verify_all(3, cache=cache, catalog_dir=str(tmp_path))
    assert len(reports) == 18 and all(r.passed for r in reports)
    (tmp_path / "thm22.k3.txt").unlink()
    with pytest.raises(ClaimParameterError, match="thm22.k3.txt"):
        verify_all(3, cache=cache, catalog_dir=str(tmp_path))


def test_each_claim_text_is_parsed_once_per_process(monkeypatch, cache):
    # two verifications parse each distinct text once, give the same
    # verdicts, and each call of _exprs gets a list of its own
    parse = expressions.parse
    calls = Counter()

    def counting(text):
        calls[text] += 1
        return parse(text)

    monkeypatch.setattr(catalog, "_PARSED", {})
    monkeypatch.setattr(expressions, "parse", counting)
    first = [r.to_json() for r in verify_all(3, cache=cache)]
    assert calls and max(calls.values()) == 1
    parsed = dict(calls)
    assert [r.to_json() for r in verify_all(3, cache=cache)] == first
    assert calls == parsed
    texts = list(FIG1)
    one, two = catalog._exprs(texts), catalog._exprs(texts)
    assert one == two == [parse(t) for t in texts] and one is not two
    assert calls == parsed


# every verify_all(4) row: (claim, status, expected, actual, missing, extra)
VERIFY_ALL_K4 = [
    ("fig1", "PASS", 4, 4, [], []),
    ("thm2", "PASS", 8, 8, [], []),
    ("remark4", "PASS", 1, 1, [], []),
    ("thm6", "PASS", 4, 4, [], []),
    ("thm15", "PASS", 13, 13, [], []),
    ("thm18", "PASS", 2, 2, [], []),
    ("cor-type-k+1-k", "PASS", 7, 7, [], []),
    ("cor-type-k-k-1", "PASS", 8, 8, [], []),
    ("cor20-item1", "PASS", 5, 5, [], []),
    ("cor20-item2", "PASS", 4, 4, [], []),
    ("cor20-item3", "PASS", 3, 3, [], []),
    ("thm11", "PASS", 9, 9, [], []),
    ("thm17", "PASS", 19, 19, [], []),
    ("thm19", "PASS", 10, 10, [], []),
    ("conj1", "PASS", 10, 10, [], []),
    ("conj2", "PASS", 0, 0, [], []),
    ("sixteen-note", "INFO", 0, 0, [], []),
]


# every verify_all(6) row; conj1 and conj2 are probed at order 22
VERIFY_ALL_K6 = [
    ("fig1", "PASS", 4, 4, [], []),
    ("thm2", "PASS", 8, 8, [], []),
    ("remark4", "PASS", 1, 1, [], []),
    ("thm6", "PASS", 4, 4, [], []),
    ("thm15", "PASS", 19, 19, [], []),
    ("thm18", "PASS", 2, 2, [], []),
    ("cor-type-k+1-k", "PASS", 7, 7, [], []),
    ("cor-type-k-k-1", "PASS", 8, 8, [], []),
    ("cor20-item1", "PASS", 7, 7, [], []),
    ("cor20-item2", "PASS", 6, 6, [], []),
    ("cor20-item3", "PASS", 5, 5, [], []),
    ("thm11", "PASS", 40, 40, [], []),
    ("thm17", "PASS", 55, 55, [], []),
    ("thm19", "PASS", 21, 21, [], []),
    ("conj1", "PASS", 21, 21, [], []),
    ("conj2", "PASS", 0, 0, [], []),
    ("sixteen-note", "INFO", 0, 0, [], []),
]


def _rows(k, cache):
    return [
        (r.claim, r.status, r.expected, r.actual, r.missing, r.extra)
        for r in verify_all(k, cache=cache)
    ]


def test_verify_all_at_k4_pins_every_row(cache):
    assert _rows(4, cache) == VERIFY_ALL_K4


def test_verify_all_at_k6_pins_every_row(cache):
    assert _rows(6, cache) == VERIFY_ALL_K6


def test_unknown_claim_raises(cache):
    with pytest.raises(UnknownClaimError):
        verify_claim("thm99", 2, cache=cache)


def test_info_claim():
    report = verify_claim("sixteen-note")
    assert report.status == "INFO" and report.passed
