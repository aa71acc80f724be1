from types import SimpleNamespace

import pytest

from polarcographs import catalog, cotrees, expressions, graphs, obstructions
from polarcographs.catalog import (
    ClaimParameterError,
    UnknownClaimError,
    check_conjectures,
    check_lemma5,
    check_lemma7,
    instantiate,
    verify_all,
    verify_claim,
    verify_list,
    verify_recursion,
    write_claim_files,
)
from polarcographs.polarity import INF


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


def test_verify_list_fig1(cache):
    report = verify_list("fig1", cache=cache)
    assert report.status == "PASS"
    assert report.expected == report.actual == 4


def test_verify_detects_tampering(cache):
    # drop one expression: the verifier must flag the mined record as extra
    exprs = instantiate("fig1")[:3]
    report = verify_list("fig1", cache=cache, expected_exprs=exprs)
    assert report.status == "FAIL"
    assert len(report.extra) == 1


def test_verify_recursion_thm17(cache):
    assert verify_recursion("thm17", 2, cache=cache).status == "PASS"


def test_conjecture_reports(cache):
    reports = check_conjectures(2, 10, cache=cache)
    assert {r.claim for r in reports} == {"conj1", "conj2"}
    assert all(r.status == "PASS" for r in reports)


def test_unprobed_order_bound_is_inconclusive(cache):
    reports = {r.claim: r for r in check_conjectures(2, 9, cache=cache)}
    for claim in ("conj1", "conj2"):
        assert reports[claim].status == "INCONCLUSIVE"
        assert not reports[claim].passed
        assert "bound 9 does not probe" in reports[claim].notes


class _FixedCache:
    def __init__(self, records):
        self.records = records

    def mine(self, s, k, n_max):
        return self.records


def test_record_over_the_order_bound_fails_even_unprobed():
    over = SimpleNamespace(c=1, i=0, order=7, graph6="F????")
    for n_max in (6, 7):
        reports = {r.claim: r for r in check_conjectures(1, n_max, cache=_FixedCache([over]))}
        assert reports["conj2"].status == "FAIL"
        assert reports["conj2"].extra == ["F????"]


def test_clamped_conjecture_probe_is_inconclusive_and_says_so():
    # one record in every type (c,i) conj1 covers at k=4; the default probe,
    # order 16, is past the enumeration bound
    k = 4
    records = [
        SimpleNamespace(c=c, i=i, order=9, graph6="")
        for c in range(3, k + 3)
        for i in range(1, c - 1)
    ]
    for claim in ("conj1", "conj2"):
        report = verify_claim(claim, k, cache=_FixedCache(records))
        assert report.status == "INCONCLUSIVE" and report.bound == 15
        assert "probe clamped from order 16 to the enumeration bound 15" in report.notes


def test_thm11_notes_a_clamped_one_k_mining(monkeypatch):
    # at k=3 thm11 mines (1,1)-obstructions to order 2m+4 = 6; K_{2,2} has order 4
    monkeypatch.setattr(obstructions, "ENUMERATION_MAX_ORDER", 5)
    report = verify_recursion("thm11", 3, catalog.MiningCache(), n_max=3)
    assert report.status == "INCONCLUSIVE"  # n_max=3 cannot hold the sums the recursion builds
    assert report.notes == (
        "left out 3 expected graph(s) above order 3; "
        "(1,1) mining clamped from order 6 to the enumeration bound 5"
    )
    monkeypatch.setattr(obstructions, "ENUMERATION_MAX_ORDER", 3)
    report = verify_recursion("thm11", 3, catalog.MiningCache(), n_max=3)
    assert report.status == "INCONCLUSIVE" and not report.passed
    assert report.notes == (
        "left out 1 expected graph(s) above order 3; "
        "(1,1) mining clamped from order 6 to the enumeration bound 3, below the order 4 of K_{2,2}"
    )


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
    report = verify_recursion(claim, k, cache=cache, n_max=n_max)
    assert (report.expected, report.missing, report.extra) == (kept, [], [])
    assert report.notes.startswith(f"left out {dropped} expected graph(s) above order {n_max}")
    assert report.status == ("PASS" if kept else "INCONCLUSIVE")
    default = verify_recursion(claim, k, cache=cache)
    assert default.status == "PASS" and "left out" not in default.notes


def test_thm11_one_k_minings_are_unclamped_up_to_k5():
    # thm11 at k mines (1,m) for m <= k-2
    assert catalog._one_k_clamps(range(1, 4)) == ([], False)
    assert catalog._one_k_clamps([6]) == (
        ["(1,6) mining clamped from order 16 to the enumeration bound 15"],
        False,
    )


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


def test_lemma_suites(cache):
    records = cache.mine(INF, 2, 9)
    assert check_lemma5(records, 2).status == "PASS"
    assert check_lemma7(records, 2).status == "PASS"


def test_verdict_json_shape(cache):
    report = verify_list("fig1", cache=cache)
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
    ("conj1", "INCONCLUSIVE", 10, 10, [], []),
    ("conj2", "INCONCLUSIVE", 0, 0, [], []),
    ("sixteen-note", "INFO", 0, 0, [], []),
]


def test_verify_all_at_k4_pins_every_row(cache):
    rows = [
        (r.claim, r.status, r.expected, r.actual, r.missing, r.extra)
        for r in verify_all(4, cache=cache)
    ]
    assert rows == VERIFY_ALL_K4


def test_unknown_claim_raises(cache):
    with pytest.raises(UnknownClaimError):
        verify_claim("thm99", 2, cache=cache)


def test_info_claim():
    report = verify_claim("sixteen-note")
    assert report.status == "INFO" and report.passed
