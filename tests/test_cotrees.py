import random

import pytest

from polarcographs import cotrees, graphs, obstructions
from polarcographs.cotrees import JOIN, UNION, Cotree
from polarcographs.graphs import Graph

from util import normalize, permute_graph, random_cotree


def test_p4_yields_certificate():
    cert = cotrees.recognize(Graph.path(4))
    assert isinstance(cert, cotrees.P4Certificate)
    assert cert.validates_against(Graph.path(4))
    with pytest.raises(cotrees.NotCographError):
        cotrees.cotree_of(Graph.path(4))


def test_is_cograph():
    assert cotrees.is_cograph(Graph.cycle(4))
    assert not cotrees.is_cograph(Graph.cycle(5))
    assert cotrees.is_cograph(Graph.complete(5))


def test_realize_roundtrip_random():
    rng = random.Random(3)
    for _ in range(100):
        t = random_cotree(rng, rng.randint(1, 10))
        g = cotrees.realize(t)
        back = cotrees.cotree_of(g)
        assert cotrees.canonical_code(back) == cotrees.canonical_code(t)


def test_recognition_gives_every_class_its_code():
    for t in obstructions.enumerate_cographs(8):
        back = cotrees.cotree_of(cotrees.realize(t))
        assert cotrees.canonical_code(back) == cotrees.canonical_code(t)


def test_recognize_preserves_vertex_ids():
    g = graphs.disjoint_union(Graph.complete(3), Graph.path(3))
    t = cotrees.cotree_of(g)
    assert cotrees.realize(t) == g


def test_canonical_code_permutation_invariant():
    rng = random.Random(5)
    for _ in range(50):
        t = random_cotree(rng, rng.randint(1, 9))
        g = cotrees.realize(t)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = permute_graph(g, perm)
        assert cotrees.canonical_code(cotrees.cotree_of(h)) == cotrees.canonical_code(t)


def test_flip_labels_is_complement():
    rng = random.Random(9)
    for _ in range(40):
        t = random_cotree(rng, rng.randint(1, 9))
        g = cotrees.realize(t)
        flipped = cotrees.flip_labels(t)
        assert cotrees.is_isomorphic(cotrees.realize(flipped), graphs.complement(g))


def test_validate_rejects_malformed():
    with pytest.raises(cotrees.MalformedCotreeError):
        cotrees.validate(Cotree(UNION, (cotrees.leaf(),)))
    nested = Cotree(UNION, (Cotree(UNION, (cotrees.leaf(), cotrees.leaf())), cotrees.leaf()))
    with pytest.raises(cotrees.MalformedCotreeError):
        cotrees.validate(nested)
    assert cotrees.validate(normalize(nested)) is None


def test_normalize_contracts_unary_and_flattens():
    inner = Cotree(JOIN, (cotrees.leaf(), cotrees.leaf()))
    t = normalize(Cotree(UNION, (Cotree(UNION, (inner, cotrees.leaf())), cotrees.leaf())))
    assert t.op == UNION and len(t.children) == 3


def test_is_isomorphic_mixed():
    assert cotrees.is_isomorphic(Graph.cycle(4), graphs.join(Graph.empty(2), Graph.empty(2)))
    assert not cotrees.is_isomorphic(Graph.cycle(4), Graph.path(4))
    # non-cographs fall back to brute force
    assert cotrees.is_isomorphic(Graph.path(4), permute_graph(Graph.path(4), [2, 0, 3, 1]))
    assert not cotrees.is_isomorphic(Graph.cycle(5), Graph.path(5))


def test_canonical_relabel_merges_isomorphs():
    a = cotrees.canonical_relabel(Graph.cycle(4))
    b = cotrees.canonical_relabel(graphs.join(Graph.empty(2), Graph.empty(2)))
    assert a == b
    assert cotrees.canonical_relabel(a) == a


def test_render_shows_structure():
    t = cotrees.cotree_of(Graph.path(3))
    assert cotrees.render(t).startswith("J(")


def test_compose_splices_same_label_parts():
    leaf = cotrees.leaf
    k2 = cotrees.compose(JOIN, [leaf(), leaf()])
    assert cotrees.compose(UNION, [k2]) is k2
    t = cotrees.compose(UNION, [cotrees.compose(UNION, [k2, leaf()]), leaf()])
    assert t.op == UNION and len(t.children) == 3
    assert cotrees.canonical_code(t) == cotrees.canonical_code(
        cotrees.cotree_of(graphs.disjoint_union(Graph.empty(2), Graph.complete(2)))
    )
