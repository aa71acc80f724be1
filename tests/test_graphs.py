import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from polarcographs import cotrees, graphs
from polarcographs.graphs import Graph

from util import (
    cluster_parts_checked,
    co_components_walk,
    components,
    components_walk,
    delete_vertex,
    graph6_bitwise,
    induced_subgraph,
    is_cluster,
    multipartite_parts_joined,
    permute_graph,
    random_cotree,
    random_graph,
)


def test_constructors():
    assert Graph.empty(3).edge_count() == 0
    assert Graph.complete(4).edge_count() == 6
    assert Graph.path(3).edge_count() == 2
    assert Graph.cycle(4).edge_count() == 4
    assert Graph.cycle(4).degree(0) == 2


def test_validation_rejects_asymmetry_and_loops():
    with pytest.raises(graphs.GraphError):
        Graph(2, [0b10, 0b00])
    with pytest.raises(graphs.GraphError):
        Graph(1, [0b1])
    with pytest.raises(graphs.GraphError):
        Graph(1, [0b10])


def test_complement_involution():
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng, rng.randint(0, 9))
        assert graphs.complement(graphs.complement(g)) == g


def test_union_and_join_counts():
    g = graphs.disjoint_union(Graph.complete(3), Graph.path(3))
    assert (g.n, g.edge_count()) == (6, 5)
    h = graphs.join(Graph.empty(2), Graph.empty(3))
    assert h.edge_count() == 6


def test_components_and_clusters():
    g = graphs.disjoint_union(Graph.complete(2), Graph.complete(3))
    assert len(components(g)) == 2
    assert is_cluster(g) == (True, 2)
    assert is_cluster(Graph.path(3))[0] is False
    assert graphs.cluster_parts_in(g, g.full_mask()) == 2
    assert graphs.cluster_parts_in(Graph.path(3), 0b111) is None
    assert graphs.cluster_parts_in(g, 0) == 0


def test_multipartite_parts():
    c4 = Graph.cycle(4)
    assert graphs.multipartite_parts_in(c4, c4.full_mask()) == 2
    assert graphs.multipartite_parts_in(Graph.path(3), 0b111) == 2  # P3 = K_{1,2}
    co_p3 = graphs.complement(Graph.path(3))
    assert graphs.multipartite_parts_in(co_p3, 0b111) is None
    assert graphs.multipartite_parts_in(Graph.complete(3), 0b111) == 3


# each function against the two-walk version it replaced
WALK_ORACLES = (
    (graphs.components_in, components_walk),
    (graphs.co_components_in, co_components_walk),
    (graphs.cluster_parts_in, cluster_parts_checked),
    (graphs.multipartite_parts_in, multipartite_parts_joined),
)


def _agree_with_the_walk_oracles(g, masks):
    for mask in masks:
        for fn, oracle in WALK_ORACLES:
            assert fn(g, mask) == oracle(g, mask), (g, mask, fn.__name__)


def test_walks_match_the_oracles_on_every_small_labeled_graph():
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            edges = [pair for bit, pair in enumerate(pairs) if chosen >> bit & 1]
            _agree_with_the_walk_oracles(Graph.from_edges(n, edges), range(1 << n))


def test_walks_match_the_oracles_on_random_graphs():
    rng = random.Random(19)
    for _ in range(150):
        n = rng.randint(1, 12)
        if rng.random() < 0.5:
            g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        else:
            perm = list(range(n))
            rng.shuffle(perm)
            g = permute_graph(cotrees.realize(random_cotree(rng, n)), perm)
        masks = [g.full_mask()] + [rng.getrandbits(n) for _ in range(30)]
        _agree_with_the_walk_oracles(g, masks)


def test_induced_and_delete():
    g = Graph.cycle(4)
    sub = induced_subgraph(g, 0b0111)
    assert (sub.n, sub.edge_count()) == (3, 2)
    assert delete_vertex(g, 0).n == 3


def test_brute_force_isomorphic():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, 6)
        perm = list(range(6))
        rng.shuffle(perm)
        assert graphs.brute_force_isomorphic(g, permute_graph(g, perm))
    assert not graphs.brute_force_isomorphic(Graph.path(4), Graph.cycle(4))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2**31 - 1))
def test_graph6_roundtrip(n, seed):
    g = random_graph(random.Random(seed), n)
    assert graphs.graph6_decode(graphs.graph6_encode(g)) == g


def test_graph6_long_form():
    g = Graph.complete(63)
    encoded = graphs.graph6_encode(g)
    assert encoded.startswith("~")
    assert graphs.graph6_decode(encoded) == g


def test_graph6_known_values():
    assert graphs.graph6_encode(Graph.empty(1)) == "@"
    assert graphs.graph6_encode(Graph.complete(2)) == "A_"


def test_graph6_columns_match_the_bitwise_encoder():
    # every order up to the largest, with the long header past 62, at several densities
    rng = random.Random(11)
    for n in range(graphs.MAX_ORDER + 1):
        for p in (0.0, 0.3, 0.7, 1.0):
            g = random_graph(rng, n, p)
            assert graphs.graph6_encode(g) == graph6_bitwise(g), (n, p)
            assert graphs.graph6_of_rows(g.n, g.rows) == graph6_bitwise(g), (n, p)


def test_to_dot_mentions_all_edges():
    dot = graphs.to_dot(Graph.path(3))
    assert "0 -- 1" in dot and "1 -- 2" in dot
