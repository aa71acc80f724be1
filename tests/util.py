"""Shared test helpers: independent oracles and random generators.

Everything here deliberately avoids the library's own canonical-code and
DP machinery so it can serve as a cross-check.  The exceptions are the
differential oracles at the end, earlier versions of library code kept to
check their faster replacements against.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable

from polarcographs import catalog, cotrees, graphs, obstructions, polarity
from polarcographs.cotrees import JOIN, LEAF, UNION, Cotree
from polarcographs.polarity import INF

# every (s,k) of the grid
ORACLE_PAIRS = [(s, k) for s in (0, 1, 2, 3, math.inf) for k in (0, 1, 2, 3, math.inf)]


def cap_profile(prof, caps):
    """The reduced profile with each signature's coordinates capped at ``caps``."""
    cs, ck = caps
    return polarity._reduce((min(a, cs), min(b, ck)) for a, b in prof)


def induced_subgraph(g, vertex_mask):
    """Subgraph induced by the set bits of ``vertex_mask``, relabeled in order."""
    verts = list(graphs.bits(vertex_mask))
    index = {v: i for i, v in enumerate(verts)}
    rows = [0] * len(verts)
    for v in verts:
        for u in graphs.bits(g.rows[v] & vertex_mask):
            rows[index[v]] |= 1 << index[u]
    return graphs.Graph(len(verts), rows)


def delete_vertex(g, v):
    """G minus vertex v, the other vertices renumbered in order."""
    return induced_subgraph(g, g.full_mask() ^ (1 << v))


def components(g):
    """The connected components of g, as vertex masks ordered by least vertex."""
    return graphs.components_in(g, g.full_mask())


def classify_type(g):
    """(c, i) read from the graph's components: the oracle of ``obstructions.cotree_type``."""
    comps = components(g)
    return len(comps), sum(1 for comp in comps if comp.bit_count() == 1)


def is_cluster(g):
    """(is-cluster, component count).  A cluster is a P3-free graph."""
    k = graphs.cluster_parts_in(g, g.full_mask())
    return (k is not None), (k if k is not None else len(components(g)))


def normalize(t):
    """Flatten same-label nesting, contract unary nodes, sort children by code;
    an internal node with no children raises MalformedCotreeError."""
    if t.op == LEAF:
        return t
    return cotrees.compose(t.op, [normalize(c) for c in t.children])


def random_cotree(rng: random.Random, n, op=None):
    """A uniform-ish random normalized cotree with n leaves."""
    if n == 1:
        return cotrees.leaf()
    if op is None:
        op = rng.choice([UNION, JOIN])
    m = rng.randint(2, n)
    cuts = sorted(rng.sample(range(1, n), m - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    flipped = UNION if op == JOIN else JOIN
    kids = [random_cotree(rng, size, flipped) for size in sizes]
    return normalize(Cotree(op, kids))


def random_graph(rng: random.Random, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graphs.Graph.from_edges(n, edges)


def permute_graph(g, perm):
    """Relabeled copy: new vertex i plays the role of old vertex perm[i]."""
    edges = []
    inv = [0] * g.n
    for i, v in enumerate(perm):
        inv[v] = i
    for u, v in g.edges():
        edges.append((inv[u], inv[v]))
    return graphs.Graph.from_edges(g.n, edges)


def perm_canonical(g):
    """Minimum adjacency encoding over all vertex permutations.

    Equal outputs are exactly the isomorphic graphs; independent of cotrees.
    """
    vs = list(range(g.n))
    best = None
    for perm in itertools.permutations(vs):
        key = tuple(
            g.has_edge(perm[u], perm[v]) for u in vs for v in range(u + 1, g.n)
        )
        if best is None or key < best:
            best = key
    return (g.n, best)


def nx_p4_free_census(n_max=7):
    """Unlabeled P4-free counts for orders 1..n_max from the networkx atlas."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    counts = [0] * n_max
    for G in graph_atlas_g()[1:]:  # entry 0 is the empty placeholder
        n = G.number_of_nodes()
        if n < 1 or n > n_max:
            continue
        if not _nx_has_induced_p4(G):
            counts[n - 1] += 1
    return counts


def _nx_has_induced_p4(G):
    import networkx as nx

    for quad in itertools.combinations(G.nodes(), 4):
        H = G.subgraph(quad)
        if H.number_of_edges() != 3:
            continue
        degs = sorted(d for _, d in H.degree())
        if degs == [1, 1, 2, 2] and nx.is_connected(H):
            return True
    return False


# -- differential oracles ---------------------------------------------------------


def merge_union(p1, p2):
    """Exact signatures of a disjoint union from exact child signatures.

    The library's union merge before ``polarity._point`` wrote the pair rule
    once.  Cluster components add.  The A side survives only if one part is
    empty, or both are single independent parts that merge into one.
    """
    out = set()
    for s1, k1 in p1:
        for s2, k2 in p2:
            k = k1 + k2
            if s1 == 0:
                out.add((s2, k))
            elif s2 == 0:
                out.add((s1, k))
            elif s1 == 1 and s2 == 1:
                out.add((1, k))
    return out


def merge_join(p1, p2):
    """Dual rule: parts add; B sides must be empty or single cliques that merge."""
    out = set()
    for s1, k1 in p1:
        for s2, k2 in p2:
            s = s1 + s2
            if k1 == 0:
                out.add((s, k2))
            elif k2 == 0:
                out.add((s, k1))
            elif k1 == 1 and k2 == 1:
                out.add((s, 1))
    return out


MERGES = {UNION: merge_union, JOIN: merge_join}


def reduce_quadratic(sigs):
    """Dominance-minimal antichain, testing each signature against every kept one."""
    kept = []
    for s, k in sorted(sigs):
        if not any(s0 <= s and k0 <= k for s0, k0 in kept):
            kept.append((s, k))
    return frozenset(kept)


def minimal_by_all_deletions(t, s, k):
    """Minimality by rebuilding every one-leaf deletion and running the profile DP on it.

    ``obstructions.is_minimal_obstruction`` as it was before it checked one
    deletion per class of identical siblings.
    """
    if polarity.profile_dp(t).admits(s, k):
        return False
    for index in range(t.order):
        sub = obstructions.remove_leaf(t, index)
        if sub is not None and not polarity.profile_dp(sub).admits(s, k):
            return False
    return True


def class_level_records(s, k, n_max):
    """Mining as it was before types: every class checked one by one.

    The records of the classes of order <= n_max that
    ``minimal_by_all_deletions`` accepts, in (order, code) order.
    """
    return [
        obstructions._record_from_tree(t, s, k, n_max)
        for t in obstructions.enumerate_cographs(n_max)
        if minimal_by_all_deletions(t, s, k)
    ]


def deletion_profiles(t):
    """Set of the profiles (signature antichains) of t minus one leaf, over all leaves.

    The library's exact deletion sets before types replaced them.  A leaf's
    set is {{(0, 0)}}, the empty graph's profile, which is the identity of
    both merges.  An internal node folds its other children's profiles to the
    left (prefix) and right (suffix) of each child and merges them around
    each of that child's deletion profiles.
    """
    empty = frozenset({(0, 0)})
    if t.op == LEAF:
        return frozenset({empty})
    polarity.profile_dp(t)  # checks the shape of every node below before it is trusted
    merge = MERGES[t.op]

    def fold(p, q):
        return polarity._reduce(merge(p, q))

    profs = [polarity.profile_dp(child).signatures for child in t.children]
    prefixes = [empty]
    for prof in profs[:-1]:
        prefixes.append(fold(prefixes[-1], prof))
    suffixes = [empty] * (len(profs) + 1)
    for i in range(len(profs) - 1, 0, -1):
        suffixes[i] = fold(profs[i], suffixes[i + 1])
    out = set()
    for i, child in enumerate(t.children):
        for sub in deletion_profiles(child):
            out.add(fold(fold(prefixes[i], sub), suffixes[i + 1]))
    return frozenset(out)


def deletions_admit_materialised(t, s, k, dels=None):
    """Every one-leaf deletion polar, read from the root's full deletion set.

    ``dels`` is that set if the caller has already built it.
    """
    if dels is None:
        dels = deletion_profiles(t)
    return all(polarity._admits(sigs, s, k) for sigs in dels)


# profile forms of the empty graph's type, the identity of the pair rule, and
# the leaf's; caps are >= 2, so capping keeps both
EMPTY_TYPE = (frozenset({(0, 0)}), frozenset())
LEAF_TYPE = (frozenset({(1, 0), (0, 1)}), frozenset({frozenset({(0, 0)})}))


def type_of(algebra, t, memo):
    """The number of a cotree's type in ``algebra``: its children's types folded by
    ``combine`` from ``algebra.empty``; a leaf's is ``algebra.leaf``.

    ``memo`` maps the nodes typed so far with this algebra.
    """
    i = memo.get(t)
    if i is None:
        if t.op == LEAF:
            i = algebra.leaf
        else:
            i = algebra.empty
            for child in t.children:
                i = algebra.combine(t.op, i, type_of(algebra, child, memo))
        memo[t] = i
    return i


def profile_of_id(algebra, p):
    """The capped profile of a profile id of ``polarity.TypeAlgebra``: its minimal points."""
    box = algebra._box
    return frozenset(box[b] for b in algebra._points[p])


def profile_form(algebra, i):
    """Type number i of a ``polarity.TypeAlgebra`` in profile form.

    That is (capped profile, least polar capped deleted profiles), or None
    for ``algebra.sink``, which has no key.
    """
    if i == algebra.sink:
        return None
    p, dels = algebra._keys[i]
    return profile_of_id(algebra, p), frozenset(profile_of_id(algebra, d) for d in dels)


def unreduced_type(t, caps, memo):
    """A cotree's capped type with every capped deleted profile kept.

    The pair rule of ``polarity.TypeAlgebra.combine`` before it kept only
    the least polar deleted profiles, folded over the children from the
    leaf's type.  ``memo`` maps the nodes typed so far under these caps.
    """
    typ = memo.get(t)
    if typ is None:
        if t.op == LEAF:
            typ = LEAF_TYPE
        else:
            merge = MERGES[t.op]

            def capped(p, q):
                return cap_profile(merge(p, q), caps)

            typ = EMPTY_TYPE
            for child in t.children:
                (p1, d1), (p2, d2) = typ, unreduced_type(child, caps, memo)
                dels = [capped(d, p2) for d in d1] + [capped(p1, d) for d in d2]
                typ = (capped(p1, p2), frozenset(dels))
        memo[t] = typ
    return typ


def polar_pairs(prof, caps):
    """The up-set closure of a capped profile inside the cap box [0, cs] x [0, ck]."""
    cs, ck = caps
    return frozenset(
        (x, y)
        for x in range(cs + 1)
        for y in range(ck + 1)
        if any(a <= x and b <= y for a, b in prof)
    )


def least_polar(dels, caps):
    """The members of a set of capped profiles whose polar pairs are minimal.

    Each profile's polar pairs are its up-set closure inside the cap box
    [0, cs] x [0, ck]; a member is kept unless another member's closure is a
    proper subset of its own.  The library's type algebra keeps these by a
    test on bitmasks of polar pairs instead.
    """
    closures = {d: polar_pairs(d, caps) for d in dels}
    return frozenset(
        d for d in dels if not any(closures[e] < closures[d] for e in dels)
    )


def memo_free_copy(t):
    """A copy of a cotree made of new nodes, none carrying a memoized value."""
    if t.op == LEAF:
        return Cotree(LEAF)
    return Cotree(t.op, tuple(memo_free_copy(c) for c in t.children))


def per_base_add(knapsack, o, i, c):
    """``obstructions._TypeKnapsack.add`` before it folded deaths per base order.

    Each base that dies on some copy of the block adds its own dead count
    for that copy and every later one; the dead bases, and the live ones
    under a None block, add theirs in one loop first.
    """
    b = len(knapsack.blocks)
    knapsack.blocks.append((o, i, c))
    n_max, op, kept, dead = knapsack.n_max, knapsack.op, knapsack.kept, knapsack.dead
    algebra = knapsack.algebra
    combine, is_live, is_hit = algebra.combine, algebra.live, algebra.hit
    row = algebra.row(op, i) if i is not None else None
    weights = [math.comb(c + r - 1, r) for r in range(n_max // o + 1)]
    for m0 in range(n_max - o, -1, -1):
        top = (n_max - m0) // o
        absorbed = dead[m0]
        if i is None:  # no multiset with this block is live
            absorbed += sum(entry[0] for t0, entry in kept[m0].items() if is_live[t0])
        if absorbed:
            for r in range(1, top + 1):
                dead[m0 + r * o] += absorbed * weights[r]
        if i is None:
            continue
        for t0, base in kept[m0].items():
            if not is_live[t0]:  # a hit, counted in dead[m0]
                continue
            typ, m, count = t0, m0, base[0]
            for r in range(1, top + 1):
                nxt = row.get(typ)
                typ = combine(op, typ, i) if nxt is None else nxt
                m += o
                live = is_live[typ] and m < n_max
                if live or is_hit[typ]:
                    entry = kept[m].get(typ)
                    if entry is None:
                        entry = kept[m][typ] = [0]
                    entry[0] += count * weights[r]
                    entry.append((t0, b, r))
                if not live:  # no more copies give a live type or a hit
                    for rest in range(r, top + 1):
                        dead[m0 + rest * o] += count * weights[rest]
                    break


def copies_walk_add(knapsack, o, i, c):
    """``obstructions._TypeKnapsack.add`` before it took each base's first copy inline.

    Each base that the block's successor row does not send to ``sink`` on
    its first copy walks its copies from r = 1, and each base order gets a
    ``dying`` array, where ``dying[r]`` counts the bases whose r-th copy is
    the first that is not live; one running sum over r adds every death to
    ``dead``.
    """
    b = len(knapsack.blocks)
    knapsack.blocks.append((o, i, c))
    n_max, op, kept, dead = knapsack.n_max, knapsack.op, knapsack.kept, knapsack.dead
    algebra = knapsack.algebra
    combine, is_live, is_hit, sink = algebra.combine, algebra.live, algebra.hit, algebra.sink
    row = algebra.row(op, i) if i is not None else None
    weights = [math.comb(c + r - 1, r) for r in range(n_max // o + 1)]
    for m0 in range(n_max - o, -1, -1):
        top = (n_max - m0) // o
        dying = [0] * (top + 1)
        dying[1] = dead[m0]
        if row is None:  # no multiset with this block is live
            dying[1] += sum(base[0] for t0, base in kept[m0].items() if is_live[t0])
        else:
            for t0, base in kept[m0].items():
                nxt = row.get(t0)
                if nxt == sink:  # the first copy is neither live nor a hit
                    dying[1] += base[0]
                    continue
                if not is_live[t0]:  # a hit, counted in dead[m0]
                    continue
                count, typ, m = base[0], t0, m0
                for r in range(1, top + 1):
                    typ = combine(op, typ, i) if nxt is None else nxt
                    m += o
                    live = is_live[typ] and m < n_max
                    if live or is_hit[typ]:
                        entry = kept[m].get(typ)
                        if entry is None:
                            entry = kept[m][typ] = [0]
                        entry[0] += count * weights[r]
                        entry.append((t0, b, r))
                    if not live:  # no more copies give a live type or a hit
                        dying[r] += count
                        break
                    nxt = row.get(typ)
        carry = 0
        for r in range(1, top + 1):
            carry += dying[r]
            if carry:
                dead[m0 + r * o] += carry * weights[r]


def graph6_bitwise(g):
    """``graphs.graph6_encode`` as it was before it wrote each column as a bit string:
    one bit of the upper triangle at a time, six to a character."""
    n, rows = g.n, g.rows
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    acc = nbits = 0
    body = []
    for v in range(1, n):
        for u in range(v):
            acc = (acc << 1) | (rows[u] >> v & 1)
            nbits += 1
            if nbits == 6:
                body.append(acc + 63)
                acc = nbits = 0
    if nbits:
        body.append((acc << (6 - nbits)) + 63)
    return bytes(head + body).decode("ascii")


def _insert(parts, part):
    """(children, codes) in code order, with ``part`` inserted where its code falls."""
    kids, codes = parts
    p = bisect_right(codes, part._code)
    return kids[:p] + (part,) + kids[p:], codes[:p] + (part._code,) + codes[p:]


def _places(kids, codes, head):
    """Per place p of one more child: (kids before, after, head + codes before, after)."""
    cut = range(len(kids) + 1)
    return [(kids[:p], kids[p:], head + b"".join(codes[:p]), b"".join(codes[p:])) for p in cut]


def node_building_order(enum, m):
    """(connected, disconnected) cotrees of order m, each list sorted by code.

    ``obstructions.CographEnumerator`` as it was before codes became its
    state: one walk over index multisets builds a node for every class, and
    each insertion place's run of last parts is bisected by the nodes'
    codes.  ``enum.trees`` must hold every order below m, and the new
    classes' children are its stored cotrees.
    """
    return _node_walk_order(enum.trees, m, per_class=False)


def per_class_bisect_order(enum, m):
    """``node_building_order`` as it was before it built each insertion
    place's run of last parts at once: one bisect of the parts' codes per class."""
    return _node_walk_order(enum.trees, m, per_class=True)


def _node_walk_order(trees, m, per_class):
    conn, disc = [], []
    _node_walk_unions(trees, m, ((), ()), ((), ()), 1, 0, m, conn, disc, per_class)
    conn.sort(key=obstructions._CODE)
    disc.sort(key=obstructions._CODE)
    return conn, disc


def _node_walk_unions(
    trees, m, union_parts, join_parts, o0, i0, remaining, new_conn, new_disc, per_class
):
    for o in range(o0, remaining // 2 + 1):
        union_block, join_block = trees[o]
        for i in range(i0 if o == o0 else 0, len(union_block)):
            _node_walk_unions(
                trees,
                m,
                _insert(union_parts, union_block[i]),
                _insert(join_parts, join_block[i]),
                o,
                i,
                remaining - o,
                new_conn,
                new_disc,
                per_class,
            )
    if not union_parts[0]:
        return
    count = bytes((len(union_parts[0]) + 1,))
    start = i0 if remaining == o0 else 0
    new = Cotree.__new__

    def add(out, op, place, x):
        head, tail, code_head, code_tail = place
        t = new(Cotree)
        t.op = op
        t.children = head + (x,) + tail
        t.vertex = None
        t._code = code_head + x._code + code_tail
        t._order = m
        t._profile = None
        out.append(t)

    for op, block, (kids, codes), out in (
        (UNION, trees[remaining][0], union_parts, new_disc),
        (JOIN, trees[remaining][1], join_parts, new_conn),
    ):
        places = _places(kids, codes, op.encode("ascii") + count)
        if per_class:
            for x in block[start:]:
                add(out, op, places[bisect_right(codes, x._code)], x)
            continue
        lo, end = start, len(block)
        for p, place in enumerate(places):
            hi = end
            if p < len(codes):
                hi = bisect_left(block, codes[p], lo, end, key=obstructions._CODE)
            for x in block[lo:hi]:
                add(out, op, place, x)
            lo = hi


def _walk(g, vertex_mask, row_of):
    out = []
    remaining = vertex_mask
    while remaining:
        seed = remaining & -remaining
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in graphs.bits(frontier):
                grow |= row_of(v)
            grow &= vertex_mask & ~comp
            comp |= grow
            frontier = grow
        out.append(comp)
        remaining &= ~comp
    return out


def components_walk(g, vertex_mask):
    """``graphs.components_in`` as it was before both walks became one: the graph's rows."""
    return _walk(g, vertex_mask, lambda v: g.rows[v])


def co_components_walk(g, vertex_mask):
    """``graphs.co_components_in`` as it was: complement rows without v's own bit."""
    return _walk(g, vertex_mask, lambda v: ~g.rows[v] & ~(1 << v))


def cluster_parts_checked(g, vertex_mask):
    """``graphs.cluster_parts_in`` as it was: each component must be a clique."""
    comps = components_walk(g, vertex_mask)
    for comp in comps:
        for v in graphs.bits(comp):
            if (g.rows[v] & comp) != comp ^ (1 << v):
                return None
    return len(comps)


def multipartite_parts_joined(g, vertex_mask):
    """``graphs.multipartite_parts_in`` as it was: each co-component must be an
    independent set joined to the rest of the mask."""
    comps = co_components_walk(g, vertex_mask)
    for comp in comps:
        rest = vertex_mask & ~comp
        for v in graphs.bits(comp):
            row = g.rows[v] & vertex_mask
            if row & comp or (row & rest) != rest:
                return None
    return len(comps)


class SetTypeAlgebra:
    """``polarity.TypeAlgebra`` as it was before it merged profiles by point tables.

    Each capped profile is interned by its frozenset of signatures, a merge
    builds the signature set, caps and reduces it and hashes it back to an
    id, and a type is keyed by its profile id and the frozenset of its
    deleted-profile ids.  It counts the row entries it fills in ``pairs``,
    and numbers the empty graph's and the leaf's types first, as ``empty``
    and ``leaf``, then ``sink``, as the library's does.  ``combine`` sends
    every type that is neither live nor a hit to ``sink``, merging the
    profiles first and then the candidate deletions in ascending id order up
    to the first non-polar one, so both algebras intern the same profiles in
    the same order.  ``types`` and ``_profiles`` keep each type (None for
    ``sink``) and each capped profile in profile form.
    """

    def __init__(self, s, k):
        self.caps = cs, ck = tuple(2 if x == polarity.INF else max(x, 1) + 1 for x in (s, k))
        self.types = []
        self.hit = []
        self.live = []
        self.pairs = 0
        self._box = [(x, y) for x in range(cs + 1) for y in range(ck + 1)]
        self._bit = 1 << (min(s, cs) * (ck + 1) + min(k, ck))
        self._profiles = []
        self._profile_ids = {}
        self._polar = []
        self._sizes = []
        self._keys = []
        self._numbers = {}
        self._merged = {UNION: {}, JOIN: {}}
        self._rows = {UNION: {}, JOIN: {}}
        self.empty = self.number(EMPTY_TYPE)
        self.leaf = self.number(LEAF_TYPE)
        self.sink = len(self.types)
        self.types.append(None)
        self._keys.append(None)
        self.hit.append(False)
        self.live.append(False)

    def _profile_id(self, prof):
        p = self._profile_ids.get(prof)
        if p is None:
            p = self._profile_ids[prof] = len(self._profiles)
            self._profiles.append(prof)
            mask = 0
            for bit, (x, y) in enumerate(self._box):
                if any(a <= x and b <= y for a, b in prof):
                    mask |= 1 << bit
            self._polar.append(mask)
            self._sizes.append(mask.bit_count())
        return p

    def _number(self, key):
        i = self._numbers.get(key)
        if i is None:
            i = self._numbers[key] = len(self.types)
            p, dels = key
            profiles, polar, bit = self._profiles, self._polar, self._bit
            self._keys.append(key)
            self.types.append((profiles[p], frozenset(profiles[d] for d in dels)))
            self.hit.append(not polar[p] & bit and all(polar[d] & bit for d in dels))
            self.live.append(bool(polar[p] & bit))
        return i

    def number(self, typ):
        prof, dels = typ
        return self._number(
            (self._profile_id(prof), frozenset(self._profile_id(d) for d in dels))
        )

    def _merge(self, op, p, q):
        memo = self._merged[op]
        if (p, q) not in memo:
            profiles = self._profiles
            prof = cap_profile(MERGES[op](profiles[p], profiles[q]), self.caps)
            memo[(p, q)] = self._profile_id(prof)
        return memo[(p, q)]

    def row(self, op, j):
        row = self._rows[op].get(j)
        if row is None:
            row = self._rows[op][j] = {}
        return row

    def combine(self, op, i, j):
        row = self.row(op, j)
        out = row.get(i)
        if out is None:
            out = row[i] = self._combined(op, i, j)
            self.pairs += 1
        return out

    def _combined(self, op, i, j):
        if self.sink in (i, j):
            return self.sink
        (p1, d1), (p2, d2) = self._keys[i], self._keys[j]
        p = self._merge(op, p1, p2)
        candidates = itertools.chain(
            ((d, p2) for d in sorted(d1)), ((p1, d) for d in sorted(d2))
        )
        dels = set()
        for left, right in candidates:
            e = self._merge(op, left, right)
            if not self._polar[e] & self._bit:
                return self.sink
            dels.add(e)
        if len(dels) > 1:
            polar, least, masks = self._polar, [], []
            for d in sorted(dels, key=self._sizes.__getitem__):
                mask = polar[d]
                for kept in masks:
                    if not kept & ~mask:
                        break
                else:
                    least.append(d)
                    masks.append(mask)
            dels = least
        return self._number((p, frozenset(dels)))


def components_graphs(g):
    """The components of g as graphs: the claims' structure tests as they were
    before they read cotrees."""
    return [induced_subgraph(g, comp) for comp in components(g)]


def is_complete(g):
    return g.edge_count() == g.n * (g.n - 1) // 2


def has_p3_component(g):
    """A component is connected, so one on 3 vertices with 2 edges is P3."""
    return any(sub.n == 3 and sub.edge_count() == 2 for sub in components_graphs(g))


def lemma_failures_by_graphs(records, k):
    """(lemma5 failures, lemma7 failures) over each record's decoded graph6.

    Lemma 5: the five component-structure constraints on an (inf,k) record,
    with its type bound 0 <= i <= c-1 <= k+1.  Lemma 7: a disconnected record
    with no isolated vertex has at least two non-complete components.
    """
    five, seven = [], []
    for r in records:
        comps = components_graphs(graphs.graph6_decode(r.graph6))
        trivial = sum(1 for s in comps if s.n == 1)
        complete = [s for s in comps if is_complete(s)]
        non_complete = len(comps) - len(complete)
        if len(comps) > k + 2:
            five.append(f"{r.graph6}: more than k+2 components")
        if len(comps) - trivial < 1:
            five.append(f"{r.graph6}: no non-trivial component")
        if trivial > k + 1:
            five.append(f"{r.graph6}: more than k+1 trivial components")
        if trivial >= 1 and non_complete > 1:
            five.append(f"{r.graph6}: trivial component with >1 non-complete")
        if any(s.n > 2 for s in complete):
            five.append(f"{r.graph6}: complete component of order > 2")
        if not (0 <= r.i <= r.c - 1 <= k + 1):
            five.append(f"{r.graph6}: type bound violated")
        if r.c >= 2 and r.i == 0 and non_complete < 2:
            seven.append(r.graph6)
    return five, seven


# -- recursion-check oracles ----------------------------------------------------------
# thm17's and thm19's checks as two hand-written loops, and thm11's split test
# composing and profiling both sides of every split, as they were before
# ``catalog._verify_lift`` and the level sum read once per record.


def verify_thm17(claim_id, k, cache, n_max):
    """Type (2,1) records are exactly K1 + (K1 join H') over disconnected
    (inf,k-1)-obstructions H' that are (1,k)-polar."""
    bound, current = catalog._read(cache, INF, k, n_max)
    previous = catalog._read(cache, INF, k - 1)[1]
    expected = {}
    for r in previous:
        if r.c < 2:
            continue
        if not polarity.profile_dp(r.tree).admits(1, k):
            continue
        joined = cotrees.compose(JOIN, [catalog._K1, r.tree])
        lifted = cotrees.compose(UNION, [catalog._K1, joined])
        expected[cotrees.canonical_code(lifted)] = (lifted.order, f"K1 + K1 * ({r.expression})")
    actual = [r for r in current if (r.c, r.i) == (2, 1)]
    return catalog._compare_up_to(claim_id, k, bound, expected, actual)


def verify_thm19(claim_id, k, cache, n_max):
    """Every type (c,p) record with 1 <= p <= c-2 is K2 + (a type (c-1,p)
    record at level k-1 that is (1,k)-polar), and conversely."""
    bound, current = catalog._read(cache, INF, k, n_max)
    previous = catalog._read(cache, INF, k - 1)[1]
    expected = {}
    scoped = []
    for c in range(3, k + 3):
        for p in range(1, c - 1):
            scoped.extend(r for r in current if (r.c, r.i) == (c, p))
            for r in previous:
                if (r.c, r.i) != (c - 1, p):
                    continue
                if not polarity.profile_dp(r.tree).admits(1, k):
                    continue
                lifted = cotrees.compose(UNION, [catalog._K2, r.tree])
                expected[cotrees.canonical_code(lifted)] = (lifted.order, f"K2 + {r.expression}")
    return catalog._compare_up_to(claim_id, k, bound, expected, scoped)


def admits_thm11_split(t, k):
    """thm11's split test profiling both composed sides of every split."""
    comps = catalog._components(t)
    m = len(comps)
    if m < 2:
        return False
    for pick in range(1, 1 << (m - 1)):  # fix comps[m-1] on side 2
        h1 = cotrees.compose(UNION, [c for idx, c in enumerate(comps) if pick >> idx & 1])
        h2 = cotrees.compose(UNION, [c for idx, c in enumerate(comps) if not pick >> idx & 1])
        k1 = catalog._min_one_k(h1)
        k2 = catalog._min_one_k(h2)
        if k1 is None or k2 is None or k1 + k2 - 1 != k:
            continue
        if k1 < 1 or k2 < 1:
            continue
        if not (catalog._aitch_conditions(h1, k1) and catalog._aitch_conditions(h2, k2)):
            continue
        return True
    return False


# -- dataclass oracles --------------------------------------------------------------
# The package's value classes as they were written with dataclasses, under the
# same names so that their reprs read alike; the slots classes that replaced
# them must give the same ==, hash, repr, defaults and refusal of assignment.


@dataclass(frozen=True)
class Atom:
    kind: str  # 'K', 'P' or 'C'
    n: int


@dataclass(frozen=True)
class Biclique:
    a: int
    b: int


@dataclass(frozen=True)
class Union:
    parts: tuple


@dataclass(frozen=True)
class Join:
    parts: tuple


@dataclass(frozen=True)
class Repeat:
    count: int
    expr: object


@dataclass(frozen=True)
class Complement:
    expr: object


@dataclass(frozen=True)
class PolarProfile:
    n: int
    signatures: frozenset


@dataclass(frozen=True)
class PartitionWitness:
    a_mask: int
    b_mask: int
    signature: tuple


@dataclass(frozen=True)
class P4Certificate:
    vertices: tuple


@dataclass(frozen=True)
class ObstructionRecord:
    code: bytes
    order: int
    graph6: str
    expression: str
    s: object  # int or INF
    k: object
    c: int
    i: int
    provenance: str
    bound: int
    tree: Cotree | None = field(default=None, compare=False, repr=False)


@dataclass
class VerdictReport:
    claim: str
    k: object
    bound: object
    status: str
    expected: int = 0
    actual: int = 0
    missing: list = field(default_factory=list)
    extra: list = field(default_factory=list)
    notes: str = ""


@dataclass(frozen=True)
class Claim:
    id: str
    k_min: int | None = None
    k_only: int | None = None
    texts: Callable | None = None
    covers: Callable | None = None
    mining: tuple = (INF, None)
    compare: Callable = catalog._compare_sets
    check: Callable | None = None
