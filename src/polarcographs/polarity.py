"""(s,k)-polarity profiles via dynamic programming on cotrees.

An (s,k)-polar partition splits the vertices into A inducing a complete
multipartite graph with at most s parts and B inducing a cluster with at
most k cliques.  The DP computes, per cotree node, the antichain of *exact*
signatures (parts-of-A, cliques-of-B) achievable by some partition of the
subtree; every query then reduces to a dominance check.  ``INF`` stands for
an unbounded side.

Profiles are memoized on the nodes, so subtrees shared between trees are
solved once.  Each node's shape (at least two children, labels alternating)
is checked once, on its first profile computation, before the memo is
written; a malformed node therefore never carries a profile.

Mining above small orders works on (s,k)-types (``TypeAlgebra``): a class's
profile and its least polar one-leaf-deleted profiles, with every signature
coordinate capped at max(s,1)+1 and max(k,1)+1 (2 for an unbounded side).
The merges only add coordinates and compare them with 0 and 1, so capping
commutes with them, and whether a class is a minimal obstruction depends on
its type alone.  The merges, capping and the (s,k) test are monotone in how
polar a profile is, so the least polar deleted profiles decide whether all
of them are polar, before and after a merge.  The type of a node follows
from its children's types by one pair rule, starting from the leaf's type,
so no exact deletion set is ever built.  There are finitely many types per
(s, k), so the algebra's tables, which live as long as one mining call, do
not grow with the order.

The recurrences are checked against :func:`profile_bruteforce`, which
enumerates all bipartitions and is the authoritative oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import cotrees, graphs
from .cotrees import JOIN, LEAF, UNION, Cotree, cotree_of
from .graphs import Graph, bits

INF = math.inf

_LEAF_SIGS = frozenset({(1, 0), (0, 1)})
_EMPTY_SIGS = frozenset({(0, 0)})  # the empty graph

BRUTE_FORCE_MAX_ORDER = 20


def _reduce(sigs):
    """Dominance-minimal antichain of a signature set.

    Dropping a dominated signature is sound: lowering either count never
    shrinks the set of feasible union/join combinations, and the combined
    signature is monotone in both inputs.

    In (s, k) order a signature is dominated exactly when an earlier one
    has no larger k, so one pass with a running minimum of k suffices.
    """
    kept = []
    min_k = INF
    for s, k in sorted(sigs):
        if k < min_k:
            kept.append((s, k))
            min_k = k
    return frozenset(kept)


def _merge_union(p1, p2):
    """Exact signatures of a disjoint union from exact child signatures.

    Cluster components add.  The A side survives only if one part is empty,
    or both are single independent parts that merge into one.
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


def _merge_join(p1, p2):
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


def _node_profile(t):
    """Memoized profile of a subtree; each node's shape is checked on its first call."""
    prof = t._profile
    if prof is not None:
        return prof
    if t.op == LEAF:
        prof = _LEAF_SIGS
    else:
        cotrees.check_node(t)
        merge = _merge_union if t.op == UNION else _merge_join
        prof = _node_profile(t.children[0])
        for child in t.children[1:]:
            prof = _reduce(merge(prof, _node_profile(child)))
    t._profile = prof
    return prof


def _admits(signatures, n, s, k):
    """True iff some signature of an order-n graph is dominated by (s, k)."""
    s = n if s == INF else s
    k = n if k == INF else k
    return any(s0 <= s and k0 <= k for s0, k0 in signatures)


# -- (s,k)-types ------------------------------------------------------------------


def cap_profile(prof, caps):
    """The reduced profile with each signature's coordinates capped at ``caps``."""
    cs, ck = caps
    return _reduce((min(a, cs), min(b, ck)) for a, b in prof)


def _least_polar(profiles):
    """The least polar members of a set of capped profiles, as a frozenset.

    A member d is dropped when another member e is no more polar than d:
    every signature of e is dominated by one of d, so e's polar pairs are
    among d's.  Two distinct reduced profiles never have the same polar
    pairs, so this keeps exactly the members whose polar pairs are minimal
    under inclusion.
    """
    return frozenset(
        d
        for d in profiles
        if not any(
            e != d and all(any(a <= x and b <= y for a, b in d) for x, y in e)
            for e in profiles
        )
    )


EMPTY_TYPE = (_EMPTY_SIGS, frozenset())  # the identity of the pair rule
_LEAF_TYPE = (_LEAF_SIGS, frozenset({_EMPTY_SIGS}))  # caps are >= 2, so capping keeps it
_MERGES = {UNION: _merge_union, JOIN: _merge_join}


class TypeAlgebra:
    """The (s,k)-types met by one computation, numbered as they are first met.

    A class's type is its capped profile with the least polar of the capped
    profiles of its one-leaf deletions: a deleted profile is dropped when
    another one is polar for no (s, k) that it is not.  The merges add
    coordinates and test them against 0 and 1 only, so capping both at some
    c >= 2 commutes with union, join and dominance; ``caps`` are max(s,1)+1
    and max(k,1)+1, which keep ``s0 <= s`` exact, and 2 for an unbounded
    side.  A class is a minimal obstruction exactly when its capped profile
    is not polar and each capped deleted profile is (``hit``), which holds
    exactly when each least polar one is.  The merges and capping are
    monotone in the polar pairs, so the least polar members of a merged
    deletion set are those of the merges of the least polar members, and the
    type of a node follows from its children's types by the pair rule
    (``combine``); so both depend on the type alone.  A type is ``live``
    when its capped profile is polar; every type met is a graph's, so by
    heredity its capped deleted profiles are then polar too.  Non-live types
    absorb: if a child of a node, or the fold of some but not all of its
    children, is not polar, then neither is the node, nor the node minus a
    vertex outside that part, so the node is neither live nor a hit.  Hence
    every child of a hit, and every fold of some but not all of its
    children, is live.  The tables live as long as the algebra and are
    bounded by the number of types, which is finite for each (s, k), and by
    the nodes typed with ``of_class``.
    """

    def __init__(self, s, k):
        self.s, self.k = s, k
        self.caps = tuple(2 if x == INF else max(x, 1) + 1 for x in (s, k))
        self.types = []  # number -> (capped profile, least polar deleted profiles)
        self.hit = []  # number -> whether the type's classes are minimal obstructions
        self.live = []  # number -> whether the type's classes are polar
        self._numbers = {}
        self._merged = {}
        self._combined = {UNION: {}, JOIN: {}}
        self._of_node = {}

    def number(self, typ):
        """The number of a type, giving it the next one if it is new."""
        i = self._numbers.get(typ)
        if i is None:
            i = self._numbers[typ] = len(self.types)
            self.types.append(typ)
            s, k = self.s, self.k
            prof, dels = typ
            polar = [any(a <= s and b <= k for a, b in p) for p in (prof, *dels)]
            self.hit.append(not polar[0] and all(polar[1:]))
            self.live.append(polar[0])
        return i

    def of_class(self, t):
        """The number of a cotree's type: its children's types folded by the pair rule.

        Memoized per node; a leaf has the leaf's type.
        """
        i = self._of_node.get(t)
        if i is None:
            if t.op == LEAF:
                i = self.number(_LEAF_TYPE)
            else:
                i = self.number(EMPTY_TYPE)
                for child in t.children:
                    i = self.combine(t.op, i, self.of_class(child))
            self._of_node[t] = i
        return i

    def _merge(self, op, p, q):
        """Capped profile of op(G1, G2) from the capped profiles of G1 and G2, memoized."""
        key = (op, p, q)
        out = self._merged.get(key)
        if out is None:
            out = self._merged[key] = cap_profile(_MERGES[op](p, q), self.caps)
        return out

    def combine(self, op, i, j):
        """The number of the type of op(G1, G2) from the numbers of G1's and G2's types.

        The pair rule: a deletion of op(G1, G2) deletes a vertex of G1 or of
        G2, so its profile is a deleted profile of one side merged with the
        other side's whole profile; only the least polar of these are kept.
        """
        memo = self._combined[op]
        out = memo.get((i, j))
        if out is None:
            (p1, d1), (p2, d2) = self.types[i], self.types[j]
            merge = self._merge
            dels = {merge(op, d, p2) for d in d1} | {merge(op, p1, d) for d in d2}
            out = memo[(i, j)] = self.number((merge(op, p1, p2), _least_polar(dels)))
        return out


@dataclass(frozen=True)
class PolarProfile:
    """Antichain of exact achievable signatures for a graph of order n."""

    n: int
    signatures: frozenset

    def admits(self, s, k):
        """True iff some stored signature is dominated by (s, k)."""
        return _admits(self.signatures, self.n, s, k)

    def closure(self):
        """All (s,k) pairs in [0..n]^2 the graph is polar for; oracle-comparison form."""
        out = set()
        for s0, k0 in self.signatures:
            for s in range(int(s0), self.n + 1):
                for k in range(int(k0), self.n + 1):
                    out.add((s, k))
        return out

    def sorted_signatures(self):
        return sorted(self.signatures)


def profile_dp(t):
    """Profile of the cograph realized by a normalized cotree.

    Raises MalformedCotreeError for a node with fewer than two children or a
    child carrying its own label; nodes whose profile is memoized were
    checked when it was computed.
    """
    return PolarProfile(t.order, _node_profile(t))


def profile_of_graph(g):
    """Profile of a cograph given as a Graph; raises NotCographError otherwise."""
    if g.n == 0:
        return PolarProfile(0, frozenset({(0, 0)}))
    return profile_dp(cotree_of(g))


def profile_bruteforce(g):
    """Independent oracle: scan all 2^n bipartitions.  Order capped at 20."""
    if g.n > BRUTE_FORCE_MAX_ORDER:
        raise graphs.GraphError(
            f"brute-force profile limited to order {BRUTE_FORCE_MAX_ORDER}"
        )
    if g.n == 0:
        return PolarProfile(0, frozenset({(0, 0)}))
    full = g.full_mask()
    sigs = set()
    for a_mask in range(full + 1):
        s = graphs.multipartite_parts_in(g, a_mask)
        if s is None:
            continue
        k = graphs.cluster_parts_in(g, full ^ a_mask)
        if k is None:
            continue
        sigs.add((s, k))
    return PolarProfile(g.n, _reduce(sigs))


# -- witnesses -----------------------------------------------------------------


@dataclass(frozen=True)
class PartitionWitness:
    """An explicit (A, B) bipartition with its exact claimed signature."""

    a_mask: int
    b_mask: int
    signature: tuple


def validate_witness(g, w):
    """Check every witness invariant directly on the graph, in O(n^2).

    Deliberately independent of the DP code paths.
    """
    full = g.full_mask()
    if w.a_mask & w.b_mask or (w.a_mask | w.b_mask) != full:
        return False
    s, k = w.signature
    parts = graphs.multipartite_parts_in(g, w.a_mask)
    if parts is None or parts != s:
        return False
    cliques = graphs.cluster_parts_in(g, w.b_mask)
    return cliques is not None and cliques == k


def _assign(t, sig, ids, next_leaf, a_list, b_list):
    """Walk the DP backwards, assigning leaves to A or B for a stored signature."""
    if t.op == LEAF:
        v = ids[next_leaf]
        if sig == (1, 0):
            a_list.append(v)
        else:
            b_list.append(v)
        return next_leaf + 1
    merge = _merge_union if t.op == UNION else _merge_join
    # Rebuild the left-to-right fold prefixes, then peel children off the right.
    prefixes = [_node_profile(t.children[0])]
    for child in t.children[1:]:
        prefixes.append(_reduce(merge(prefixes[-1], _node_profile(child))))
    targets = [None] * len(t.children)
    want = sig
    for i in range(len(t.children) - 1, 0, -1):
        child_prof = _node_profile(t.children[i])
        found = None
        for left in sorted(prefixes[i - 1]):
            for right in sorted(child_prof):
                if want in merge({left}, {right}):
                    found = (left, right)
                    break
            if found:
                break
        if found is None:  # pragma: no cover - sig always comes from the same fold
            raise AssertionError("signature not reachable in DP reconstruction")
        targets[i] = found[1]
        want = found[0]
    targets[0] = want
    for child, child_sig in zip(t.children, targets):
        next_leaf = _assign(child, child_sig, ids, next_leaf, a_list, b_list)
    return next_leaf


def witness_for(t, sig):
    """A PartitionWitness realizing a signature stored in the cotree's profile."""
    if sig not in _node_profile(t):
        raise ValueError(f"signature {sig} not in profile")
    ids = cotrees.leaf_vertices(t)
    a_list, b_list = [], []
    _assign(t, sig, ids, 0, a_list, b_list)
    return PartitionWitness(graphs.mask_of(a_list), graphs.mask_of(b_list), sig)


def is_polar(g_or_t, s, k, want_witness=True):
    """(verdict, witness) for the (s,k)-polarity of a cograph.

    Accepts a Graph or a cotree; INF lifts the corresponding bound.  When the
    verdict is positive and a witness is requested, the witness is rebuilt
    from DP choice points and re-validated against the graph.
    """
    if isinstance(g_or_t, Cotree):
        t = g_or_t
        g = None
    else:
        g = g_or_t
        if g.n == 0:
            return True, PartitionWitness(0, 0, (0, 0))
        t = cotree_of(g)
    prof = profile_dp(t)
    s_bound = prof.n if s == INF else s
    k_bound = prof.n if k == INF else k
    candidates = sorted(
        sig for sig in prof.signatures if sig[0] <= s_bound and sig[1] <= k_bound
    )
    if not candidates:
        return False, None
    if not want_witness:
        return True, None
    witness = witness_for(t, candidates[0])
    if g is None:
        g = cotrees.realize(t)
    if not validate_witness(g, witness):  # pragma: no cover - defense against memo bugs
        raise AssertionError("reconstructed witness failed validation")
    return True, witness
