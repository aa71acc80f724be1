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
written; a malformed node therefore never carries a profile.  One pair
rule, ``_point``, gives the signature of op(G1, G2) from one signature of
each side, or None; every merge, witness and type reads it.  A node's
children are folded through one memo per label (``_merged``), keyed by the
two reduced profiles, so equal profiles met in different trees are merged
and reduced once; a miss reduces the rule's points over the two profiles.
The reduced merge depends on the two antichains alone, so the memo is
exact, and it lives as long as the process, unlike an enumerator's classes
(``obstructions.CographEnumerator``), which their owner frees.  It is small:
420 entries after ``verify_all(3)``, 1,887 after
``mine_obstructions(INF, 10, 34)`` and 2,898 after ``(INF, 12, 40)``, each
in a new process.  Witnesses rebuild their fold prefixes through it and pick
each child's signature by the pair rule, and ``deleted_profiles`` folds
(profile, deleted set) pairs of a node's children through it, the one-vertex
deletions exactly, with no deleted tree built; the caller keeps those sets
by code.

Mining above small orders works on (s,k)-types (``TypeAlgebra``): a class's
profile and its least polar one-leaf-deleted profiles, with every signature
coordinate capped at max(s,1)+1 and max(k,1)+1 (2 for an unbounded side).
The merges only add coordinates and compare them with 0 and 1, so capping
commutes with them, and whether a class is a minimal obstruction depends on
its type alone.  The merges, capping and the (s,k) test are monotone in how
polar a profile is, so the least polar deleted profiles decide whether all
of them are polar, before and after a merge.  The type of a node follows
from its children's types by one pair rule, starting from the empty graph's
and the leaf's types, so no exact deletion set is ever built.  The algebra
works on small ints and table lookups: each capped profile is interned
once, by the bitmask of its polar pairs in the cap box, as a profile id; a
merge is the OR of one per-caps point table over the two profiles' minimal
points; a type is only a number, keyed by a profile id with a bitset of
deleted-profile ids; the least polar test is a mask inclusion and the (s,k)
test one bit.  A type that is neither polar nor a minimal obstruction's is
never told apart from another such: nothing built on it is either, so every
such type is one absorbing ``sink``, found at the first non-polar deletion.
One algebra serves the several (s, k) pairs of a mining pass: its caps are
the widest they need, its ``sink`` is at their join, and each type carries a
bitmask of the pairs it is a minimal obstruction for and its polarity at
each join of the pairs still read at an order.  Each (label, type) keeps a
successor row of the types it has been combined with, which the mining
knapsacks read before calling ``combine``.  There are finitely many types
per (s, k), so the algebra's tables, which live as long as one mining pass,
do not grow with the order.

The recurrences are checked against :func:`profile_bruteforce`, which
enumerates all bipartitions and is the authoritative oracle.
"""

from __future__ import annotations

import math

from . import cotrees, graphs
from .cotrees import JOIN, LEAF, UNION, cotree_of
from .graphs import bits
from .values import FrozenValue, set_field

INF = math.inf

_LEAF_SIGS = frozenset({(1, 0), (0, 1)})
_EMPTY_SIGS = frozenset({(0, 0)})  # the empty graph

BRUTE_FORCE_MAX_ORDER = 20


def check_param(name, x):
    """Raise ValueError unless x is a non-negative int or INF, as s and k must be."""
    if x != INF and (isinstance(x, bool) or not isinstance(x, int) or x < 0):
        raise ValueError(f"{name} must be a non-negative int or INF, got {x!r}")


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


def _fuse(u, v):
    """The count of a side that a merge fuses, from its two counts, or None.

    The other count when one is 0, 1 when both are 1, and otherwise None: the
    pair gives no signature.
    """
    if u == 0:
        return v
    if v == 0:
        return u
    return 1 if u == v == 1 else None


def _point(op, a, b):
    """The signature of op(G1, G2) from one signature of each side, or None.

    The pair rule of both merges.  Across a union the cliques of B add and
    the parts of A fuse: A survives only if one side's A is empty, or both
    are single independent parts that merge into one.  Across a join the
    parts of A add and the cliques of B fuse.
    """
    (s1, k1), (s2, k2) = a, b
    if op == UNION:
        s = _fuse(s1, s2)
        return None if s is None else (s, k1 + k2)
    k = _fuse(k1, k2)
    return None if k is None else (s1 + s2, k)


# label -> (left profile, right profile) -> their reduced merge; exact, so it
# lives as long as the process
_MERGED = {UNION: {}, JOIN: {}}


def _merged(op, p, q):
    """The reduced op-merge of two reduced profiles, computed once per (op, p, q).

    The merge is the set of the pair rule's points over p x q.  The empty
    graph's profile, the identity of both merges, gives the other profile
    with no memo entry.
    """
    if p is _EMPTY_SIGS:
        return q
    if q is _EMPTY_SIGS:
        return p
    memo = _MERGED[op]
    out = memo.get((p, q))
    if out is None:
        points = {_point(op, a, b) for a in p for b in q}
        points.discard(None)
        out = memo[p, q] = _reduce(points)
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
        op = t.op
        prof = _node_profile(t.children[0])
        for child in t.children[1:]:
            prof = _merged(op, prof, _node_profile(child))
    t._profile = prof
    return prof


def deleted_profiles(t, memo):
    """The distinct exact profiles of t's one-vertex deletions, memoized in ``memo`` by code.

    A leaf's one deletion is the empty graph, whose profile is the identity
    of both merges.  An internal node is a left fold of (profile, deleted
    set) pairs by the pair rule, the rule ``TypeAlgebra.combine`` applies to
    capped types: a deletion of op(G1, G2) deletes a vertex of G1 or of G2,
    so after each child c the set is that of the fold so far, each merged
    with c's profile, and c's own deleted profiles, each merged with the
    fold so far.  The merges are exact, commutative and associative on
    reduced profiles, so that is the profile of the rebuilt tree, whether
    c's deletion is spliced in (same label), empty, or leaves the node with
    one child.  Equal children are folded once, through ``memo``, and the
    set drops the equal deletions they give.  The sets depend on t alone;
    ``memo`` keeps each one for every subtree folded, as a frozenset.
    """
    code = cotrees.canonical_code(t)
    out = memo.get(code)
    if out is not None:
        return out
    if t.op == LEAF:
        out = frozenset({_EMPTY_SIGS})
    else:
        _node_profile(t)  # checks the shape of every node below
        op = t.op
        prefix, found = _EMPTY_SIGS, set()  # the fold of the children so far, and its deletions
        for kid in t.children:
            prof = kid._profile
            found = {_merged(op, d, prof) for d in found}
            found.update(_merged(op, prefix, d) for d in deleted_profiles(kid, memo))
            prefix = _merged(op, prefix, prof)
        out = frozenset(found)
    memo[code] = out
    return out


def _admits(signatures, s, k):
    """True iff some signature is dominated by (s, k); INF is above every count."""
    for s0, k0 in signatures:
        if s0 <= s and k0 <= k:
            return True
    return False


# -- (s,k)-types ------------------------------------------------------------------


# caps -> (box, up-set masks, below masks, point tables) of ``_point_tables``;
# they depend on the caps alone, so like ``_MERGED`` they live as long as the
# process and every algebra with those caps shares them
_POINT_TABLES = {}


def _point_tables(caps):
    """The cap box of ``caps`` and the tables over it that ``TypeAlgebra`` reads.

    The box lists the pairs (x, y) in [0, cs] x [0, ck], and a pair's box
    index is x (ck + 1) + y.  The tables give, per box index, the mask of
    the pairs at or above it, and the mask of the pairs just left of and just
    below it; and per label and pair of box indices a, b, the up-set mask of
    the capped ``_point(op, a, b)``, 0 when the pair gives no signature.
    Built once per caps.
    """
    tables = _POINT_TABLES.get(caps)
    if tables is None:
        cs, ck = caps
        box = [(x, y) for x in range(cs + 1) for y in range(ck + 1)]
        up = [
            sum(1 << (u * (ck + 1) + v) for u in range(x, cs + 1) for v in range(y, ck + 1))
            for x, y in box
        ]
        below = [
            (1 << (b - ck - 1) if x else 0) | (1 << (b - 1) if y else 0)
            for b, (x, y) in enumerate(box)
        ]

        def capped_up(point):
            return 0 if point is None else up[min(point[0], cs) * (ck + 1) + min(point[1], ck)]

        points = {
            op: [[capped_up(_point(op, a, b)) for b in box] for a in box] for op in (UNION, JOIN)
        }
        tables = _POINT_TABLES[caps] = box, up, below, points
    return tables


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
    children, is live.  So all types that are neither live nor hits are one
    type, ``sink``: ``combine`` gives ``sink`` whenever either side is
    ``sink``, and whenever the merged profile and some deleted profile are
    not polar, as soon as it meets the first such deleted profile.  Only
    live types and hits are numbered with a key.  A type is a hit exactly
    when its merged profile is not polar and none of its candidate deleted
    profiles is; the candidates are the least polar deleted profiles of
    each side merged with the other side's profile, and every deleted
    profile of the node is at least as polar as one of them, so a
    non-polar one among all of them shows up among the candidates.

    One algebra serves several lists: ``lists`` are their (s', k') pairs,
    ((s, k),) by default, and (s, k) must be their coordinatewise join (INF
    above every int).  ``caps`` are the widest any pair needs, so each
    pair's test stays exact, and "polar" above, ``sink`` included, is at the
    join.  A minimal (s',k')-obstruction has (s',k')-polar deletions, so
    they are polar at the join and its type is never ``sink``.  ``hit[i]``
    is a bitmask: bit j is set when type i's classes are minimal
    obstructions for lists[j], tested on its least polar deleted profiles,
    and a type can be live and a hit for another pair at once.
    ``live_at[j][i]`` tells whether type i's classes are polar at level j,
    the join of lists[j:] (a mining pass orders its lists by bound, so the
    pairs read past an order are a suffix); ``live`` is ``live_at[0]``, and
    the last level, the join of no list, has no live type.

    Internally a capped profile is its polar mask: the bitmask of its polar
    pairs in the cap box [0, cs] x [0, ck] (bit x (ck + 1) + y for the pair
    (x, y)), which is the up-set of its signatures.  A reduced profile is the
    set of minimal points of that up-set, so distinct capped profiles have
    distinct masks, and each is interned once by its mask as a profile id,
    with its minimal points as box indices.  Capping commutes with the
    merges and the up-set of a union of points is the union of their
    up-sets, so the mask of a merge is the OR, over pairs of minimal points
    a and b, of a point table's entry: the up-set mask of the capped
    op({a}, {b}), 0 when the pair gives no signature.  That merge has at
    most one point, the pair rule's ``_point(op, a, b)``, capped; the tables
    depend on the caps alone, so they are filled from it once per caps and
    shared by every algebra with those caps (``_point_tables``).  A
    profile's minimal points are found only when its mask is first met.
    Merges are memoized per label, per left profile id, on the right id.  A
    type is known only by its number, keyed by its profile id and the bitset
    of its deleted-profile ids (``sink``, numbered after ``empty`` and
    ``leaf``, has no key);
    "least polar" is a strict mask inclusion test between two candidates,
    so a miss of ``combine`` builds the key's bitset as it filters its few
    candidates, with no sort, and reads the type by that key.  A pair or
    level (x, y) is tested by the one bit of (min(x, cs), min(y, ck)), once
    per type, when it is numbered.  Every type is
    built from ``empty`` (the empty graph's, the identity of the pair rule)
    and ``leaf`` by ``combine``, which fills one successor row per label
    and right-hand type j, mapping each type i met with it to the number of
    op(i, j), and counts the entries it fills in ``pairs``; a caller that
    applies the same j many times reads ``row`` once and calls ``combine``
    only on a miss.  Its other tables live as long as the algebra and are
    bounded by the number of types and capped profiles, which are finite
    for each (s, k) and lists.
    """

    def __init__(self, s, k, lists=None):
        lists = ((s, k),) if lists is None else tuple(lists)
        # level j is the join of lists[j:]; level 0, the join of them all, is (s, k)
        levels = [tuple(map(max, zip(*lists[j:]))) for j in range(len(lists))]
        if levels[0] != (s, k):
            raise ValueError(f"({s}, {k}) is not the join of the lists {lists}")
        self.caps = cs, ck = tuple(
            max(2 if x == INF else max(x, 1) + 1 for x in xs) for xs in zip(*lists)
        )
        self.hit = []  # number -> bitmask of the lists whose minimal obstructions it gives
        # level -> number -> whether the type's classes are polar there; the
        # last level, the join of no list, has none
        self.live_at = [[] for _ in range(len(levels) + 1)]
        self.live = self.live_at[0]
        self.pairs = 0  # entries filled in the successor rows
        self._box, self._up, self._below, self._tables = _point_tables(self.caps)

        def bit(x, y):
            return 1 << (min(x, cs) * (ck + 1) + min(y, ck))

        self._level_bits = [bit(*level) for level in levels]
        self._bit = self._level_bits[0]  # the join's
        self._hit_bits = [bit(*pair) for pair in lists]
        self._points = []  # profile id -> box indices of its signatures
        self._polar = []  # profile id -> mask of its polar pairs in the cap box
        self._ids = {}  # polar mask -> profile id
        self._keys = []  # number -> (profile id, ascending tuple of deleted-profile ids)
        self._numbers = {}  # (profile id, bitset of deleted-profile ids) -> number
        self._merged = {UNION: [], JOIN: []}  # label -> left id -> right id -> merged id
        self._rows = {UNION: {}, JOIN: {}}
        # the empty graph's type, the identity of the pair rule, and the leaf's,
        # whose one deletion is the empty graph
        nothing = self._intern(self._mask(_EMPTY_SIGS))
        self.empty = self._new_type(nothing, 0)
        self.leaf = self._new_type(self._intern(self._mask(_LEAF_SIGS)), 1 << nothing)
        # every type that is neither live nor a hit; it has no key
        self.sink = len(self._keys)
        self._keys.append(None)
        self.hit.append(0)
        for live in self.live_at:
            live.append(False)

    def _mask(self, prof):
        """The polar mask of a profile, its signatures capped: the OR of their up-sets."""
        cs, ck = self.caps
        up, mask = self._up, 0
        for a, b in prof:
            mask |= up[min(a, cs) * (ck + 1) + min(b, ck)]
        return mask

    def _intern(self, mask):
        """The id of the capped profile with this polar mask, building it if it is new."""
        p = self._ids.get(mask)
        if p is None:
            p = self._ids[mask] = len(self._points)
            below = self._below
            points = tuple(b for b in range(len(below)) if mask >> b & 1 and not mask & below[b])
            self._points.append(points)
            self._polar.append(mask)
            for memo in self._merged.values():
                memo.append({})
        return p

    def _new_type(self, p, deleted):
        """Number the type keyed by profile id p and the bitset of its deleted-profile ids.

        Every deleted profile is polar at the join (``combine`` sends the
        other types to ``sink``), so the type is live there when p is polar
        and a hit for the join when it is not.  Its ``hit`` bits and
        ``live_at`` entries test each pair and level.  The new type gets the
        next number.
        """
        i = self._numbers[(p, deleted)] = len(self._keys)
        dels = tuple(bits(deleted))
        self._keys.append((p, dels))
        polar = self._polar
        mask, hit = polar[p], 0
        for j, b in enumerate(self._hit_bits):
            if not mask & b:
                for d in dels:
                    if not polar[d] & b:
                        break
                else:
                    hit |= 1 << j
        self.hit.append(hit)
        for live, b in zip(self.live_at, self._level_bits):
            live.append(mask & b != 0)
        self.live_at[-1].append(False)
        return i

    def _merge(self, op, p, q):
        """Profile id of the capped op(G1, G2) from the ids of G1's and G2's.

        The OR of the point table over the pairs of their minimal points.
        ``combine`` reads the memo ``_merged[op][p]`` first and calls this
        only on a miss; the id is stored there.
        """
        table, right, mask = self._tables[op], self._points[q], 0
        for a in self._points[p]:
            row = table[a]
            for b in right:
                mask |= row[b]
        out = self._merged[op][p][q] = self._intern(mask)
        return out

    def row(self, op, j):
        """The successor row of (op, j): type i -> ``combine(op, i, j)``, for the i met so far."""
        row = self._rows[op].get(j)
        if row is None:
            row = self._rows[op][j] = {}
        return row

    def combine(self, op, i, j):
        """The number of the type of op(G1, G2) from the numbers of G1's and G2's types.

        The pair rule: a deletion of op(G1, G2) deletes a vertex of G1 or of
        G2, so its profile is a deleted profile of one side merged with the
        other side's whole profile.  ``sink`` on either side gives ``sink``.
        Otherwise the merged profile is found first, then the candidate
        deletions one at a time: at the first that is not polar, the type is
        neither live nor a hit, and ``sink`` is stored without building the
        rest.  A live type has none such, by heredity, and a hit none by
        definition; only these two are numbered.  Only the least polar
        candidates are kept, as a bitset of profile ids: a candidate stays
        unless another one's polar mask lies strictly inside its own, and a
        repeated id is one bit.  The type is then read by (profile id,
        bitset), and numbered if it is new.
        """
        row = self.row(op, j)
        out = row.get(i)
        if out is None:
            out = row[i] = self._combined(op, i, j)
            self.pairs += 1
        return out

    def _combined(self, op, i, j):
        """``combine``'s miss path: the number of op(i, j)'s type, or ``sink``."""
        sink = self.sink
        if i == sink or j == sink:
            return sink
        (p1, d1), (p2, d2) = self._keys[i], self._keys[j]
        memo, merge, polar, bit = self._merged[op], self._merge, self._polar, self._bit
        left = memo[p1]
        p = left.get(p2)
        if p is None:
            p = merge(op, p1, p2)
        dels = []
        for d in d1:
            e = memo[d].get(p2)
            if e is None:
                e = merge(op, d, p2)
            if not polar[e] & bit:
                return sink
            dels.append(e)
        for d in d2:
            e = left.get(d)
            if e is None:
                e = merge(op, p1, d)
            if not polar[e] & bit:
                return sink
            dels.append(e)
        if len(dels) == 1:
            deleted = 1 << dels[0]
        else:
            deleted = 0
            for d in dels:
                mask = polar[d]
                for e in dels:
                    inner = polar[e]
                    if inner != mask and not inner & ~mask:  # e is strictly less polar
                        break
                else:
                    deleted |= 1 << d
        out = self._numbers.get((p, deleted))
        if out is None:
            out = self._new_type(p, deleted)
        return out


class PolarProfile(FrozenValue):
    """Antichain of exact achievable signatures for a graph of order n."""

    __slots__ = ("n", "signatures")

    def __init__(self, n, signatures):
        set_field(self, "n", n)
        set_field(self, "signatures", signatures)  # frozenset

    def admits(self, s, k):
        """True iff some stored signature is dominated by (s, k)."""
        return _admits(self.signatures, s, k)

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
        return PolarProfile(0, _EMPTY_SIGS)
    return profile_dp(cotree_of(g))


def profile_bruteforce(g):
    """Independent oracle: scan all 2^n bipartitions.  Order capped at 20."""
    if g.n > BRUTE_FORCE_MAX_ORDER:
        raise graphs.GraphError(
            f"brute-force profile limited to order {BRUTE_FORCE_MAX_ORDER}"
        )
    if g.n == 0:
        return PolarProfile(0, _EMPTY_SIGS)
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


class PartitionWitness(FrozenValue):
    """An explicit (A, B) bipartition with its exact claimed signature."""

    __slots__ = ("a_mask", "b_mask", "signature")

    def __init__(self, a_mask, b_mask, signature):
        set_field(self, "a_mask", a_mask)
        set_field(self, "b_mask", b_mask)
        set_field(self, "signature", signature)


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
    op = t.op
    # Rebuild the left-to-right fold prefixes, then peel children off the right.
    prefixes = [_node_profile(t.children[0])]
    for child in t.children[1:]:
        prefixes.append(_merged(op, prefixes[-1], _node_profile(child)))
    targets = [None] * len(t.children)
    want = sig
    for i in range(len(t.children) - 1, 0, -1):
        pairs = (
            (left, right)
            for left in sorted(prefixes[i - 1])
            for right in sorted(_node_profile(t.children[i]))
        )
        found = next((pair for pair in pairs if _point(op, *pair) == want), None)
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


def is_polar(g, s, k):
    """(verdict, witness) for the (s,k)-polarity of a cograph given as a Graph.

    INF lifts the corresponding bound.  A positive verdict carries a witness,
    rebuilt from DP choice points and re-validated against the graph.  s and
    k must be non-negative ints or INF, or ValueError is raised.
    """
    check_param("s", s)
    check_param("k", k)
    if g.n == 0:
        return True, PartitionWitness(0, 0, (0, 0))
    t = cotree_of(g)
    prof = profile_dp(t)
    candidates = [sig for sig in prof.signatures if _admits((sig,), s, k)]
    if not candidates:
        return False, None
    witness = witness_for(t, min(candidates))
    if not validate_witness(g, witness):  # pragma: no cover - defense against memo bugs
        raise AssertionError("reconstructed witness failed validation")
    return True, witness
