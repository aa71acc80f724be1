"""Isomorph-free cograph enumeration and minimal obstruction mining.

Enumeration builds canonical cotrees bottom-up, one recursion per order: a
disconnected class of order n is a multiset (size >= 2) of connected classes
with total order n, drawn in nondecreasing (order, index) order so every
multiset appears once.  Each disconnected class is built together with its
twin, the connected class of its complement: the complement of a union of
connected parts is the join of their complements, so the twin is the JOIN of
the parts' stored disconnected twins.  Every child is therefore a stored
class or the shared leaf, and no node is duplicated.

Enumerated nodes are well-formed by construction (at least two children,
labels alternating), and each gets its order and canonical code when it is
built; the code joins the children's codes, which are already computed, in
sorted order.  No profile is computed while building: ``polarity.profile_dp``
computes and memoizes one on the first node that asks.  Each order's classes
are sorted by code once and stored.  The cyclic garbage collector is paused
while building: the enumerator allocates only acyclic trees, and the
collector's passes over the growing heap of stored nodes would find nothing
to free.

Minimality uses single-vertex deletions only: (s,k)-polarity is hereditary,
so a non-polar graph with every one-vertex-deleted subgraph polar has every
proper induced subgraph polar (induced subgraphs arise by iterated deletion).
``is_minimal_obstruction`` checks the root with the profile DP and, for a
non-polar root, each deletion by rebuilding the deleted tree with
``remove_leaf`` and running the profile DP on it.

Mining checks classes one by one only up to a split order; above it, it
works on the (s,k)-types of ``polarity.TypeAlgebra``, since minimality
depends on a class's type alone.  Each enumerated class is typed by folding
its children's types with the pair rule, checked with
``is_minimal_obstruction`` (the two must agree, or mining raises) and
bucketed by type.  Each higher order is walked as the multisets of blocks
(order, type, number of classes): unions of connected blocks and joins of
disconnected ones, the leaf being both.  Each multiset gives its node's type
by the pair rule and its number of classes as a product of binomials; the
numbers of each order must add up to the cograph count of an independent
Euler transform (OEIS A000084), or mining raises.  Types stop growing while
classes roughly triple per order, so the walk and its algebra stay small.  A
multiset whose type is a minimal obstruction is expanded into cotrees, down
to the buckets, and each expanded cotree is re-checked by
``is_minimal_obstruction``.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import comb
from operator import attrgetter

from . import cotrees, expressions, graphs, polarity
from .cotrees import JOIN, LEAF, UNION, Cotree, canonical_code
from .graphs import Graph
from .polarity import INF

ENUMERATION_MAX_ORDER = 15


class BoundExceededError(ValueError):
    pass


_SHARED_LEAF = cotrees.leaf()
_SHARED_LEAF._order = 1
_SHARED_LEAF._code = canonical_code(_SHARED_LEAF)

_CODE = attrgetter("_code")
_UNION_HEAD = UNION.encode("ascii")
_JOIN_HEAD = JOIN.encode("ascii")


class CographEnumerator:
    """Incremental generator of one cotree per unlabeled cograph class.

    ``connected[n]`` and ``twins[n]`` hold the classes of order n in the
    order they were built: ``twins[n][i]`` is the stored disconnected class
    whose complement is ``connected[n][i]``, and the shared leaf is its own
    twin.  Every node gets its order and canonical code when it is built;
    profiles are left to ``polarity.profile_dp``.
    """

    def __init__(self):
        self.connected = {1: [_SHARED_LEAF]}
        self.twins = {1: [_SHARED_LEAF]}
        self._classes = {1: (_SHARED_LEAF,)}  # each order's classes, sorted by code
        self._built = 1

    def build_up_to(self, n):
        """Build every order up to n, with the cyclic garbage collector paused.

        The enumerator allocates only acyclic trees, which reference counting
        frees, so collector passes over the growing heap of stored nodes find
        nothing.  The caller's collector state is restored even on error.
        """
        if n > ENUMERATION_MAX_ORDER:
            raise BoundExceededError(
                f"enumeration bound {n} exceeds {ENUMERATION_MAX_ORDER}"
            )
        if self._built >= n:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            while self._built < n:
                m = self._built + 1
                conn, twins = [], []
                self._add_unions(m, [], [], 1, 0, m, conn, twins)
                classes = conn + twins
                classes.sort(key=_CODE)
                self.connected[m] = conn
                self.twins[m] = twins
                self._classes[m] = tuple(classes)
                self._built = m
        finally:
            if enabled:
                gc.enable()

    def _add_unions(self, m, parts, twin_parts, o0, i0, remaining, new_connected, new_twins):
        """Build each order-m class whose connected parts extend ``parts``, once.

        Parts are drawn in nondecreasing (order, index) from ``connected``,
        starting at ``connected[o0][i0]``, until their orders add up to m;
        ``remaining`` is m minus the orders chosen so far.  Each multiset
        of at least two parts gives a disconnected class, appended to
        ``new_twins``, and its complement, the JOIN of the parts' stored
        twins, appended to ``new_connected``.
        """
        connected, twins = self.connected, self.twins
        # a part that leaves room for another has order <= remaining // 2
        for o in range(o0, remaining // 2 + 1):
            block = connected[o]
            twin_block = twins[o]
            for i in range(i0 if o == o0 else 0, len(block)):
                part = block[i]
                self._add_unions(
                    m,
                    parts + [part],
                    twin_parts + [twin_block[i]],
                    o,
                    i,
                    remaining - o,
                    new_connected,
                    new_twins,
                )
        if not parts:
            return
        # the last part has the remaining order, at or after the previous part
        block = connected[remaining]
        twin_block = twins[remaining]
        count = bytes((len(parts) + 1,))
        for i in range(i0 if remaining == o0 else 0, len(block)):
            kids = sorted(parts + [block[i]], key=_CODE)
            d = Cotree(UNION, kids)
            d._order = m
            d._code = _UNION_HEAD + count + b"".join(map(_CODE, kids))
            kids = sorted(twin_parts + [twin_block[i]], key=_CODE)
            c = Cotree(JOIN, kids)
            c._order = m
            c._code = _JOIN_HEAD + count + b"".join(map(_CODE, kids))
            new_twins.append(d)
            new_connected.append(c)

    def classes_of_order(self, n):
        """Every class of order n, sorted by canonical code (a stored tuple)."""
        self.build_up_to(n)
        return self._classes[n]


_ENUMERATOR = CographEnumerator()


def enumerate_cographs(n_max, enumerator=None):
    """Yield one normalized cotree per unlabeled cograph class, order 1..n_max."""
    if n_max > ENUMERATION_MAX_ORDER:
        raise BoundExceededError(
            f"enumeration bound {n_max} exceeds {ENUMERATION_MAX_ORDER}"
        )
    enum = enumerator or _ENUMERATOR
    for n in range(1, n_max + 1):
        yield from enum.classes_of_order(n)


def cograph_counts(n_max, enumerator=None):
    """Number of unlabeled cograph classes for each order 1..n_max."""
    enum = enumerator or _ENUMERATOR
    return [len(enum.classes_of_order(n)) for n in range(1, n_max + 1)]


# -- obstruction records --------------------------------------------------------


@dataclass(frozen=True)
class ObstructionRecord:
    """A minimal (s,k)-polar obstruction with its type and provenance."""

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

    def sort_key(self):
        return (self.order, self.code)

    def to_json(self):
        return json.dumps(
            {
                "code": self.code.hex(),
                "graph6": self.graph6,
                "order": self.order,
                "c": self.c,
                "i": self.i,
                "s": encode_param(self.s),
                "k": encode_param(self.k),
                "expression": self.expression,
                "provenance": self.provenance,
                "bound": self.bound,
            },
            sort_keys=True,
        )


def encode_param(x):
    return "inf" if x == INF else int(x)


def classify_type(g):
    """(c, i): number of components and number of trivial (K1) components."""
    comps = graphs.components(g)
    trivial = sum(1 for comp in comps if comp.bit_count() == 1)
    return len(comps), trivial


def _type_of_tree(t):
    if t.op != UNION:
        return 1, 0
    trivial = sum(1 for c in t.children if c.op == LEAF)
    return len(t.children), trivial


# -- cotree -> expression ---------------------------------------------------------


def _grouped_children(t):
    groups = []
    for child in t.children:
        code = canonical_code(child)
        if groups and groups[-1][0] == code:
            groups[-1][2] += 1
        else:
            groups.append([code, child, 1])
    return [(child, count) for _, child, count in groups]


def cotree_to_expr(t):
    """A readable expression evaluating to the realized cograph."""
    if t.op == LEAF:
        return expressions.K(1)
    if t.op == UNION:
        parts = [
            expressions.repeat(count, cotree_to_expr(child))
            for child, count in _grouped_children(t)
        ]
        return expressions.union(*parts)
    # JOIN: collapse complete and complete-multipartite shapes to atoms
    part_sizes = []
    for child in t.children:
        if child.op == LEAF:
            part_sizes.append(1)
        elif all(c.op == LEAF for c in child.children):
            part_sizes.append(len(child.children))
        else:
            part_sizes = None
            break
    if part_sizes is not None:
        if all(size == 1 for size in part_sizes):
            return expressions.K(len(part_sizes))
        if len(part_sizes) == 2:
            return expressions.Kbip(part_sizes[0], part_sizes[1])
    parts = []
    for child, count in _grouped_children(t):
        sub = cotree_to_expr(child)
        parts.extend([sub] * count)
    return expressions.joined(*parts)


# -- minimality and mining --------------------------------------------------------


def remove_leaf(t, index):
    """Cotree of the class with the index-th leaf (preorder) deleted.

    Untouched sibling subtrees are reused by reference, so their memoized
    profiles survive the surgery.
    """
    if t.op == LEAF:
        return None
    new_children = []
    acc = 0
    for child in t.children:
        if acc <= index < acc + child.order:
            repl = remove_leaf(child, index - acc)
            if repl is not None:
                if repl.op == t.op:
                    new_children.extend(repl.children)
                else:
                    new_children.append(repl)
        else:
            new_children.append(child)
        acc += child.order
    if len(new_children) == 1:
        return new_children[0]
    return Cotree(t.op, tuple(sorted(new_children, key=canonical_code)))


def is_minimal_obstruction(t, s, k):
    """True iff realize(t) is not (s,k)-polar but every vertex deletion is.

    Checks the root with the profile DP, then each deletion with
    ``remove_leaf`` and the DP, stopping at the first non-polar one.
    """
    if polarity.profile_dp(t).admits(s, k):
        return False
    for index in range(t.order):
        sub = remove_leaf(t, index)
        if sub is not None and not polarity.profile_dp(sub).admits(s, k):
            return False
    return True


def _record_from_tree(t, s, k, bound, provenance="MINED"):
    g = cotrees.realize(t)
    c, i = _type_of_tree(t)
    return ObstructionRecord(
        code=canonical_code(t),
        order=t.order,
        graph6=graphs.graph6_encode(g),
        expression=expressions.unparse(cotree_to_expr(t)),
        s=s,
        k=k,
        c=c,
        i=i,
        provenance=provenance,
        bound=bound,
    )


# Classes of order at most this are enumerated and checked one by one; above
# it, mining works on (s,k)-types.  At or above n_max it is class-level mining.
_SPLIT_ORDER = 8

# the parent labels a class with this root label can sit under
_PARENTS = {LEAF: (UNION, JOIN), JOIN: (UNION,), UNION: (JOIN,)}
_OTHER = {UNION: JOIN, JOIN: UNION}


def _euler_cograph_counts(n_max):
    """Unlabeled cographs of orders 1..n_max (OEIS A000084) by the Euler transform.

    A cograph is the multiset of its components, and for n >= 2 exactly half
    of the a(n) classes are connected, so a(n) is the Euler transform of
    c(1) = 1, c(n) = a(n)/2.  Solving the transform's recurrence
    n a(n) = sum_{j=1..n} s(j) a(n-j), s(j) = sum_{d | j} d c(d), for a(n)
    gives the loop below.  It shares nothing with the enumerator.
    """
    a, c = [1, 1], [0, 1]
    for n in range(2, n_max + 1):
        s = [sum(d * c[d] for d in range(1, j + 1) if j % d == 0) for j in range(n)]
        own = sum(d * c[d] for d in range(1, n) if n % d == 0)
        a.append(2 * (sum(s[j] * a[n - j] for j in range(1, n)) + own) // n)
        c.append(a[n] // 2)
    return a[1 : n_max + 1]


def _walk(algebra, pool, n, op, emit):
    """Call ``emit(chosen, type, count)`` for every op-node of order n over ``pool``.

    ``pool`` lists blocks (order, type, classes) of orders below n, so every
    node has at least two children.  A node takes r >= 1 of a block's
    classes, with repetition, from each block it uses: ``chosen`` lists
    (pool index, r) pairs, ``type`` is the node's type and ``count`` the
    number of classes it stands for, the product of C(classes + r - 1, r).
    """
    combine = algebra.combine
    chosen = []

    def extend(start, remaining, acc, count):
        for b in range(start, len(pool)):
            o, t, c = pool[b]
            if o > remaining:
                return
            typ = acc
            for r in range(1, remaining // o + 1):
                typ = combine(op, typ, t)
                chosen.append((b, r))
                left = remaining - r * o
                if left:
                    extend(b + 1, left, typ, count * comb(c + r - 1, r))
                else:
                    emit(chosen, typ, count * comb(c + r - 1, r))
                chosen.pop()

    extend(0, n, algebra.number(polarity.EMPTY_TYPE), 1)


def _mine_types(s, k, n_max, split, enum):
    """Minimal (s,k)-obstructions of order <= n_max, as cotrees, mined over types.

    Orders up to ``split`` are enumerated, each class typed by the pair rule,
    checked with ``is_minimal_obstruction`` and bucketed by type; higher
    orders are walked (see the module docstring).  A class whose check
    disagrees with its type's verdict, or a class count that differs from
    the Euler transform's, raises AssertionError.
    """
    algebra = polarity.TypeAlgebra(s, k)
    expected = _euler_cograph_counts(n_max)
    pools = {UNION: [], JOIN: []}  # blocks of the children each parent label takes
    starts = {UNION: {}, JOIN: {}}  # order -> pool length before its blocks
    buckets = {}  # (order, parent label, type) -> enumerated classes
    found = []
    hits = []  # (label, blocks) of each hit multiset above the split

    def add_blocks(n, groups):
        for op in (UNION, JOIN):
            starts[op][n] = len(pools[op])
            pools[op].extend((n, i, groups[op][i]) for i in sorted(groups[op]))

    for n in range(1, split + 1):
        classes = enum.classes_of_order(n)
        if len(classes) != expected[n - 1]:
            raise AssertionError(f"{len(classes)} classes of order {n}, not {expected[n - 1]}")
        groups = {UNION: {}, JOIN: {}}
        for t in classes:
            i = algebra.of_class(t)
            minimal = is_minimal_obstruction(t, s, k)
            if minimal != algebra.hit[i]:
                raise AssertionError("a class's type disagrees with its minimality check")
            if minimal:
                found.append(t)
            for op in _PARENTS[t.op]:
                buckets.setdefault((n, op, i), []).append(t)
                groups[op][i] = groups[op].get(i, 0) + 1
        add_blocks(n, groups)

    for n in range(split + 1, n_max + 1):
        made = {}  # parent label -> {type: classes}: a union node is a child of joins
        for op in (UNION, JOIN):
            pool, totals = pools[op], made.setdefault(_OTHER[op], {})

            def emit(chosen, typ, count):  # called only by this iteration's walk
                totals[typ] = totals.get(typ, 0) + count
                if algebra.hit[typ]:
                    hits.append((op, tuple((pool[b][0], pool[b][1], r) for b, r in chosen)))

            _walk(algebra, pool, n, op, emit)
        total = sum(sum(totals.values()) for totals in made.values())
        if total != expected[n - 1]:
            raise AssertionError(
                f"the type walk covers {total} classes of order {n}, not {expected[n - 1]}"
            )
        add_blocks(n, made)

    return found + _expand(algebra, hits, pools, starts, buckets, split)


def _expand(algebra, hits, pools, starts, buckets, split):
    """The cotrees of the hit multisets, drawn down to the enumerated buckets.

    A block of order above the split stands for the nodes of its type that
    a walk of its order builds; the walks needed are run again, highest
    order first, keeping only the multisets of the types asked for.
    """
    wanted = {}  # (order, label) -> types whose label-nodes of that order are needed
    multisets = {}  # (order, label, type) -> blocks of each such node

    def ask(op, blocks):
        for o, i, _ in blocks:
            if o > split:
                wanted.setdefault((o, _OTHER[op]), set()).add(i)

    for op, blocks in hits:
        ask(op, blocks)
    for o in range(max((o for o, _ in wanted), default=split), split, -1):
        for op in (UNION, JOIN):
            types = wanted.get((o, op))
            if not types:
                continue
            pool = pools[op][: starts[op][o]]

            def emit(chosen, typ, count):  # called only by this iteration's walk
                if typ in types:
                    blocks = tuple((pool[b][0], pool[b][1], r) for b, r in chosen)
                    multisets.setdefault((o, op, typ), []).append(blocks)
                    ask(op, blocks)

            _walk(algebra, pool, o, op, emit)

    built = {}

    def children(o, op, i):
        """The classes of order o and type i that an op-node takes as children."""
        if o <= split:
            return buckets[(o, op, i)]
        key = (o, op, i)
        if key not in built:
            inner = _OTHER[op]
            built[key] = [t for blocks in multisets[(o, inner, i)] for t in nodes(inner, blocks)]
        return built[key]

    def nodes(op, blocks):
        picks = [combinations_with_replacement(children(o, op, i), r) for o, i, r in blocks]
        return [cotrees.node(op, [t for part in pick for t in part]) for pick in product(*picks)]

    return [t for op, blocks in hits for t in nodes(op, blocks)]


def mine_obstructions(s, k, n_max, enumerator=None):
    """All minimal (s,k)-polar obstructions of order <= n_max.

    Deterministic output ordered by (order, canonical code).  The bound
    travels with every record: completeness beyond n_max is never implied.
    Every class found above the split order is re-checked by
    ``is_minimal_obstruction``; a class it rejects raises AssertionError.
    """
    if n_max > ENUMERATION_MAX_ORDER:
        raise BoundExceededError(f"mining bound {n_max} exceeds {ENUMERATION_MAX_ORDER}")
    split = min(_SPLIT_ORDER, n_max)
    records = []
    for t in _mine_types(s, k, n_max, split, enumerator or _ENUMERATOR):
        if t.order > split and not is_minimal_obstruction(t, s, k):
            raise AssertionError("a class mined by its type is not a minimal obstruction")
        records.append(_record_from_tree(t, s, k, n_max))
    records.sort(key=ObstructionRecord.sort_key)
    return records


def default_mining_bound(k):
    """3(k+1) for finite k (the conjectured maximum obstruction order); 10 otherwise."""
    if k == INF:
        return 10
    return 3 * (int(k) + 1)


def records_to_jsonl(records):
    return "\n".join(r.to_json() for r in records)
