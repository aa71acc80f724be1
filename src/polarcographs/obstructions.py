"""Isomorph-free cograph enumeration and minimal obstruction mining.

Enumeration builds canonical cotrees bottom-up: a disconnected class of
order n is a multiset (size >= 2) of connected classes with total order n,
drawn in nondecreasing (order, code) order so every multiset appears once.
Each disconnected class is built together with its twin, the connected class
of its complement: the complement of a union of connected parts is the join
of their complements, so the twin is the JOIN of the parts' stored
disconnected twins.  Every child is therefore a stored class or the shared
leaf, no node is duplicated, and polarity profiles memoized on the nodes are
computed once per class.

Minimality uses single-vertex deletions only: (s,k)-polarity is hereditary,
so a non-polar graph with every one-vertex-deleted subgraph polar has every
proper induced subgraph polar (induced subgraphs arise by iterated deletion).
The deleted graphs' profiles come from ``polarity.deletion_profiles``, the
memoized per-node DP over one-leaf deletions, so no deleted tree is built.
The rare classes that pass are re-checked the explicit way, by rebuilding
each deleted tree with ``remove_leaf`` and running the profile DP on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import cotrees, expressions, graphs, polarity
from .cotrees import JOIN, LEAF, UNION, Cotree, canonical_code
from .graphs import Graph
from .polarity import INF

ENUMERATION_MAX_ORDER = 15


class BoundExceededError(ValueError):
    pass


_SHARED_LEAF = cotrees.leaf()


class CographEnumerator:
    """Incremental generator of one cotree per unlabeled cograph class.

    ``twins[n][i]`` is the stored disconnected class whose complement is
    ``connected[n][i]``; the shared leaf is its own twin.
    """

    def __init__(self):
        self.connected = {1: [_SHARED_LEAF]}
        self.twins = {1: [_SHARED_LEAF]}
        self.disconnected = {}
        # connected classes in ascending (order, code), with their twins
        self._pool = [_SHARED_LEAF]
        self._pool_twin = [_SHARED_LEAF]
        self._pool_order = [1]
        self._built = 1

    def _multisets(self, n):
        """Pool index tuples of >= 2 connected classes with total order n, each once."""
        pool_order = self._pool_order
        parts = []
        out = []

        def choose(start, remaining):
            for j in range(start, len(pool_order)):
                o = pool_order[j]
                if o > remaining:
                    break  # pool is ascending in order
                rest = remaining - o
                # a single later part of any order in [o, rest] always exists
                if rest != 0 and rest < o:
                    continue
                parts.append(j)
                if rest == 0:
                    if len(parts) >= 2:
                        out.append(tuple(parts))
                else:
                    choose(j, rest)
                parts.pop()

        choose(0, n)
        return out

    def build_up_to(self, n):
        if n > ENUMERATION_MAX_ORDER:
            raise BoundExceededError(
                f"enumeration bound {n} exceeds {ENUMERATION_MAX_ORDER}"
            )
        pool = self._pool
        pool_twin = self._pool_twin
        while self._built < n:
            m = self._built + 1
            disc = []
            pairs = []
            for parts in self._multisets(m):
                d = Cotree(UNION, tuple(sorted((pool[j] for j in parts), key=canonical_code)))
                c = Cotree(
                    JOIN, tuple(sorted((pool_twin[j] for j in parts), key=canonical_code))
                )
                disc.append(d)
                pairs.append((c, d))
            disc.sort(key=canonical_code)
            pairs.sort(key=lambda pair: canonical_code(pair[0]))
            conn = [c for c, _ in pairs]
            twins = [d for _, d in pairs]
            self.disconnected[m] = disc
            self.connected[m] = conn
            self.twins[m] = twins
            pool.extend(conn)
            pool_twin.extend(twins)
            self._pool_order.extend([m] * len(conn))
            self._built = m

    def classes_of_order(self, n):
        self.build_up_to(n)
        if n == 1:
            return list(self.connected[1])
        merged = self.connected[n] + self.disconnected[n]
        merged.sort(key=canonical_code)
        return merged


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
    """True iff realize(t) is not (s,k)-polar but every vertex deletion is."""
    if polarity.profile_dp(t).admits(s, k):
        return False
    if not polarity.deletions_admit(t, s, k):
        return False
    for index in range(t.order):
        sub = remove_leaf(t, index)
        if sub is not None and not polarity.profile_dp(sub).admits(s, k):
            raise AssertionError("memoized deletion profiles disagree with an explicit deletion")
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


def mine_obstructions(s, k, n_max, enumerator=None):
    """All minimal (s,k)-polar obstructions of order <= n_max.

    Deterministic output ordered by (order, canonical code).  The bound
    travels with every record: completeness beyond n_max is never implied.
    """
    if n_max > ENUMERATION_MAX_ORDER:
        raise BoundExceededError(f"mining bound {n_max} exceeds {ENUMERATION_MAX_ORDER}")
    records = [
        _record_from_tree(t, s, k, n_max)
        for t in enumerate_cographs(n_max, enumerator=enumerator)
        if is_minimal_obstruction(t, s, k)
    ]
    records.sort(key=ObstructionRecord.sort_key)
    return records


def default_mining_bound(k):
    """3(k+1) for finite k (the conjectured maximum obstruction order); 10 otherwise."""
    if k == INF:
        return 10
    return 3 * (int(k) + 1)


def records_to_jsonl(records):
    return "\n".join(r.to_json() for r in records)
