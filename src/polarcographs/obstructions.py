"""Isomorph-free cograph enumeration and minimal obstruction mining.

Enumeration builds the canonical codes of the classes bottom-up, one
recursion per order: a disconnected class of order n is a multiset (size >=
2) of connected classes with total order n, and a connected one a multiset
of disconnected classes, drawn by index in nondecreasing (order, index)
order so every multiset appears once.  Complementation pairs the connected
and the disconnected classes of each order, so the two halves of its stored
tuple have the same length, and one walk over multisets of indices gives
each UNION class from the connected classes at those indices and each JOIN
class from the disconnected ones.  The parts chosen so far are carried in
code order, each inserted where its code falls, so a class's code is
assembled, not sorted: the label and the number of parts, then the codes of
the parts before its last part's place, that part's, and the rest.  The last
part runs over a code-sorted half, so its place never decreases along it and
each place takes one contiguous run of it: one bisect per place, not one per
class.  Each order's codes are stored once, as one ascending tuple of
``bytes`` with the connected classes first (b"J" < b"U"); the walk gives
them as a few hundred ascending runs, which the sort merges in about linear
time.

Counting needs the codes alone, so ``CographEnumerator.classes_of_order``
builds codes only, and cotrees are built only where a caller reads them: by
``CographEnumerator.trees_of_order``, which ``enumerate_cographs`` and
mining's split cross-check call.  The same walk then builds a node per class
from the stored cotrees of the lower orders, so every child is a stored class
or the shared leaf and no node is duplicated; each node is well-formed by
construction (at least two children, labels alternating) and is built in one
step with its order and code.  A tree build of an order already held as
codes must give the same codes, or it raises.  No profile is computed while
building: ``polarity.profile_dp`` computes and memoizes one on the first node
that asks.  The cyclic garbage collector is paused while cotrees are built:
they are acyclic, and the collector's passes over the growing heap of stored
nodes would find nothing to free.  The new nodes are then handed to the
collector's oldest generation, so that the young-generation passes of the
caller's next allocations do not walk them; a full collection still does,
for as long as they are alive.  A walk that builds codes only allocates no
tracked object that outlives a class, and it runs as fast with the collector
on.  An enumerator holds what it built for as long as its owner keeps it:
each module function and each mining pass makes one and drops it on return.

Minimality uses single-vertex deletions only: (s,k)-polarity is hereditary,
so a non-polar graph with every one-vertex-deleted subgraph polar has every
proper induced subgraph polar (induced subgraphs arise by iterated deletion).
``is_minimal_obstruction`` checks the root with the profile DP and, for a
non-polar root, one deletion per class of identical siblings, by rebuilding
the deleted tree with ``remove_leaf`` and running the profile DP on it.  That
is exact: siblings with equal canonical codes are isomorphic subtrees, so a
leaf of one and the matching leaf of the other give isomorphic deletions,
and only the first of a run of equal children is descended into.  A
normalized cotree keeps its children in code order, so equal ones are
adjacent; in any other order the check stays exact and only skips less.
For the 84 records of ``mine(inf,4,14)`` that is 397 deletions, not 909.

Mining works on the (s,k)-types of ``polarity.TypeAlgebra``, since minimality
depends on a class's type alone.  A type keeps only the least polar of its
capped deleted profiles, and every type that is neither live nor a hit is the
algebra's one ``sink``, which keeps the types few: 124 for (inf,4) up to
order 15, against 129 with a number for each type that is neither, and 1,213
with every deleted profile kept as well.  One pass (``MiningPass``) mines
several lists (s, k, bound) at once: its algebra has caps wide enough for
each pair, its ``sink`` at their coordinatewise join, and a bitmask of the
pairs a type is a minimal obstruction for (``hit``).  Classes are counted, not
built, by one knapsack per parent label over blocks (order, type, number of
classes): unions of connected blocks and joins of disconnected ones, starting
from the leaf, which is both.  The knapsack adds the blocks one at a time and
keeps, for each total order, the number of multisets of each type, a
multiset's type following by the pair rule and its number of classes being a
product of binomials.  A multiset of order m is live when it is polar at the
join of the pairs whose bound lies past m (``TypeAlgebra.live_at``), so
liveness narrows order by order, and at the largest bound nothing is live.
Only the types live at their order and the hits are kept by type; every other
multiset is only counted, since no extension of it within a bound is live or
a hit.  Each base takes its first copy of a block inline, in one loop per base
order, and only a base still live after it, with room for another, walks the
copies r >= 2: 806 of the 13,360 live bases that ``mine(inf,4,14)`` meets,
while 6,739 die on the first copy and 5,815 have no room for a second.  Once
every block below an order is in, the knapsack's numbers of that order must
add up to the cograph count of an independent Euler transform (OEIS A000084),
or mining raises; its live types become the blocks of that order and its hit
types are the minimal obstructions, each of the pairs its ``hit`` bits name.
Types stop growing while classes roughly triple per order, but their number
grows with the caps: (inf,12,40) peaked at 182 MB, while (12,12,40) grew past
1.33 GB.  So mining also bounds its cost: after each block it reads how many
pairs of types the algebra has combined, and past ``MINING_MAX_PAIRS`` it
raises ``BoundExceededError``, which (12,12,40) now meets after 21 s at
462 MB (DECISIONS.md, "Two order limits").  ``mine_obstructions`` is the
one-list case of a ``MiningPass``, which keeps only cotrees once it is made.
Each hit type its lists read is expanded into cotrees once, by following the
knapsack's back-pointers down to the leaf, through blocks of lower order
only; the number of cotrees must equal the knapsack's count, and each is
re-checked by ``is_minimal_obstruction`` when its list is first read.  The
leaf is the one record not expanded: it is a minimal obstruction only at
(0,0).  The classes up to a split order are also enumerated, as a
cross-check: their number must be A000084's, and for each (s,k) pair the
ones that are minimal obstructions by their exact profiles must be exactly
the pair's mined cotrees of those orders, so a record the knapsacks or the
expansion lose or add there is caught.  That check reads each class's
memoized profile and, for a non-polar one, the exact profiles of its
one-vertex deletions, folded by ``polarity.deleted_profiles`` from its
children's profiles without building a deleted tree; they do not depend on
(s,k), so each class is folded once per pass.  The records of those orders
are thus confirmed by two derivations: the fold and
``is_minimal_obstruction``, which rebuilds each deletion.
"""

from __future__ import annotations

import gc
import json
from bisect import bisect_left, bisect_right
from itertools import combinations_with_replacement, repeat
from math import comb
from operator import attrgetter

from . import cotrees, expressions, graphs, polarity
from .cotrees import JOIN, LEAF, UNION, Cotree, canonical_code
from .polarity import INF
from .values import FrozenValue, set_field

# Each limit is checked in this module only.  The enumerator keeps the code
# of every class it has built (1,399,068 of order 15 alone), and the cotree of
# every class of the orders asked for as trees: ``cograph_counts(15)``, codes
# only, takes 0.35-0.45 s of CPU at 196 MB peak RSS, and
# ``enumerate_cographs(15)``, which builds every cotree, 1.1-2.0 s at 498 MB
# (2-vCPU Xeon VM, Python 3.11); that memory is freed with the enumerator,
# which each call makes and drops on return.  Mining enumerates only up to
# _SPLIT_ORDER and counts the rest by type: at order 40 its peak RSS was
# 182 MB at (inf,12,40) and 323 MB at (inf,19,40).  The order limit does not
# bound cost, which follows the types and so the caps; the pair limit does: it
# bounds the successor-row entries the type algebra fills (``pairs``), checked
# after each knapsack block.  (inf,19,40) fills 692,241
# of them and (12,12,24) 1,667,821 at 212 MB; (12,12,40) meets the limit after
# 21 s of CPU at 462 MB peak RSS (same machine; see DECISIONS.md).
ENUMERATION_MAX_ORDER = 15
MINING_MAX_ORDER = 40
MINING_MAX_PAIRS = 3_000_000


class BoundExceededError(ValueError):
    pass


_SHARED_LEAF = cotrees.leaf()
_SHARED_LEAF._order = 1
_SHARED_LEAF._code = canonical_code(_SHARED_LEAF)

_CODE = attrgetter("_code")


def _insert(parts, codes, trees, i):
    """``parts``, (codes, children) in code order, with an order's i-th class inserted
    where its code falls.

    ``codes`` and ``trees`` are the order's codes and cotrees; in a walk that
    builds codes only, ``trees`` and the children are None.
    """
    have, kids = parts
    code = codes[i]
    p = bisect_right(have, code)
    if trees is not None:
        kids = kids[:p] + (trees[i],) + kids[p:]
    return have[:p] + (code,) + have[p:], kids


class CographEnumerator:
    """Incremental generator of every unlabeled cograph class, by canonical code.

    ``codes[n]`` holds the canonical codes of the classes of order n as one
    ascending tuple, which ``classes_of_order`` returns as is.  Every JOIN
    code (b"J...") sorts before every UNION code (b"U..."), so its first half
    is the connected classes and its second half the disconnected ones; order
    1 is the leaf alone, which is both.  A disconnected class is a UNION of
    parts drawn by index from the connected halves, and a connected one a
    JOIN of parts drawn by the same indices from the disconnected halves: the
    two halves of an order have the same length (complementation pairs
    them), so one walk over index multisets gives every class of both kinds
    once.  A class's code is assembled, not sorted: parts are carried in
    code order and its last part is inserted with one bisect per insertion
    place, not one per class.

    ``trees[n]`` holds the cotrees of the classes of order n, in the same
    order, for every order up to the largest asked for by
    ``trees_of_order``, which returns it as is; ``classes_of_order`` builds
    none.  The same walk builds them from the stored cotrees of the lower
    orders, so every child is a stored class or the shared leaf; each node
    gets its order and code when it is built, its children already in code
    order.  A tree build of an order whose codes are already held must give
    those codes, or it raises AssertionError.  Profiles are left to
    ``polarity.profile_dp``.

    Everything is kept as long as the enumerator, and nothing longer: each
    module function and each mining pass makes its own and drops it when it
    returns.
    """

    def __init__(self):
        self.codes = {1: (_SHARED_LEAF._code,)}
        self.trees = {1: (_SHARED_LEAF,)}

    def _build_to(self, n):
        """Build the codes of every order up to n, and no cotree."""
        _check_enumeration_bound(n)
        while len(self.codes) < n:
            m = len(self.codes) + 1
            codes = self._walk(m, None)
            # the walk gives a few hundred ascending runs, which timsort
            # merges in about linear time
            codes.sort()
            self.codes[m] = tuple(codes)

    def _build_trees_to(self, n):
        """Build the cotrees of every order up to n, with the cyclic collector paused.

        The caller's collector state is restored even on error.  The
        enumerator allocates only acyclic trees, which reference counting
        frees, so collector passes over the growing heap of stored nodes
        would find nothing.  Afterwards ``gc.freeze`` and ``gc.unfreeze``
        move the new nodes to the oldest generation without a pass, and
        leave the generation-0 count at zero, so that the young-generation
        passes the caller's next allocations start do not walk them; that is
        skipped when the caller has frozen objects of its own, which
        ``gc.unfreeze`` would release.  The next full collection still walks
        them for as long as they are alive.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            while len(self.trees) < n:
                m = len(self.trees) + 1
                trees = tuple(sorted(self._walk(m, self.trees), key=_CODE))
                codes = tuple(map(_CODE, trees))
                if self.codes.setdefault(m, codes) != codes:
                    raise AssertionError(f"the cotrees of order {m} do not give its held codes")
                self.trees[m] = trees
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
        finally:
            if enabled:
                gc.enable()

    def _walk(self, m, trees):
        """The classes of order m, unsorted.

        Cotrees when ``trees`` is ``self.trees``, which must then hold every
        order below m; codes when it is None.
        """
        out = []
        parts = ((), None if trees is None else ())
        self._add_unions(m, trees, parts, parts, 1, 0, m, out)
        return out

    def _add_unions(self, m, trees, union_parts, join_parts, o0, i0, remaining, out):
        """Add each order-m class whose parts extend the parts chosen so far, once.

        Indices (o, i) are drawn in nondecreasing order, starting at (o0, i0),
        until their orders add up to m; ``remaining`` is m minus the orders
        chosen so far.  Index (o, i) adds the i-th connected class of order o
        to ``union_parts`` and the i-th disconnected one to ``join_parts``,
        both (codes, children) in code order, each part inserted in place;
        the children are None when ``trees`` is.  The disconnected classes of
        an order start at ``half``, the length of its connected half (0 for
        the leaf, which is both).  Each multiset of at least two indices
        gives the UNION of its union parts and the JOIN of its join parts,
        added to ``out``: its code, or with ``trees`` its cotree, built in
        one step with all six slots set on ``Cotree.__new__``, so no
        initializer runs per node.  The last part runs over a half sorted by
        code, so its insertion place never decreases along it: each place p
        takes the run of parts whose codes x have codes[p-1] <= x <
        codes[p], which one bisect per place finds, not one per class.  A
        place joins its head (label, number of parts and the codes before p)
        and its tail (the codes from p on) once; each code of the run is
        then ``x.join((head, tail))``, one allocation per class, mapped over
        the run in C.
        """
        codes = self.codes
        # a part that leaves room for another has order <= remaining // 2
        for o in range(o0, remaining // 2 + 1):
            block = codes[o]
            half = len(block) // 2
            kids = None if trees is None else trees[o]
            for i in range(i0 if o == o0 else 0, len(block) - half):
                self._add_unions(
                    m,
                    trees,
                    _insert(union_parts, block, kids, i),
                    _insert(join_parts, block, kids, half + i),
                    o,
                    i,
                    remaining - o,
                    out,
                )
        if not union_parts[0]:
            return
        # the last part has the remaining order, at or after the previous part
        count = bytes((len(union_parts[0]) + 1,))
        start = i0 if remaining == o0 else 0
        block = codes[remaining]
        half = len(block) // 2
        cls = Cotree
        new = cls.__new__
        for op, first, (part_codes, kids) in ((UNION, 0, union_parts), (JOIN, half, join_parts)):
            head = op.encode("ascii") + count
            lo, end, cut = first + start, first + len(block) - half, len(part_codes)
            for p in range(cut + 1):
                hi = bisect_left(block, part_codes[p], lo, end) if p < cut else end
                if lo == hi:
                    continue
                code_head = head + b"".join(part_codes[:p])
                code_tail = b"".join(part_codes[p:])
                if kids is None:
                    out.extend(map(bytes.join, block[lo:hi], repeat((code_head, code_tail))))
                else:
                    before, after = kids[:p], kids[p:]
                    for x in trees[remaining][lo:hi]:
                        t = new(cls)
                        t.op = op
                        t.children = before + (x,) + after
                        t.vertex = None
                        t._code = code_head + x._code + code_tail
                        t._order = m
                        t._profile = None
                        out.append(t)
                lo = hi

    def classes_of_order(self, n):
        """The canonical codes of the classes of order n, ascending, as a tuple.

        The connected classes' codes come first; the tuple is the one the
        enumerator holds, so every call returns the same object.
        """
        _check_int("n", n, 1)
        self._build_to(n)
        return self.codes[n]

    def trees_of_order(self, n):
        """The cotrees of the classes of order n, by ascending code, as the held tuple.

        Builds the cotrees of every order up to n that are not built yet.
        """
        _check_int("n", n, 1)
        _check_enumeration_bound(n)
        if len(self.trees) < n:
            self._build_trees_to(n)
        return self.trees[n]


def _check_int(name, n, least):
    if isinstance(n, bool) or not isinstance(n, int) or n < least:
        raise ValueError(f"{name} must be an int >= {least}, got {n!r}")


def _check_enumeration_bound(n_max):
    if n_max > ENUMERATION_MAX_ORDER:
        raise BoundExceededError(f"enumeration bound {n_max} exceeds {ENUMERATION_MAX_ORDER}")


def enumerate_cographs(n_max):
    """An iterator over one normalized cotree per unlabeled cograph class, order 1..n_max.

    ``n_max`` is checked on the call, before the iterator is returned.  The
    iterator makes its own enumerator and keeps it until it is drained or
    dropped.
    """
    _check_int("n_max", n_max, 0)
    _check_enumeration_bound(n_max)
    enum = CographEnumerator()
    return (t for n in range(1, n_max + 1) for t in enum.trees_of_order(n))


def cograph_counts(n_max):
    """Number of unlabeled cograph classes for each order 1..n_max.

    The call makes its own enumerator, which builds codes only, and frees it
    on return.
    """
    _check_int("n_max", n_max, 0)
    _check_enumeration_bound(n_max)
    enum = CographEnumerator()
    return [len(enum.classes_of_order(n)) for n in range(1, n_max + 1)]


# -- obstruction records --------------------------------------------------------


class ObstructionRecord(FrozenValue):
    """A minimal (s,k)-polar obstruction with its type and provenance.

    ``tree`` is the normalized cotree the record was mined as, with the
    profiles memoized while mining; claims read it.  It is no part of the
    record's JSON, equality, hash or repr: a record built without it (None)
    is equal to one with it.  ``s`` and ``k`` are ints or INF.
    """

    __slots__ = (
        "code", "order", "graph6", "expression", "s", "k", "c", "i", "provenance", "bound",
        "tree",
    )
    _fields = __slots__[:-1]

    def __init__(self, code, order, graph6, expression, s, k, c, i, provenance, bound, tree=None):
        set_field(self, "code", code)
        set_field(self, "order", order)
        set_field(self, "graph6", graph6)
        set_field(self, "expression", expression)
        set_field(self, "s", s)
        set_field(self, "k", k)
        set_field(self, "c", c)
        set_field(self, "i", i)
        set_field(self, "provenance", provenance)
        set_field(self, "bound", bound)
        set_field(self, "tree", tree)

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


def cotree_type(t):
    """(c, i): number of components and number of trivial (K1) components,
    read from a normalized cotree's root: a UNION root's children are the
    components, and any other root is one component."""
    if t.op == UNION:
        return len(t.children), sum(1 for child in t.children if child.op == LEAF)
    return 1, int(t.op == LEAF)


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
    profiles survive the surgery.  Rebuilt nodes keep their children in the
    original order, not sorted by code: the profile and ``canonical_code``
    (which sorts child codes itself) do not depend on child order, but
    ``_deletion_leaves`` on the result may skip less.  An index outside
    0..order-1 raises IndexError.
    """
    if not 0 <= index < t.order:
        raise IndexError(f"leaf index {index} outside 0..{t.order - 1}")
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
    return Cotree(t.op, tuple(new_children))


def _deletion_leaves(t, offset=0):
    """Preorder index of one leaf per deletion class of t.

    A child whose canonical code equals the previous child's is skipped: the
    two subtrees are isomorphic, so deleting a leaf of one gives the same
    class as deleting the matching leaf of the other.
    """
    if t.op == LEAF:
        yield offset
        return
    previous = None
    for child in t.children:
        code = canonical_code(child)
        if code != previous:
            yield from _deletion_leaves(child, offset)
            previous = code
        offset += child.order


def is_minimal_obstruction(t, s, k):
    """True iff realize(t) is not (s,k)-polar but every vertex deletion is.

    Checks the root with the profile DP, then one deletion per class of
    isomorphic deletions (``_deletion_leaves``) with ``remove_leaf`` and the
    DP, stopping at the first non-polar one.
    """
    if polarity.profile_dp(t).admits(s, k):
        return False
    for index in _deletion_leaves(t):
        sub = remove_leaf(t, index)
        if sub is not None and not polarity.profile_dp(sub).admits(s, k):
            return False
    return True


def _minimal_codes(classes, s, k, memo):
    """The codes of the classes that are minimal (s,k)-obstructions, in order.

    ``is_minimal_obstruction``'s verdict read from each class's memoized
    profile and, for a class that is not (s,k)-polar, from its deleted
    profiles, folded by ``polarity.deleted_profiles`` and kept in ``memo``.
    """

    def polar(signatures):
        return polarity._admits(signatures, s, k)

    return [
        t._code
        for t in classes
        if not polar(polarity._node_profile(t))
        and all(map(polar, polarity.deleted_profiles(t, memo)))
    ]


def _record_from_tree(t, s, k, bound):
    c, i = cotree_type(t)
    return ObstructionRecord(
        code=canonical_code(t),
        order=t.order,
        graph6=graphs.graph6_of_rows(t.order, cotrees.adjacency_rows(t)),
        expression=expressions.unparse(cotree_to_expr(t)),
        s=s,
        k=k,
        c=c,
        i=i,
        provenance="MINED",
        bound=bound,
        tree=t,
    )


# Classes of order at most this are also enumerated: their count is compared
# with the Euler transform's and their minimal obstructions with the mined
# cotrees; it sets only how deep that cross-check goes, since every record
# comes from the type knapsacks.
_SPLIT_ORDER = 8

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


class _TypeKnapsack:
    """The op-nodes over the multisets of the blocks added so far, by (order, type).

    ``blocks`` lists (order, type, classes) in the order they were added, the
    leaf first, a block of type None standing for classes that are not live.
    A multiset of order m is live when its type is live at level
    ``levels[m]`` of ``algebra.live_at``: for one list, its (s, k) below
    n_max, and at n_max the level of no list, since nothing extends a
    multiset of that order and it is no block.  For each total order m, ``kept[m]`` maps each
    type met that is live at m or a hit for some list to its entry; a type
    can be both when the levels are joins of several lists.  ``dead[m]``
    counts every multiset that is not live at m, hits included: an extension
    of it within a bound read past m is never live nor a hit, so it is only
    counted.  An entry is a list: its number of
    multisets, then one back-pointer (previous type, block index, copies)
    per contribution, in block order, standing for the multisets whose last
    block is that block, taken that many times, over a multiset of earlier
    blocks of that previous type.  Once every block of order < n is in, the
    entries of order n count exactly the op-nodes of order n; ``limits[n]``
    records how many blocks that was, and ``_expand`` follows only pointers
    below it.
    """

    def __init__(self, algebra, op, n_max, levels):
        self.algebra, self.op, self.n_max, self.levels = algebra, op, n_max, levels
        self._live = [algebra.live_at[j] for j in levels]  # order -> type -> live
        self.blocks = []
        self.kept = [{} for _ in range(n_max + 1)]
        self.dead = [0] * (n_max + 1)
        self.limits = {}
        self.kept[0][algebra.empty] = [1]

    def add(self, o, i, c):
        """Add a block of c classes of order o and type i (None: not live).

        Bases are taken from the highest total order down, so each base
        counts only multisets of earlier blocks; a base of m0 gains r copies
        of the block, in C(c + r - 1, r) ways, at total order m0 + r o.  Each
        copy's type is read from the algebra's successor row of the block's
        type, and ``combine`` runs only on a pair not met before.  A base
        that is not live at its order, a hit, is skipped before its row
        entry is read: the type may have been live at a lower order, where
        the level was wider, and combined there, and a ``sink`` entry from
        then would count it in ``dead`` a second time.

        One loop per base order takes every base's first copy inline: about
        half the bases die on it, many of them read from the row as the
        algebra's ``sink``, and most of the others have room for no second
        copy.  Only a base whose first copy is live, with room for a second,
        walks the copies r >= 2, and only then is ``dying`` allocated:
        ``dying[r]`` counts the bases whose r-th copy is the first that is
        not live.  The bases that die on the first copy (the dead bases, the
        hits among them, and, for a None block, the live ones) are counted
        in ``first``.  Each base that dies on copy r is not live with
        r' >= r copies either, so one running sum over r adds every death to
        ``dead``.
        """
        b = len(self.blocks)
        self.blocks.append((o, i, c))
        n_max, op, kept, dead, live_of = self.n_max, self.op, self.kept, self.dead, self._live
        algebra = self.algebra
        combine, is_hit, sink = algebra.combine, algebra.hit, algebra.sink
        row = algebra.row(op, i) if i is not None else None
        weights = [comb(c + r - 1, r) for r in range(n_max // o + 1)]
        for m0 in range(n_max - o, -1, -1):
            m1 = m0 + o
            top = (n_max - m0) // o
            live0 = live_of[m0]
            first = dead[m0]  # the bases that die on their first copy
            dying = None
            if row is None:  # no multiset with this block is live
                first += sum(base[0] for t0, base in kept[m0].items() if live0[t0])
            else:
                kept1, live1 = kept[m1], live_of[m1]
                for t0, base in kept[m0].items():
                    if not live0[t0]:  # a hit, counted in dead[m0]
                        continue
                    typ = row.get(t0)
                    if typ == sink:  # the first copy is neither live nor a hit
                        first += base[0]
                        continue
                    if typ is None:
                        typ = combine(op, t0, i)
                    count = base[0]
                    live = live1[typ]
                    if live or is_hit[typ]:
                        entry = kept1.get(typ)
                        if entry is None:
                            entry = kept1[typ] = [0]
                        entry[0] += count * c
                        entry.append((t0, b, 1))
                    if not live:  # no more copies give a live type or a hit
                        first += count
                        continue
                    if top == 1:
                        continue
                    if dying is None:
                        dying = [0] * (top + 1)
                    m = m1
                    for r in range(2, top + 1):
                        nxt = row.get(typ)
                        typ = combine(op, typ, i) if nxt is None else nxt
                        m += o
                        live = live_of[m][typ]
                        if live or is_hit[typ]:
                            entry = kept[m].get(typ)
                            if entry is None:
                                entry = kept[m][typ] = [0]
                            entry[0] += count * weights[r]
                            entry.append((t0, b, r))
                        if not live:
                            dying[r] += count
                            break
            carry = first
            for r in range(1, top + 1):
                if dying is not None:
                    carry += dying[r]
                if carry:
                    dead[m0 + r * o] += carry * weights[r]

    def nodes(self, n):
        """(kept types, not-live count) of the op-nodes of order n.

        The kept types map to their numbers of classes.  Valid once every
        block of order < n is in, and before any of order n.
        """
        self.limits[n] = len(self.blocks)
        return {typ: entry[0] for typ, entry in self.kept[n].items()}, self.dead[n]


class MiningPass:
    """One type-knapsack pass over the lists of a plan, and each (s,k) pair's cotrees.

    ``lists`` are (s, k, n_max) keys, each checked as ``mine_obstructions``
    checks its arguments, before any work.  The pass mines their (s,k) pairs
    at once, at their coordinatewise join (INF above every int) and up to
    the largest bound, which ``join`` holds: the type algebra's ``sink`` is
    set at the join, ``TypeAlgebra.hit`` marks for each pair the types of
    its minimal obstructions, and a multiset of order m is live when it is
    polar at the join of the pairs read past m, so liveness narrows order by
    order.  That is exact: take a minimal (s',k')-obstruction of order n, at
    most its bound.  Its deletions are (s',k')-polar, so polar at the join,
    and each of its children, and each fold of some but not all of them, is
    (s',k')-polar, so polar at the level of every order m < n, a join of
    pairs that includes (s',k').  Its knapsack entry thus counts it, and its
    back-pointers run through live folds and live blocks only.  The
    enumerated classes of each order up to the split and the knapsacks'
    numbers of every order are checked against OEIS A000084.  Each hit a
    pair reads, up to its largest bound, is expanded once, and the pair's
    cotrees of the split orders are cross-checked once, at that bound, which
    covers every smaller one.  The pass makes its own algebra, knapsacks and
    enumerator and keeps only each pair's cotrees, which ``records`` reads.
    """

    def __init__(self, lists):
        self.lists = tuple(dict.fromkeys(lists))
        if not self.lists:
            raise ValueError("a mining pass needs at least one list")
        for s, k, n_max in self.lists:
            _check_list(s, k, n_max)
        bounds = {}  # (s, k) -> the largest bound it is read to
        for s, k, n_max in self.lists:
            bounds[(s, k)] = max(bounds.get((s, k), 0), n_max)
        pairs = sorted(bounds, key=bounds.get)  # by ascending bound
        n_top = max(bounds.values())
        s, k = map(max, zip(*pairs))
        self.join = (s, k, n_top)
        enum = CographEnumerator()
        # a multiset of order m is live at level j, the join of pairs[j:],
        # when j pairs are read to m or less; at level len(pairs) none is
        levels = [sum(bounds[pair] <= m for pair in pairs) for m in range(n_top + 1)]
        algebra = polarity.TypeAlgebra(s, k, pairs)
        expected = _euler_cograph_counts(n_top)
        # the knapsack of a parent label takes the blocks of the children it takes
        knapsacks = {
            op: _TypeKnapsack(algebra, op, n_top, levels) for op in (UNION, JOIN)
        }
        leaf, live_at = algebra.leaf, algebra.live_at
        # the leaf is a child under both labels: one block of order 1, None if not live
        first = ({leaf: 1}, 0) if n_top and live_at[levels[1]][leaf] else ({}, 1)
        blocks = {UNION: first, JOIN: first}
        hits = []  # (label, order, type, classes) of each type that is a hit for a pair

        for n in range(1, n_top + 1):
            if n <= _SPLIT_ORDER:
                enum.trees_of_order(n)
                count = len(enum.classes_of_order(n))
                if count != expected[n - 1]:
                    raise AssertionError(f"{count} classes of order {n}, not {expected[n - 1]}")
            if n > 1:
                total = 0
                for op, knapsack in knapsacks.items():
                    kept, not_live = knapsack.nodes(n)
                    # a kept type live at the join but not at n is counted in not_live
                    live = {i: c for i, c in kept.items() if live_at[levels[n]][i]}
                    hits.extend((op, n, i, c) for i, c in kept.items() if algebra.hit[i])
                    total += sum(live.values()) + not_live
                    blocks[_OTHER[op]] = live, not_live  # an op-node is a child of the other label
                if total != expected[n - 1]:
                    raise AssertionError(
                        f"the type knapsack counts {total} classes of order {n}, "
                        f"not {expected[n - 1]}"
                    )
            if n < n_top:  # no later order takes them
                for op, (live, not_live) in blocks.items():
                    for i in sorted(live):
                        knapsacks[op].add(n, i, live[i])
                        if algebra.pairs > MINING_MAX_PAIRS:  # a None block fills no row
                            raise BoundExceededError(
                                f"mining ({encode_param(s)},{encode_param(k)},{n_top}) "
                                f"combined {algebra.pairs} type pairs, above the limit "
                                f"{MINING_MAX_PAIRS}"
                            )
                    if not_live:
                        knapsacks[op].add(n, None, not_live)
        # the hits each pair reads: those its bit names, up to its bound
        read = {
            pair: [hit for hit in hits if algebra.hit[hit[2]] >> j & 1 and hit[1] <= bounds[pair]]
            for j, pair in enumerate(pairs)
        }
        wanted = list(dict.fromkeys(hit for pair_hits in read.values() for hit in pair_hits))
        built = dict(zip(wanted, _expand(knapsacks, wanted)))
        memo = {}  # code -> the exact deleted profiles the cross-check folds
        self._trees = {}  # (s, k) -> its cotrees up to its bound
        for j, (s, k) in enumerate(pairs):
            bound = bounds[(s, k)]
            trees = [_SHARED_LEAF] if algebra.hit[algebra.leaf] >> j & 1 and bound else []
            trees.extend(t for hit in read[(s, k)] for t in built[hit])
            minimal = []  # codes of the enumerated minimal obstructions
            for n in range(1, min(bound, _SPLIT_ORDER) + 1):
                minimal.extend(_minimal_codes(enum.trees_of_order(n), s, k, memo))
            found = [canonical_code(t) for t in trees if t.order <= _SPLIT_ORDER]
            if sorted(found) != sorted(minimal):
                raise AssertionError(
                    f"the mined classes of order <= {_SPLIT_ORDER} ({len(found)}) are not "
                    f"the enumerated minimal obstructions ({len(minimal)})"
                )
            self._trees[(s, k)] = trees

    def records(self, s, k, n_max):
        """The minimal (s,k)-obstructions of order <= n_max, as records, by (order, code).

        (s,k) must be a pair of the pass, and n_max at most the largest bound
        of its lists, or KeyError is raised.  Each of the pair's cotrees of
        order <= n_max must pass ``is_minimal_obstruction``, or
        AssertionError is raised.
        """
        if n_max > max((n for s1, k1, n in self.lists if (s1, k1) == (s, k)), default=-1):
            raise KeyError(f"({encode_param(s)},{encode_param(k)},{n_max}) is not in the pass")
        records = []
        for t in self._trees[(s, k)]:
            if t.order <= n_max:
                if not is_minimal_obstruction(t, s, k):
                    raise AssertionError("a class mined by its type is not a minimal obstruction")
                records.append(_record_from_tree(t, s, k, n_max))
        records.sort(key=ObstructionRecord.sort_key)
        return records


def _check_list(s, k, n_max):
    """Raise unless (s, k, n_max) can be mined, before any work."""
    polarity.check_param("s", s)
    polarity.check_param("k", k)
    _check_int("n_max", n_max, 0)
    if n_max > MINING_MAX_ORDER:
        raise BoundExceededError(f"mining bound {n_max} exceeds {MINING_MAX_ORDER}")


def _expand(knapsacks, hits):
    """The cotrees of each hit type, drawn down to the leaf, one list per hit.

    Each hit follows its knapsack's back-pointers below the limit of its
    order, so its children come from blocks of lower order only; every block
    but the leaf, the first, is expanded once, the same way, in the other
    label's knapsack, and its classes are shared by every hit built on it.
    A hit that expands to other than its number of classes raises
    AssertionError.
    """
    built = {(op, 0): [_SHARED_LEAF] for op in knapsacks}  # (parent label, block) -> classes

    def children(op, b):
        if (op, b) not in built:
            o, i, _ = knapsacks[op].blocks[b]
            built[(op, b)] = nodes(_OTHER[op], o, i)
        return built[(op, b)]

    def folds(op, m, typ, limit):
        """The child tuples of the multisets of order m and type typ over blocks below limit."""
        if m == 0:
            return [()]
        knapsack, out = knapsacks[op], []
        for t0, b, r in knapsack.kept[m][typ][1:]:  # the first item is the count
            if b >= limit:
                break
            picks = list(combinations_with_replacement(children(op, b), r))
            for prefix in folds(op, m - r * knapsack.blocks[b][0], t0, b):
                out.extend(prefix + pick for pick in picks)
        return out

    def nodes(op, n, i):
        limit = knapsacks[op].limits[n]
        return [cotrees.node(op, kids) for kids in folds(op, n, i, limit)]

    out = []
    for op, n, i, count in hits:
        trees = nodes(op, n, i)
        if len(trees) != count:
            raise AssertionError(f"a hit type expands to {len(trees)} classes, not {count}")
        out.append(trees)
    # the nested functions reach each other through their closure cells: a
    # cycle that holds the knapsacks and the algebra until the cyclic
    # collector runs; emptying the cells frees them when this returns
    del children, folds, nodes
    return out


def mine_obstructions(s, k, n_max):
    """All minimal (s,k)-polar obstructions of order <= n_max.

    Deterministic output ordered by (order, canonical code).  The bound
    travels with every record: completeness beyond n_max is never implied.
    The one-list case of ``MiningPass``: every class found is re-checked by
    ``is_minimal_obstruction``; a class it rejects raises AssertionError.
    s and k must be non-negative ints or INF, and n_max a non-negative int,
    or ValueError is raised before any work.
    An n_max above ``MINING_MAX_ORDER`` raises ``BoundExceededError`` before
    any work; so does, during the mining, a type algebra that has combined
    more than ``MINING_MAX_PAIRS`` pairs.
    """
    return MiningPass([(s, k, n_max)]).records(s, k, n_max)


def records_to_jsonl(records):
    return "\n".join(r.to_json() for r in records)
