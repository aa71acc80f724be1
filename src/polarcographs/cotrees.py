"""Cotrees: cograph recognition, canonical codes, and isomorphism.

A cotree is a rooted tree whose internal nodes are labeled UNION or JOIN,
labels alternating along every root-leaf path, every internal node with at
least two children.  Recognition either returns the normalized cotree of a
graph or a four-vertex induced-path certificate proving it is not a cograph.
"""

from __future__ import annotations

from itertools import combinations

from . import graphs
from .graphs import Graph, bits
from .values import FrozenValue, set_field

LEAF = "leaf"
UNION = "U"
JOIN = "J"

_LEAF_CODE = b"L"


class MalformedCotreeError(ValueError):
    pass


class NotCographError(ValueError):
    """Raised when a cograph-only operation receives a graph with an induced P4."""

    def __init__(self, certificate):
        super().__init__(f"graph contains an induced P4 on vertices {certificate.vertices}")
        self.certificate = certificate


class P4Certificate(FrozenValue):
    """Four vertex ids (a, b, c, d) inducing the path a-b-c-d."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        set_field(self, "vertices", vertices)

    def validates_against(self, g):
        a, b, c, d = self.vertices
        if len({a, b, c, d}) != 4:
            return False
        edges = [(a, b), (b, c), (c, d)]
        non_edges = [(a, c), (a, d), (b, d)]
        return all(g.has_edge(u, v) for u, v in edges) and not any(
            g.has_edge(u, v) for u, v in non_edges
        )


class Cotree:
    """Immutable cotree node.  Leaves may carry the vertex id they represent."""

    __slots__ = ("op", "children", "vertex", "_code", "_order", "_profile")

    def __init__(self, op, children=(), vertex=None):
        self.op = op
        self.children = tuple(children)
        self.vertex = vertex
        self._code = None
        self._order = None
        self._profile = None  # polarity memo: signature antichain of this subtree

    @property
    def order(self):
        if self._order is None:
            if self.op == LEAF:
                self._order = 1
            else:
                self._order = sum(c.order for c in self.children)
        return self._order

    def __repr__(self):
        return f"Cotree({render(self)})"


def leaf(vertex=None):
    return Cotree(LEAF, vertex=vertex)


def node(op, children):
    """Build an internal node; children must already be normalized and label-alternating."""
    children = tuple(sorted(children, key=canonical_code))
    if len(children) < 2:
        raise MalformedCotreeError("internal node needs at least two children")
    for c in children:
        if c.op == op:
            raise MalformedCotreeError("non-alternating labels")
    return Cotree(op, children)


def compose(op, parts):
    """Normalized op-node over normalized parts: a part with the same label is
    spliced in, and a single part is itself."""
    kids = []
    for p in parts:
        if p.op == op:
            kids.extend(p.children)
        else:
            kids.append(p)
    if len(kids) == 1:
        return kids[0]
    return node(op, kids)


def check_node(t):
    """Check one internal node's shape, not its subtrees; raises MalformedCotreeError."""
    if len(t.children) < 2:
        raise MalformedCotreeError("internal node with fewer than two children")
    for c in t.children:
        if c.op == t.op:
            raise MalformedCotreeError("labels do not alternate")


def validate(t):
    """Check well-formedness; raises MalformedCotreeError."""
    if t.op == LEAF:
        return
    check_node(t)
    for c in t.children:
        validate(c)


# -- recognition -------------------------------------------------------------


def _find_p4(g, mask):
    for quad in combinations(list(bits(mask)), 4):
        sub = [(g.rows[v] & graphs.mask_of(quad)).bit_count() for v in quad]
        if sorted(sub) == [1, 1, 2, 2] and sum(sub) == 6:
            # degree sequence (1,1,2,2) with 3 edges forces P4; order as a path
            ends = [v for v, d in zip(quad, sub) if d == 1]
            mids = [v for v, d in zip(quad, sub) if d == 2]
            a = ends[0]
            b = mids[0] if g.has_edge(ends[0], mids[0]) else mids[1]
            c = mids[1] if b == mids[0] else mids[0]
            d = ends[1]
            cert = P4Certificate((a, b, c, d))
            if cert.validates_against(g):
                return cert
    return None


def recognize(g):
    """Cotree of g (leaves carry g's vertex ids) or a P4 certificate.

    Recursive modular split: recurse on components under a UNION root, on
    co-components under a JOIN root, and extract a P4 when neither splits.
    """
    if g.n == 0:
        raise graphs.GraphError("the empty graph has no cotree")
    return _recognize_mask(g, g.full_mask())


def _recognize_mask(g, mask):
    if mask.bit_count() == 1:
        return leaf(mask.bit_length() - 1)
    for op, parts_in in ((UNION, graphs.components_in), (JOIN, graphs.co_components_in)):
        parts = parts_in(g, mask)
        if len(parts) > 1:
            kids = []
            for part in parts:
                sub = _recognize_mask(g, part)
                if isinstance(sub, P4Certificate):
                    return sub
                kids.append(sub)
            return node(op, kids)
    cert = _find_p4(g, mask)
    if cert is None:  # pragma: no cover - both G and co-G connected implies a P4
        raise AssertionError("connected, co-connected graph without P4")
    return cert


def is_cograph(g):
    return g.n == 0 or not isinstance(recognize(g), P4Certificate)


def cotree_of(g):
    """Cotree of g; raises NotCographError with the certificate otherwise."""
    t = recognize(g)
    if isinstance(t, P4Certificate):
        raise NotCographError(t)
    return t


# -- realization -------------------------------------------------------------


def leaf_vertices(t):
    """Vertex id for each leaf in preorder; ids fall back to preorder position."""
    out = []

    def walk(nd):
        if nd.op == LEAF:
            out.append(nd.vertex)
            return
        for c in nd.children:
            walk(c)

    walk(t)
    if any(v is None for v in out) or sorted(v for v in out) != list(range(len(out))):
        out = list(range(len(out)))
    return out


def adjacency_rows(t):
    """Adjacency rows of the graph a cotree represents, vertex j its j-th leaf in preorder.

    Two leaves are adjacent iff their lowest common ancestor is a JOIN node.
    A subtree's leaves are consecutive in preorder, so its vertex mask is a
    run of bits; one walk down the tree hands each child what its leaves
    are adjacent to outside it: its JOIN parent's other children, and what
    the parent was handed.  The node shapes are not checked.
    """
    rows = []

    def walk(nd, start, outside):
        """Append the rows of the leaves below nd, the first of them vertex ``start``."""
        join = nd.op == JOIN
        whole = ((1 << nd.order) - 1) << start
        for c in nd.children:
            size = 1 if c.op == LEAF else c.order
            inner = outside | whole ^ (((1 << size) - 1) << start) if join else outside
            if size == 1:  # only a leaf has order 1
                rows.append(inner)
            else:
                walk(c, start, inner)
            start += size

    if t.op == LEAF:
        return [0]
    walk(t, 0, 0)
    return rows


def realize(t):
    """Graph represented by a cotree: u,v adjacent iff their LCA is a JOIN node.

    Vertex ids are the leaves' own (``leaf_vertices``).
    """
    validate(t)
    ids = leaf_vertices(t)
    rows = adjacency_rows(t)
    if ids != list(range(len(ids))):
        out = [0] * len(ids)
        for j, row in enumerate(rows):
            out[ids[j]] = graphs.mask_of(ids[u] for u in bits(row))
        rows = out
    return Graph(len(rows), rows)


def _strip_ids(t):
    if t.op == LEAF:
        return Cotree(LEAF)
    return Cotree(t.op, tuple(_strip_ids(c) for c in t.children))


def canonical_relabel(g):
    """Isomorphic copy with the canonical labeling: preorder of the sorted cotree.

    Isomorphic cographs map to the identical Graph (and graph6 string).
    """
    return realize(_strip_ids(cotree_of(g)))


# -- canonical codes ----------------------------------------------------------


def canonical_code(t):
    """Deterministic byte string; equal iff the realized cographs are isomorphic.

    A node's code is its label, its child count, then the sorted child codes;
    every leaf shares one fixed code.  Codes are self-delimiting, so byte
    equality is structural equality of the normalized tree.
    """
    if t._code is not None:
        return t._code
    if t.op == LEAF:
        code = _LEAF_CODE
    else:
        kid_codes = sorted(canonical_code(c) for c in t.children)
        head = (UNION if t.op == UNION else JOIN).encode("ascii")
        code = head + bytes([len(kid_codes)]) + b"".join(kid_codes)
    t._code = code
    return code


def code_hex(t):
    return canonical_code(t).hex()


def flip_labels(t, _memo=None):
    """Swap UNION and JOIN everywhere: the cotree of the complement graph."""
    if _memo is None:
        _memo = {}
    key = id(t)
    if key in _memo:
        return _memo[key]
    if t.op == LEAF:
        out = t
    else:
        out = Cotree(
            UNION if t.op == JOIN else JOIN,
            tuple(sorted((flip_labels(c, _memo) for c in t.children), key=canonical_code)),
        )
    _memo[key] = out
    return out


def is_isomorphic(g, h):
    """Cographs via canonical codes; anything else via permutation backtracking."""
    if g.n != h.n:
        return False
    if g.n == 0:
        return True
    tg = recognize(g)
    th = recognize(h)
    g_is = not isinstance(tg, P4Certificate)
    h_is = not isinstance(th, P4Certificate)
    if g_is != h_is:
        return False
    if g_is:
        return canonical_code(tg) == canonical_code(th)
    return graphs.brute_force_isomorphic(g, h)


# -- rendering ----------------------------------------------------------------


def render(t):
    """Nested U(...)/J(...) debugging notation."""
    if t.op == LEAF:
        return "*" if t.vertex is None else str(t.vertex)
    inner = ",".join(render(c) for c in t.children)
    return f"{t.op}({inner})"
