"""Finite simple graphs on bitset adjacency rows.

Vertices are 0..n-1.  Each row is a Python int used as a bit vector, so
intersection, union and popcount are single machine operations for the
orders this library ever touches (hard cap 64; enumeration stays <= 15 and
mining <= 40).
Graphs are immutable after construction.
"""

from __future__ import annotations

from itertools import permutations

MAX_ORDER = 64
# brute-force isomorphism walks up to n! permutations: C9 against C4 + C5
# takes 1-1.5 s of CPU, and each vertex more about n times that
ISOMORPHISM_MAX_ORDER = 9


class GraphError(ValueError):
    pass


def _bit(v):
    return 1 << v


def bits(mask):
    """Iterate set bit positions of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Immutable simple graph: order ``n`` plus one adjacency bitmask per vertex."""

    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        if n < 0 or n > MAX_ORDER:
            raise GraphError(f"order {n} outside supported range 0..{MAX_ORDER}")
        rows = tuple(rows)
        if len(rows) != n:
            raise GraphError("row count does not match order")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise GraphError(f"adjacency bits beyond order in row {v}")
            if row & _bit(v):
                raise GraphError(f"self-loop at vertex {v}")
        for v, row in enumerate(rows):
            for u in bits(row):
                if not rows[u] & _bit(v):
                    raise GraphError(f"asymmetric adjacency {v},{u}")
        self.n = n
        self.rows = rows

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_edges(cls, n, edges):
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError("self-loop")
            rows[u] |= _bit(v)
            rows[v] |= _bit(u)
        return cls(n, rows)

    @classmethod
    def empty(cls, n):
        return cls(n, [0] * n)

    @classmethod
    def complete(cls, n):
        full = (1 << n) - 1
        return cls(n, [full ^ _bit(v) for v in range(n)])

    @classmethod
    def path(cls, n):
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n):
        if n < 3:
            raise GraphError("cycle needs at least 3 vertices")
        edges = [(i, (i + 1) % n) for i in range(n)]
        return cls.from_edges(n, edges)

    # -- basic queries ----------------------------------------------------

    def has_edge(self, u, v):
        return bool(self.rows[u] & _bit(v))

    def degree(self, v):
        return self.rows[v].bit_count()

    def edges(self):
        out = []
        for v in range(self.n):
            for u in bits(self.rows[v] >> (v + 1)):
                out.append((v, u + v + 1))
        return out

    def edge_count(self):
        return sum(r.bit_count() for r in self.rows) // 2

    def full_mask(self):
        return (1 << self.n) - 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


# -- operations ------------------------------------------------------------


def complement(g):
    full = g.full_mask()
    return Graph(g.n, [(~row & full) ^ _bit(v) for v, row in enumerate(g.rows)])


def disjoint_union(g, h):
    """G + H: g's vertices first, h's shifted by g.n."""
    rows = list(g.rows) + [row << g.n for row in h.rows]
    return Graph(g.n + h.n, rows)


def join(g, h):
    """G joined with H: disjoint union plus all cross edges."""
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [row | hmask for row in g.rows]
    rows += [(row << g.n) | gmask for row in h.rows]
    return Graph(g.n + h.n, rows)


def _parts_in(g, vertex_mask, flip):
    """Components of G[mask] (flip 0) or of its complement (flip -1), as masks
    ordered by least vertex.

    Each component grows from the rows ``g.rows[v] ^ flip``.  In the
    complement ``~row`` also holds v's own bit, but v is already in the
    component being grown, so no extra mask is needed.
    """
    rows = g.rows
    out = []
    remaining = vertex_mask
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= rows[v] ^ flip
            frontier = grow & vertex_mask & ~comp
            comp |= frontier
        out.append(comp)
        remaining &= ~comp
    return out


def components_in(g, vertex_mask):
    """Connected components restricted to ``vertex_mask``, as masks ordered by least vertex."""
    return _parts_in(g, vertex_mask, 0)


def co_components_in(g, vertex_mask):
    """Components of the complement, restricted to ``vertex_mask``."""
    return _parts_in(g, vertex_mask, -1)


def _clique_parts_in(g, vertex_mask, flip):
    """Number of (co-)components of G[mask] if each is a clique of G (flip 0)
    or of its complement (flip -1), else None.

    Vertices in different co-components are adjacent, so a graph whose
    co-components are independent sets is complete multipartite.
    """
    comps = _parts_in(g, vertex_mask, flip)
    for comp in comps:
        for v in bits(comp):
            if ((g.rows[v] ^ flip) & comp) | _bit(v) != comp:
                return None
    return len(comps)


def cluster_parts_in(g, vertex_mask):
    """Component count if G[mask] is a cluster (disjoint union of cliques), else None."""
    return _clique_parts_in(g, vertex_mask, 0)


def multipartite_parts_in(g, vertex_mask):
    """Part count if G[mask] is complete multipartite, else None."""
    return _clique_parts_in(g, vertex_mask, -1)


def brute_force_isomorphic(g, h):
    """Permutation-backtracking isomorphism test; the slow reference path.

    Graphs of equal order above ``ISOMORPHISM_MAX_ORDER`` (9) raise
    GraphError before any permutation is walked.
    """
    if g.n != h.n:
        return False
    if g.n > ISOMORPHISM_MAX_ORDER:
        raise GraphError(f"brute-force isomorphism limited to order {ISOMORPHISM_MAX_ORDER}")
    if g.edge_count() != h.edge_count():
        return False
    if sorted(map(g.degree, range(g.n))) != sorted(map(h.degree, range(h.n))):
        return False
    for perm in permutations(range(g.n)):
        if all(g.rows[v].bit_count() == h.rows[perm[v]].bit_count() for v in range(g.n)):
            if all(
                bool(g.rows[u] & _bit(v)) == bool(h.rows[perm[u]] & _bit(perm[v]))
                for u in range(g.n)
                for v in range(u + 1, g.n)
            ):
                return True
    return False


# -- graph6 / DOT ------------------------------------------------------------


def graph6_encode(g):
    """Header-less graph6 string per the standard format."""
    return graph6_of_rows(g.n, g.rows)


def graph6_of_rows(n, rows):
    """``graph6_encode`` of the graph of order n with these symmetric adjacency rows.

    The body is the upper triangle column by column, bit (u, v) for u < v
    in order of v then u, six bits to a character: column v is row v's
    bits below v, lowest first.
    """
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    body = "".join(format(rows[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, n))
    body += "0" * (-len(body) % 6)
    chars = [int(body[x : x + 6], 2) + 63 for x in range(0, len(body), 6)]
    return bytes(head + chars).decode("ascii")


def graph6_decode(text):
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<"):]
    raw = [ord(ch) - 63 for ch in data]
    if any(x < 0 or x > 63 for x in raw):
        raise GraphError("invalid graph6 character")
    if raw and raw[0] == 63:
        if len(raw) < 4:
            raise GraphError("truncated graph6 order")
        n = (raw[1] << 12) | (raw[2] << 6) | raw[3]
        raw = raw[4:]
    else:
        if not raw:
            raise GraphError("empty graph6 input")
        n = raw[0]
        raw = raw[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(raw) != need:
        raise GraphError("graph6 body length mismatch")
    bitstream = []
    for x in raw:
        for shift in range(5, -1, -1):
            bitstream.append((x >> shift) & 1)
    rows = [0] * n
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bitstream[idx]:
                rows[u] |= _bit(v)
                rows[v] |= _bit(u)
            idx += 1
    return Graph(n, rows)


def to_dot(g, name="G"):
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)
