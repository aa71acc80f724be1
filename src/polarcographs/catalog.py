"""Published obstruction lists and structural claims as machine-checkable data.

Each claim is stored as concrete expressions (instantiated per k where the
statement is parameterized) and verified against exhaustive mining by
canonical-code set equality.  Recursive constructions are checked in both
directions: everything the recursion builds must be mined, and everything
mined in the claim's scope must arise from the recursion.  thm17 and thm19
are one such check, ``_verify_lift``, given each row's scope, source and lift.

Every claim is one row of the ordered table ``CLAIMS``, in ``verify_all``
order.  A row applies at every k >= ``k_min`` (at every k, None included,
when unset) or only at ``k_only``, the k of a complete list, which is also
its k when none is given.  A list claim has ``texts`` (k -> expression
texts), ``covers`` ((record, k) -> whether the list must hold that mined
record; unset covers all), ``mining`` ((s, k) to read, None meaning the
claim's k) and ``compare`` (the verdict, set equality up to the bound unless
overridden).  Any other claim has ``check`` ((claim id, k, cache, n_max) ->
verdict) and ``reads`` ((k, n_max) -> the lists the check reads).
``verify_claim`` is the one entry point: it resolves a claim's row and k
once, then runs the row's check or compares its list (read from the claim's
file when a catalog directory is given) with the records.

Each row declares the (s, k, bound) lists it reads (``Claim.lists``), as
``_list_key`` gives them: (s,k) to ``_mining_bound``, or to a caller's
n_max, which is the claim's bound and is mined exactly.  ``verify_all``
declares the lists of all its rows to the cache before the first read, and
``verify_claim`` those of its row, so one knapsack pass
(``obstructions.MiningPass``) mines them all; each claim reads the records
up to its own bound (``_read``).  The conjectured largest order 3(k+1) is
written once, in ``conjectured_order``.

Claims are checked on normalized cotrees, and no Graph is built: an
expression's cotree comes from ``expressions.to_cotree``, and a record's is
the one it was mined as (``ObstructionRecord.tree``), which carries the
profiles memoized while mining.  A UNION root's children are the graph's
components, so the covers (a P3 component, a cluster) and thm11's splits
read the root's parts.  The lifts of thm17 and thm19 and thm11's sums are
built as nodes (``cotrees.compose``) and profiled by ``polarity.profile_dp``;
thm2's complement is ``cotrees.flip_labels``, and thm11's side deletions are
``obstructions.remove_leaf``.  Evaluating to a Graph and recognizing it
back, and the graph structure tests, stay as the test oracles of these
readings.

A verdict is PASS, FAIL, INFO (counted as passed) or INCONCLUSIVE: the
bound does not reach past the claim, so it was not probed; not a pass.
"""

from __future__ import annotations

import json
import os
from functools import partial
from time import process_time

from . import expressions, obstructions, polarity
from .cotrees import JOIN, LEAF, UNION, canonical_code, compose, flip_labels
from .polarity import INF
from .values import FrozenValue, Value, set_field


class UnknownClaimError(KeyError):
    pass


class ClaimParameterError(ValueError):
    pass


# -- expression builders ---------------------------------------------------------


def _rep(count, text):
    if count == 0:
        return None
    if count == 1:
        return text
    if any(ch in text for ch in "+*~ ("):
        return f"{count}({text})"
    return f"{count}{text}"


def _u(*parts):
    kept = [p for p in parts if p]
    return " + ".join(kept)


FIG1 = (
    "K1 * C4",
    "K2 * 2K2",
    "~(2P3)",
    "K1 * (K2 + P3)",
)

THM21_LIST = (
    # connected
    "~(P3 + K1 * C4)",
    "~(P3 + K2 * 2K2)",
    "~(P3 + ~(2P3))",
    "~(P3 + K1 * (K2 + P3))",
    # disconnected, no isolated vertices
    "P3 + C4",
    "P3 + K1 * 2K2",
    "2P3 + K2",
    # four components
    "3K1 + K1 * C4",
    "K1 + 2K2 + K{1,1}",
    "2K1 + K2 + K{2,2}",
    "3K1 + K{3,3}",
    # three components, at least one isolated vertex
    "2K1 + ~(2P3)",
    "2K1 + K1 * (P3 + K2)",
    "2K1 + K2 * 2K2",
    "2K1 + K1 * (C4 + K1)",
    "2K1 + K1 * ~(P3 + K2)",
    "2K1 + ~K2 * (P3 + K1)",
    "K1 + K2 + 2K1 * (K2 + K1)",
    "2K1 + 2K1 * (K2 + 2K1)",
    # two components, one isolated vertex
    "K1 + K1 * (K1 + 2K2)",
    "K1 + K1 * (2K1 + C4)",
    "K1 + K1 * 2P3",
    "K1 + K1 * (K1 + ~(K2 + P3))",
)

THM22_LIST = (
    # connected
    "~(P3 + K1 * C4)",
    "~(P3 + K2 * 2K2)",
    "~(P3 + ~(2P3))",
    "~(P3 + K1 * (K2 + P3))",
    # no isolated vertices, no P3 component
    "2C4",
    "2(K1 * 2K2)",
    "C4 + K1 * 2K2",
    # with a P3 component
    "P3 + P3 + 2K2",
    "P3 + K2 + K1 * 2K2",
    "P3 + K2 + C4",
    "P3 + K{3,3}",
    "P3 + 2K1 * (K2 + 2K1)",
    "P3 + K1 * (K1 + 2K2)",
    "P3 + K1 * C4",
    "P3 + ~(2P3)",
    "P3 + K2 * 2K2",
    "P3 + K1 * (K2 + P3)",
    # five components
    "4K1 + K1 * C4",
    "K1 + 3K2 + K{1,1}",
    "2K1 + 2K2 + K{2,2}",
    "3K1 + K2 + K{3,3}",
    "4K1 + K{4,4}",
    # four components, at least one isolated vertex
    "3K1 + ~(2P3)",
    "3K1 + K1 * (P3 + K2)",
    "3K1 + K2 * 2K2",
    "3K1 + K1 * (C4 + K1)",
    "3K1 + K1 * ~(P3 + K2)",
    "3K1 + ~K2 * (P3 + K1)",
    "K1 + 2K2 + ~K2 * (K2 + K1)",
    "2K1 + K2 + ~K2 * (K2 + 2K1)",
    "3K1 + ~K2 * (K2 + 3K1)",
    # three components, at least one isolated vertex
    "2K1 + K1 * (C4 + 2K1)",
    "2K1 + K1 * 2P3",
    "2K1 + K1 * (K1 + ~(P3 + K2))",
    "2K1 + K1 * (K2 + ~(P3 + K1))",
    "2K1 + K2 * (K1 + 2K2)",
    "2K1 + K1 * (K1 + K2 + P3)",
    "2K1 + K1 * (K1 + K1 * 2K2)",
    "K1 + K2 + K1 * (2K2 + K1)",
    "2K1 + K1 * (2K2 + 2K1)",
    # two components, one isolated vertex
    "K1 + K1 * (P3 + C4)",
    "K1 + K1 * (P3 + K1 * 2K2)",
    "K1 + K1 * (2P3 + K2)",
    "K1 + K1 * (K1 + 3K2)",
    "K1 + K1 * (2K1 + K2 + C4)",
    "K1 + K1 * (3K1 + K{3,3})",
    "K1 + K1 * (K1 + K2 + 2K1 * (K2 + K1))",
    "K1 + K1 * (2K1 + 2K1 * (K2 + 2K1))",
    "K1 + K1 * (K1 + K1 * (K1 + 2K2))",
)

TYPE_KP1_K_CORES = (
    "~(2P3)",
    "(P3 + K2) * K1",
    "2K2 * K2",
    "K1 * (C4 + K1)",
    "K1 * ~(P3 + K2)",
    "~K2 * (P3 + K1)",
)  # plus ~K2 * (K2 + kK1), which depends on k


def _type_k_km1_cores(k):
    return (
        "K1 * (C4 + 2K1)",
        "K1 * 2P3",
        "K1 * (K1 + ~(P3 + K2))",
        "K1 * (K2 + ~(P3 + K1))",
        "K2 * (K1 + 2K2)",
        "K1 * (K1 + K2 + P3)",
        "K1 * (K1 + K1 * 2K2)",
        f"K1 * ({_u(_rep(k - 1, 'K1'), '2K2')})",
    )


def _connected_one_s_obstructions(s):
    """Connected minimal (1,s)-polar obstructions that are not (1,inf)-obstructions."""
    if s < 1:
        raise ClaimParameterError("s must be positive")
    if s == 1:
        return ["C4"]
    return [
        f"K{{{s + 1},{s + 1}}}",
        f"~K2 * ({_u('K2', _rep(s, 'K1'))})",
        f"K1 * ({_u('2K2', _rep(s - 1, 'K1'))})",
    ]


# -- claim instantiation -----------------------------------------------------------


# expression text -> its parse; expressions are immutable, so one parse per
# text serves the whole process
_PARSED = {}


def _exprs(texts):
    """The parsed expressions of the texts, as a new list; each text is parsed once."""
    out = []
    for text in texts:
        e = _PARSED.get(text)
        if e is None:
            e = _PARSED[text] = expressions.parse(text)
        out.append(e)
    return out


def _thm15_texts(k):
    cores = [_u("P3", _rep(k - 1, "K2")), _u(_rep(k - 2, "K2"), "K1 * 2K2")]
    for j in range(1, k):
        for h in _connected_one_s_obstructions(j):
            cores.append(_u(_rep(k - j - 1, "K2"), h))
    if k >= 3:
        cores.extend(FIG1)
    return [f"P3 + ({core})" for core in cores]


def _cor20_texts(item, core, k):
    """Item m (1-3) lists pK1 + (k+2-m-p)K2 + core(p) for p = 1..k+2-m."""
    p_max = k + 2 - item
    return [_u(_rep(p, "K1"), _rep(p_max - p, "K2"), core(p)) for p in range(1, p_max + 1)]


def instantiate(claim_id, k=None):
    """Concrete expression list for a list-shaped claim at parameter k."""
    row = _row(claim_id, "texts")
    return _exprs(row.texts(_claim_k(row, k)))


# -- mining cache ------------------------------------------------------------------


class MiningCache:
    """The records of each (s, k, bound) list, mined by one pass for a plan of them.

    ``plan`` declares the lists that later reads will ask for, and the first
    ``mine`` after it runs one ``obstructions.MiningPass`` over all of them,
    and the list it asks for if that was not declared; each list's records
    are built at its own first read, from the pass, which the cache drops
    once every one of its lists has been read.  ``passes`` records each pass
    as (join (s, k, n_max), lists, CPU seconds of the pass).  Each pass owns
    what it builds and keeps only the cotrees its lists read, so a pending
    pass holds no knapsack, type algebra or enumerator.
    """

    def __init__(self):
        self._mined = {}  # key -> its records
        self._pending = {}  # key -> the pass that holds it, until its first read
        self._planned = {}  # keys for the next pass, in the order declared
        self.passes = []

    def plan(self, keys):
        """Declare (s, k, n_max) lists for the next pass; known ones are left out."""
        for key in keys:
            if key not in self._mined and key not in self._pending:
                self._planned[key] = None

    def mine(self, s, k, n_max):
        key = (s, k, n_max)
        records = self._mined.get(key)
        if records is None:
            found = self._pending.pop(key, None)
            if found is None:
                lists = tuple(dict.fromkeys((*self._planned, key)))
                self._planned.clear()
                start = process_time()
                found = obstructions.MiningPass(lists)
                self.passes.append((found.join, lists, process_time() - start))
                self._pending.update((other, found) for other in lists if other != key)
            records = self._mined[key] = found.records(s, k, n_max)
        return records


def conjectured_order(k):
    """3(k+1), the conjectured largest order of a minimal (inf,k)-polar
    obstruction (conj2); 10 when k is inf.  It is also ``mine``'s default bound."""
    if k == INF:
        return 10
    return 3 * (k + 1)


def _mining_bound(s, k):
    """The one order (s,k) is mined to in a verification that gives no n_max."""
    if k == INF:
        return conjectured_order(k)
    if s == 1:
        return 2 * k + 4  # K{k+1,k+1} has order 2k+2; leave headroom of 2
    return conjectured_order(k) + 1  # one past it, for conj1 and conj2


def _list_key(s, k, n_max=None):
    """The (s, k, bound) list a claim on (s,k) reads: a caller's n_max, else
    ``_mining_bound``."""
    return s, k, _mining_bound(s, k) if n_max is None else n_max


def _read(cache, s, k, n_max=None):
    """The bound a claim on (s,k) reports, and the records of (s,k) up to it:
    a caller's n_max, mined exactly; else 3(k+1) for (inf,k) and the whole
    mining otherwise, read from the one list of (s,k) to ``_mining_bound``."""
    mined = _list_key(s, k, n_max)[2]
    bound = min(mined, conjectured_order(k)) if n_max is None else n_max
    return bound, [r for r in cache.mine(s, k, mined) if r.order <= bound]


def _codes_of_exprs(exprs):
    """Canonical code -> (order, text) of each expression's graph."""
    out = {}
    for e in exprs:
        t = expressions.to_cotree(e)
        out[canonical_code(t)] = (t.order, expressions.unparse(e))
    return out


# -- cotree structure ----------------------------------------------------------------

# the covers look for P3 (K1 * 2K1) among the components; thm17 and thm19 lift with K1 and K2
_P3_CODE = canonical_code(expressions.to_cotree(expressions.P(3)))
_K1 = expressions.to_cotree(expressions.K(1))
_K2 = expressions.to_cotree(expressions.K(2))


def _components(t):
    """The components of a normalized cotree's graph: a UNION root's children,
    else the whole tree."""
    return t.children if t.op == UNION else (t,)


def _is_clique(t):
    return t.op == LEAF or (t.op == JOIN and all(c.op == LEAF for c in t.children))


def _is_cluster(t):
    """Whether the graph is a disjoint union of cliques; the empty graph
    (None) is one."""
    return t is None or all(_is_clique(c) for c in _components(t))


def _has_p3_component(t):
    return any(canonical_code(c) == _P3_CODE for c in _components(t))


# -- verdicts ----------------------------------------------------------------------


class VerdictReport(Value):
    __slots__ = ("claim", "k", "bound", "status", "expected", "actual", "missing", "extra", "notes")

    def __init__(
        self, claim, k, bound, status, expected=0, actual=0, missing=None, extra=None, notes=""
    ):
        self.claim = claim
        self.k = k
        self.bound = bound
        self.status = status
        self.expected = expected
        self.actual = actual
        self.missing = [] if missing is None else missing
        self.extra = [] if extra is None else extra
        self.notes = notes

    @property
    def passed(self):
        return self.status in ("PASS", "INFO")

    def to_json(self):
        return json.dumps(
            {
                "claim": self.claim,
                "k": obstructions.encode_param(self.k) if self.k is not None else None,
                "bound": self.bound,
                "status": self.status,
                "expected": self.expected,
                "actual": self.actual,
                "missing": self.missing,
                "extra": self.extra,
                "notes": self.notes,
            },
            sort_keys=True,
        )


def _compare_up_to(claim_id, k, n_max, built, records):
    """Set equality of the expected graphs of order <= n_max with the records.

    ``built`` maps a canonical code to (order, expression).  A graph above
    the bound cannot be among records mined to it, so it is dropped and the
    notes count it; when every graph was dropped and no record is in scope,
    nothing was probed and the verdict is INCONCLUSIVE.
    """
    expected = {code: expr for code, (order, expr) in built.items() if order <= n_max}
    actual = {r.code: r for r in records}
    missing = sorted(expr for code, expr in expected.items() if code not in actual)
    extra = sorted(r.graph6 for code, r in actual.items() if code not in expected)
    status = "PASS" if not missing and not extra else "FAIL"
    report = VerdictReport(claim_id, k, n_max, status, len(expected), len(actual), missing, extra)
    dropped = len(built) - len(expected)
    if dropped:
        report.notes = f"left out {dropped} expected graph(s) above order {n_max}"
        if not expected and not records:
            report.status = "INCONCLUSIVE"
    return report


# -- list claims --------------------------------------------------------------------


def _compare_sets(claim_id, k, bound, exprs, records):
    return _compare_up_to(claim_id, k, bound, _codes_of_exprs(exprs), records)


def _compare_closed_under_complement(claim_id, k, bound, exprs, records):
    report = _compare_sets(claim_id, k, bound, exprs, records)
    codes = {r.code for r in records}
    closure = "closed under complement"
    for r in records:
        if canonical_code(flip_labels(r.tree)) not in codes:
            closure = f"not closed under complement: {r.graph6}"
            break
    report.notes = "; ".join(filter(None, [report.notes, closure]))
    return report


def _verify_cor20(item, claim_id, k, bound, exprs, records):
    """Membership for the full p range, uniqueness for the restricted one.

    Item m (1-3) covers type (k+3-m, p): the listed graph is a record for
    1 <= p <= k+2-m, and the only record of its type when p <= k+1-m.  Each
    listed graph's p is its own number of isolated vertices; a p in range
    with no listed graph is reported missing.  As in ``_compare_up_to``, a
    listed graph above the bound is dropped, and its p is not probed.
    """
    c = k + 3 - item
    p_max = k + 2 - item
    uniq_max = k + 1 - item
    mined = {r.code: r for r in records}
    missing, extra, found, dropped = [], [], set(), []
    for e in exprs:
        t = expressions.to_cotree(e)
        p = obstructions.cotree_type(t)[1]
        if t.order > bound:
            dropped.append(p)
            continue
        code = canonical_code(t)
        r = mined.get(code)
        if r is None or (r.c, r.i) != (c, p) or not 1 <= p <= p_max:
            missing.append(expressions.unparse(e))
            continue
        found.add(p)
        if p <= uniq_max:
            extra.extend(
                x.graph6 for x in records if (x.c, x.i) == (c, p) and x.code != code
            )
    in_range = [p for p in range(1, p_max + 1) if p not in dropped]
    missing += [f"type ({c},{p}): not listed" for p in in_range if p not in found]
    status = "FAIL" if missing or extra else ("PASS" if found else "INCONCLUSIVE")
    notes = f"membership p<={p_max}, uniqueness within type ({c},p) for p<={uniq_max}"
    if dropped:
        notes = f"left out {len(dropped)} expected graph(s) above order {bound}; {notes}"
    return VerdictReport(
        claim=claim_id,
        k=k,
        bound=bound,
        status=status,
        expected=len(in_range),
        actual=len(found),
        missing=missing,
        extra=sorted(set(extra)),
        notes=notes,
    )


# -- recursion claims -----------------------------------------------------------------


def _verify_lift(claim_id, k, cache, n_max, scope, source, lift, text):
    """The (inf,k) records in ``scope`` are exactly the lifts of the (inf,k-1)
    records in ``source`` that are (1,k)-polar.  ``scope`` and ``source`` take
    (record, k); ``lift`` builds a lift's cotree from the source's and
    ``text`` formats its expression from the source's."""
    bound, current = _read(cache, INF, k, n_max)
    expected = {}
    for r in _read(cache, INF, k - 1)[1]:
        if source(r, k) and polarity.profile_dp(r.tree).admits(1, k):
            lifted = lift(r.tree)
            expected[canonical_code(lifted)] = (lifted.order, text.format(r.expression))
    scoped = [r for r in current if scope(r, k)]
    return _compare_up_to(claim_id, k, bound, expected, scoped)


def _lift_reads(k, n_max):
    return [_list_key(INF, k, n_max), _list_key(INF, k - 1)]


def _probe_reads(k, n_max):
    return [_list_key(INF, k, n_max)]


def _min_one_k(t):
    """Smallest m with t's graph (1,m)-polar, or None."""
    ks = [sig[1] for sig in polarity.profile_dp(t).signatures if sig[0] <= 1]
    return min(ks) if ks else None


def _exactly_one_non_k2_component(t):
    """A component is connected, so one on 2 vertices is K2."""
    return sum(1 for c in _components(t) if c.order != 2) == 1


def _aitch_conditions(h, kv):
    """Conditions 1-3 on a side H with its (1,kv) split level; one vertex
    deletion per class of isomorphic deletions (``_deletion_leaves``)."""
    if _is_cluster(h):
        return False
    for index in obstructions._deletion_leaves(h):
        sub = obstructions.remove_leaf(h, index)
        if _is_cluster(sub):
            continue
        if not polarity.profile_dp(sub).admits(1, kv - 1):
            return False
    return True


def _verify_thm11(claim_id, k, cache, n_max):
    """Records without isolated vertices or P3 components decompose as
    H1 + H2 with k = k1 + k2 - 1, and every such sum is a record."""
    bound, current = _read(cache, INF, k, n_max)
    scoped = [
        r for r in current if r.c >= 2 and r.i == 0 and not _has_p3_component(r.tree)
    ]

    # forward: each scoped record admits a qualifying component split
    bad_forward = [r.graph6 for r in scoped if not _admits_thm11_split(r.tree, k)]

    # backward: the recursion built from (1, k_i - 1)-obstruction mining
    expected = {}
    fig1_codes = set(_codes_of_exprs(_exprs(FIG1)))
    for k1, k2 in _thm11_splits(k):
        sides2 = _thm11_sides(k2, cache, fig1_codes)
        for h1, e1, special1, record1 in _thm11_sides(k1, cache, fig1_codes):
            for h2, e2, special2, record2 in sides2:
                # condition 4: a special side beside a (1,ki-1)-obstruction
                # needs that obstruction to have one component other than K2
                if special1 and record2 and not _exactly_one_non_k2_component(h2):
                    continue
                if special2 and record1 and not _exactly_one_non_k2_component(h1):
                    continue
                g = compose(UNION, [h1, h2])
                if _has_p3_component(g):
                    continue
                expected[canonical_code(g)] = (g.order, f"({e1}) + ({e2})")

    report = _compare_up_to(claim_id, k, bound, expected, scoped)
    notes = [report.notes]
    if bad_forward:
        report.status = "FAIL"
        notes.append(f"no qualifying split for: {bad_forward}")
    elif report.status == "PASS":
        notes.append("both directions verified")
    report.notes = "; ".join(filter(None, notes))
    return report


def _thm11_splits(k):
    """The split levels (k1, k2), k1 <= k2, with k1 + k2 - 1 = k and both >= 2."""
    return [(k1, k + 1 - k1) for k1 in range(2, k) if k + 1 - k1 >= k1]


def _thm11_reads(k, n_max):
    return [_list_key(INF, k, n_max)] + [
        _list_key(1, ki - 1) for split in _thm11_splits(k) for ki in split
    ]


def _thm11_sides(ki, cache, fig1_codes):
    """Candidate sides H with split level ki: filtered (1,ki-1)-obstructions
    plus the special side (ki-2)K2 + (K1 join 2K2).  Each is (H, expression,
    whether H is the special side, whether H is a (1,ki-1)-obstruction)."""
    records = _read(cache, 1, ki - 1)[1]
    text = _u(_rep(ki - 2, "K2"), "K1 * 2K2")
    special = expressions.to_cotree(_exprs([text])[0])
    special_code = canonical_code(special)
    sides = []
    for r in records:
        if r.code in fig1_codes:
            continue
        if _is_m_k2(r.tree, ki):
            continue
        sides.append((r.tree, r.expression, r.code == special_code, True))
    sides.append((special, text, True, any(r.code == special_code for r in records)))
    return sides


def _is_m_k2(t, m):
    return t.order == 2 * m and all(c.order == 2 for c in _components(t))


def _admits_thm11_split(t, k):
    """Whether t's components split into sides H1 + H2 with k1 + k2 - 1 = k
    that meet conditions 1-3.  A union's (1,m) level is the sum of its
    parts' levels, so the sum holds for every split or for none and is
    tested once; each side's level is the sum of its components'."""
    comps = _components(t)
    m = len(comps)
    if m < 2:
        return False
    levels = [_min_one_k(c) for c in comps]
    if None in levels or sum(levels) != k + 1:
        return False
    for pick in range(1, 1 << (m - 1)):  # fix comps[m-1] on side 2
        k1 = sum(level for idx, level in enumerate(levels) if pick >> idx & 1)
        k2 = k + 1 - k1
        if k1 < 1 or k2 < 1:
            continue
        h1 = compose(UNION, [c for idx, c in enumerate(comps) if pick >> idx & 1])
        if not _aitch_conditions(h1, k1):
            continue
        h2 = compose(UNION, [c for idx, c in enumerate(comps) if not pick >> idx & 1])
        if _aitch_conditions(h2, k2):
            return True
    return False


# -- conjectures ------------------------------------------------------------------


def _probe(k, cache, n_max):
    """A conjecture's bound (n_max, or one past 3(k+1)), the (inf,k) records
    up to it, whether it reaches past 3(k+1), and the notes' suffix.

    A conjecture is INCONCLUSIVE when its bound does not reach past 3(k+1)
    and nothing fails: a record of a larger order could still break it, and
    no such order was probed.  So below the probe, only a type with more than
    one record fails conj1; a type with none may have its record above."""
    bound = _list_key(INF, k, n_max)[2]
    probed = bound > conjectured_order(k)
    suffix = "" if probed else f"; bound {bound} does not probe beyond the conjecture"
    return bound, cache.mine(INF, k, bound), probed, suffix


def _check_conj1(claim_id, k, cache, n_max):
    """Exactly one record per type (c,i) with 1 <= i <= c-2 <= k."""
    bound, records, probed, suffix = _probe(k, cache, n_max)
    cells = {}
    for r in records:
        cells.setdefault((r.c, r.i), []).append(r)
    bad, checked, single = [], 0, 0
    for c in range(3, k + 3):
        for i in range(1, c - 1):
            checked += 1
            found = len(cells.get((c, i), []))
            single += found == 1
            if found > 1 or (found == 0 and probed):
                bad.append(f"type ({c},{i}): {found} records")
    return VerdictReport(
        claim=claim_id,
        k=k,
        bound=bound,
        status="FAIL" if bad else ("PASS" if probed else "INCONCLUSIVE"),
        expected=checked,
        actual=single,
        missing=bad,
        notes="exactly one record per type (c,i), 1 <= i <= c-2 <= k" + suffix,
    )


def _check_conj2(claim_id, k, cache, n_max):
    """No record has order above 3(k+1)."""
    bound, records, probed, suffix = _probe(k, cache, n_max)
    limit = conjectured_order(k)
    max_order = max((r.order for r in records), default=0)
    over = [r.graph6 for r in records if r.order > limit]
    return VerdictReport(
        claim=claim_id,
        k=k,
        bound=bound,
        status="FAIL" if over else ("PASS" if probed else "INCONCLUSIVE"),
        expected=0,
        actual=len(over),
        extra=over,
        notes=f"max mined order {max_order} vs conjectured bound {limit}" + suffix,
    )


def _sixteen_note(claim_id, k, cache, n_max):
    notes = "the aggregate count for min(s,k)=1 is informational only"
    return VerdictReport(claim_id, k, None, "INFO", notes=notes)


# -- claim registry / verify-all ------------------------------------------------------


class Claim(FrozenValue):
    """One row of the claim registry; the module docstring describes the fields."""

    __slots__ = (
        "id", "k_min", "k_only", "texts", "covers", "mining", "compare", "check", "reads",
    )

    def __init__(
        self,
        id,
        k_min=None,
        k_only=None,
        texts=None,
        covers=None,
        mining=(INF, None),
        compare=_compare_sets,
        check=None,
        reads=None,
    ):
        set_field(self, "id", id)
        set_field(self, "k_min", k_min)
        set_field(self, "k_only", k_only)
        set_field(self, "texts", texts)
        set_field(self, "covers", covers)
        set_field(self, "mining", mining)
        set_field(self, "compare", compare)
        set_field(self, "check", check)
        set_field(self, "reads", reads)

    def applies_at(self, k):
        if self.k_only is not None:
            return k == self.k_only
        return self.k_min is None or (k is not None and k >= self.k_min)

    def lists(self, k, n_max=None):
        """The (s, k, bound) lists the verdict at k reads, as ``_list_key`` gives them."""
        if self.check is None:
            s_mined, k_mined = self.mining
            return [_list_key(s_mined, k_mined or k, n_max)]
        return [] if self.reads is None else self.reads(k, n_max)


CLAIMS = (
    Claim("fig1", texts=lambda k: FIG1, mining=(1, INF)),
    Claim(
        "thm2",
        texts=lambda k: [f"P3 + ({h})" for h in FIG1] + [f"~(P3 + ({h}))" for h in FIG1],
        mining=(INF, INF),
        compare=_compare_closed_under_complement,
    ),
    Claim(
        "remark4",
        k_min=0,
        texts=lambda k: [_u("K1", _rep(k + 1, "K2"))],
        covers=lambda r, k: _is_cluster(r.tree),
    ),
    Claim(
        "thm6",
        k_min=2,
        texts=lambda k: [f"~(P3 + ({h}))" for h in FIG1],
        covers=lambda r, k: r.c == 1,
    ),
    Claim(
        "thm15",
        k_min=2,
        texts=_thm15_texts,
        covers=lambda r, k: _has_p3_component(r.tree),
    ),
    Claim(
        "thm18",
        k_min=2,
        texts=lambda k: [
            _u(_rep(k + 1, "K1"), f"K{{{k + 1},{k + 1}}}"),
            _u(_rep(k + 1, "K1"), "K1 * C4"),
        ],
        covers=lambda r, k: (r.c, r.i) == (k + 2, k + 1),
    ),
    Claim(
        "cor-type-k+1-k",
        k_min=2,
        texts=lambda k: [
            _u(_rep(k, "K1"), core)
            for core in TYPE_KP1_K_CORES + (f"~K2 * ({_u('K2', _rep(k, 'K1'))})",)
        ],
        covers=lambda r, k: (r.c, r.i) == (k + 1, k),
    ),
    Claim(
        "cor-type-k-k-1",
        k_min=3,
        texts=lambda k: [_u(_rep(k - 1, "K1"), core) for core in _type_k_km1_cores(k)],
        covers=lambda r, k: (r.c, r.i) == (k, k - 1),
    ),
    Claim(
        "cor20-item1",
        k_min=1,
        texts=partial(_cor20_texts, 1, lambda p: f"K{{{p},{p}}}"),
        compare=partial(_verify_cor20, 1),
    ),
    Claim(
        "cor20-item2",
        k_min=1,
        texts=partial(_cor20_texts, 2, lambda p: f"~K2 * ({_u('K2', _rep(p, 'K1'))})"),
        compare=partial(_verify_cor20, 2),
    ),
    Claim(
        "cor20-item3",
        k_min=2,
        texts=partial(_cor20_texts, 3, lambda p: f"K1 * ({_u('2K2', _rep(p, 'K1'))})"),
        compare=partial(_verify_cor20, 3),
    ),
    Claim("thm21", k_only=2, texts=lambda k: THM21_LIST),
    Claim("thm22", k_only=3, texts=lambda k: THM22_LIST),
    Claim("thm11", k_min=2, check=_verify_thm11, reads=_thm11_reads),
    # type (2,1): K1 + (K1 join H) over the disconnected level-(k-1) records H
    Claim(
        "thm17",
        k_min=2,
        check=partial(
            _verify_lift,
            scope=lambda r, k: (r.c, r.i) == (2, 1),
            source=lambda r, k: r.c >= 2,
            lift=lambda h: compose(UNION, [_K1, compose(JOIN, [_K1, h])]),
            text="K1 + K1 * ({})",
        ),
        reads=_lift_reads,
    ),
    # type (c,p), 1 <= p <= c-2 <= k: K2 + H over the type (c-1,p) level-(k-1) records H
    Claim(
        "thm19",
        k_min=1,
        check=partial(
            _verify_lift,
            scope=lambda r, k: 1 <= r.i <= r.c - 2 <= k,
            source=lambda r, k: 1 <= r.i <= r.c - 1 <= k,
            lift=lambda h: compose(UNION, [_K2, h]),
            text="K2 + {}",
        ),
        reads=_lift_reads,
    ),
    Claim("conj1", k_min=2, check=_check_conj1, reads=_probe_reads),
    Claim("conj2", k_min=1, check=_check_conj2, reads=_probe_reads),
    Claim("sixteen-note", check=_sixteen_note),
)

_ROWS = {row.id: row for row in CLAIMS}


def _row(claim_id, kind=None):
    """The registry row of a claim, which must have the field ``kind`` if given."""
    row = _ROWS.get(claim_id)
    if row is None or (kind and getattr(row, kind) is None):
        raise UnknownClaimError(claim_id)
    return row


def _claim_k(row, k):
    """The k a claim is checked at; ClaimParameterError outside its range."""
    if k is None and row.k_only is not None:
        return row.k_only
    if not row.applies_at(k):
        need = f"k = {row.k_only}" if row.k_only is not None else f"k >= {row.k_min}"
        raise ClaimParameterError(f"claim {row.id} needs {need}, got k={k}")
    return k


def verify_claim(claim_id, k=None, cache=None, n_max=None, catalog_dir=None):
    """The verdict of one claim at k, the one path every claim takes.

    A check row runs its check.  A list row compares its expressions with the
    mined records it covers: the claim's file in ``catalog_dir`` when one is
    given (``write_claim_files``), else its built-in texts.
    """
    row = _row(claim_id)
    k = _claim_k(row, k)
    cache = cache or MiningCache()
    cache.plan(row.lists(k, n_max))
    if row.check is not None:
        return row.check(claim_id, k, cache, n_max)
    if catalog_dir is None:
        exprs = _exprs(row.texts(k))
    else:
        exprs = _load_catalog_exprs(catalog_dir, claim_id, k)
    s_mined, k_mined = row.mining
    bound, records = _read(cache, s_mined, k_mined or k, n_max)
    covered = [r for r in records if row.covers is None or row.covers(r, k)]
    return row.compare(claim_id, k, bound, exprs, covered)


def verify_all(k, cache=None, catalog_dir=None):
    """The verdict of every claim that applies at k, in registry order.

    Every list the claims read is declared to the cache first, so one pass
    mines them all.
    """
    cache = cache or MiningCache()
    rows = [row for row in CLAIMS if row.applies_at(k)]
    cache.plan([key for row in rows for key in row.lists(k)])
    return [verify_claim(row.id, k, cache=cache, catalog_dir=catalog_dir) for row in rows]


# -- catalog files ---------------------------------------------------------------------


def _claim_filename(claim_id, k):
    safe = claim_id.replace("+", "p")
    return f"{safe}.k{k}.txt" if k is not None else f"{safe}.txt"


def write_claim_files(directory, k):
    """Expand every applicable list claim into a plain-text expression file."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for row in CLAIMS:
        if row.texts is None or not row.applies_at(k):
            continue
        exprs = instantiate(row.id, k)
        path = os.path.join(directory, _claim_filename(row.id, k))
        with open(path, "w") as fh:
            fh.write(f"# {row.id} at k={k}\n")
            for e in exprs:
                fh.write(expressions.unparse(e) + "\n")
        written.append(path)
    return written


def _load_catalog_exprs(catalog_dir, claim_id, k):
    path = os.path.join(catalog_dir, _claim_filename(claim_id, k))
    if not os.path.exists(path):
        raise ClaimParameterError(f"claim {claim_id}: no catalog file {path}")
    with open(path) as fh:
        return expressions.load_expression_lines(fh.read())
