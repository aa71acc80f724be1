"""Layer tracing by wrapping the library's boundary functions by module attribute.

Only the traced benchmark child installs the wrappers.  Per-class calls (the
minimality check, the profile DP, leaf removal, record building) are
aggregated per order into a call count, total time and self time; coarse
spans (one per enumerated order, per mining pass and per claim) are kept one
by one.  A layer's self time is its total time minus the time of the wrapped
calls nested inside it.

A boundary that no longer exists raises MissingBoundaryError when the tracer
is installed, and a boundary that a workload must reach but never did raises
UnreachedBoundaryError afterwards, so a refactor can never make a layer read
as zero.
"""

from __future__ import annotations

import importlib
import resource
from collections import Counter
from time import perf_counter

# short name -> (module, attribute path, layer whose calls show it was reached)
BOUNDARIES = {
    "enumerate": (
        "polarcographs.obstructions",
        "CographEnumerator.classes_of_order",
        "obstructions.enumerate",
    ),
    "profile_dp": ("polarcographs.polarity", "profile_dp", "polarity.profile_dp.root"),
    "minimality": (
        "polarcographs.obstructions",
        "is_minimal_obstruction",
        "obstructions.minimality",
    ),
    "remove_leaf": ("polarcographs.obstructions", "remove_leaf", "obstructions.remove_leaf"),
    "records": ("polarcographs.obstructions", "_record_from_tree", "obstructions.records"),
    "mining": ("polarcographs.catalog", "MiningCache.mine", "catalog.mining"),
    "claims": ("polarcographs.catalog", "verify_claim", "catalog.claims"),
}

# per_layer metric name -> unit; the order is the order of the report
LAYER_METRICS = {
    "obstructions.enumerate.s": "s",
    "obstructions.enumerate.classes": "count",
    "obstructions.enumerate.rss_growth_mb": "MB",
    "polarity.profile_dp.root.s": "s",
    "polarity.profile_dp.root.calls": "count",
    "polarity.profile_dp.deleted.s": "s",
    "polarity.profile_dp.deleted.calls": "count",
    "obstructions.minimality.self_s": "s",
    "obstructions.minimality.checked": "count",
    "obstructions.minimality.candidates": "count",
    "obstructions.minimality.candidate_ratio": "cand/checked",
    "obstructions.minimality.yield": "obst/cand",
    "obstructions.remove_leaf.s": "s",
    "obstructions.remove_leaf.calls": "count",
    "obstructions.records.s": "s",
    "obstructions.records.count": "count",
    "catalog.mining.s": "s",
    "catalog.mining.passes": "count",
    "catalog.mining.hits": "count",
    "catalog.mining.classes_visited": "count",
    "catalog.claims.self_s": "s",
}


class MissingBoundaryError(RuntimeError):
    pass


class UnreachedBoundaryError(RuntimeError):
    pass


def resolve(short):
    """(owner object, attribute name, current value) of a boundary; raises if gone."""
    module_name, path, _ = BOUNDARIES[short]
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise MissingBoundaryError(
            f"layer boundary {short!r} ({module_name}.{path}) no longer exists: {exc}"
        ) from None


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _param(x):
    return "inf" if x == float("inf") else x


class Tracer:
    """Install with ``with Tracer() as tracer:`` around one library call."""

    def __init__(self):
        self.agg = {}  # (layer, order) -> [calls, total_s, self_s]
        self.counts = Counter()  # (counter, order) -> n
        self.spans = []
        self.rss_growth_kb = 0
        self._frames = []  # [layer, order, start, nested_s]
        self._open_spans = []
        self._current = None  # [class under the minimality check, leaf removals]
        self._in_remove_leaf = False
        self._installed = []

    # -- bookkeeping -----------------------------------------------------------

    def _enter(self, layer, order):
        frame = [layer, order, perf_counter(), 0.0]
        self._frames.append(frame)
        return frame

    def _exit(self, frame):
        elapsed = perf_counter() - frame[2]
        self._frames.pop()
        if self._frames:
            self._frames[-1][3] += elapsed
        rec = self.agg.get((frame[0], frame[1]))
        if rec is None:
            rec = self.agg[(frame[0], frame[1])] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - frame[3]
        return elapsed

    def _span_begin(self, name, attrs):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open_spans[-1]["id"] if self._open_spans else None,
            "start": perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(span)
        self._open_spans.append(span)
        return span

    def _span_end(self, span):
        span["end"] = perf_counter()
        self._open_spans.pop()

    def total(self, layer, field):
        return sum(rec[field] for (name, _), rec in self.agg.items() if name == layer)

    def count(self, counter):
        return sum(n for (name, _), n in self.counts.items() if name == counter)

    # -- wrappers ----------------------------------------------------------------

    def _wrap_enumerate(self, orig):
        def classes_of_order(enum, n):
            span = self._span_begin("obstructions.enumerate", {"order": n})
            rss0 = _maxrss_kb()
            frame = self._enter("obstructions.enumerate", n)
            try:
                out = orig(enum, n)
            finally:
                self._exit(frame)
                self._span_end(span)
            self.rss_growth_kb += _maxrss_kb() - rss0
            self.counts[("enumerate.classes", n)] += len(out)
            span["classes"] = len(out)
            return out

        return classes_of_order

    def _wrap_profile_dp(self, orig):
        def profile_dp(t):
            current = self._current
            if current is None:  # claim checks outside mining; part of claims self time
                return orig(t)
            layer = "polarity.profile_dp.root" if t is current[0] else "polarity.profile_dp.deleted"
            frame = self._enter(layer, current[0].order)
            try:
                return orig(t)
            finally:
                self._exit(frame)

        return profile_dp

    def _wrap_minimality(self, orig):
        def is_minimal_obstruction(t, s, k):
            outer = self._current
            self._current = current = [t, 0]
            frame = self._enter("obstructions.minimality", t.order)
            try:
                result = orig(t, s, k)
            finally:
                self._exit(frame)
                self._current = outer
            self.counts[("minimality.checked", t.order)] += 1
            if current[1]:
                self.counts[("minimality.candidates", t.order)] += 1
            if result:
                self.counts[("minimality.obstructions", t.order)] += 1
            return result

        return is_minimal_obstruction

    def _wrap_remove_leaf(self, orig):
        def remove_leaf(t, index):
            if self._in_remove_leaf:  # the recursion inside one removal
                return orig(t, index)
            current = self._current
            self._in_remove_leaf = True
            frame = self._enter("obstructions.remove_leaf", current[0].order if current else t.order)
            try:
                return orig(t, index)
            finally:
                self._exit(frame)
                self._in_remove_leaf = False
                if current is not None:
                    current[1] += 1

        return remove_leaf

    def _wrap_records(self, orig):
        def _record_from_tree(t, *args, **kwargs):
            frame = self._enter("obstructions.records", t.order)
            try:
                return orig(t, *args, **kwargs)
            finally:
                self._exit(frame)

        return _record_from_tree

    def _wrap_mining(self, orig):
        def mine(cache, s, k, n_max):
            span = self._span_begin("catalog.mining", {"s": _param(s), "k": _param(k), "n_max": n_max})
            checked = self.count("minimality.checked")
            frame = self._enter("catalog.mining", n_max)
            try:
                return orig(cache, s, k, n_max)
            finally:
                self._exit(frame)
                self._span_end(span)
                visited = self.count("minimality.checked") - checked
                span["classes_visited"] = visited
                span["hit"] = visited == 0
                self.counts[("mining.hits" if visited == 0 else "mining.passes", n_max)] += 1
                self.counts[("mining.classes_visited", n_max)] += visited

        return mine

    def _wrap_claims(self, orig):
        def verify_claim(claim_id, k=None, *args, **kwargs):
            span = self._span_begin("catalog.claim", {"claim": claim_id, "k": _param(k)})
            frame = self._enter("catalog.claims", 0)
            try:
                return orig(claim_id, k, *args, **kwargs)
            finally:
                self._exit(frame)
                self._span_end(span)

        return verify_claim

    # -- install / report ----------------------------------------------------------

    def __enter__(self):
        resolved = {short: resolve(short) for short in BOUNDARIES}  # all or nothing
        for short, (owner, attr, orig) in resolved.items():
            setattr(owner, attr, getattr(self, f"_wrap_{short}")(orig))
            self._installed.append((owner, attr, orig))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()
        return False

    def require(self, shorts):
        """Raise unless every named boundary was called at least once."""
        missing = sorted(short for short in shorts if not self.total(BOUNDARIES[short][2], 0))
        if missing:
            raise UnreachedBoundaryError(
                f"layer boundaries {missing} were never called; the trace no longer sees them"
            )

    def metrics(self):
        checked = self.count("minimality.checked")
        candidates = self.count("minimality.candidates")
        return {
            "obstructions.enumerate.s": self.total("obstructions.enumerate", 1),
            "obstructions.enumerate.classes": self.count("enumerate.classes"),
            "obstructions.enumerate.rss_growth_mb": self.rss_growth_kb / 1024,
            "polarity.profile_dp.root.s": self.total("polarity.profile_dp.root", 1),
            "polarity.profile_dp.root.calls": self.total("polarity.profile_dp.root", 0),
            "polarity.profile_dp.deleted.s": self.total("polarity.profile_dp.deleted", 1),
            "polarity.profile_dp.deleted.calls": self.total("polarity.profile_dp.deleted", 0),
            "obstructions.minimality.self_s": self.total("obstructions.minimality", 2),
            "obstructions.minimality.checked": checked,
            "obstructions.minimality.candidates": candidates,
            "obstructions.minimality.candidate_ratio": candidates / checked if checked else 0.0,
            "obstructions.minimality.yield": (
                self.count("minimality.obstructions") / candidates if candidates else 0.0
            ),
            "obstructions.remove_leaf.s": self.total("obstructions.remove_leaf", 1),
            "obstructions.remove_leaf.calls": self.total("obstructions.remove_leaf", 0),
            "obstructions.records.s": self.total("obstructions.records", 1),
            "obstructions.records.count": self.total("obstructions.records", 0),
            "catalog.mining.s": self.total("catalog.mining", 1),
            "catalog.mining.passes": self.count("mining.passes"),
            "catalog.mining.hits": self.count("mining.hits"),
            "catalog.mining.classes_visited": self.count("mining.classes_visited"),
            "catalog.claims.self_s": self.total("catalog.claims", 2),
        }

    def per_order(self):
        """{layer or counter: {order: [calls, total_s, self_s] or count}} for the trace file."""
        out = {}
        for (layer, order), rec in sorted(self.agg.items()):
            out.setdefault(layer, {})[order] = rec
        for (counter, order), n in sorted(self.counts.items()):
            out.setdefault(counter, {})[order] = n
        return out
