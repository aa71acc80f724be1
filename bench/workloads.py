"""The benchmark's workloads: one public library call each, plus its output check.

This module imports nothing from polarcographs at load time, so the child can
time ``import polarcographs`` itself.  Every workload is exhaustive and
deterministic: it has no generated input, and the same call always does the
same work.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, NamedTuple

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# OEIS A000084: unlabeled cographs (series-parallel networks) on n nodes, n = 1..14.
A000084 = (1, 2, 4, 10, 24, 66, 180, 522, 1532, 4624, 14136, 43930, 137908, 437502)


def classes_up_to(n):
    """Classes of order <= n, a count fixed by the input (from A000084)."""
    return sum(A000084[:n])


def _census(pc):
    return pc.cograph_counts(14)


def _mine_inf4(pc):
    return pc.mine_obstructions(pc.INF, 4, 14)


def _mine_s2k2(pc):
    return pc.mine_obstructions(2, 2, 13)


def _verify_k3(pc):
    return pc.verify_all(3)


class Workload(NamedTuple):
    call: Callable  # takes the imported package, returns the output to check
    classes: int  # classes of order <= n the input covers, for classes_per_s
    layers: tuple  # layertrace boundaries the traced run must reach


# verify-k3 counts the classes of order <= 13 = 3(k+1)+1, the deepest order its
# conjecture probe must mine; its passes visit more, and a better pass plan fewer.
WORKLOADS = {
    "census-n14": Workload(_census, classes_up_to(14), ("enumerate",)),
    "mine-inf4-n14": Workload(
        _mine_inf4,
        classes_up_to(14),
        ("enumerate", "profile_dp", "minimality", "remove_leaf", "records"),
    ),
    "mine-s2k2-n13": Workload(
        _mine_s2k2,
        classes_up_to(13),
        ("enumerate", "profile_dp", "minimality", "remove_leaf", "records"),
    ),
    "verify-k3": Workload(
        _verify_k3,
        classes_up_to(13),
        ("enumerate", "profile_dp", "minimality", "remove_leaf", "records", "mining", "claims"),
    ),
}


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def records_digest(records):
    """(count, sha256 of the JSONL the CLI writes) for a list of ObstructionRecords."""
    jsonl = "\n".join(r.to_json() for r in records)
    return len(records), hashlib.sha256(jsonl.encode()).hexdigest()


def verdict_rows(reports):
    """The compared fields of each verdict; free-text notes are left out."""
    return [
        [r.claim, r.status, r.expected, r.actual, list(r.missing), list(r.extra)]
        for r in reports
    ]


def check_output(name, result, expected):
    """None if the result of workload ``name`` is right, else what is wrong."""
    if name == "census-n14":
        if list(result) != list(A000084):
            return f"counts {list(result)} differ from OEIS A000084"
        return None
    if name.startswith("mine-"):
        want = expected[name]
        keys = [r.sort_key() for r in result]
        if keys != sorted(keys):
            return "records are not ordered by (order, code)"
        count, digest = records_digest(result)
        if count != want["records"]:
            return f"{count} records, expected {want['records']}"
        if digest != want["jsonl_sha256"]:
            return f"JSONL digest {digest} differs from the seed's {want['jsonl_sha256']}"
        return None
    if name == "verify-k3":
        rows = verdict_rows(result)
        want = expected[name]["verdicts"]
        if len(rows) != len(want):
            return f"{len(rows)} verdicts, expected {len(want)}"
        for got, exp in zip(rows, want):
            if got != exp:
                return f"verdict {got[0]} is {got}, expected {exp}"
        return None
    raise KeyError(name)
