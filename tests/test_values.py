"""The slots value classes against the dataclasses they replaced, and an import
that loads none of dataclasses' dependencies.

The oracles are in tests/util.py, under the same class names.
"""

import dataclasses
import inspect
import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import util
from polarcographs import catalog, cotrees, expressions, polarity
from polarcographs.catalog import Claim, VerdictReport
from polarcographs.cotrees import P4Certificate
from polarcographs.expressions import Atom, Biclique, Complement, Join, Repeat, Union
from polarcographs.obstructions import ObstructionRecord, mine_obstructions
from polarcographs.polarity import INF, PartitionWitness, PolarProfile

CLASSES = (
    Atom, Biclique, Union, Join, Repeat, Complement, PolarProfile, PartitionWitness,
    P4Certificate, ObstructionRecord, VerdictReport, Claim,
)
FROZEN = tuple(c for c in CLASSES if c is not VerdictReport)


def oracle_class(cls):
    return getattr(util, cls.__name__)


def field_names(cls):
    return [f.name for f in dataclasses.fields(oracle_class(cls))]


def fields_of(v):
    """v's constructor arguments in field order; a record's tree included."""
    return [getattr(v, name) for name in field_names(type(v))]


def as_oracle(v):
    return oracle_class(type(v))(*fields_of(v))


def expression_nodes(e):
    yield e
    if isinstance(e, (Union, Join)):
        for part in e.parts:
            yield from expression_nodes(part)
    elif isinstance(e, (Repeat, Complement)):
        yield from expression_nodes(e.expr)


@pytest.fixture(scope="module")
def records():
    records = mine_obstructions(INF, 3, 13)
    assert records and all(r.tree is not None for r in records)
    return records


@pytest.fixture(scope="module")
def samples(records):
    """Instances of every class, with their parsed claim texts' nodes."""
    bare = [ObstructionRecord(*fields_of(r)[:-1]) for r in records]
    texts = {
        text
        for claim in catalog.CLAIMS
        if claim.texts is not None
        for k in (2, 3)
        if claim.applies_at(k)
        for text in claim.texts(k)
    }
    nodes = [n for text in sorted(texts) for n in expression_nodes(expressions.parse(text))]
    profiles = [polarity.profile_dp(r.tree) for r in records]
    witnesses = []
    for r in records:
        g = cotrees.realize(r.tree)
        for s, k in util.ORACLE_PAIRS:
            polar, witness = polarity.is_polar(g, s, k)
            if polar:
                witnesses.append(witness)
    rng = random.Random(7)
    certificates = []
    while len(certificates) < 30:
        cert = cotrees.recognize(util.random_graph(rng, 7))
        if isinstance(cert, P4Certificate):
            certificates.append(cert)
    reports = catalog.verify_all(2)
    out = [*records, *bare, *nodes, *profiles, *witnesses, *certificates, *reports]
    out.extend(catalog.CLAIMS)
    assert {type(v) for v in out} == set(CLASSES)
    return out


def test_constructors_take_the_dataclasses_arguments():
    # same positional order, keyword names and defaults; a default factory
    # is a None default that the constructor turns into a fresh list
    for cls in CLASSES:
        ours = list(inspect.signature(cls).parameters.values())
        theirs = list(inspect.signature(oracle_class(cls)).parameters.values())
        assert [(p.name, p.kind) for p in ours] == [(p.name, p.kind) for p in theirs], cls
        for p, q, f in zip(ours, theirs, dataclasses.fields(oracle_class(cls))):
            if f.default_factory is dataclasses.MISSING:
                assert p.default == q.default, (cls, p.name)
            else:
                assert p.default is None, (cls, p.name)
    a = VerdictReport("c", 2, 13, "PASS")
    b = VerdictReport("c", 2, 13, "PASS")
    assert a.missing == a.extra == [] and a.missing is not a.extra
    assert a.missing is not b.missing and a.extra is not b.extra
    assert fields_of(a) == fields_of(util.VerdictReport("c", 2, 13, "PASS"))
    assert fields_of(Claim("x")) == fields_of(util.Claim("x"))
    record = ObstructionRecord(b"\x01", 1, "@", "K1", INF, 0, 1, 0, "MINED", 4)
    assert record.tree is None


def test_repr_hash_and_equality_match_the_dataclasses(samples):
    by_class = {}
    for v in samples:
        o = as_oracle(v)
        assert type(v)(*fields_of(v)) == v
        assert repr(v) == repr(o)
        if isinstance(v, VerdictReport):
            with pytest.raises(TypeError):
                hash(v)
            with pytest.raises(TypeError):
                hash(o)
        else:
            assert hash(v) == hash(o)
        assert v != o and not v == o
        by_class.setdefault(type(v), []).append((v, o))
    for pairs in by_class.values():
        for v, o in pairs:
            for w, p in pairs:
                assert (v == w) is (o == p)
                assert (v != w) is (o != p)


def test_equality_holds_within_one_class(samples):
    # a value never equals one of another class built from the same fields
    for v in samples:
        args = fields_of(v)
        for cls in CLASSES:
            if len(field_names(cls)) != len(args):
                continue
            same = cls is type(v)
            assert (cls(*args) == v) is same
            assert (cls(*args) != v) is not same
            assert (oracle_class(cls)(*args) == as_oracle(v)) is same


def test_pickle_and_copy_rebuild_equal_values(samples, records):
    # as with the dataclasses; a Claim holds lambdas, which do not pickle,
    # and partials, which deepcopy makes anew
    for v in samples:
        assert copy.copy(v) == v
        if not isinstance(v, Claim):
            assert copy.deepcopy(v) == v and pickle.loads(pickle.dumps(v)) == v
    again = pickle.loads(pickle.dumps(records[0]))
    assert cotrees.canonical_code(again.tree) == records[0].code


def test_frozen_classes_refuse_assignment(samples):
    for v in samples:
        if not isinstance(v, FROZEN):
            continue
        before = fields_of(v)
        for target in (v, as_oracle(v)):
            for name in [*field_names(type(v)), "extra_field"]:
                with pytest.raises(AttributeError):
                    setattr(target, name, None)
                with pytest.raises(AttributeError):
                    delattr(target, name)
        assert fields_of(v) == before


def test_reports_stay_mutable(samples):
    for v in samples:
        if not isinstance(v, VerdictReport):
            continue
        copy, oracle = VerdictReport(*fields_of(v)), as_oracle(v)
        copy.notes += " edited"
        oracle.notes += " edited"
        assert copy != v and repr(copy) == repr(oracle)


@pytest.mark.parametrize("module", ["polarcographs", "polarcographs.cli"])
def test_import_loads_none_of_dataclasses_dependencies(module):
    # sys.modules is diffed around the import, so modules that site preloads
    # do not count
    src = str(Path(catalog.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = (
        "import sys; before = set(sys.modules); "
        f"import {module}; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert module in added
    assert not added & {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}
