"""Tests of the benchmark itself, at small orders.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import layertrace  # noqa: E402
import speedref  # noqa: E402
import workloads  # noqa: E402
import polarcographs as pc  # noqa: E402


def traced(call):
    with layertrace.Tracer() as tracer:
        result = call()
    return tracer, result


def test_every_boundary_exists():
    for short in layertrace.BOUNDARIES:
        owner, attr, func = layertrace.resolve(short)
        assert callable(func), short


def test_missing_boundary_fails_loudly(monkeypatch):
    monkeypatch.setitem(
        layertrace.BOUNDARIES,
        "records",
        ("polarcographs.obstructions", "no_such_function", "obstructions.records"),
    )
    original = pc.obstructions.is_minimal_obstruction
    with pytest.raises(layertrace.MissingBoundaryError, match="no_such_function"):
        with layertrace.Tracer():
            pass
    assert pc.obstructions.is_minimal_obstruction is original  # nothing half installed


def test_tracer_restores_boundaries():
    before = {short: layertrace.resolve(short)[2] for short in layertrace.BOUNDARIES}
    with layertrace.Tracer():
        assert pc.polarity.profile_dp is not before["profile_dp"]
    after = {short: layertrace.resolve(short)[2] for short in layertrace.BOUNDARIES}
    assert after == before


def test_traced_mining_counts_repeat_exactly():
    plain = pc.mine_obstructions(pc.INF, 3, 12)
    first, records = traced(lambda: pc.mine_obstructions(pc.INF, 3, 12))
    second, _ = traced(lambda: pc.mine_obstructions(pc.INF, 3, 12))
    assert [r.to_json() for r in records] == [r.to_json() for r in plain]

    m = first.metrics()
    assert list(m) == list(layertrace.LAYER_METRICS)
    assert m["obstructions.enumerate.classes"] == workloads.classes_up_to(12) == 65031
    assert m["obstructions.minimality.checked"] == 65031
    assert m["polarity.profile_dp.root.calls"] == 65031
    assert m["obstructions.minimality.candidates"] == 18092
    assert m["polarity.profile_dp.deleted.calls"] == 34608
    assert m["obstructions.remove_leaf.calls"] == 34608
    assert m["obstructions.records.count"] == len(plain) == 49
    assert m["obstructions.minimality.yield"] == 49 / 18092
    assert m["catalog.mining.passes"] == 0

    counts = {k: v for k, v in m.items() if layertrace.LAYER_METRICS[k] != "s"}
    counts.pop("obstructions.enumerate.rss_growth_mb")
    again = second.metrics()
    assert counts == {k: again[k] for k in counts}
    assert first.counts == second.counts
    assert {k: v[0] for k, v in first.agg.items()} == {k: v[0] for k, v in second.agg.items()}
    first.require(workloads.WORKLOADS["mine-inf4-n14"].layers)


def test_traced_verification_counts_passes_and_hits():
    tracer, reports = traced(lambda: pc.verify_all(2))
    m = tracer.metrics()
    mining = [s for s in tracer.spans if s["name"] == "catalog.mining"]
    claims = [s for s in tracer.spans if s["name"] == "catalog.claim"]
    assert len(claims) == len(reports)
    assert m["catalog.mining.passes"] + m["catalog.mining.hits"] == len(mining)
    assert m["catalog.mining.passes"] == len({(s["s"], s["k"], s["n_max"]) for s in mining})
    assert m["catalog.mining.classes_visited"] == m["obstructions.minimality.checked"]
    assert all(s["parent"] is not None for s in mining)  # each pass runs inside a claim
    tracer.require(workloads.WORKLOADS["verify-k3"].layers)


def test_unreached_boundary_fails_loudly():
    tracer, _ = traced(lambda: pc.cograph_counts(6))
    tracer.require(workloads.WORKLOADS["census-n14"].layers)
    with pytest.raises(layertrace.UnreachedBoundaryError, match="minimality"):
        tracer.require(workloads.WORKLOADS["mine-s2k2-n13"].layers)


def test_output_checks_reject_wrong_answers():
    expected = workloads.load_expected()
    assert workloads.check_output("census-n14", list(workloads.A000084), expected) is None
    wrong = list(workloads.A000084)
    wrong[-1] += 1
    assert "A000084" in workloads.check_output("census-n14", wrong, expected)
    lower_bound = pc.mine_obstructions(2, 2, 9)  # the same 50 graphs, but bound 9
    assert "digest" in workloads.check_output("mine-s2k2-n13", lower_bound, expected)
    assert "49 records" in workloads.check_output("mine-s2k2-n13", lower_bound[1:], expected)
    assert "ordered" in workloads.check_output("mine-s2k2-n13", lower_bound[::-1], expected)
    rows = expected["verify-k3"]["verdicts"]
    assert len(rows) == 18 and all(row[1] in ("PASS", "INFO") for row in rows)


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census-n14", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert "no package source" in proc.stderr


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == {**layertrace.LAYER_METRICS, "trace.overhead_s": "s"}
    assert [m["name"] for m in spec["end_to_end"]] == [
        "norm_cpu_s", "norm_classes_per_s", "peak_rss_mb", "setup_s",
    ]


def test_speed_factor_averages_the_samples_in_the_interval():
    sampler = speedref.Sampler(cpu=0)
    slow, fast = 2 * speedref.REF_CHUNK_S, speedref.REF_CHUNK_S / 2
    sampler.samples = [(t / 100, slow if t < 500 else fast) for t in range(1000)]
    assert sampler.factor(0.0, 4.99) == pytest.approx(0.5)
    assert sampler.factor(5.0, 9.99) == pytest.approx(2.0)
    # a short interval is widened to MIN_WINDOW_S, centred, so it straddles both speeds
    assert sampler.factor(4.995, 4.995) == pytest.approx(speedref.REF_CHUNK_S / ((slow + fast) / 2), rel=0.05)
    with pytest.raises(RuntimeError, match="speed samples"):
        sampler.factor(20.0, 30.0)


def test_sampler_samples_and_stops():
    with speedref.Sampler(speedref.pinned_cpu()) as sampler:
        start = time.monotonic()
        time.sleep(0.5)
        end = time.monotonic()
    assert sampler.proc.returncode == 0
    assert len(sampler.samples) >= 10
    assert all(cpu > 0 for _, cpu in sampler.samples)
    assert sampler.factor(start, end) > 0
