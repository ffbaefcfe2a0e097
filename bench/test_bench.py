"""Self-tests of the benchmark at a tiny size: checks, deadline, strict JSON, percentiles, tracing."""

from __future__ import annotations

import importlib
import json
import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import compare
import harness
import run
import tracing
import workloads

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def mods():
    layers = {layer: importlib.import_module(f"spanwalk.{layer}") for layer in tracing.LAYERS}
    return SimpleNamespace(mpmath=importlib.import_module("mpmath"), **layers)


@pytest.fixture(scope="module")
def expected():
    return json.loads((run.BENCH / "expected.json").read_text(encoding="utf-8"))


def _identify_op(mods, gid):
    g = workloads.build_graph(mods, gid)
    return workloads.Op("identify", (gid,), lambda: mods.series.identify_complexity_report(g))


def test_corrupted_pin_raises_error_rate(mods, expected):
    ops = [_identify_op(mods, "named:petersen")] * 20
    corrupted = {"identify": {"named:petersen": str(int(expected["identify"]["named:petersen"]) + 1)}}
    probe = harness.SpeedProbe()
    with harness.deadline_handler():
        good = run.run_pass(ops, mods, expected, probe=probe)
        bad = run.run_pass(ops, mods, corrupted, probe=probe)
    assert good.kinds == [None] * 20
    assert bad.kinds == [harness.WRONG_ANSWER] * 20
    assert run.end_to_end([good], [0.1], [0.1])[0]["success_rate"] == 1.0
    assert run.end_to_end([bad], [0.1], [0.1])[0]["success_rate"] == 0.0
    assert len(good.ref_latencies) == 20 and all(v > 0 for v in good.ref_latencies)


def test_probe_rescales_to_reference_speed():
    probe = harness.SpeedProbe()
    ref = harness.PROBE_REF_S
    # A host at half the reference speed, then one at the reference speed.
    probe.starts = [0.0, 0.05, 0.1, 10.0, 10.05, 10.1]
    probe.durations = [2 * ref, 2 * ref, 2 * ref, ref, ref, ref]
    assert math.isclose(probe.to_reference(0.04, 0.01), 0.02)
    assert math.isclose(probe.to_reference(0.04, 10.01), 0.04)
    # No probe within the window: the nearest ones on either side set the speed.
    assert math.isclose(probe.speed(5.0, 5.1), 1.5 * ref)


def test_deadline_fires_and_restores_precision(mods):
    mp = mods.mpmath.mp
    prec = mp.prec

    def spin():
        with mods.mpmath.workprec(300):
            while True:
                mods.mpmath.mpf(1) + 1

    leaks = []

    def leak_and_raise():
        mp.prec = 333
        raise OverflowError("escaped")

    with harness.deadline_handler():
        timed_out = harness.run_op(spin, 0.05, mp)
        raised = harness.run_op(leak_and_raise, 5.0, mp, on_leak=lambda: leaks.append(1))
        fine = harness.run_op(lambda: 7, 5.0, mp)
    assert timed_out.kind == harness.DEADLINE and timed_out.latency == 0.05
    assert raised.kind == "raised:OverflowError" and leaks == [1]
    assert fine.kind is None and fine.result == 7
    assert mp.prec == prec


def test_strict_json_rejects_non_finite(expected):
    argkey = " ".join(workloads.OVERFLOW_THM2)
    op = workloads.Op("cli-log", (workloads.OVERFLOW_CYCLE, argkey), None)
    want = expected["cli_log_value"][f"{workloads.OVERFLOW_CYCLE}|{argkey}"]
    bad = '{"linear_value": inf, "log_value": %r, "preconditions_ok": true}' % want
    good = '{"linear_value": null, "log_value": %r, "preconditions_ok": true}' % want
    assert workloads.check(op, (0, bad), expected) == harness.INVALID_JSON
    assert workloads.check(op, (0, bad.replace("inf", "Infinity")), expected) == harness.INVALID_JSON
    assert workloads.check(op, (0, good), expected) is None
    assert workloads.check(op, (2, good), expected) == "raised:exit-2"
    with pytest.raises(ValueError):
        harness.strict_json('{"x": NaN}')


def test_tail_percentile_follows_ten_beyond_rule():
    assert harness.tail_percentile(19) is None
    assert [harness.tail_percentile(n) for n in (20, 40, 41, 100, 200, 1000, 10_000)] == [
        50.0, 75.0, 75.0, 90.0, 95.0, 99.0, 99.9,
    ]
    for n in range(1, 2000):
        p = harness.tail_percentile(n)
        beyond = {q: n - math.ceil(Fraction(str(q)) * n / 100) for q in harness.TAIL_LADDER}
        if p is None:
            assert all(b < 10 for b in beyond.values())
        else:
            assert beyond[p] >= 10
            assert all(beyond[q] < 10 for q in harness.TAIL_LADDER if q > p)
    values = list(range(1, 41))
    assert harness.percentile(values, 75.0) == 30  # ten values lie beyond it


def test_traced_pass_reconciles_and_counts_walks(mods, expected):
    ops = [_identify_op(mods, gid) for gid in ("named:petersen", "g:3,1")]
    original = mods.series.iter_closed_walk_counts
    rec = tracing.Recorder()
    undo = tracing.install(mods, rec)
    try:
        with harness.deadline_handler():
            traced = run.run_pass(ops, mods, expected, rec)
    finally:
        undo()
    assert mods.series.iter_closed_walk_counts is original
    assert traced.kinds == [None, None]
    metrics = tracing.layer_metrics(rec, 1)
    assert metrics["exact.walk_tables"] == 2 and metrics["exact.walk_tables_per_graph"] == 1
    assert metrics["exact.walk_terms"] > 0 and 0 < metrics["exact.walks_s"] < traced.wall
    assert metrics["series.terms_used"] > 0 and metrics["series.self_s"] > 0
    assert metrics["exact.bareiss_calls"] == 0
    info = run.reconcile(rec, [traced])
    assert set(info["self_s_by_layer"]) >= {"bench", "series", "exact", "graph"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pins_cover_seeded_batches(mods, expected, workload, tmp_path):
    ops = workloads.build_batch(mods, workload, random.Random(f"{workload}:3"), str(tmp_path))
    assert harness.tail_percentile(len(ops)) is not None
    for op in ops:
        if op.kind in ("identify", "exact"):
            assert op.key[0] in expected[op.kind]
        elif op.kind == "cli":
            assert op.key[1] in expected["cli"][op.key[0]]
        elif op.kind == "cli-log":
            assert "|".join(op.key) in expected["cli_log_value"]
        else:
            assert workloads.sync_key(*op.key[:3]) in expected["synchrony"]


def test_compare_refuses_mixed_backends():
    def record(backend):
        env = {"workload": "exact-count", "mpmath_backend": backend}
        metrics = {"wall_s": {"value": 1.0, "unit": "s"}}
        return {"info": {"env": env}, "trace": False, "result": {"metrics": metrics}}

    assert len(compare.compare([record("python")], [record("python")])) == 1
    with pytest.raises(ValueError):
        compare.compare([record("python")], [record("gmpy")])
