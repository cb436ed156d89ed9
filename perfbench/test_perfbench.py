"""Tests of the benchmark itself: every workload's output check accepts a
correct result and rejects a corrupted one, the tracer attributes time
and parents correctly, and the harness refuses to run without sources.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

SEED = 7


def test_replicate_check_rejects_corruption():
    rc, out = worker.Replicate({"expected": "", "ops": 1}).op(0)
    assert worker.check_replicate(rc, out, None)
    wl = worker.Replicate({"expected": out, "ops": 1})
    assert wl.check(0, (rc, out))
    flipped = out.replace('"pass": true', '"pass": false', 1)
    assert not wl.check(0, (rc, flipped))
    assert not wl.check(0, (1, out))
    # a pass that disagrees with the summary 120/0 is rejected even as the first
    report = json.loads(out)
    report["summary"]["fail"] = 1
    assert not worker.check_replicate(0, json.dumps(report), None)
    # with no valid reference, every pass fails
    assert not worker.Replicate({"expected": "", "ops": 1}).check(0, (rc, out))


def test_inertia_check_rejects_corruption():
    wl = worker.Inertia(inputs.inertia_inputs(SEED))
    cheap = [i for i, lat in enumerate(wl.lats) if lat.rank <= 61]
    for i in cheap[:4]:
        result = wl.op(i)
        assert wl.check(i, result)
        p, n, z = result
        assert not wl.check(i, (p + 1, n - 1, z))
        assert not wl.check(i, (p, n - 1, z + 1))


def test_dense_forms_exercise_all_three_signs():
    import random

    gram, expect = inputs.dense_form(random.Random(SEED), 20, 2, 1)
    assert all(x > 0 for x in expect)
    assert any(gram[i][i] != 0 for i in range(20))


def _closure_spec() -> dict:
    import isurf

    # through JSON, as the workload process receives it
    return json.loads(json.dumps(run.closure_oracle(isurf, inputs.closure_inputs(SEED))))


def test_closure_check_rejects_corruption():
    wl = worker.Closure(_closure_spec())
    i = min(range(wl.n), key=lambda k: wl.ops[k]["L"])
    pool, answers, parsed = wl.op(i)
    assert wl.check(i, (pool, answers, parsed))
    flipped = list(answers)
    flipped[0] = not flipped[0]
    assert not wl.check(i, (pool, flipped, parsed))
    assert not wl.check(i, (pool[:-1], answers, parsed))
    assert not wl.check(i, (pool, answers, parsed[::-1]))


def test_closure_oracle_answers_both_ways():
    flat = [a for op in _closure_spec()["ops"] for a in op["answers"]]
    assert any(flat) and not all(flat)


def test_cold_cli_checks_reject_corruption():
    for workload in ("inertia", "closure"):
        bench = run.Run(ROOT, workload, SEED, 1, 0)
        bench.generate()
        _, _, rc, out = bench.timed_command(["-m", "isurf", *bench.cli_argv])
        assert bench.check_cli(rc, out)
        assert not bench.check_cli(1, out)
        assert not bench.check_cli(rc, out.replace("1", "2", 1))


def test_germ_pool_matches_brute_force_dihedral_minimum():
    assert inputs.dihedral_min((2, 3, 2, 4)) == (2, 3, 2, 4)
    assert inputs.dihedral_min((4, 2, 3, 2)) == (2, 3, 2, 4)
    pool = inputs.germ_pool(3)
    assert pool[:4] == ["se:1", "se:2", "c:1", "c:2"]
    assert "c:2,2,4" in pool and "c:4,2,2" not in pool


def test_inputs_follow_the_seed():
    assert inputs.inertia_inputs(SEED) == inputs.inertia_inputs(SEED)
    assert inputs.inertia_inputs(SEED) != inputs.inertia_inputs(SEED + 1)
    assert inputs.closure_inputs(SEED) == inputs.closure_inputs(SEED)
    assert inputs.closure_inputs(SEED) != inputs.closure_inputs(SEED + 1)


def test_reference_work_is_fixed():
    det, cycle, depths = reference.work()
    assert reference.work() == (det, cycle, depths)
    assert det > 0 and min(cycle) == cycle[0] and depths > 0
    assert reference.measure(1) > 0


def test_scaled_ops_cancel_machine_speed():
    ref = reference.REF_MS
    steady = {"cpu_ms": [10.0, 30.0], "ref_ms": [ref, ref, ref]}
    # the machine halves its speed during the second op
    slowing = {"cpu_ms": [10.0, 60.0], "ref_ms": [ref, ref, 3 * ref]}
    assert run.scaled_ops(steady) == pytest.approx([10.0, 30.0])
    assert run.scaled_ops(slowing) == pytest.approx([10.0, 30.0])


@pytest.mark.skipif(not hasattr(run.os, "sched_setaffinity"), reason="needs CPU affinity")
def test_pins_to_one_allowed_cpu():
    allowed = run.os.sched_getaffinity(0)
    try:
        cpu = run.pin_to_quietest_cpu()
        assert cpu in allowed and run.os.sched_getaffinity(0) == {cpu}
    finally:
        run.os.sched_setaffinity(0, allowed)


def test_covered_merges_overlapping_children():
    assert spans.covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert spans.covered([(0, 5)], 1, 3) == 2
    assert spans.covered([], 0, 1) == 0


def _spin(seconds: float) -> None:
    """Busy-wait for `seconds` of this thread's CPU time."""
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: _spin(0.02))
    outer = tracer.wrap("outer", lambda: (_spin(0.01), inner(), inner()))
    with tracer.op():
        outer()
    (out,) = [s for s in tracer.kept if s.name == "outer"]
    inner_cpu = sum(s.cpu_end - s.cpu_start for s in tracer.kept if s.name == "inner")
    assert tracer.calls["inner"] == 2
    assert tracer.self_s["outer"] == pytest.approx(out.cpu_end - out.cpu_start - inner_cpu)
    assert tracer.self_s["outer"] == pytest.approx(0.01, abs=0.005)
    assert tracer.self_s["inner"] == pytest.approx(0.04, abs=0.01)


def test_self_time_stays_with_its_thread_under_contention():
    """Two traced functions spin on two threads and take turns at the GIL:
    each one's wall span includes the other's turns, its self time does not."""
    tracer = spans.Tracer()
    a, b = tracer.wrap("a", _spin), tracer.wrap("b", _spin)
    with tracer.op():
        other = threading.Thread(target=b, args=(0.2,))
        other.start()
        a(0.1)
        other.join(timeout=10)
    assert not other.is_alive()
    (span_a,) = [s for s in tracer.kept if s.name == "a"]
    assert span_a.end - span_a.start > 1.5 * tracer.self_s["a"]
    assert tracer.self_s["a"] == pytest.approx(0.1, abs=0.02)
    assert tracer.self_s["b"] == pytest.approx(0.2, abs=0.03)


def test_catalog_checks_attach_to_their_pass():
    import isurf.catalog
    import isurf.lattice

    original = isurf.lattice.signature
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert isurf.catalog.signature is not original
        assert isurf.signature is isurf.lattice.signature is not original
        with tracer.op():
            report = isurf.catalog.run_catalog(only="lem5.2")
    finally:
        restore()
    assert isurf.lattice.signature is original and isurf.catalog.signature is original
    assert report.ok
    by_id = {s.id: s for s in tracer.kept}
    (pass_span,) = [s for s in tracer.kept if s.name == "catalog.run_catalog"]
    checks = [s for s in tracer.kept if s.name == "catalog.check"]
    assert len(checks) == len(report.entries)
    assert all(s.parent == pass_span.id for s in checks)
    sigs = [s for s in tracer.kept if s.name == "lattice.signature"]
    assert sigs and all(by_id[s.parent].name == "catalog.check" for s in sigs)
    assert tracer.failed["catalog.check"] == 0
    # the pool overhead is wall time: at most the pass's own duration
    assert 0 < tracer.self_s["catalog.run_catalog"] <= pass_span.end - pass_span.start


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in bench["per_layer"]] == list(run.LAYER_METRICS)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in bench["per_layer"])
    assert {w["name"] for w in bench["workloads"]} <= set(worker.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replicate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
