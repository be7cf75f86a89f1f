"""Tests of the benchmark itself: smoke runs of every workload and the
self-time arithmetic of the span analysis.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
from reference import Reference

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload run.py defines, including those BENCHMARK.json leaves out
WORKLOADS = sorted(run.WORKLOADS)


def smoke(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])
    if trace:
        # the printed breakdown also has the time of every traced function
        for name in tracing.SPAN_NAMES:
            for suffix in (".calls", ".busy_s", ".self_s"):
                assert f"  {name}{suffix} " in proc.stdout
        # at full size the wrapped spans cover > 0.99 of cli.main; on the
        # smoke grid, config parsing and geometry take a larger share
        assert 0.5 < result["metrics"]["trace.coverage"]["value"] <= 1.0
    else:
        for name in ("wall_s", "wall_ref_s", "setup_raw_s", "setup_s", "peak_rss_mb",
                     "fail_frac"):
            assert f"\n{name} " in "\n" + proc.stdout


def test_fails_without_the_program(tmp_path):
    """Next to only BENCHMARK.json and bench/, the benchmark exits non-zero."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    proc = smoke(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_measures_a_speed_and_stops(tmp_path):
    affinity = os.sched_getaffinity(0)
    try:
        ref = Reference(tmp_path)
        assert len(os.sched_getaffinity(0)) == 1
        start = ref.start()
        time.sleep(0.2)  # the reference has the vCPU to itself
        speed = ref.stop(start)
        ref.close()
    finally:
        os.sched_setaffinity(0, affinity)
    assert speed is not None and speed > 0
    assert ref.proc.returncode is not None


def synthetic_spans():
    # main [0, 10]: solve_penalized [1, 6] with two Gramian applies, each
    # holding one adjoint march; a writer [7, 9]; a second writer [8.5, 9.5]
    # overlapping the first, to check that overlap is not subtracted twice.
    rows = [
        ("cli.main", -1, 0.0, 10.0),
        ("hum.solve_penalized", 0, 1.0, 6.0),
        ("hum.gramian_apply", 1, 1.5, 3.0),
        ("parabolic.solve_adjoint", 2, 1.5, 2.5),
        ("hum.gramian_apply", 1, 3.5, 5.0),
        ("parabolic.solve_adjoint", 4, 4.0, 4.5),
        ("cli._write_field_csv", 0, 7.0, 9.0),
        ("cli._write_report", 0, 8.5, 9.5),
    ]
    return {"name": np.array([r[0] for r in rows], dtype=object),
            "parent": np.array([r[1] for r in rows]),
            "start": np.array([r[2] for r in rows]),
            "end": np.array([r[3] for r in rows]),
            "distinct": {}}


def test_self_time_is_busy_time_minus_child_coverage():
    s = synthetic_spans()
    own = tracing.self_times(s["parent"], s["start"], s["end"])
    # main: 10 - (5 from solve_penalized + 2.5 from the writers' union)
    np.testing.assert_allclose(own, [2.5, 2.0, 0.5, 1.0, 1.0, 0.5, 2.0, 1.0])


def test_layer_metrics_on_a_synthetic_tree():
    m = tracing.layer_metrics(synthetic_spans(), n_cells=10, n_steps=5)
    assert m["hum.gramian_apply.calls"] == (2, "count")
    assert m["hum.gramian_apply.busy_s"][0] == pytest.approx(3.0)
    assert m["hum.gramian_apply.self_s"][0] == pytest.approx(1.5)
    assert m["hum.cg_iters"] == (2, "count")
    assert m["hum.s_per_cg_iter"][0] == pytest.approx(2.5)
    assert m["hum.busy_s"][0] == pytest.approx(5.0)
    assert m["hum.self_s"][0] == pytest.approx(3.5)
    assert m["cli.busy_s"][0] == pytest.approx(2.5)
    assert m["cli.write.busy_s"][0] == pytest.approx(3.0)
    assert m["parabolic.march.steps"] == (10, "count")
    assert m["parabolic.march.us_per_step"][0] == pytest.approx(1.5 / 10 * 1e6)
    assert m["parabolic.step.ns_per_cell"][0] == pytest.approx(1.5 / 10 * 1e9 / 10)
    assert m["nonlinear.outer_iters"] == (0, "count")
    assert m["trace.coverage"][0] == pytest.approx(0.75)
    assert m["trace.spans"] == (8, "count")
