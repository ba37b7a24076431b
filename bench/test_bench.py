"""Tests of the benchmark itself: every workload passes its checks at a
reduced size, planted wrong values make the checks fail, and the traced
mode counts what it should.

    PYTHONPATH=src python -m pytest bench/test_bench.py
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for p in (HERE, os.path.join(ROOT, "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_small(name, tmp_path, seed=5):
    setup, run, check, attempted = workloads.WORKLOADS[name]
    out = run(setup(seed, True, str(tmp_path)))
    return out, check(out, seed), attempted(out)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_at_reduced_size(name, tmp_path):
    _, (failures, failed), attempted = run_small(name, tmp_path)
    assert failures == []
    assert attempted >= 1
    # only the two near-constant probes fail, and they fail every time
    assert failed == (2 if name == "deficit-sweep" else 0)


def test_sweep_gives_every_call_its_own_rule():
    deficit_m = [max(160, 6 * (k + 1)) for k in workloads.DEFICIT_DEGREES]
    square_m = max(256, 16 * (workloads.SQUARE_DEGREE + 1))
    assert len(deficit_m) == len(workloads.SWEEP_CASES) - 1
    assert len(set(deficit_m)) == len(deficit_m) and square_m not in deficit_m
    assert min(deficit_m) >= 160 and max(deficit_m + [square_m]) <= 1000


# ---------------------------------------------------------------------------
# planted wrong values


def test_sign_flipped_deficit_fails(tmp_path):
    out, _, _ = run_small("deficit-sweep", tmp_path)
    rows = workloads.sweep_rows(out)
    assert checks.check_reports(rows, []) == []
    bad = copy.deepcopy(rows)
    bad[3]["lhs"], bad[3]["rhs"] = bad[3]["rhs"], bad[3]["lhs"]
    bad[3]["deficit"] = -bad[3]["deficit"]
    assert any("negative deficit" in f for f in checks.check_reports(bad, []))


def test_wrong_lhs_fails_against_reference(tmp_path):
    out, _, _ = run_small("deficit-sweep", tmp_path)
    rows = workloads.sweep_rows(out)
    i = next(j for j, r in enumerate(rows) if r["kind"] == "sobolev")
    assert checks.check_reports(rows, [i]) == []
    rows[i]["lhs"] *= 1.0 + 1e-6
    rows[i]["deficit"] = rows[i]["rhs"] - rows[i]["lhs"]
    assert any("reference" in f for f in checks.check_reports(rows, [i]))


def test_wrong_rhs_fails_against_reference(tmp_path):
    out, _, _ = run_small("deficit-sweep", tmp_path)
    rows = workloads.sweep_rows(out)
    rows[0]["rhs"] *= 1.0 + 1e-6
    rows[0]["deficit"] = rows[0]["rhs"] - rows[0]["lhs"]
    assert any("rhs" in f for f in checks.check_reports(rows, [0]))


def test_nonzero_equality_case_fails():
    row = {"kind": "interpolation", "n": 1, "s": 0.5, "q": 3.0, "lhs": 0.0,
           "rhs": 1e-9, "deficit": 1e-9, "coeffs": np.array([1.3])}
    assert any("equality" in f for f in checks.check_reports([row], []))


def test_eigenvalue_off_by_1e6_fails(tmp_path):
    out, _, _ = run_small("euclid-line", tmp_path)
    from fracsphere.euclid import euclid_eigenvalue
    eig = {(0.5, k): euclid_eigenvalue(0.5, k) for k in range(4)}
    assert checks.check_euclid(out["residuals"], eig, [], []) == []
    eig[(0.5, 2)] *= 1.0 + 1e-6
    assert any("eigenvalue" in f for f in checks.check_euclid(out["residuals"], eig, [], []))


def test_negative_line_deficit_fails():
    assert checks.check_euclid({}, {}, [], [{"lhs": 1.0, "rhs": 1.0, "deficit": -1e-12}])
    assert checks.check_euclid({}, {}, [{"lhs": 1.0, "rhs": 1.0, "deficit": 1e-6}], [])


def test_flow_faults_fail(tmp_path):
    out, _, _ = run_small("flow-wide", tmp_path)
    args = (out["times"], out["entropy"], out["mass"], out["rate"], out["s"])
    assert checks.check_flow(*args) == []
    ent = list(out["entropy"])
    ent[5] = ent[4] * 1.001
    assert checks.check_flow(out["times"], ent, out["mass"], out["rate"], out["s"])
    mass = list(out["mass"])
    mass[-1] *= 1.0 + 1e-9
    assert checks.check_flow(out["times"], out["entropy"], mass, out["rate"], out["s"])
    assert checks.check_flow(out["times"], out["entropy"], out["mass"],
                             out["rate"] * 1.2, out["s"])
    ent[5] = float("nan")
    assert checks.check_flow(out["times"], ent, out["mass"], out["rate"], out["s"])


def test_probe_reference_and_verdicts():
    ref = checks.probe_lhs_reference(1e-6)
    assert ref == pytest.approx(1.09e-12, rel=1e-5)
    assert checks.probe_failures([{"eps": 1e-6, "lhs": ref, "deficit": 1.5e-13}]) == []
    assert checks.probe_failures([{"eps": 1e-6, "lhs": ref * (1 + 1.5e-5),
                                   "deficit": 1.5e-13}])
    assert checks.probe_failures([{"eps": 1e-8, "lhs": 1.09e-16, "deficit": -1e-17}])


def test_reference_harmonics_are_orthonormal():
    for n in (1, 2, 3, 4):
        z, w = checks.sphere_nodes(n, 64)
        y = checks.zonal_harmonics(n, 20, z)
        assert np.allclose((y * w) @ y.T, np.eye(21), atol=1e-12)


# ---------------------------------------------------------------------------
# traced mode


def test_self_time_subtracts_children():
    sp = [["a", 0.0, 10.0, -1, {}], ["b", 1.0, 4.0, 0, {}],
          ["c", 2.0, 3.0, 1, {}], ["d", 5.0, 6.0, 0, {}]]
    assert spans._self_times(sp) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_traced_verify_counts_rule_reuse(tmp_path):
    import fracsphere.specfun as specfun
    original = specfun.gauss_jacobi
    tracer = spans.Tracer()
    with spans.install(tracer):
        assert specfun.gauss_jacobi is not original
        out, (failures, _), _ = run_small("verify-suite", tmp_path)
    assert specfun.gauss_jacobi is original
    assert failures == []
    m = spans.layer_metrics(tracer.spans)
    assert set(m) == set(spans.LAYER_UNITS)
    assert m["specfun.gauss_jacobi.calls"] > m["specfun.gauss_jacobi.distinct"] > 0
    assert m["specfun.jacobi_sweeps_per_build"] > 1
    assert m["cli.report_bytes"] > 0
    assert m["inequality.deficit.interpolation.calls"] > 0


def test_traced_flow_and_euclid_counters(tmp_path):
    tracer = spans.Tracer()
    with spans.install(tracer):
        run_small("flow-wide", tmp_path)
        run_small("euclid-line", tmp_path)
    m = spans.layer_metrics(tracer.spans)
    steps = workloads.FLOW_SMALL["steps"]
    assert m["flow.rhs.calls"] == 4 * steps
    assert m["flow.clamp_fired"] == 0
    assert m["flow.dense_bytes"] > 0 and m["flow.FlowOps.init_s"] > 0
    assert m["euclid.fft.calls"] > 0
    assert m["euclid.fft.flops_computed"] > 5 * m["euclid.fft.points"]


# ---------------------------------------------------------------------------
# the command


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "euclid-line",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [m["name"] for m in bench["per_layer"]]
    assert set(names) == set(spans.LAYER_UNITS) | {"trace.overhead_s"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
