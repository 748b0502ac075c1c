"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import dataclasses
import importlib
import json
import math

import numpy as np
import pytest

from perfbench import baseline, calibration, checker, driver, run
from perfbench.tracer import Tracer, install_layers
from perfbench.workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def api():
    return run.import_conepath()


def tiny_chains(api, name, seed=1):
    w = WORKLOADS[name]
    return w.build(api.problems, np.random.default_rng(seed), **w.tiny)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_each_workload(api, name):
    result, lines = run.run_workload(api, name, 1, 0, 0, WORKLOADS[name].tiny)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    spec = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert any(line.startswith("correctness check: PASS") for line in lines)


def test_traced_run_reports_every_layer_and_restores_names(api):
    solve = api.ipm.solve
    result, _ = run.run_workload(api, "hmcr-pow", 1, 0, 1, WORKLOADS["hmcr-pow"].tiny)
    spec = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cones.pow.conjugate_gradient_calls"] > 0
    assert metrics["ipm.kkt_factor_calls"] > 0
    assert metrics["ipm.kkt_solve_calls"] >= metrics["ipm.kkt_factor_calls"]
    assert api.ipm.solve is solve
    assert api.ipm.sp is importlib.import_module("scipy.sparse")


def test_checker_accepts_optimum_and_rejects_perturbed_x(api):
    problem = tiny_chains(api, "svm-l1-lp")[0][0]
    report = api.ipm.solve(problem, api.ipm.cold_start(problem))
    assert report.status.value == "Optimal"
    x, s, z = report.solution
    assert checker.check_solution(problem, x, s, z) == []
    assert checker.objectives_agree(
        checker.objective(problem, x), checker.highs_objective(problem)
    )
    bumped = x + 1e-3 * np.random.default_rng(0).standard_normal(x.shape)
    assert any("primal residual" in f for f in checker.check_solution(problem, bumped, s, z))


@pytest.mark.parametrize(
    "kind, inside, outside, alpha, dual",
    [
        ("nonneg", [1.0, 2.0], [1.0, -0.1], None, False),
        ("soc", [2.0, 1.0, 1.0], [1.0, 1.0, 1.0], None, False),
        ("pow", [1.0, 1.0, 0.9], [1.0, 1.0, 1.1], 0.5, False),
        # dual power cone at alpha = 0.5: (2u)^0.5 (2v)^0.5 >= |w|
        ("pow", [1.0, 1.0, 1.9], [1.0, 1.0, 2.1], 0.5, True),
        ("zero", [0.0, 0.0], [0.0, 1e-3], None, False),
    ],
)
def test_cone_membership_formulas(kind, inside, outside, alpha, dual):
    assert checker.cone_violation(kind, np.array(inside), alpha, dual) == 0.0
    assert checker.cone_violation(kind, np.array(outside), alpha, dual) > checker.CONE_TOL


def test_self_time_on_nested_span_tree():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def advance(dt):
        now[0] += dt

    leaf = tracer.wrap("leaf", lambda: advance(1.0))

    def mid_body():
        advance(2.0)
        leaf()
        advance(0.5)

    mid = tracer.wrap("mid", mid_body)

    def top_body():
        advance(3.0)
        mid()
        mid()

    tracer.wrap("top", top_body)()
    assert dict(tracer.self_s) == {"top": 3.0, "mid": 5.0, "leaf": 2.0}
    assert dict(tracer.calls) == {"top": 1, "mid": 2, "leaf": 2}


def test_tracer_reports_absent_names_and_restores(api):
    solve = api.ipm.solve
    with install_layers(Tracer()) as tracer:
        tracer.patch_timed("conepath.ipm:no_such_layer", "x")
        tracer.patch_timed("conepath.no_such_module:f", "x")
        assert api.ipm.solve is not solve
    assert tracer.absent == ["conepath.ipm:no_such_layer", "conepath.no_such_module:f"]
    assert api.ipm.solve is solve
    # the package attribute is the function; the tracer patched the module
    assert importlib.import_module("conepath.warmstart").warmstart is api.warmstart.warmstart


def test_fallback_charge_on_forced_warm_failure(api, monkeypatch):
    chains = tiny_chains(api, "rebalance-soc")

    def jam(*args, **kwargs):
        raise api.errors.NumericalError("forced")

    monkeypatch.setattr(api.warmstart, "warmstart", jam)
    ops = driver.run_pass(api, chains, lambda: calibration.REFERENCE_S)
    driver.check_pass(ops, chains)
    pairs = driver.pairs(ops)
    assert pairs and all(not w.ok and c.ok for c, w in pairs)
    for c, w in pairs:
        assert driver.charged(c, w, "seconds") == w.seconds + c.seconds
        assert driver.charged(c, w, "iterations") == c.iterations
    metrics = driver.end_to_end([ops], 0.1, 1.0)
    assert metrics["r_iter"][0] == pytest.approx(1.0)
    assert metrics["r_t"][0] > 1.0
    warm_t = sorted(driver.charged(c, w, "scaled_s") for c, w in pairs)
    assert metrics["warm_s.p50"][0] == pytest.approx(np.median(warm_t))
    assert metrics["optimal_share"][0] == pytest.approx(1 - len(pairs) / len(ops))


def test_distinct_ops_merge_repeats():
    def one_pass(warm_status, seconds):
        return [
            driver.Op(0, 0, "cold", "Optimal", 20, seconds),
            driver.Op(0, 1, "cold", "Optimal", 20, seconds),
            driver.Op(0, 1, "warm", warm_status, 10, seconds),
        ]

    ops = one_pass("NumericalError", 1.0) + one_pass("Optimal", 2.0) + one_pass("Optimal", 6.0)
    merged = driver.distinct_ops(ops)
    assert [(op.chain, op.member, op.mode) for op in merged] == [
        (0, 0, "cold"), (0, 1, "cold"), (0, 1, "warm")
    ]
    assert [op.seconds for op in merged] == [2.0, 2.0, 2.0]
    assert [op.ok for op in merged] == [True, True, False]
    assert merged[2].status == "NumericalError"


def test_repeated_chains_leave_metrics_unchanged(api):
    chains = tiny_chains(api, "rebalance-soc")
    kernel = lambda: calibration.REFERENCE_S
    whole = driver.run_pass(api, chains, kernel)
    assert {op.chain for op in driver.run_pass(api, chains, kernel, [0])} == {0}
    # the same solves again, as a run that repeats chain 0 would record them
    again = [dataclasses.replace(op) for op in whole if op.chain == 0]
    one = driver.end_to_end([whole], 0.1, 1.0)
    assert driver.end_to_end([whole, again, again], 0.1, 1.0) == one


def test_failed_cold_solve_counts_as_infinite():
    cold = driver.Op(0, 1, "cold", "NumericalError", 30, 2.0)
    warm = driver.Op(0, 1, "warm", "NumericalError", 10, 1.0)
    assert driver.charged(cold, warm, "seconds") == math.inf
    ok_warm = driver.Op(0, 1, "warm", "Optimal", 10, 1.0)
    assert driver.charged(cold, ok_warm, "seconds") == 1.0


def test_times_are_scaled_by_the_calibration_around_each_operation(api):
    chains = tiny_chains(api, "hmcr-pow")
    kernel = iter([0.01, 0.02, 0.04] + [calibration.REFERENCE_S] * 100)
    ops = driver.run_pass(api, chains, lambda: next(kernel))
    assert ops[0].scale == pytest.approx(calibration.REFERENCE_S / 0.015)
    assert ops[1].scale == pytest.approx(calibration.REFERENCE_S / 0.03)
    assert ops[1].scaled_s == pytest.approx(ops[1].seconds * calibration.REFERENCE_S / 0.03)
    assert all(op.scale == pytest.approx(1.0) for op in ops[3:])
    metrics = driver.end_to_end([ops], 0.1, 1.0)
    assert metrics["solved_per_s"][0] == pytest.approx(len(ops) / sum(op.scaled_s for op in ops))


def test_calibration_kernel_runs():
    assert 0.0 < calibration.Calibration()() < 10.0


def test_baseline_summary_from_runs():
    meta = baseline.parse_meta("meta: python=3.11 blas='scipy-openblas 0.3' nproc=2")
    assert meta == {"python": "3.11", "blas": "scipy-openblas 0.3", "nproc": "2"}
    runs = [
        {"correct": True, "attempted": 10, "failed": f, "metrics": {
            m["name"]: {"value": float(v), "unit": m["unit"]} for m in BENCHMARK["end_to_end"]
        }}
        for f, v in ((1, 1), (2, 2), (1, 3))
    ]
    doc = baseline.summarize({"hmcr-pow": runs}, meta, BENCHMARK, 30)
    entry = doc["workloads"]["hmcr-pow"]
    assert entry["fail_share"] == 0.1 and entry["seeds"] == 3 and entry["correct"]
    assert entry["metrics"]["cold_s.p50"]["median"] == 2.0
    assert entry["metrics"]["cold_s.p50"]["unit"] == "s"
