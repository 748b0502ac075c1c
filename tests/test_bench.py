"""Benchmark harness: ratio aggregation, sequence runs, report artifacts."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from conepath.bench import (
    BenchReport,
    RunRecord,
    emit_report,
    geometric_mean,
    perturbation_study,
    reduction_metrics,
    run_sequence,
    trend_statistic,
)
from conepath.cones import ConeProduct, ConeSpec
from conepath.errors import EmptyInput, Unsupported
from conepath.ipm import ConicProblem
from conepath.problems import Family, SequenceSpec

# Frozen sweep logs (warm iters, cold iters, warm time, cold time).
# The geometric-mean iteration reductions of these fixtures are pinned
# to four decimals; times are table-rounded, so the time reduction is
# checked against its own recomputation rather than a published digit.
L1_SWEEP = [
    (33, 49, 47.4, 72.9),
    (21, 20, 30.7, 31.2),
    (11, 20, 15.6, 30.7),
    (10, 19, 14.1, 29.0),
    (9, 20, 12.8, 32.0),
    (8, 21, 11.5, 33.4),
    (8, 20, 11.4, 30.0),
    (8, 19, 10.8, 28.0),
    (8, 20, 10.9, 31.8),
    (8, 20, 11.1, 31.6),
]
L2_SWEEP = [
    (30, 58, 43.0, 84.6),
    (28, 53, 40.2, 77.3),
    (27, 50, 39.0, 72.5),
    (28, 50, 40.1, 72.8),
    (29, 53, 41.5, 77.8),
    (31, 48, 43.2, 67.9),
    (28, 45, 38.7, 67.2),
    (30, 45, 42.9, 65.9),
    (28, 43, 40.0, 63.0),
    (28, 41, 40.2, 61.7),
]
FRONTIER_SWEEP = [
    (11, 20, 0.0868, 0.172),
    (10, 20, 0.0811, 0.171),
    (9, 19, 0.0721, 0.161),
    (9, 19, 0.072, 0.156),
    (12, 22, 0.0929, 0.181),
    (11, 18, 0.0893, 0.15),
    (13, 19, 0.101, 0.16),
    (11, 20, 0.0851, 0.172),
    (10, 21, 0.0769, 0.184),
    (11, 21, 0.127, 0.179),
]


def sweep_records(sweep, family="sweep"):
    records = []
    for k, (wi, ci, wt, ct) in enumerate(sweep):
        pid = f"{family}-{k:03d}"
        records.append(
            RunRecord(pid, family, k, "cold", "Optimal", ci, ct, 1.0, 0.0)
        )
        records.append(
            RunRecord(pid, family, k, "warm", "Optimal", wi, wt, 1.0, 0.0)
        )
    return records


def nn_qp(n=3):
    # min 0.5||x||^2 - 2 e'x over x >= 0; a few cold iterations
    return ConicProblem(
        P=sp.csc_matrix(np.eye(n)),
        q=np.full(n, -2.0),
        A=sp.csc_matrix(-np.eye(n)),
        b=np.zeros(n),
        cones=ConeProduct((ConeSpec.nonnegative(n),)),
    )


class TestGeometricMean:
    def test_known_value(self):
        assert math.isclose(
            geometric_mean([0.5, 0.5, 2.0]), 0.7937005259840998, rel_tol=1e-12
        )

    def test_single_value_identity(self):
        assert math.isclose(geometric_mean([3.0]), 3.0, rel_tol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            geometric_mean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(Unsupported):
            geometric_mean([1.0, 0.0])


class TestReductionMetrics:
    @pytest.mark.parametrize(
        "sweep,expected_iter",
        [(L1_SWEEP, 0.4984), (L2_SWEEP, 0.5931), (FRONTIER_SWEEP, 0.5353)],
        ids=["l1", "l2", "frontier"],
    )
    def test_pinned_iteration_reductions(self, sweep, expected_iter):
        r_iter, r_t, ratios, excluded = reduction_metrics(sweep_records(sweep))
        assert round(r_iter, 4) == expected_iter
        assert excluded == 0
        assert len(ratios) == len(sweep)
        recomputed = geometric_mean([wt / ct for _, _, wt, ct in sweep])
        assert math.isclose(r_t, recomputed, rel_tol=1e-12)

    def test_ratio_rows_carry_params(self):
        _, _, ratios, _ = reduction_metrics(sweep_records(L1_SWEEP))
        assert [r.param for r in ratios] == list(range(10))
        assert math.isclose(ratios[0].ratio_iter, 33.0 / 49.0)

    def test_failed_pair_excluded(self):
        records = sweep_records(L1_SWEEP)
        bad = records[3]  # warm record of pair 1
        records[3] = RunRecord(
            bad.problem_id, bad.family, bad.param, "warm", "MaxIters",
            bad.iterations, bad.solve_time, bad.phi0,
        )
        r_iter, _, ratios, excluded = reduction_metrics(records)
        assert excluded == 1
        assert len(ratios) == len(L1_SWEEP) - 1
        kept = [
            (w, c) for k, (w, c, _, _) in enumerate(L1_SWEEP) if k != 1
        ]
        assert math.isclose(
            r_iter, geometric_mean([w / c for w, c in kept]), rel_tol=1e-12
        )

    def test_cold_only_head_is_not_a_pair(self):
        records = sweep_records(L1_SWEEP[:2])
        head = RunRecord("sweep-head", "sweep", -1, "cold", "Optimal", 30, 1.0, 1.0)
        _, _, ratios, excluded = reduction_metrics([head] + records)
        assert excluded == 0
        assert len(ratios) == 2

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyInput):
            reduction_metrics([])
        lonely = [RunRecord("p-0", "f", 0, "cold", "Optimal", 5, 1.0, 1.0)]
        with pytest.raises(EmptyInput):
            reduction_metrics(lonely)


class TestPhi:
    def test_cold_start_merit(self):
        (record,) = run_sequence([nn_qp(2)]).records
        # at the cold start r_p = b - s = -1 each, r_d = q - z = -3 each, mu = 1
        expected = 3.0 * math.sqrt(2.0)
        assert math.isclose(record.phi0, expected, rel_tol=1e-12)


class TestRunSequence:
    def test_identical_problems_warm_cheaper(self):
        report = run_sequence([nn_qp(), nn_qp(), nn_qp()])
        assert report.family == "custom"
        modes = [r.mode for r in report.records]
        assert modes == ["cold", "cold", "warm", "cold", "warm"]
        assert all(r.status == "Optimal" for r in report.records)
        assert report.excluded == 0
        assert len(report.ratios) == 2
        assert report.r_iter <= 1.0
        for row in report.ratios:
            assert row.ratio_iter <= 1.0

    def test_warm_phi_not_worse(self):
        report = run_sequence([nn_qp(), nn_qp()])
        by_mode = {r.mode: r for r in report.records if r.problem_id == "custom-001"}
        assert by_mode["warm"].phi0 <= by_mode["cold"].phi0

    def test_dimension_change_fails_softly(self):
        report = run_sequence([nn_qp(2), nn_qp(3), nn_qp(3)])
        warm_recs = [r for r in report.records if r.mode == "warm"]
        assert warm_recs[0].status == "Unsupported"
        assert warm_recs[0].iterations == 0
        assert warm_recs[1].status == "Optimal"
        assert report.excluded == 1
        assert len(report.ratios) == 1

    def test_spec_driven_sweep(self):
        spec = SequenceSpec(
            family=Family.SVM_L1,
            schedule=(0.05, 0.04, 0.03),
            params={"samples": 12, "features": 3},
        )
        report = run_sequence(spec)
        assert report.family == "svm-l1"
        assert [r.param for r in report.records if r.mode == "cold"] == [
            0.05, 0.04, 0.03,
        ]
        assert all(r.status == "Optimal" for r in report.records)
        assert len(report.ratios) == 2
        assert report.r_iter > 0.0


class TestPerturbationStudy:
    def test_mini_study_curves(self):
        report = perturbation_study(
            (1e-5, 1e-2), seeds=2, dims=(2, 1), horizon=3, base_seed=0
        )
        assert [d for d, _ in report.curves] == [1e-5, 1e-2]
        assert all(r > 0.0 for _, r in report.curves)
        assert len(report.ratios) == 4 - report.excluded
        assert report.r_iter > 0.0

    def test_grid_validation(self):
        with pytest.raises(Unsupported):
            perturbation_study((1e-2, 1e-5), seeds=2)
        with pytest.raises(EmptyInput):
            perturbation_study((), seeds=2)
        with pytest.raises(EmptyInput):
            perturbation_study((1e-3,), seeds=[])


class TestTrendStatistic:
    def test_monotone_curves(self):
        up = [(1e-4, 0.3), (1e-3, 0.5), (1e-2, 0.8)]
        down = [(1e-4, 0.9), (1e-3, 0.5), (1e-2, 0.2)]
        assert trend_statistic(up) == 1.0
        assert trend_statistic(down) == -1.0

    def test_needs_two_points(self):
        with pytest.raises(EmptyInput):
            trend_statistic([(1e-3, 0.5)])


class TestEmitReport:
    def fixture_report(self):
        records = sweep_records(L1_SWEEP)
        report = BenchReport(family="sweep", records=records)
        report.r_iter, report.r_t, report.ratios, report.excluded = (
            reduction_metrics(records)
        )
        return report

    def test_files_and_pinned_summary(self, tmp_path):
        report = self.fixture_report()
        paths = emit_report(report, tmp_path)
        assert [p.split("/")[-1] for p in paths] == [
            "sweep_runs.csv", "sweep_table.txt",
        ]
        table = (tmp_path / "sweep_table.txt").read_text()
        assert "R_iter=0.4984" in table
        assert "pairs=10 excluded=0" in table
        runs = (tmp_path / "sweep_runs.csv").read_text().splitlines()
        assert runs[0].startswith("problem_id,family,param,mode,status")
        assert len(runs) == 1 + len(report.records)

    def test_rewrite_is_byte_identical(self, tmp_path):
        report = self.fixture_report()
        emit_report(report, tmp_path / "a")
        emit_report(report, tmp_path / "b")
        for name in ("sweep_runs.csv", "sweep_table.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_empty_report_header_only(self, tmp_path):
        paths = emit_report(BenchReport(family="empty"), tmp_path)
        runs = (tmp_path / "empty_runs.csv").read_text().splitlines()
        assert len(runs) == 1
        assert len(paths) == 2  # no curve file without curves

    def test_curve_round_trip(self, tmp_path):
        report = self.fixture_report()
        report.curves = [(1e-4, 0.25), (1e-2, 0.75)]
        paths = emit_report(report, tmp_path, prefix="mpc")
        curve = (tmp_path / "mpc_curve.csv").read_text().splitlines()
        assert curve[0] == "delta,mean_ratio_iter"
        parsed = [tuple(float(v) for v in line.split(",")) for line in curve[1:]]
        assert parsed == report.curves
        assert any(p.endswith("mpc_curve.csv") for p in paths)
