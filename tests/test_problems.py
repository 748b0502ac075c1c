"""Problem generators: data containers, analytic optima, perturbation rule."""

import math
import tracemalloc

import numpy as np
import pytest

from conepath.cones import ConeKind
from conepath.errors import (
    DegenerateData,
    InfeasibleTarget,
    ParseError,
    Unsupported,
)
from conepath.ipm import SolveStatus, cold_start, solve
from conepath.problems import (
    Family,
    LabeledData,
    PerturbationSpec,
    ReturnsData,
    SequenceSpec,
    build_sequence,
    gen_hmcr,
    gen_mpc,
    gen_portfolio,
    gen_svm_l1,
    gen_svm_l2,
    load_returns_csv,
    perturb,
    synth_returns,
    synth_samples,
)


def optimum(problem):
    report = solve(problem, cold_start(problem))
    assert report.status is SolveStatus.OPTIMAL
    x, _, _ = report.solution
    return 0.5 * float(x @ (problem.P @ x)) + float(problem.q @ x), x


def separable_line():
    # y * x >= 1 forces w >= 1; minimal L1 and L2 norms are both 1
    return LabeledData(
        X=np.array([[1.0], [2.0], [-1.0], [-2.0]]),
        y=np.array([1.0, 1.0, -1.0, -1.0]),
    )


def two_asset_returns(mean1=0.01, mean2=0.01, h=0.03):
    # sample covariance is exactly (2h^2/3) * I, means are exact
    return ReturnsData(
        R=np.array(
            [
                [mean1 + h, mean2],
                [mean1 - h, mean2],
                [mean1, mean2 + h],
                [mean1, mean2 - h],
            ]
        )
    )


class TestDataContainers:
    def test_labeled_data_validation(self):
        with pytest.raises(DegenerateData):
            LabeledData(X=np.zeros((3, 2)), y=np.ones(2))
        with pytest.raises(DegenerateData):
            LabeledData(X=np.zeros((2, 2)), y=np.array([1.0, 0.5]))
        data = LabeledData(X=np.zeros((3, 2)), y=np.array([1.0, -1.0, 1.0]))
        assert data.samples == 3 and data.features == 2

    def test_returns_data_validation(self):
        with pytest.raises(DegenerateData):
            ReturnsData(R=np.zeros((1, 4)))
        rd = two_asset_returns()
        assert rd.days == 4 and rd.assets == 2
        assert np.allclose(rd.mean, [0.01, 0.01])

    def test_returns_window(self):
        rd = two_asset_returns()
        w = rd.window(1, 3)
        assert w.days == 3
        assert np.array_equal(w.R, rd.R[1:4])
        with pytest.raises(DegenerateData):
            rd.window(2, 3)
        with pytest.raises(DegenerateData):
            rd.window(-1, 2)

    def test_synth_samples_deterministic_and_balanced(self):
        a = synth_samples(21, 4, seed=3)
        b = synth_samples(21, 4, seed=3)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        assert int(np.sum(a.y > 0)) == 11 and int(np.sum(a.y < 0)) == 10
        c = synth_samples(21, 4, seed=4)
        assert not np.array_equal(a.X, c.X)

    def test_synth_samples_separation_shifts_first_feature(self):
        data = synth_samples(400, 3, seed=0, separation=6.0)
        pos = data.X[data.y > 0, 0].mean()
        neg = data.X[data.y < 0, 0].mean()
        assert pos - neg > 4.0

    def test_synth_returns_deterministic(self):
        a = synth_returns(5, 30, seed=7)
        b = synth_returns(5, 30, seed=7)
        assert np.array_equal(a.R, b.R)
        assert a.days == 30 and a.assets == 5


class TestReturnsCsv:
    def test_exact_values(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("0.1,0.2\n0.3,0.4\n")
        rd = load_returns_csv(f)
        assert np.array_equal(rd.R, [[0.1, 0.2], [0.3, 0.4]])

    def test_header_and_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("asset_a,asset_b\n\n0.1,0.2\n0.3,0.4\n\n")
        rd = load_returns_csv(f)
        assert rd.days == 2 and rd.assets == 2

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("0.1,0.2\n0.3,oops\n")
        with pytest.raises(ParseError, match="row 2, column 2"):
            load_returns_csv(f)

    def test_ragged_row_rejected(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("0.1,0.2\n0.3\n")
        with pytest.raises(ParseError, match="expected 2 columns"):
            load_returns_csv(f)

    def test_too_few_rows_rejected(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("0.1,0.2\n")
        with pytest.raises(ParseError, match="two data rows"):
            load_returns_csv(f)


class TestSvmL1:
    def test_structure(self):
        data = synth_samples(10, 3, seed=0)
        prob = gen_svm_l1(data, 0.1)
        m, d = 10, 3
        assert prob.n == 2 * d + 1 + m
        assert prob.m == 2 * m + 2 * d
        kinds = [spec.kind for spec in prob.cones.blocks]
        assert kinds == [ConeKind.NONNEGATIVE]

    def test_separable_objective_is_lambda(self):
        # margin creation forces |w|_1 >= 1, hinge can reach zero
        lam = 1e-3
        obj, _ = optimum(gen_svm_l1(separable_line(), lam))
        assert math.isclose(obj, lam, rel_tol=0, abs_tol=1e-6)

    def test_objective_monotone_in_lambda(self):
        data = synth_samples(16, 3, seed=1)
        objs = [optimum(gen_svm_l1(data, lam))[0] for lam in (1e-3, 1e-2, 1e-1)]
        assert objs[0] <= objs[1] + 1e-8
        assert objs[1] <= objs[2] + 1e-8

    def test_validation(self):
        data = synth_samples(8, 2, seed=0)
        with pytest.raises(Unsupported):
            gen_svm_l1(data, 0.0)
        one_class = LabeledData(X=np.zeros((3, 2)), y=np.ones(3))
        with pytest.raises(DegenerateData):
            gen_svm_l1(one_class, 0.1)


class TestSvmL2:
    def test_structure(self):
        data = synth_samples(10, 3, seed=0)
        prob = gen_svm_l2(data, 0.1)
        m, d = 10, 3
        assert prob.n == d + 2 + m
        kinds = [spec.kind for spec in prob.cones.blocks]
        assert kinds == [ConeKind.NONNEGATIVE, ConeKind.SECOND_ORDER]
        assert prob.cones.blocks[1].dim == d + 1

    def test_separable_objective_is_lambda(self):
        lam = 1e-3
        obj, _ = optimum(gen_svm_l2(separable_line(), lam))
        assert math.isclose(obj, lam, rel_tol=0, abs_tol=1e-6)

    def test_huge_lambda_pays_full_hinge(self):
        # w collapses to zero, every sample pays hinge 1
        obj, x = optimum(gen_svm_l2(separable_line(), 10.0))
        assert obj <= 1.0 + 1e-6
        assert obj >= 0.99
        assert abs(x[0]) <= 1e-3


class TestPortfolio:
    def test_two_asset_equal_means_splits_evenly(self):
        h = 0.03
        prob = gen_portfolio(two_asset_returns(h=h), r0=0.005)
        obj, x = optimum(prob)
        assert np.allclose(x[:2], 0.5, atol=1e-5)
        # risk = sigma * |x|_2 with sigma^2 = 2h^2/3
        assert math.isclose(obj, h / math.sqrt(3.0), rel_tol=1e-6)

    def test_structure(self):
        prob = gen_portfolio(two_asset_returns(), r0=0.0)
        kinds = [spec.kind for spec in prob.cones.blocks]
        assert kinds == [ConeKind.ZERO, ConeKind.NONNEGATIVE, ConeKind.SECOND_ORDER]
        assert prob.n == 3

    def test_frontier_risk_nondecreasing(self):
        rd = two_asset_returns(mean1=0.01, mean2=0.02)
        risks = []
        for r0 in (0.012, 0.016, 0.018, 0.0199):
            obj, _ = optimum(gen_portfolio(rd, r0))
            risks.append(obj)
        for a, b in zip(risks, risks[1:]):
            assert b >= a - 1e-9
        assert risks[-1] > risks[0]

    def test_unreachable_return_rejected(self):
        with pytest.raises(InfeasibleTarget):
            gen_portfolio(two_asset_returns(), r0=0.5)


class TestHmcr:
    def test_validation(self):
        rd = synth_returns(3, 10, seed=0)
        with pytest.raises(Unsupported):
            gen_hmcr(rd, 1e-4, p=1.0, alpha=0.9)
        with pytest.raises(Unsupported):
            gen_hmcr(rd, 1e-4, p=2.0, alpha=1.0)
        with pytest.raises(Unsupported):
            gen_hmcr(rd, 1e-4, p=2.0, alpha=0.9, formulation="qp")
        with pytest.raises(Unsupported):
            gen_hmcr(rd, 1e-4, p=3.0, alpha=0.9, formulation="soc")
        with pytest.raises(InfeasibleTarget):
            gen_hmcr(rd, 0.5, p=2.0, alpha=0.9)

    def test_power_block_exponent_and_count(self):
        rd = synth_returns(3, 10, seed=0)
        prob = gen_hmcr(rd, 1e-4, p=3.0, alpha=0.9)
        tail = prob.cones.blocks[2:]
        assert len(tail) == rd.days
        assert all(spec.kind is ConeKind.POWER for spec in tail)
        assert all(math.isclose(spec.alpha, 1.0 / 3.0) for spec in tail)

    def test_p2_power_matches_soc_formulation(self):
        rd = synth_returns(4, 8, seed=2)
        obj_pow, _ = optimum(gen_hmcr(rd, 1e-4, p=2.0, alpha=0.9))
        obj_soc, _ = optimum(gen_hmcr(rd, 1e-4, p=2.0, alpha=0.9, formulation="soc"))
        assert abs(obj_pow - obj_soc) <= 1e-6 * max(1.0, abs(obj_soc))

    def test_p2_power_matches_soc_formulation_at_the_benchmark_size(self):
        # hmcr-pow's instance size (perfbench/workloads.py): the power blocks'
        # primal-dual scaling reaches the second-order formulation's objective
        rd = synth_returns(20, 43, seed=0).window(0, 40)
        obj_pow, _ = optimum(gen_hmcr(rd, 5e-4, p=2.0, alpha=0.9))
        obj_soc, _ = optimum(gen_hmcr(rd, 5e-4, p=2.0, alpha=0.9, formulation="soc"))
        assert abs(obj_pow - obj_soc) <= 1e-7 * abs(obj_soc)


class TestMpc:
    def double_integrator(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[0.0], [1.0]])
        return A, B, np.zeros(2)

    def test_validation(self):
        with pytest.raises(Unsupported):
            gen_mpc((2, 1), 0)
        with pytest.raises(Unsupported):
            gen_mpc((2, 1), 3, costs=(-np.eye(2), np.eye(1), np.eye(2)))
        with pytest.raises(Unsupported):
            gen_mpc((2, 1), 3, costs=(np.eye(2), np.eye(1), np.zeros((2, 2))))

    def test_structure(self):
        prob = gen_mpc((3, 2), 4, seed=0)
        n = 4 * (3 + 2)
        assert prob.n == n
        assert prob.m == 4 * 3 + 2 * n
        kinds = [spec.kind for spec in prob.cones.blocks]
        assert kinds == [ConeKind.ZERO, ConeKind.NONNEGATIVE]

    def test_deterministic_in_seed(self):
        a = gen_mpc((3, 2), 4, seed=5)
        b = gen_mpc((3, 2), 4, seed=5)
        assert np.array_equal(a.A.toarray(), b.A.toarray())
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.P.toarray(), b.P.toarray())

    def test_zero_start_zero_reference_is_trivial(self):
        prob = gen_mpc((2, 1), 3, system=self.double_integrator())
        obj, x = optimum(prob)
        assert abs(obj) <= 1e-8
        assert np.allclose(x, 0.0, atol=1e-6)

    def test_matches_equality_kkt_solution(self):
        # bounds stay inactive, so the QP reduces to its KKT system
        Ad, Bd, f = self.double_integrator()
        N, nx, nu = 5, 2, 1
        x0 = np.array([1.0, 0.0])
        Q, Rc, Pf = np.eye(nx), 0.1 * np.eye(nu), np.eye(nx)
        prob = gen_mpc((nx, nu), N, x0=x0, system=(Ad, Bd, f), costs=(Q, Rc, Pf))

        n = N * nx + N * nu
        H = np.zeros((n, n))
        for k in range(N - 1):
            H[k * nx : (k + 1) * nx, k * nx : (k + 1) * nx] = 2.0 * Q
        H[(N - 1) * nx : N * nx, (N - 1) * nx : N * nx] = 2.0 * Pf
        for k in range(N):
            i = N * nx + k * nu
            H[i : i + nu, i : i + nu] = 2.0 * Rc
        C = np.zeros((N * nx, n))
        d = np.zeros(N * nx)
        for k in range(N):
            r = slice(k * nx, (k + 1) * nx)
            C[r, k * nx : (k + 1) * nx] = np.eye(nx)
            C[r, N * nx + k * nu : N * nx + (k + 1) * nu] = -Bd
            if k == 0:
                d[r] = Ad @ x0 + f
            else:
                C[r, (k - 1) * nx : k * nx] = -Ad
                d[r] = f
        kkt = np.block([[H, C.T], [C, np.zeros((N * nx, N * nx))]])
        rhs = np.concatenate([np.zeros(n), d])
        v = np.linalg.solve(kkt, rhs)[:n]
        assert float(np.max(np.abs(v))) < 4.0  # interval rows inactive

        obj, x = optimum(prob)
        assert np.allclose(x, v, atol=1e-6)
        assert math.isclose(obj, 0.5 * float(v @ (H @ v)), rel_tol=1e-6)


class TestPerturbation:
    def fixture(self, m=40):
        rng = np.random.default_rng(0)
        import scipy.sparse as sp

        from conepath.cones import ConeProduct, ConeSpec
        from conepath.ipm import ConicProblem

        return ConicProblem(
            P=sp.csc_matrix((m, m)),
            q=rng.uniform(1.0, 2.0, m),
            A=sp.csc_matrix(-np.eye(m)),
            b=rng.uniform(1.0, 2.0, m),
            cones=ConeProduct((ConeSpec.nonnegative(m),)),
        )

    def test_spec_validation(self):
        with pytest.raises(Unsupported):
            PerturbationSpec(delta=-0.1)
        with pytest.raises(Unsupported):
            PerturbationSpec(delta=0.1, targets=("b", "P"))

    def test_delta_zero_is_identity_copy(self):
        prob = self.fixture()
        out = perturb(prob, PerturbationSpec(delta=0.0))
        assert np.array_equal(out.b, prob.b)
        assert np.array_equal(out.q, prob.q)
        assert (out.A != prob.A).nnz == 0
        out.b[0] = 99.0
        assert prob.b[0] != 99.0

    def test_entry_count_capped(self):
        prob = self.fixture(m=400)
        out = perturb(prob, PerturbationSpec(delta=0.5, targets=("b",)))
        changed = int(np.sum(out.b != prob.b))
        assert 1 <= changed <= 20  # min(ceil(40), cap 20)

    def test_entry_count_small_vector(self):
        prob = self.fixture(m=8)
        out = perturb(prob, PerturbationSpec(delta=0.5, targets=("q",)))
        changed = int(np.sum(out.q != prob.q))
        assert changed == 1  # ceil(0.8) = 1

    def test_relative_rule_for_large_entries(self):
        prob = self.fixture()
        delta = 0.25
        out = perturb(prob, PerturbationSpec(delta=delta, targets=("b",)))
        rel = np.abs(out.b - prob.b) / np.abs(prob.b)
        assert float(rel.max()) <= delta + 1e-12

    def test_absolute_rule_for_tiny_entries(self):
        prob = self.fixture()
        prob.b[:] = 0.0
        delta = 0.25
        out = perturb(prob, PerturbationSpec(delta=delta, targets=("b",)))
        assert float(np.max(np.abs(out.b))) <= delta
        assert np.any(out.b != 0.0)

    def test_matrix_target_and_input_untouched(self):
        prob = self.fixture()
        before = prob.A.toarray().copy()
        out = perturb(prob, PerturbationSpec(delta=0.1, targets=("A",)))
        assert np.array_equal(prob.A.toarray(), before)
        diff = int(np.sum(out.A.toarray() != before))
        assert 1 <= diff <= 20

    def test_matrix_rule_reads_structural_zeros_row_major(self):
        # positions are drawn over all m*n entries in row-major order, as if
        # A were dense; a zero entry becomes delta*r and is then stored
        prob = self.fixture(m=6)
        spec = PerturbationSpec(delta=0.5, targets=("A",), seed=1, fraction=0.5, cap=100)
        out = perturb(prob, spec)
        rng = np.random.default_rng(1)
        idx = rng.choice(36, size=18, replace=False)
        r = rng.uniform(-1.0, 1.0, size=18)
        dense = prob.A.toarray().ravel()
        dense[idx] = np.where(np.abs(dense[idx]) <= 1e-6, 0.5 * r, (1.0 + 0.5 * r) * dense[idx])
        assert np.array_equal(out.A.toarray().ravel(), dense)
        assert out.A.nnz == np.count_nonzero(dense) and out.A.has_canonical_format

    def test_seed_determinism(self):
        prob = self.fixture()
        a = perturb(prob, PerturbationSpec(delta=0.1, seed=3))
        b = perturb(prob, PerturbationSpec(delta=0.1, seed=3))
        c = perturb(prob, PerturbationSpec(delta=0.1, seed=4))
        assert np.array_equal(a.b, b.b) and np.array_equal(a.q, b.q)
        assert not np.array_equal(a.b, c.b)


class TestSequences:
    def assert_uniform(self, problems):
        first = problems[0]
        for prob in problems[1:]:
            assert prob.n == first.n and prob.m == first.m
            assert [s.kind for s in prob.cones.blocks] == [
                s.kind for s in first.cones.blocks
            ]

    def test_empty_schedule_rejected(self):
        with pytest.raises(Unsupported):
            SequenceSpec(family=Family.SVM_L1, schedule=())

    def test_svm_sweep(self):
        spec = SequenceSpec(
            family=Family.SVM_L1,
            schedule=(0.1, 0.05, 0.01),
            params={"samples": 12, "features": 3},
        )
        probs = build_sequence(spec)
        assert len(probs) == 3
        self.assert_uniform(probs)
        assert probs[0].q[0] == 0.1 and probs[2].q[0] == 0.01

    def test_frontier_sweep(self):
        spec = SequenceSpec(
            family=Family.EFFICIENT_FRONTIER,
            schedule=(1e-4, 2e-4),
            data=synth_returns(6, 40, seed=0),
        )
        probs = build_sequence(spec)
        assert len(probs) == 2
        self.assert_uniform(probs)
        assert probs[0].b[1] == -1e-4 and probs[1].b[1] == -2e-4

    def test_rebalance_windows(self):
        spec = SequenceSpec(
            family=Family.PORTFOLIO_REBALANCE,
            schedule=(0, 5, 10),
            params={"assets": 5, "window": 30},
        )
        probs = build_sequence(spec)
        assert len(probs) == 3
        self.assert_uniform(probs)

    def test_hmcr_defaults_to_cubic_power(self):
        spec = SequenceSpec(
            family=Family.HMCR,
            schedule=(0, 4),
            params={"assets": 4, "window": 20},
        )
        probs = build_sequence(spec)
        assert len(probs) == 2
        tail = probs[0].cones.blocks[2]
        assert tail.kind is ConeKind.POWER
        assert math.isclose(tail.alpha, 1.0 / 3.0)

    def test_mpc_base_plus_perturbations(self):
        spec = SequenceSpec(
            family=Family.MPC_PERTURB,
            schedule=(1, 2, 3),
            params={"dims": (3, 2), "horizon": 4, "delta": 1e-3},
        )
        probs = build_sequence(spec)
        assert len(probs) == 4
        self.assert_uniform(probs)
        assert not np.array_equal(probs[1].b, probs[0].b)
        # same entry rule, different seeds
        assert not np.array_equal(probs[1].b, probs[2].b)


class TestSparseBuilds:
    """Generators and perturb build A sparse: no scratch array of A's shape."""

    @staticmethod
    def mpc_640():
        return gen_mpc((4, 2), 640, seed=0, x0=np.full(4, 0.5))

    @pytest.mark.parametrize("case", ["svm-l1", "mpc", "perturb-mpc"])
    def test_build_peak_memory(self, case):
        # dense scratch of A's shape peaked near 500-600 MiB for each of these
        if case == "svm-l1":
            data = synth_samples(4000, 10, seed=0)
            build = lambda: gen_svm_l1(data, 0.05)
        elif case == "mpc":
            build = self.mpc_640
        else:
            base = self.mpc_640()
            build = lambda: perturb(base, PerturbationSpec(1e-3, targets=("A",), seed=3))
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    def test_svm_hashes_pinned(self):
        # no BLAS or LAPACK call touches the SVM data, so these hashes hold
        # on every platform; they pin the instances bit for bit
        from conepath.fileio import problem_hash

        data = synth_samples(60, 6, seed=0)
        assert problem_hash(gen_svm_l1(data, 0.05)) == (
            "630cf1b706e90e1ed5871278c03cc7c8046294bde6c8ec4246980c291646d2b4"
        )
        assert problem_hash(gen_svm_l2(data, 0.05)) == (
            "cfa51a14771651f0412795b47d06c6de2bb903045e78336a773c9f3aee6c3d9d"
        )
