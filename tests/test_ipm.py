"""Homogeneous-embedding solver: fixtures, statuses, invariants."""

import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag
from scipy.sparse.linalg import splu

from conepath import cones as cones_module
from conepath import ipm
from conepath.cones import (
    ConeKind,
    ConeProduct,
    ConeSpec,
    NonnegativeCone,
    SecondOrderCone,
    barrier_gradient,
    barrier_hessian,
    barrier_hessian_inverse,
    smat,
    svec,
)
from conepath.errors import RejectedWarmStart, Unsupported
from conepath.fileio import problem_hash
from conepath.ipm import (
    ConicProblem,
    Iterate,
    Settings,
    SolveStatus,
    check_termination,
    cold_start,
    homogeneous_map,
    optimal_objective,
    residual_map,
    solve,
    warm_start,
)
from conepath.problems import (
    gen_hmcr,
    gen_mpc,
    gen_portfolio,
    gen_svm_l1,
    gen_svm_l2,
    synth_returns,
    synth_samples,
)
from conepath.warmstart import PreviousSolution, WarmStartResult, warmstart

from support import highs_objective, make_spec, random_interior, row_mu


def lp_box():
    # min x1 + x2 s.t. x >= 1; optimum (1, 1), value 2
    return ConicProblem(
        P=sp.csc_matrix((2, 2)),
        q=np.array([1.0, 1.0]),
        A=sp.csc_matrix(-np.eye(2)),
        b=np.array([-1.0, -1.0]),
        cones=ConeProduct((ConeSpec.nonnegative(2),)),
    ), 2.0


def socp_norm():
    # min t s.t. (t, 1, 1) in SOC; optimum t = sqrt(2)
    A = sp.csc_matrix(np.array([[-1.0], [0.0], [0.0]]))
    return ConicProblem(
        P=sp.csc_matrix((1, 1)),
        q=np.array([1.0]),
        A=A,
        b=np.array([0.0, 1.0, 1.0]),
        cones=ConeProduct((ConeSpec.second_order(3),)),
    ), math.sqrt(2.0)


def qp_shifted():
    # min 0.5||x||^2 - x1 - x2 over x >= 0; optimum x = (1, 1), value -1
    return ConicProblem(
        P=sp.csc_matrix(np.eye(2)),
        q=np.array([-1.0, -1.0]),
        A=sp.csc_matrix(-np.eye(2)),
        b=np.zeros(2),
        cones=ConeProduct((ConeSpec.nonnegative(2),)),
    ), -1.0


def exp_log_bound():
    # min x s.t. (x, 1, 1) in the exponential cone: x >= e
    A = sp.csc_matrix(np.array([[-1.0], [0.0], [0.0]]))
    return ConicProblem(
        P=sp.csc_matrix((1, 1)),
        q=np.array([1.0]),
        A=A,
        b=np.array([0.0, 1.0, 1.0]),
        cones=ConeProduct((ConeSpec.exponential(),)),
    ), math.e


def pow_bound(alpha=0.6):
    # min x s.t. (x, 1, 1) in the power cone: x^alpha >= 1 so x >= 1
    A = sp.csc_matrix(np.array([[-1.0], [0.0], [0.0]]))
    return ConicProblem(
        P=sp.csc_matrix((1, 1)),
        q=np.array([1.0]),
        A=A,
        b=np.array([0.0, 1.0, 1.0]),
        cones=ConeProduct((ConeSpec.power(alpha),)),
    ), 1.0


def sdp_trace():
    # min tr(X) s.t. X >= I (2x2); optimum X = I, value 2
    e = svec(np.eye(2))
    return ConicProblem(
        P=sp.csc_matrix((3, 3)),
        q=e.copy(),
        A=sp.csc_matrix(-np.eye(3)),
        b=-e,
        cones=ConeProduct((ConeSpec.psd_triangle(2),)),
    ), 2.0


def mixed_simplex_qp():
    # min 0.5||x||^2 s.t. sum x = 1, x >= 0; optimum (1/2, 1/2), value 1/4
    A = sp.csc_matrix(np.vstack([np.ones((1, 2)), -np.eye(2)]))
    return ConicProblem(
        P=sp.csc_matrix(np.eye(2)),
        q=np.zeros(2),
        A=A,
        b=np.array([1.0, 0.0, 0.0]),
        cones=ConeProduct((ConeSpec.zero(1), ConeSpec.nonnegative(2))),
    ), 0.25


def primal_infeasible_lp():
    # x <= -1 and x >= 0 cannot hold together
    A = sp.csc_matrix(np.array([[1.0], [-1.0]]))
    return ConicProblem(
        P=sp.csc_matrix((1, 1)),
        q=np.array([0.0]),
        A=A,
        b=np.array([-1.0, 0.0]),
        cones=ConeProduct((ConeSpec.nonnegative(2),)),
    )


def dual_infeasible_lp():
    # min -x1 - x2 over x >= 1: unbounded below
    return ConicProblem(
        P=sp.csc_matrix((2, 2)),
        q=np.array([-1.0, -1.0]),
        A=sp.csc_matrix(-np.eye(2)),
        b=np.array([-1.0, -1.0]),
        cones=ConeProduct((ConeSpec.nonnegative(2),)),
    )


def unbounded_lp_zero_b():
    # min -x1 over x >= 0: unbounded below, and b'z = 0 for every z
    return ConicProblem(
        P=sp.csc_matrix((2, 2)),
        q=np.array([-1.0, 0.0]),
        A=sp.csc_matrix(-np.eye(2)),
        b=np.zeros(2),
        cones=ConeProduct((ConeSpec.nonnegative(2),)),
    )


def unbounded_lp_positive_b():
    # the same with the redundant row x1 >= -1, so b'z > 0 on the path
    return ConicProblem(
        P=sp.csc_matrix((2, 2)),
        q=np.array([-1.0, 0.0]),
        A=sp.csc_matrix(np.array([[-1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]])),
        b=np.array([0.0, 0.0, 1.0]),
        cones=ConeProduct((ConeSpec.nonnegative(3),)),
    )


FIXTURES = {
    "lp": lp_box,
    "socp": socp_norm,
    "qp": qp_shifted,
    "exp": exp_log_bound,
    "pow": pow_bound,
    "sdp": sdp_trace,
    "mixed": mixed_simplex_qp,
}


def objective(problem, x):
    return 0.5 * float(x @ (problem.P @ x)) + float(problem.q @ x)


class TestProblemValidation:
    def test_p_is_symmetrized(self):
        P = np.array([[1.0, 2.0], [0.0, 1.0]])
        prob = ConicProblem(
            P=sp.csc_matrix(P),
            q=np.zeros(2),
            A=sp.csc_matrix(-np.eye(2)),
            b=np.zeros(2),
            cones=ConeProduct((ConeSpec.nonnegative(2),)),
        )
        assert np.allclose(prob.P.toarray(), [[1.0, 1.0], [1.0, 1.0]])

    def test_matrices_store_no_zero_in_copies_of_the_callers(self):
        # stored zeros on P's diagonal and in A: the problem prunes
        # copies, and the caller's arrays keep theirs
        P = sp.csc_matrix(([0.0, 2.0], ([0, 1], [0, 1])), shape=(2, 2))
        A = sp.csc_matrix(([-1.0, 0.0, -1.0], ([0, 1, 1], [0, 0, 1])), shape=(2, 2))
        before = [(M.indptr.copy(), M.indices.copy(), M.data.copy()) for M in (P, A)]
        prob = ConicProblem(
            P=P, q=np.zeros(2), A=A, b=np.zeros(2), cones=ConeProduct((ConeSpec.nonnegative(2),))
        )
        for M in (prob.P, prob.A):
            assert M.format == "csc" and M.has_canonical_format
            assert M.data.all()
        assert (prob.P.nnz, prob.A.nnz) == (1, 2)
        for M, arrays in zip((P, A), before):
            for got, kept in zip((M.indptr, M.indices, M.data), arrays):
                assert np.array_equal(got, kept)

    def test_hash_ignores_a_stored_zero(self):
        cones = ConeProduct((ConeSpec.nonnegative(3),))

        def problem(A):
            return ConicProblem(
                P=sp.csc_matrix((2, 2)), q=np.ones(2), A=A, b=np.ones(3), cones=cones
            )

        rows, cols = [0, 1, 1, 2], [0, 0, 1, 1]
        stored = sp.csc_matrix(([-1.0, 0.0, -1.0, 1.0], (rows, cols)), shape=(3, 2))
        assert stored.nnz == 4
        clean = sp.csc_matrix(stored.toarray())
        assert problem_hash(problem(stored)) == problem_hash(problem(clean))

    def test_shape_mismatches_rejected(self):
        cones = ConeProduct((ConeSpec.nonnegative(2),))
        with pytest.raises(Unsupported):
            ConicProblem(
                P=sp.csc_matrix((3, 3)),
                q=np.zeros(2),
                A=sp.csc_matrix(-np.eye(2)),
                b=np.zeros(2),
                cones=cones,
            )
        with pytest.raises(Unsupported):
            ConicProblem(
                P=sp.csc_matrix((2, 2)),
                q=np.zeros(2),
                A=sp.csc_matrix(-np.eye(3)),
                b=np.zeros(2),
                cones=cones,
            )
        with pytest.raises(Unsupported):
            ConicProblem(
                P=sp.csc_matrix((2, 2)),
                q=np.zeros(2),
                A=sp.csc_matrix(-np.eye(3)),
                b=np.zeros(3),
                cones=cones,
            )

    def test_scalar_p_rejected(self):
        # a scalar P is read as a 1x1 matrix, which fits no n > 1
        with pytest.raises(Unsupported, match="P must be 3x3"):
            ConicProblem(
                P=0,
                q=np.ones(3),
                A=sp.csc_matrix(-np.eye(3)),
                b=np.zeros(3),
                cones=ConeProduct((ConeSpec.nonnegative(3),)),
            )

    def test_dims(self):
        prob, _ = mixed_simplex_qp()
        assert prob.n == 2
        assert prob.m == 3


class TestResidualAndEmbeddingMaps:
    def test_residual_map_values(self):
        prob, _ = lp_box()
        x = np.array([1.0, 2.0])
        s = np.array([0.5, 0.5])
        z = np.array([0.25, 0.25])
        r = residual_map(prob, x, s, z)
        assert np.allclose(r.r_d, [0.75, 0.75])  # -z + q
        assert np.allclose(r.r_p, [-0.5, 0.5])  # x + b - s
        assert math.isclose(r.g_p, 3.0)
        assert math.isclose(r.g_d, 0.5)  # -b'z = 0.5

    def test_homogeneous_map_at_solution_scales(self):
        # G vanishes on the ray of an exact solution with kappa = 0
        prob, _ = lp_box()
        v = Iterate(
            x=np.array([1.0, 1.0]),
            z=np.array([1.0, 1.0]),
            s=np.zeros(2),
            tau=1.0,
            kappa=0.0,
            mu=0.0,
        )
        g = homogeneous_map(prob, v)
        assert np.allclose(g, 0.0, atol=1e-14)
        v2 = Iterate(
            x=2.0 * v.x, z=2.0 * v.z, s=2.0 * v.s, tau=2.0, kappa=0.0, mu=0.0
        )
        assert np.allclose(homogeneous_map(prob, v2), 0.0, atol=1e-14)


class TestStarts:
    def test_cold_start_shape(self):
        prob, _ = mixed_simplex_qp()
        v = cold_start(prob)
        assert np.allclose(v.x, 0.0)
        assert v.tau == 1.0 and v.kappa == 1.0
        assert np.allclose(v.s[:1], 0.0)  # zero block
        assert np.allclose(v.s[1:], 1.0)  # nonnegative units
        assert math.isclose(v.mu, 1.0)

    def test_warm_start_kappa_equals_mu(self):
        prob, _ = lp_box()
        prev = PreviousSolution(
            np.array([1.0, 1.0]),
            np.array([1e-8, 1e-8]),
            np.array([1.0, 1.0]),
            problem=prob,
        )
        ws = warmstart(prev, prob.cones)
        v = warm_start(prob, ws)
        mu_blocks = float(ws.s0 @ ws.z0) / prob.cones.degree
        assert math.isclose(v.kappa, mu_blocks, rel_tol=1e-15)
        # embedding mu: (<s,z> + tau*kappa)/(nu+1) collapses back to mu
        assert math.isclose(v.mu, mu_blocks, rel_tol=1e-12)

    def test_warm_start_rejects_boundary_point(self):
        prob, _ = lp_box()
        ws = warmstart(
            PreviousSolution(
                np.ones(2), np.ones(2), np.ones(2), problem=prob
            ),
            prob.cones,
        )
        ws.s0[0] = 0.0
        with pytest.raises(RejectedWarmStart):
            warm_start(prob, ws)

    def test_exterior_fallback_block_is_rejected_by_name(self):
        # a fallback block of warmstart() holds the unit point; a hand-built
        # result that lists an exterior block as fallback is still exterior
        prob, _ = mixed_simplex_qp()
        e_s, e_z = prob.cones.unit_points()
        ws = WarmStartResult(np.zeros(prob.n), e_s, e_z, per_block=[], fallback_blocks=[1])
        ws.z0[prob.cones.slices()[1]][0] = -1.0
        with pytest.raises(RejectedWarmStart, match="block 1 "):
            warm_start(prob, ws)


class TestFixtureLibrary:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_reaches_optimal(self, name):
        prob, opt = FIXTURES[name]()
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.OPTIMAL, name
        x, s, z = report.solution
        assert abs(objective(prob, x) - opt) <= 1e-6 * max(1.0, abs(opt)), name
        r = residual_map(prob, x, s, z)
        assert np.linalg.norm(r.r_p) <= 1e-6
        assert np.linalg.norm(r.r_d) <= 1e-6

    def test_lp_solution_values(self):
        prob, _ = lp_box()
        report = solve(prob, cold_start(prob))
        x, s, z = report.solution
        assert np.allclose(x, 1.0, atol=1e-7)
        assert np.allclose(z, 1.0, atol=1e-7)
        assert np.allclose(s, 0.0, atol=1e-7)

    def test_socp_solution_values(self):
        prob, _ = socp_norm()
        report = solve(prob, cold_start(prob))
        x, _, _ = report.solution
        assert math.isclose(x[0], math.sqrt(2.0), rel_tol=1e-7)

    def test_exp_solution_value(self):
        prob, _ = exp_log_bound()
        report = solve(prob, cold_start(prob))
        x, _, _ = report.solution
        assert math.isclose(x[0], math.e, rel_tol=1e-7)

    def test_mixed_solution_values(self):
        prob, _ = mixed_simplex_qp()
        report = solve(prob, cold_start(prob))
        x, _, _ = report.solution
        assert np.allclose(x, 0.5, atol=1e-7)


class TestInfeasibility:
    def test_primal_certificate(self):
        prob = primal_infeasible_lp()
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.PRIMAL_INFEASIBLE
        # Farkas direction: A'z ~ 0 with b'z < 0 at the raw iterate
        assert float(prob.b @ report.z) < 0
        assert np.linalg.norm(prob.A.T @ report.z) <= 1e-6 * np.linalg.norm(
            report.z
        )

    def test_dual_certificate(self):
        # b'z of every sign: the certificate must not depend on it
        for make in (dual_infeasible_lp, unbounded_lp_zero_b, unbounded_lp_positive_b):
            prob = make()
            report = solve(prob, cold_start(prob))
            assert report.status is SolveStatus.DUAL_INFEASIBLE, make.__name__
            # unbounded ray: q'x < 0, Ax + s ~ 0, Px ~ 0
            assert float(prob.q @ report.x) < 0
            assert np.linalg.norm(prob.A @ report.x + report.s) <= 1e-6 * max(
                1.0, np.linalg.norm(report.x)
            )


class TestTermination:
    def test_exact_solution_is_optimal(self):
        prob, _ = lp_box()
        v = Iterate(
            x=np.array([1.0, 1.0]),
            z=np.array([1.0, 1.0]),
            s=np.zeros(2),
            tau=1.0,
            kappa=0.0,
            mu=0.0,
        )
        status, _ = check_termination(prob, residual_map(prob, v.x, v.s, v.z, v.tau))
        assert status is SolveStatus.OPTIMAL

    def test_cold_start_is_undecided(self):
        prob, _ = lp_box()
        v = cold_start(prob)
        status, _ = check_termination(prob, residual_map(prob, v.x, v.s, v.z, v.tau))
        assert status is None


class TestSolverMechanics:
    def test_trace_shape_and_monotone_mu(self):
        prob, _ = lp_box()
        report = solve(prob, cold_start(prob))
        assert len(report.trace) >= report.iterations
        mus = [row.mu for row in report.trace]
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(mus, mus[1:]))
        for row in report.trace:
            assert row.r_p >= 0 and row.r_d >= 0
            assert 0.0 <= row.step <= 0.99

    def test_residuals_slack_monotone(self):
        # residual norms may wiggle but never regress by more than 10x
        prob, _ = socp_norm()
        report = solve(prob, cold_start(prob))
        rps = [row.r_p for row in report.trace]
        for a, b in zip(rps, rps[1:]):
            assert b <= 10.0 * max(a, 1e-9)

    def test_deterministic(self):
        prob, _ = qp_shifted()
        r1 = solve(prob, cold_start(prob))
        r2 = solve(prob, cold_start(prob))
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.x, r2.x)
        assert np.array_equal(r1.z, r2.z)

    def test_max_iters_reported(self):
        prob, _ = sdp_trace()
        report = solve(prob, cold_start(prob), Settings(max_iters=2))
        assert report.status is SolveStatus.MAX_ITERS
        assert report.iterations == 2

    def test_iterations_at_least_one(self):
        # a start that already satisfies termination still reports >= 1
        prob, _ = lp_box()
        report = solve(prob, cold_start(prob))
        assert report.iterations >= 1

    def test_tighter_eps_takes_more_iterations(self):
        prob, _ = socp_norm()
        loose = solve(prob, cold_start(prob), Settings(eps=1e-4))
        tight = solve(prob, cold_start(prob), Settings(eps=1e-8))
        assert loose.status is SolveStatus.OPTIMAL
        assert tight.status is SolveStatus.OPTIMAL
        assert loose.iterations <= tight.iterations

    def test_one_residual_evaluation_per_iterate(self, monkeypatch):
        # the trace row, the termination test and the report of an iterate
        # all come from one residual_map call, cold and warm
        prob = gen_hmcr(synth_returns(4, 8, 0), 5e-4, 3.0, 0.9)
        calls = []
        residual = ipm.residual_map

        def counted(*args):
            calls.append(1)
            return residual(*args)

        monkeypatch.setattr(ipm, "residual_map", counted)
        cold = solve(prob, cold_start(prob))
        assert cold.status is SolveStatus.OPTIMAL
        assert len(calls) == len(cold.trace)
        ws = warmstart(PreviousSolution(*cold.solution, problem=prob), prob.cones)
        calls.clear()
        warm = solve(prob, warm_start(prob, ws))
        assert len(calls) == len(warm.trace)
        assert (warm.r_p, warm.r_d) == (warm.trace[-1].r_p, warm.trace[-1].r_d)

    @pytest.mark.parametrize(
        "make, warm",
        [
            (lambda: gen_hmcr(synth_returns(4, 8, 0), 5e-4, 3.0, 0.9), True),
            (lambda: gen_portfolio(synth_returns(6, 30, 0), 5e-4), True),
            (lambda: mixed_simplex_qp()[0], False),  # P != 0; its warm solve ends at tau = 1
        ],
        ids=["hmcr", "portfolio", "mixed-qp"],
    )
    def test_reported_norms_are_the_scaled_points_residuals(self, make, warm):
        # the report's ||r||/tau and gap, taken at the raw point, equal the
        # literal residuals of the tau-scaled solution.  Each is a sum of
        # terms that cancel to about 1e-8, so the two roundings agree to
        # 1e-12 of the terms, not of the norm; a wrong power of tau is off
        # by far more on these solves, which end with tau != 1
        prob = make()
        reports = [solve(prob, cold_start(prob))]
        if warm:
            ws = warmstart(PreviousSolution(*reports[0].solution, problem=prob), prob.cones)
            reports.append(solve(prob, warm_start(prob, ws)))
        for report in reports:
            assert report.status is SolveStatus.OPTIMAL and report.tau != 1.0
            r = residual_map(prob, *report.solution)
            x, s, z = report.solution
            terms = (
                (report.r_p, np.linalg.norm(r.r_p), [r.Ax, prob.b, s]),
                (report.r_d, np.linalg.norm(r.r_d), [r.Px, r.ATz, prob.q]),
                (report.gap, abs(r.g_p - r.g_d), [0.5 * r.xPx, r.qx, r.bz]),
            )
            for got, literal, parts in terms:
                scale = sum(float(np.linalg.norm(part)) for part in parts)
                assert abs(got - literal) <= 1e-12 * scale, (got, literal)

    def test_solve_time_recorded(self):
        prob, _ = lp_box()
        report = solve(prob, cold_start(prob))
        assert report.solve_time > 0.0


def unregularized(kkt):
    """K without its regularization, in the original order, from kkt.K, kkt.q and kkt.signs."""
    qi = np.argsort(kkt.q)
    return (kkt.K[qi][:, qi] - sp.diags(ipm.REGULARIZATION * kkt.signs)).tocsc()


def nt_scaling(s, z):
    """The dense Nesterov-Todd scaling 2ww' - rJ of one SOC pair, with r = sqrt(det s/det z)
    and w = (s + rJz)/sqrt(2 (s'z + sqrt(det s det z)))."""
    J = np.diag(np.r_[1.0, -np.ones(len(s) - 1)])
    # each det as (x0 - ||x1||)(x0 + ||x1||), as the interior test factors it
    a, c = ((x[0] - np.linalg.norm(x[1:])) * (x[0] + np.linalg.norm(x[1:])) for x in (s, z))
    r = math.sqrt(a / c)
    w = (s + r * J @ z) / math.sqrt(2.0 * (s @ z + math.sqrt(a * c)))
    return 2.0 * np.outer(w, w) - r * J


class TestKKTStructure:
    def test_one_assembly_per_pattern_and_ordering_computed_once(self, monkeypatch):
        prob = gen_portfolio(synth_returns(6, 30, 0), 5e-4)
        monkeypatch.setattr(ipm, "_last_pattern", None)  # whatever another test solved last
        kinds = {spec.kind for spec in prob.cones.blocks}
        assert {ConeKind.ZERO, ConeKind.NONNEGATIVE, ConeKind.SECOND_ORDER} <= kinds
        # a nonneg scaling block is diagonal; an SOC block is its diagonal,
        # two lifted columns of dim entries each, their transposes and two
        # lifted pivots; the other barrier kinds are dense
        def scaling(spec):
            if spec.kind is ConeKind.NONNEGATIVE:
                return spec.dim
            if spec.kind is ConeKind.SECOND_ORDER:
                return 5 * spec.dim + 2
            return spec.dim**2

        scaling_nnz = sum(scaling(spec) for spec in prob.cones.blocks if spec.kind is not ConeKind.ZERO)
        lifted = 2 * sum(spec.kind is ConeKind.SECOND_ORDER for spec in prob.cones.blocks)
        # the bmat holds P, A', A and the scaling pattern; K adds the
        # regularization diagonal where P has no diagonal entry, and on
        # the Zero blocks, which have no scaling
        unscaled = sum(spec.dim for spec in prob.cones.blocks if spec.kind is ConeKind.ZERO)
        missing = prob.n - np.count_nonzero(prob.P.diagonal())
        expected = prob.P.nnz + 2 * prob.A.nnz + scaling_nnz
        assembled, orderings, factors = [], [], []
        bmat = ipm.sp.bmat
        rcm = ipm.reverse_cuthill_mckee

        def counting_bmat(*args, **kwargs):
            K = bmat(*args, **kwargs)
            assembled.append(K.nnz)
            return K

        def counting_rcm(K, **kwargs):
            orderings.append((K.shape, K.nnz))
            return rcm(K, **kwargs)

        def counting_splu(K, **kwargs):
            factors.append((kwargs, K.data.all()))
            return splu(K, **kwargs)

        monkeypatch.setattr(ipm.sp, "bmat", counting_bmat)
        monkeypatch.setattr(ipm, "reverse_cuthill_mckee", counting_rcm)
        monkeypatch.setattr(ipm, "splu", counting_splu)

        def check(report, iterations, built):
            assert report.status is SolveStatus.OPTIMAL
            # one assembly and one order per pattern: the warm solve of
            # the same pattern takes neither; one factorization per
            # step, each in that order with static diagonal pivots
            assert assembled == [expected] * built
            order = ((prob.n + prob.m + lifted,) * 2, expected + missing + unscaled)
            assert orderings == [order] * built
            assert len(factors) == report.iterations == iterations
            static = dict(permc_spec="NATURAL", **ipm.STATIC_PIVOTS)
            assert all(kwargs == static for kwargs, _ in factors)
            for seen in (assembled, orderings, factors):
                seen.clear()

        cold = solve(prob, cold_start(prob))
        # at the unit points s = z = e the SOC block's NT point is e, and its
        # u and v are exact zeros, stored entries of the first K; they take
        # no second ordering
        assert not factors[0][1]
        check(cold, 10, built=1)
        ws = warmstart(PreviousSolution(*cold.solution, problem=prob), prob.cones)
        check(solve(prob, warm_start(prob, ws)), 2, built=0)

    def test_factor_fill_on_svm_l1(self, monkeypatch):
        # guards the gain: COLAMD with partial pivoting filled L + U to
        # about 85,000 entries on this LP, the symmetric order to 25,502
        prob = gen_svm_l1(synth_samples(480, 10, seed=0), 0.05)
        fill = []

        def counting_splu(K, **kwargs):
            lu = splu(K, **kwargs)
            fill.append(lu.L.nnz + lu.U.nnz)
            return lu

        monkeypatch.setattr(ipm, "splu", counting_splu)
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.OPTIMAL
        assert len(fill) == report.iterations
        assert max(fill) <= 35_000

    def product_problem(self, rng):
        cones = ConeProduct(
            (
                ConeSpec.zero(2),
                ConeSpec.nonnegative(3),
                ConeSpec.second_order(4),
                ConeSpec.power(0.3),
                ConeSpec.power(0.3),
                ConeSpec.psd_triangle(3),
                ConeSpec.second_order(3),
            )
        )
        n, m = 5, cones.dim
        A = sp.random(m, n, density=0.4, random_state=rng) + sp.eye(m, n)
        M = sp.random(n, n, density=0.3, random_state=rng)
        return ConicProblem(
            P=M @ M.T, q=rng.standard_normal(n), A=A, b=rng.standard_normal(m), cones=cones
        )

    @staticmethod
    def dual_point(prob, rng):
        """z strictly inside K*, each block -grad f of a random interior point times its own scale."""
        z = np.zeros(prob.m)
        for b in prob.cones.barrier_batches:
            for rows in np.split(np.arange(b.sl.start, b.sl.stop), len(b.blocks)):
                g = barrier_gradient(b.spec, random_interior(b.spec, rng))
                z[rows] = -float(np.exp(rng.uniform(-3.0, 3.0))) * g
        return z

    @staticmethod
    def scalings(prob, s, z, mu):
        """The barrier batches' Scalings at (s, z) and the global mu, as ipm.solve takes them."""
        return [
            barrier_hessian_inverse(b.spec, b.rows(s), b.rows(z), mu)
            for b in prob.cones.barrier_batches
        ]

    def fresh(self, prob, stacks, mu):
        """K, the exact K, the diagonal part W of the scaling, the lifted columns L and
        their pivots, as a per-iteration assembly builds them from the kernels' stacks; the
        pivots are +-mu_i from mu, row_mu's (m,) array."""
        n, m = prob.n, prob.m
        W, columns, pivots = np.zeros((m, m)), [], []
        for b, stack in zip(prob.cones.barrier_batches, stacks):
            k = len(b.blocks)
            if b.spec.kind is ConeKind.SECOND_ORDER:
                # r on the diagonal; per block, u and v lifted
                W[b.sl, b.sl] = np.diag(stack.blocks.ravel())
                for rows, uv in zip(np.split(np.arange(b.sl.start, b.sl.stop), k), stack.lifts):
                    for h, sign in zip(uv, (1.0, -1.0)):
                        columns.append(np.zeros(m))
                        columns[-1][rows] = h
                        pivots.append(mu[rows[0]] * sign)
            elif b.spec.kind is ConeKind.NONNEGATIVE:
                W[b.sl, b.sl] = np.diag(stack.blocks.ravel())
            else:
                # one full block per cone block
                W[b.sl, b.sl] = sp.block_diag(list(stack.blocks[:, 0])).toarray()
        Hinv = sp.csc_matrix(W)
        L = sp.csc_matrix(np.column_stack(columns) if columns else np.zeros((m, 0)))
        pivots = np.array(pivots)
        K_exact = sp.bmat(
            [[prob.P, prob.A.T, None], [prob.A, -Hinv, L], [None, L.T, sp.diags(pivots)]],
            format="csc",
        )
        signs = np.r_[np.ones(n), -np.ones(m), np.sign(pivots)]
        K = K_exact + sp.diags(ipm.REGULARIZATION * signs, format="csc")
        K.eliminate_zeros()
        return K, K_exact, Hinv, L, pivots

    def test_in_place_kkt_equals_fresh_assembly_bitwise(self):
        rng = np.random.default_rng(7)
        prob = self.product_problem(rng)
        cones = prob.cones
        unit_soc = cones.batches[-1]
        kkt = None
        # zeros, three iterates without, zeros again
        for it in range(5):
            s = np.zeros(prob.m)
            for b in cones.barrier_batches:
                s[b.sl] = np.concatenate([random_interior(b.spec, rng) for _ in b.blocks])
            zeros = it in (0, 4)
            if zeros:
                # s and z on an SOC block's axis: exact zeros in its u and v
                s[unit_soc.sl] = cones.unit_points()[0][unit_soc.sl]
            mu = float(np.exp(rng.uniform(-5.0, 1.0)))
            z = self.dual_point(prob, rng)
            if zeros:
                z = self.soc_axis(prob, z)  # so is the NT point w
            stacks = self.scalings(prob, s, z, mu)
            if kkt is None:
                kkt = ipm._KKT(prob, stacks)
                q = kkt.q
            kkt.factor(stacks)
            assert kkt.q is q
            K, K_exact, Hinv, L, pivots = self.fresh(prob, stacks, row_mu(cones, s, z, mu))
            assert zeros == (not kkt.K.data.all())
            # the stored K is K[q][:, q], with the stored zeros a fresh assembly drops
            qi = np.argsort(q)
            stored = kkt.K[qi][:, qi].tocsc()
            stored.eliminate_zeros()
            stored.sort_indices()
            for attr in ("indptr", "indices", "data"):
                assert getattr(stored, attr).tobytes() == getattr(K, attr).tobytes()
            v = rng.standard_normal(prob.n + prob.m)
            lifted = np.r_[v, np.zeros(len(pivots))]  # the lifted rows' right side is 0
            r = rng.standard_normal(prob.m)
            # refinement's operator, K minus its regularization, is K_exact
            # up to the rounding of (a + delta) - delta on the diagonal
            np.testing.assert_allclose(
                unregularized(kkt) @ lifted, K_exact @ lifted,
                rtol=0.0, atol=4 * np.finfo(float).eps * (abs(K) @ abs(lifted)).max(),
            )
            fresh_hinv = Hinv @ r + L @ ((L.T @ r) / pivots)
            assert kkt.hinv(r).tobytes() == fresh_hinv.tobytes()
            # a fresh symmetric splu with static diagonal pivots of the fresh K[q][:, q]
            lu = splu(K[q][:, q].tocsc(), permc_spec="NATURAL", **ipm.STATIC_PIVOTS)
            assert (lu.perm_r == lu.perm_c).all()  # every pivot on the diagonal

            # refined in K's order against K[q][:, q] minus delta*signs[q],
            # until max|r| <= REFINEMENT_TOLERANCE*max|rhs|
            Kq, delta = K[q][:, q].tocsc(), ipm.REGULARIZATION * kkt.signs[q]
            b = lifted[q]
            x = lu.solve(b)
            for _ in range(ipm.REFINEMENT_STEPS):
                r = b - (Kq @ x - delta * x)
                if np.abs(r).max() <= ipm.REFINEMENT_TOLERANCE * np.abs(b).max():
                    break
                x += lu.solve(r)
            sol = np.empty_like(x)
            sol[q] = x
            ours = kkt.solve(v)
            assert ours.shape == v.shape  # the lifted entries are dropped
            if zeros:
                # a stored zero is a structural entry the fresh K lacks:
                # the factor's supernodes, and so its rounding, may differ
                np.testing.assert_allclose(ours, sol[: len(v)], rtol=1e-10, atol=1e-12)
                continue
            for ours_lu, theirs in ((kkt.lu.L, lu.L), (kkt.lu.U, lu.U)):
                for attr in ("indptr", "indices", "data"):
                    assert getattr(ours_lu, attr).tobytes() == getattr(theirs, attr).tobytes()
            assert kkt.lu.solve(lifted[q]).tobytes() == lu.solve(lifted[q]).tobytes()
            assert ours.tobytes() == sol[: len(v)].tobytes()

    def test_two_column_solve_equals_two_solves_bitwise(self):
        rng = np.random.default_rng(8)
        prob = self.product_problem(rng)
        s = np.zeros(prob.m)
        for b in prob.cones.barrier_batches:
            s[b.sl] = np.concatenate([random_interior(b.spec, rng) for _ in b.blocks])
        stacks = self.scalings(prob, s, self.dual_point(prob, rng), 0.01)
        kkt = ipm._KKT(prob, stacks)
        kkt.factor(stacks)
        rhs = rng.standard_normal((prob.n + prob.m, 2))
        both = kkt.solve(rhs)
        for j in range(2):
            assert both[:, j].tobytes() == kkt.solve(rhs[:, j].copy()).tobytes()

    @classmethod
    def interior_stacks(cls, prob, rng):
        """A random interior s, a z in int K* and the barrier batches' Scalings at them, mu = 0.1."""
        s = np.zeros(prob.m)
        for b in prob.cones.barrier_batches:
            s[b.sl] = np.concatenate([random_interior(b.spec, rng) for _ in b.blocks])
        z = cls.dual_point(prob, rng)
        return s, z, cls.scalings(prob, s, z, 0.1)

    def test_reused_pattern_gives_the_fresh_iterates_bitwise(self, monkeypatch):
        # prob solved with a pattern built for it, then after first, a
        # problem of the same pattern with other P and A values
        prob = gen_portfolio(synth_returns(6, 30, 0), 5e-4)
        first = gen_portfolio(synth_returns(6, 30, 1), 5e-4)
        for M, N in ((prob.P, first.P), (prob.A, first.A)):
            assert np.array_equal(M.indptr, N.indptr) and np.array_equal(M.indices, N.indices)
        assert not np.array_equal(prob.A.data, first.A.data)

        def cold_and_warm():
            cold = solve(prob, cold_start(prob))
            ws = warmstart(PreviousSolution(*cold.solution, problem=prob), prob.cones)
            return cold, solve(prob, warm_start(prob, ws))

        monkeypatch.setattr(ipm, "_last_pattern", None)
        fresh = cold_and_warm()
        built = ipm._last_pattern
        monkeypatch.setattr(ipm, "_last_pattern", None)
        solve(first, cold_start(first))
        reused = ipm._last_pattern
        again = cold_and_warm()
        assert ipm._last_pattern is reused and reused is not built
        for ours, theirs in zip(again, fresh):
            assert ours.status is theirs.status is SolveStatus.OPTIMAL
            assert ours.iterations == theirs.iterations
            for part in ("x", "s", "z"):
                assert getattr(ours, part).tobytes() == getattr(theirs, part).tobytes()
            assert [row.mu for row in ours.trace] == [row.mu for row in theirs.trace]

    def test_changed_pattern_or_cone_product_rebuilds(self, monkeypatch):
        rng = np.random.default_rng(13)
        prob = self.product_problem(rng)
        monkeypatch.setattr(ipm, "_last_pattern", None)
        assembled = []
        bmat = ipm.sp.bmat

        def counting_bmat(*args, **kwargs):
            assembled.append(1)
            return bmat(*args, **kwargs)

        monkeypatch.setattr(ipm.sp, "bmat", counting_bmat)

        def pattern(problem):
            _, _, stacks = self.interior_stacks(problem, rng)
            return ipm._KKT(problem, stacks).pattern

        built = pattern(prob)
        assert pattern(prob) is built and len(assembled) == 1
        # the same patterns with other values: no rebuild
        scaled = ConicProblem(P=2.0 * prob.P, q=prob.q, A=3.0 * prob.A, b=prob.b, cones=prob.cones)
        assert pattern(scaled) is built and len(assembled) == 1
        # one entry of A or of P's diagonal fewer; the two second-order
        # blocks' dimensions swapped, with P, A and each batch's scaling
        # form unchanged
        A = prob.A.tolil()
        A[prob.A.nonzero()[0][0], prob.A.nonzero()[1][0]] = 0.0
        P = prob.P.tolil()
        P[0, 0] = 0.0
        blocks = list(prob.cones.blocks)
        assert blocks[2] == ConeSpec.second_order(4) and blocks[-1] == ConeSpec.second_order(3)
        blocks[2], blocks[-1] = blocks[-1], blocks[2]
        changed = (
            ConicProblem(P=prob.P, q=prob.q, A=A, b=prob.b, cones=prob.cones),
            ConicProblem(P=P, q=prob.q, A=prob.A, b=prob.b, cones=prob.cones),
            ConicProblem(P=prob.P, q=prob.q, A=prob.A, b=prob.b, cones=ConeProduct(tuple(blocks))),
        )
        for other in changed:
            # each right after prob's own pattern, so it differs in one thing
            base, seen = pattern(prob), len(assembled)
            assert pattern(other) is not base and len(assembled) == seen + 1

    def test_one_solves_values_never_reach_another(self, monkeypatch):
        rng = np.random.default_rng(14)
        prob = self.product_problem(rng)
        other = ConicProblem(P=2.0 * prob.P, q=prob.q, A=3.0 * prob.A, b=prob.b, cones=prob.cones)
        monkeypatch.setattr(ipm, "_last_pattern", None)
        s, z, stacks = self.interior_stacks(prob, rng)
        kkt = ipm._KKT(prob, stacks)
        kkt.factor(stacks)
        before = kkt.K.data.copy()
        other_stacks = self.scalings(other, s, z, 0.2)
        kkt_other = ipm._KKT(other, other_stacks)
        assert kkt_other.pattern is kkt.pattern
        kkt_other.factor(other_stacks)
        assert kkt.K.data.tobytes() == before.tobytes()
        n, m, delta = prob.n, prob.m, ipm.REGULARIZATION
        for ours, problem in ((kkt, prob), (kkt_other, other)):
            qi = np.argsort(ours.q)
            K = ours.K[qi][:, qi].toarray()
            assert np.array_equal(K[:n, :n], problem.P.toarray() + delta * np.eye(n))
            assert np.array_equal(K[n : n + m, :n], problem.A.toarray())
            assert np.array_equal(K[:n, n : n + m], problem.A.T.toarray())
        # the shared structure holds no value of either problem, and no
        # solve can write it
        pattern = kkt.pattern
        assert set(np.unique(pattern.K.data)) <= {0.0, delta, -delta}
        arrays = [v for v in vars(pattern).values() if isinstance(v, np.ndarray)]
        for M in (pattern.K, pattern.Hinv, pattern.L):
            arrays += [M.data, M.indices, M.indptr]
        assert len(arrays) > 10 and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            pattern.K.indices[0] = 0

    @staticmethod
    def soc_gap_point(prob, rng, gap):
        """An interior s whose SOC blocks have s0 = 1 and t/s0^2 near gap (the unit point at 1)."""
        s = np.zeros(prob.m)
        for b in prob.cones.barrier_batches:
            for rows in np.split(np.arange(b.sl.start, b.sl.stop), len(b.blocks)):
                if b.spec.kind is ConeKind.SECOND_ORDER:
                    w = rng.standard_normal(b.spec.dim - 1)
                    s[rows] = np.r_[1.0, np.sqrt(1.0 - gap) * w / np.linalg.norm(w)]
                else:
                    s[rows] = random_interior(b.spec, rng)
        return s

    @staticmethod
    def schur(prob, kkt):
        """The (2,2) block of K with the lifted rows eliminated, and the lifted columns L."""
        n, m = prob.n, prob.m
        K22 = unregularized(kkt)[n:, n:].toarray()
        W, B, D = K22[:m, :m], K22[:m, m:], K22[m:, m:]
        return (W - B @ np.linalg.solve(D, B.T) if len(D) else W), B

    @staticmethod
    def soc_axis(prob, z):
        """z with each SOC block moved onto the axis, a multiple of its unit point."""
        z = z.copy()
        for b in prob.cones.barrier_batches:
            if b.spec.kind is ConeKind.SECOND_ORDER:
                Z = b.rows(z)
                Z[:, 1:] = 0.0
        return z

    @pytest.mark.parametrize("gap", [1.0, 0.5, 1e-4, 1e-8, 1e-12])
    def test_lifted_schur_complement_is_the_dense_inverse_hessian(self, gap):
        rng = np.random.default_rng(9)
        prob = self.product_problem(rng)
        m, cones = prob.m, prob.cones
        s = self.soc_gap_point(prob, rng, gap)
        z = self.dual_point(prob, rng)
        if gap == 1.0:
            z = self.soc_axis(prob, z)  # s and z on the axis: so is the NT point w
        mu = 0.3
        mu_rows = row_mu(cones, s, z, mu)
        stacks = self.scalings(prob, s, z, mu)
        kkt = ipm._KKT(prob, stacks)
        kkt.factor(stacks)
        schur, B = self.schur(prob, kkt)
        for b, stack in zip(cones.barrier_batches, stacks):
            for i, rows in enumerate(np.split(np.arange(b.sl.start, b.sl.stop), len(b.blocks))):
                block = schur[np.ix_(rows, rows)]
                # every block but PSD's is scaled by its own mu_i, here never mu
                mu_i = mu_rows[rows]
                assert (mu_i == mu).all() == (b.spec.kind is ConeKind.PSD_TRIANGLE)
                if b.spec.kind is ConeKind.SECOND_ORDER:
                    # the Nesterov-Todd W^2 = H(w)^-1 at the NT point w of (s, z)
                    dense = -nt_scaling(s[rows], z[rows])
                    assert np.abs(block - dense).max() <= 1e-12 * np.abs(dense).max()
                    if gap == 1.0:
                        assert not B[rows].any()  # u = v = 0 where w is on the axis
                else:
                    # the kernel's H^-1/mu_i, with no lifted column; a nonneg block's per coordinate
                    assert not stack[i].lifts.size
                    dense = -block_diag(*stack[i].blocks)
                    np.testing.assert_allclose(block, dense, rtol=1e-15, atol=0.0)
                # no coupling between blocks
                others = np.setdiff1d(np.arange(m), rows)
                assert not schur[np.ix_(rows, others)].any()
        # the step's products agree with the dense scaling
        r = rng.standard_normal(m)
        np.testing.assert_allclose(kkt.hinv(r), -schur @ r, rtol=1e-12, atol=1e-12 * np.abs(schur).max())

    def test_lifted_diagonal_signs_match_the_split(self):
        rng = np.random.default_rng(10)
        prob = self.product_problem(rng)
        n, m, cones = prob.n, prob.m, prob.cones
        lifted = 2 * sum(spec.kind is ConeKind.SECOND_ORDER for spec in cones.blocks)
        kkt = None
        for gap in (1.0, 0.5, 1e-6, 1e-12):
            s = self.soc_gap_point(prob, rng, gap)
            for mu in (1.0, 1e-8):
                stacks = self.scalings(prob, s, mu * self.dual_point(prob, rng), mu)
                kkt = kkt or ipm._KKT(prob, stacks)
                # + on x and the u columns, - on z and the v columns
                assert np.array_equal(
                    kkt.signs, np.r_[np.ones(n), -np.ones(m), np.tile([1.0, -1.0], lifted // 2)]
                )
                kkt.factor(stacks)
                diagonal = kkt.K.diagonal()[np.argsort(kkt.q)]
                assert np.array_equal(np.sign(diagonal), kkt.signs)
                # static pivots: each pivot of the LDL'-like factor keeps its row's sign
                assert (kkt.lu.perm_r == kkt.lu.perm_c).all()
                assert np.array_equal(np.sign(kkt.lu.U.diagonal()), kkt.signs[kkt.q])

    def test_nonneg_entries_are_the_nesterov_todd_scaling(self):
        # each nonneg coordinate is a block of degree 1: its entry of K is
        # -s_j^2/(s_j z_j) = -s_j/z_j, so W^2 z = s with W^2 = diag(s/z)
        rng = np.random.default_rng(11)
        prob = self.product_problem(rng)
        m = prob.m
        s = self.soc_gap_point(prob, rng, 0.5)
        z = self.dual_point(prob, rng)
        stacks = self.scalings(prob, s, z, 0.3)
        kkt = ipm._KKT(prob, stacks)
        kkt.factor(stacks)
        (batch,) = [b for b in prob.cones.batches if b.spec.kind is ConeKind.NONNEGATIVE]
        rows = np.arange(batch.sl.start, batch.sl.stop)
        W2 = -unregularized(kkt)[prob.n :, prob.n :].toarray()[:m, :m][np.ix_(rows, rows)]
        assert not (W2 - np.diag(np.diag(W2))).any()
        np.testing.assert_allclose(np.diag(W2) * z[rows], s[rows], rtol=4 * np.finfo(float).eps)

    def test_per_block_mu_equals_the_global_mu_on_the_central_path(self):
        # z_i = -mu grad f(s_i) gives <s_i, z_i>/nu_i = mu on every block, so
        # each block of K's unlifted (2,2) block is -H(s_i)^-1/mu.  Near an
        # SOC boundary <s_i, z_i> cancels to about eps/gap relative
        rng = np.random.default_rng(12)
        prob = self.product_problem(rng)
        mu = 0.07
        for gap in (1.0, 0.5):
            s = self.soc_gap_point(prob, rng, gap)
            z = np.zeros(prob.m)
            for b in prob.cones.barrier_batches:
                z[b.sl] = -mu * barrier_gradient(b.spec, b.rows(s)).ravel()
            mu_rows = row_mu(prob.cones, s, z, mu)
            np.testing.assert_allclose(mu_rows[~np.isnan(mu_rows)], mu, rtol=1e-12)
            stacks = self.scalings(prob, s, z, mu)
            kkt = ipm._KKT(prob, stacks)
            kkt.factor(stacks)
            schur, _ = self.schur(prob, kkt)
            for b in prob.cones.barrier_batches:
                for rows in np.split(np.arange(b.sl.start, b.sl.stop), len(b.blocks)):
                    dense = -np.linalg.inv(barrier_hessian(b.spec, s[rows])) / mu
                    error = np.abs(schur[np.ix_(rows, rows)] - dense).max()
                    assert error <= 1e-12 * np.abs(dense).max()


def psd_trace_one(order=6):
    # min <C, X> s.t. tr X = 1, X PSD: the smallest eigenvalue of C
    rng = np.random.default_rng(0)
    C = rng.standard_normal((order, order))
    dim = order * (order + 1) // 2
    A = sp.vstack([sp.csc_matrix(svec(np.eye(order))[None, :]), -sp.eye(dim)])
    return ConicProblem(
        P=sp.csc_matrix((dim, dim)),
        q=svec(C + C.T),
        A=A,
        b=np.r_[1.0, np.zeros(dim)],
        cones=ConeProduct((ConeSpec.zero(1), ConeSpec.psd_triangle(order))),
    )


def log_sum_exp(k=3, p=8):
    # min t s.t. sum u <= 1, u_i >= exp(a_i'w + c_i - t), |w| <= 1:
    # t = log sum exp(a_i'w + c_i), minimized over the box
    rng = np.random.default_rng(0)
    a, c = rng.standard_normal((p, k)), rng.standard_normal(p)
    n = k + 1 + p
    rows = [np.r_[np.zeros(k + 1), np.ones(p)][None, :]]
    rows += [np.c_[np.eye(k), np.zeros((k, 1 + p))], np.c_[-np.eye(k), np.zeros((k, 1 + p))]]
    b = [1.0] * (1 + 2 * k)
    for i in range(p):
        # the block (u_i, 1, a_i'w + c_i - t), x >= y exp(z / y)
        r = np.zeros((3, n))
        r[0, k + 1 + i] = -1.0
        r[2, :k] = -a[i]
        r[2, k] = 1.0
        rows.append(r)
        b += [0.0, 1.0, c[i]]
    return ConicProblem(
        P=sp.csc_matrix((n, n)),
        q=np.r_[np.zeros(k), 1.0, np.zeros(p)],
        A=sp.csc_matrix(np.vstack(rows)),
        b=np.array(b),
        cones=ConeProduct((ConeSpec.nonnegative(1 + 2 * k),) + (ConeSpec.exponential(),) * p),
    )


class TestKKTAccuracy:
    """Late in a solve, static diagonal pivots solve K within 10x of partial pivoting's residual."""

    LATE_MU = 1e-3

    # eps is the solve's tolerance.  The rebalance solve ends at the default
    # 1e-8 after its last factor at mu = 1.6e-7, so it runs to 1e-10 to reach
    # last_mu: its last factors are then at mu = 2.8e-9.  The hmcr solve, with
    # the power blocks' primal-dual scaling, ends at 1e-8 after 4 factors
    # below LATE_MU; at 1e-10 it takes 5, the last at mu = 7.6e-10
    @pytest.mark.parametrize(
        "build, last_mu, eps",
        [
            (lambda: gen_svm_l1(synth_samples(480, 10, seed=0), 0.05), 1e-9, 1e-8),
            (lambda: gen_portfolio(synth_returns(50, 194, 0).window(0, 191), 5e-4), 1e-7, 1e-10),
            (lambda: gen_hmcr(synth_returns(20, 43, 0).window(0, 40), 5e-4, 3.0, 0.9), 1e-7, 1e-10),
            (psd_trace_one, 1e-7, 1e-8),
            (log_sum_exp, 1e-7, 1e-8),
        ],
        ids=["svm-l1", "rebalance", "hmcr", "psd", "exp"],
    )
    def test_refined_residual_within_10x_of_partial_pivoting(
        self, monkeypatch, build, last_mu, eps
    ):
        prob = build()
        rng = np.random.default_rng(3)
        seen, passed = [], []  # the mu of each factor, and of each kernel call
        factor, hessian_inverse = ipm._KKT.factor, ipm.barrier_hessian_inverse

        def residual(sol, Kx, rhs):
            return np.abs(Kx @ sol - rhs).max() / np.abs(rhs).max()

        def recording(spec, S, Z, mu, GZ, cone):
            """The kernel, which ipm.solve passes the mu of the iterate each factor is at."""
            passed.append(mu)
            return hessian_inverse(spec, S, Z, mu, GZ, cone)

        def checked(kkt, stacks):
            factor(kkt, stacks)
            mu = passed[-1]
            seen.append(mu)
            qi = np.argsort(kkt.q)
            # quasi-definite: each pivot has its row's sign in the split
            d = kkt.K.diagonal()[qi]
            assert np.array_equal(np.sign(d), kkt.signs)
            if mu >= self.LATE_MU:
                return
            # the former scheme: a fresh K, COLAMD, partial pivoting and
            # one refinement step, on the same lifted K
            K = kkt.K[qi][:, qi].tocsc()
            K.eliminate_zeros()
            lu = splu(K)
            Kx = unregularized(kkt)
            lifted = np.zeros(len(kkt.signs) - prob.n - prob.m)
            for rhs in (np.r_[-prob.q, prob.b], rng.standard_normal(prob.n + prob.m)):
                rhs = np.r_[rhs, lifted]  # the lifted rows' right side is 0
                ours = residual(kkt._refined(rhs), Kx, rhs)
                sol = lu.solve(rhs)
                sol += lu.solve(rhs - Kx @ sol)
                partial = residual(sol, Kx, rhs)
                assert ours <= 10.0 * partial, (mu, ours, partial)

        monkeypatch.setattr(ipm._KKT, "factor", checked)
        monkeypatch.setattr(ipm, "barrier_hessian_inverse", recording)
        report = solve(prob, cold_start(prob), Settings(eps=eps))
        assert report.status is SolveStatus.OPTIMAL
        assert sum(mu < self.LATE_MU for mu in seen) >= 5
        assert min(seen) <= last_mu


class TestRefinementStop:
    """A column is refined while max|r| > REFINEMENT_TOLERANCE*max|rhs|, REFINEMENT_STEPS at most."""

    @staticmethod
    def recorded(monkeypatch, check):
        """Call check(kkt, rhs, solves) after each _refined; solves holds each LU solve's
        (argument, return)."""
        solves = []
        splu_, refined = ipm.splu, ipm._KKT._refined

        class Factor:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, r):
                out = self.lu.solve(r)
                solves.append((r.copy(), out.copy()))
                return out

        def recorded_refined(kkt, rhs):
            solves.clear()
            sol = refined(kkt, rhs)
            check(kkt, rhs, list(solves))
            return sol

        monkeypatch.setattr(ipm, "splu", lambda *args, **kwargs: Factor(splu_(*args, **kwargs)))
        monkeypatch.setattr(ipm._KKT, "_refined", recorded_refined)

    @staticmethod
    def columns(kkt, rhs, solves):
        """Per column of rhs, max|r|/max|rhs| before each of its steps and after its last.

        Rebuilt from the LU solves' returns: after the first solve, which
        takes every column, a solve whose argument is the column's residual
        r = rhs - (K x - delta*signs*x), in K's order, bit for bit, is a step
        of that column; every solve must be one.
        """
        b = rhs[kkt.q]
        delta = ipm.REGULARIZATION * kkt.signs[kkt.q]
        x = solves[0][1].copy()
        rest = solves[1:]
        out = []
        for bj, xj in zip(b.T, x.T) if x.ndim == 2 else [(b, x)]:
            ratios = []
            while True:
                r = bj - (kkt.K @ xj - delta * xj)
                ratios.append(np.abs(r).max() / np.abs(bj).max())
                if not rest or rest[0][0].tobytes() != r.tobytes():
                    break
                xj += rest.pop(0)[1]
            out.append(ratios)
        assert not rest
        return out

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gen_svm_l1(synth_samples(480, 10, seed=0), 0.05),
            lambda: gen_portfolio(synth_returns(50, 194, 0).window(0, 191), 5e-4),
            lambda: gen_hmcr(synth_returns(20, 43, 0).window(0, 40), 5e-4, 3.0, 0.9),
        ],
        ids=["svm-l1", "rebalance", "hmcr"],
    )
    def test_a_step_is_taken_exactly_while_above_rounding_level(self, monkeypatch, build):
        prob = build()
        taken = []

        def check(kkt, rhs, solves):
            for ratios in self.columns(kkt, rhs, solves):
                steps = len(ratios) - 1
                assert steps <= ipm.REFINEMENT_STEPS
                # every step taken started above the tolerance; a column
                # that stopped early ended at or below it
                assert all(ratio > ipm.REFINEMENT_TOLERANCE for ratio in ratios[:steps])
                if steps < ipm.REFINEMENT_STEPS:
                    assert ratios[steps] <= ipm.REFINEMENT_TOLERANCE
                taken.append(steps)

        self.recorded(monkeypatch, check)
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.OPTIMAL
        # columns that stop early, and columns still above the tolerance
        # after two steps, which take all three, both seen
        assert min(taken) < ipm.REFINEMENT_STEPS and ipm.REFINEMENT_STEPS in taken

    def test_a_system_at_rounding_level_takes_no_extra_lu_solve(self, monkeypatch):
        rng = np.random.default_rng(15)
        structure = TestKKTStructure()
        prob = structure.product_problem(rng)
        _, _, stacks = structure.interior_stacks(prob, rng)
        taken = []
        self.recorded(monkeypatch, lambda kkt, rhs, solves: taken.append(len(solves)))
        kkt = ipm._KKT(prob, stacks)
        kkt.factor(stacks)
        v = rng.standard_normal(prob.n + prob.m)
        # the zero column is exact after the first LU solve, which it
        # shares, and takes no other; the other column's steps and bits
        # are those of its own solve
        both = kkt.solve(np.column_stack([np.zeros_like(v), v]))
        alone = kkt.solve(v)
        assert not both[:, 0].any() and both[:, 1].tobytes() == alone.tobytes()
        assert taken[0] == taken[1] > 1
        # K about [[1e8 I, I], [I, -1e8 I]]: the first solve's bias from
        # the regularization, delta*x with x about 1e-8, is below rounding
        taken.clear()
        big = ConicProblem(
            P=1e8 * sp.eye(3), q=np.ones(3), A=sp.eye(3), b=np.ones(3),
            cones=ConeProduct((ConeSpec.nonnegative(3),)),
        )
        s, z = np.ones(3), np.full(3, 1e-8)  # W = s/z = 1e8
        big_stacks = TestKKTStructure.scalings(big, s, z, 1e-8)
        kkt = ipm._KKT(big, big_stacks)
        kkt.factor(big_stacks)
        rhs = np.ones(6)
        sol = kkt.solve(rhs)
        assert taken == [1]
        (ratios,) = self.columns(kkt, rhs, [(None, sol[kkt.q])])
        assert ratios[0] <= ipm.REFINEMENT_TOLERANCE


class TestSecondOrderRowsOfTheLiftedKKT:
    """Solves that ended NumericalError while an SOC block entered K as a dense d x d block."""

    def test_rebalance_warm_pair(self):
        # the rebalance-soc benchmark's seed 1, chain 3, member 1; r0 is
        # the target that seed draws for chain 3.  The dense block ended
        # the warm solve NumericalError at 23 iterations, with t/s0^2 at 2e-10
        r0 = 0.0004822079806359817
        returns = synth_returns(50, 194, 0)
        first, second = (gen_portfolio(returns.window(k, 191), r0) for k in (0, 1))
        cold = solve(first, cold_start(first))
        assert cold.status is SolveStatus.OPTIMAL
        ws = warmstart(PreviousSolution(*cold.solution, problem=second), second.cones)
        assert solve(second, warm_start(second, ws)).status is SolveStatus.OPTIMAL

    @pytest.mark.parametrize("lam", [0.02, 0.03, 0.04, 0.05])
    def test_svm_l2_repro_rows(self, lam):
        # ROADMAP's repro table: three of the four ended NumericalError;
        # with the global mu in K they took 34, 40, 36 and 43 iterations,
        # with H(s)^-1/mu_i 30, 35, 33 and 37, and with the Nesterov-Todd
        # scaling and Mehrotra's term 22, 22, 22 and 23
        prob = gen_svm_l2(synth_samples(480, 10, seed=0), lam)
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.OPTIMAL
        assert report.iterations <= {0.02: 22, 0.03: 22, 0.04: 22, 0.05: 23}[lam]


class TestWarmPairRepros:
    """Open repros' warm pairs at the default mu0 (.github/repro_rows.py --warm-pairs)."""

    @staticmethod
    def warm(previous, problem):
        """problem's warm solve from previous's cold optimum."""
        cold = solve(previous, cold_start(previous))
        ws = warmstart(PreviousSolution(*cold.solution, problem=problem), problem.cones)
        return solve(problem, warm_start(problem, ws))

    def test_svm_l2_pair(self):
        # while SOC blocks entered K as H(s)^-1/mu_i, with no term, this
        # ended NumericalError at 18 iterations, proximity rejecting every trial
        samples = synth_samples(480, 10, seed=2)
        lams = np.linspace(0.01, 0.2, 28)
        previous, problem = (gen_svm_l2(samples, lams[i]) for i in (6, 7))
        assert self.warm(previous, problem).status is SolveStatus.OPTIMAL

    def test_frontier_pair(self):
        # with the Nesterov-Todd scaling and its term alone, the corrected
        # direction of iteration 12 found no trial (proximity rejected every
        # one); taken again without the term, the step goes on
        returns = synth_returns(50, 191, 2).window(0, 191)
        targets = np.linspace(0.05, 0.95, 12) * np.max(returns.mean)
        previous, problem = (gen_portfolio(returns, targets[i]) for i in (5, 6))
        assert self.warm(previous, problem).status is SolveStatus.OPTIMAL


class TestPerBlockScaling:
    """Repro rows of K scaled by each block's own mu_i = <s_i, z_i>/nu_i."""

    @pytest.mark.parametrize("lam", [0.04, 0.12, 0.175])
    def test_svm_l1_repro_rows(self, lam):
        # with the global mu in K, proximity rejected every trial at 32, 24
        # and 26 iterations; Nesterov-Todd's s/z on nonneg rows solves them,
        # in 30, 23 and 26 without Mehrotra's corrector
        prob = gen_svm_l1(synth_samples(480, 10, seed=0), lam)
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.OPTIMAL
        assert optimal_objective(prob, report) == pytest.approx(highs_objective(prob), rel=1e-6)
        assert report.iterations < {0.04: 30, 0.12: 23, 0.175: 26}[lam]

    def test_order_30_sdp_repro_row(self):
        # PSD blocks keep the global mu (PsdTriangleCone.hessian_inverse, its only reader):
        # with their own mu_i this row ends NumericalError at 25 iterations, on proximity
        prob = psd_trace_one(30)
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.OPTIMAL
        # q = svec(C + C'): the optimum is the smallest eigenvalue of C + C'
        smallest = np.linalg.eigvalsh(smat(prob.q))[0]
        assert optimal_objective(prob, report) == pytest.approx(smallest, rel=1e-6)


class TestCorrector:
    """Mehrotra's term enters the combined step only where every barrier kind gives one."""

    @staticmethod
    def _forbid_the_nonneg_term(monkeypatch):
        def raising(self, spec, S, Z, DS, DZ):
            raise AssertionError("the nonneg term was computed")

        monkeypatch.setattr(NonnegativeCone, "corrector", raising)

    @pytest.mark.parametrize(
        "build",
        [lambda: gen_hmcr(synth_returns(4, 8, 0), 5e-4, 3.0, 0.9)],
        ids=["nonneg+pow"],
    )
    def test_mixed_products_apply_no_term(self, monkeypatch, build):
        prob = build()
        self._forbid_the_nonneg_term(monkeypatch)
        assert solve(prob, cold_start(prob)).status is SolveStatus.OPTIMAL

    def test_nonneg_products_apply_the_term(self, monkeypatch):
        prob, _ = lp_box()
        self._forbid_the_nonneg_term(monkeypatch)
        with pytest.raises(AssertionError, match="nonneg term"):
            solve(prob, cold_start(prob))

    def test_nonneg_and_soc_products_apply_the_term(self, monkeypatch):
        # both kinds' blocks of K are Nesterov-Todd scalings
        prob = gen_portfolio(synth_returns(6, 30, 0), 5e-4)
        assert prob.cones.corrected
        self._forbid_the_nonneg_term(monkeypatch)
        with pytest.raises(AssertionError, match="nonneg term"):
            solve(prob, cold_start(prob))

    def test_one_nt_point_per_iteration(self, monkeypatch):
        # the SOC term reads the NT point of the iterate's Scaling, so the
        # scaling kernel is the one caller of _nt_point
        calls = Counter()
        for name in ("_nt_point", "hessian_inverse"):
            def counted(self, *args, fn=getattr(SecondOrderCone, name), name=name):
                calls[name] += 1
                return fn(self, *args)

            monkeypatch.setattr(SecondOrderCone, name, counted)
        prob = gen_portfolio(synth_returns(6, 30, 0), 5e-4)
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.OPTIMAL
        # one evaluation per point: the start and each accepted trial
        assert calls["_nt_point"] == calls["hessian_inverse"] == report.iterations + 1


class TestOneEvaluationPerPoint:
    """Each point's Scalings and rho come from one conjugate_gradient and one
    barrier_hessian_inverse call per batch (ipm.evaluate); the accepted trial's
    Scalings are the next iteration's."""

    def test_pow_rows_pay_one_conjugate_root_per_point(self, monkeypatch):
        calls = Counter()
        for name in ("conjugate_gradient", "hessian_inverse"):
            def counted(self, *args, fn=getattr(cones_module.PowerCone, name), name=name):
                calls[name] += 1
                return fn(self, *args)

            monkeypatch.setattr(cones_module.PowerCone, name, counted)

        def refused(*args):
            raise AssertionError("grad f(s) evaluated apart from the scaling")

        monkeypatch.setattr(ipm, "barrier_gradient", refused)
        prob = gen_hmcr(synth_returns(4, 8, 0), 5e-4, 3.0, 0.9)
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.OPTIMAL
        # the start and each accepted trial: no trial here was rejected after its evaluation
        assert calls["conjugate_gradient"] == calls["hessian_inverse"] == report.iterations + 1


def _count_interior_tests(monkeypatch):
    """A list that gains one entry per ConeProduct.is_interior call from now on."""
    calls = []
    test = ConeProduct.is_interior

    def counted(self, *args):
        calls.append(1)
        return test(self, *args)

    monkeypatch.setattr(ConeProduct, "is_interior", counted)
    return calls


class TestStrictlyInteriorSteps:
    """Solves that ended NumericalError while the combined step kept s and z above 1e-12."""

    @pytest.mark.parametrize("N", [40, 160])
    def test_mpc_repro_rows(self, N):
        # ROADMAP's repro table: NumericalError at 15 / 16 iterations, no grid
        # step inside; Optimal in 9 / 9 without Mehrotra's corrector
        prob = gen_mpc((4, 2), N, seed=0, x0=np.full(4, 0.5))
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.OPTIMAL
        assert report.iterations <= 8

    def test_unbounded_qp_repro_row(self):
        # min 0.5 x2^2 - x1 s.t. x >= 0: NumericalError at 23 iterations, no
        # grid step inside; DualInfeasible in 29 without Mehrotra's corrector
        prob = ConicProblem(
            P=sp.diags([0.0, 1.0], format="csc"),
            q=np.array([-1.0, 0.0]),
            A=-sp.eye(2, format="csc"),
            b=np.zeros(2),
            cones=ConeProduct((ConeSpec.nonnegative(2),)),
        )
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.DUAL_INFEASIBLE
        assert report.iterations < 29

    def test_svm_l1_reference_warm_pair(self, monkeypatch):
        # the svm-l1-lp benchmark's lambda 0.01 -> 0.02 pair: the warm solve
        # ended NumericalError at 27 iterations, no grid step inside, after
        # walking the combined grid at 15.1 primal interior tests per iteration
        samples = synth_samples(480, 10, seed=0)
        first, second = gen_svm_l1(samples, 0.01), gen_svm_l1(samples, 0.02)
        cold = solve(first, cold_start(first))
        assert cold.status is SolveStatus.OPTIMAL
        ws = warmstart(PreviousSolution(*cold.solution, problem=second), second.cones)
        calls = _count_interior_tests(monkeypatch)
        report = solve(second, warm_start(second, ws))
        assert report.status is SolveStatus.OPTIMAL
        assert optimal_objective(second, report) == pytest.approx(
            highs_objective(second), rel=1e-6
        )
        assert len(calls) / report.iterations <= 3.0


class TestWarmVsCold:
    def qp_with_bound(self, bound):
        return ConicProblem(
            P=sp.csc_matrix(np.eye(2)),
            q=np.array([-2.0, -2.0]),
            A=sp.csc_matrix(-np.eye(2)),
            b=np.array([-bound, -bound]),
            cones=ConeProduct((ConeSpec.nonnegative(2),)),
        )

    def test_warm_start_reduces_iterations(self):
        # solve at bound 1, then warm the slightly perturbed problem
        base = self.qp_with_bound(1.0)
        cold_rep = solve(base, cold_start(base))
        assert cold_rep.status is SolveStatus.OPTIMAL
        x, s, z = cold_rep.solution

        shifted = self.qp_with_bound(1.0 + 1e-5)
        cold2 = solve(shifted, cold_start(shifted))
        prev = PreviousSolution(x, s, z, problem=shifted)
        ws = warmstart(prev, shifted.cones)
        warm2 = solve(shifted, warm_start(shifted, ws))
        assert warm2.status is SolveStatus.OPTIMAL
        assert warm2.iterations <= cold2.iterations
        x_w, _, _ = warm2.solution
        x_c, _, _ = cold2.solution
        assert np.allclose(x_w, x_c, atol=1e-6)

    def test_warm_iterations_shrink_with_perturbation(self):
        base = self.qp_with_bound(1.0)
        rep = solve(base, cold_start(base))
        x, s, z = rep.solution
        iters = []
        for delta in (1e-2, 1e-4, 1e-6):
            shifted = self.qp_with_bound(1.0 + delta)
            ws = warmstart(PreviousSolution(x, s, z, problem=shifted), shifted.cones)
            warm = solve(shifted, warm_start(shifted, ws))
            assert warm.status is SolveStatus.OPTIMAL
            iters.append(warm.iterations)
        assert iters[2] <= iters[1] <= iters[0]


def _scan(first, trial):
    """The first of first, 0.8*first, ... down to ALPHA_FLOOR that trial accepts, scanned
    as before the boundary step; None if it accepts none."""
    alpha = first
    while alpha >= ipm.ALPHA_FLOOR:
        if trial(alpha) is not None:
            return alpha
        alpha *= 0.8
    return None


def _random_step(rng):
    """A random mixed product with an interior (s, z, tau, kappa) and a direction."""
    kinds = rng.choice(["zero", "nonneg", "soc", "psd", "exp", "pow"], size=rng.integers(1, 6))
    blocks, s, z = [], [], []
    for kind in kinds:
        if kind == "zero":
            spec = ConeSpec.zero(2)
            s.append(np.zeros(2))
            z.append(rng.standard_normal(2))
        else:
            spec = make_spec(kind, rng, dim=3, order=int(rng.integers(1, 4)))
            s.append(random_interior(spec, rng))
            z.append(-barrier_gradient(spec, random_interior(spec, rng)))
        blocks.append(spec)
    cones = ConeProduct(tuple(blocks))
    s, z = np.concatenate(s), np.concatenate(z)
    scale = 10.0 ** rng.uniform(-1, 7)  # boundary steps from about 1 to below ALPHA_FLOOR
    ds, dz = scale * rng.standard_normal((2, cones.dim))
    for spec, sl in zip(cones.blocks, cones.slices()):
        if spec.degree == 0 and rng.uniform() < 0.8:
            ds[sl] = 0.0  # a Zero block's direction is 0 in a solve, which keeps s there
    tau, kappa = 10.0 ** rng.uniform(-1, 1, 2)
    dtau, dkappa = scale * rng.standard_normal(2)
    return cones, s, ds, z, dz, tau, dtau, kappa, dkappa


class TestStepSearch:
    """The grid search that starts below the boundary step accepts what the full scan accepted."""

    def test_grids_are_the_scans_steps(self):
        for grid, first in ((ipm.AFFINE_GRID, 1.0), (ipm.COMBINED_GRID, ipm.MAX_ALPHA)):
            alpha, steps = first, []
            while alpha >= ipm.ALPHA_FLOOR:
                steps.append(alpha)
                alpha *= 0.8
            assert grid == tuple(steps)

    def test_ratio(self):
        assert ipm._ratio(2.0, -4.0) == 0.5
        assert ipm._ratio(2.0, 0.0) == math.inf  # dtau >= 0 binds nothing
        assert ipm._ratio(2.0, 3.0) == math.inf

    def test_search_equals_the_linear_scan(self):
        rng = np.random.default_rng(21)
        accepted = []
        for _ in range(150):
            cones, s, ds, z, dz, tau, dtau, kappa, dkappa = _random_step(rng)
            bound = min(
                cones.step_bound(s, ds, z, dz), ipm._ratio(tau, dtau), ipm._ratio(kappa, dkappa)
            )

            def trial(a):
                ok = (
                    tau + a * dtau > 0.0
                    and kappa + a * dkappa > 0.0
                    and cones.is_interior(s + a * ds)
                    and cones.is_interior_dual(z + a * dz)
                )
                return a if ok else None

            for grid in (ipm.AFFINE_GRID, ipm.COMBINED_GRID):
                old = _scan(grid[0], trial)
                assert ipm._search(grid, trial, bound) == old
            accepted.append(old)
        # the cases cover the first trial, later ones and no step at all
        assert any(a == ipm.MAX_ALPHA for a in accepted)
        assert sum(a is not None and a < 0.1 for a in accepted) >= 20
        assert sum(a is None for a in accepted) >= 10

    def test_interior_tests_per_iteration(self, monkeypatch):
        # guards the gain: the full scan took 6.2 primal interior tests per
        # iteration on this instance, the search from the boundary step 2.1
        prob = gen_portfolio(synth_returns(6, 30, 0).window(0, 30), 5e-4)
        calls = _count_interior_tests(monkeypatch)
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.OPTIMAL
        assert len(calls) / report.iterations <= 2.5


    def test_each_solver_point_is_tested_once(self, monkeypatch):
        # ConeProduct's trial test is the only membership test an accepted s
        # row or a trial z row meets: the kernels run on the rows it accepted
        tested = _record_interior_tests(monkeypatch)
        accepted_s, trial_z = [], []
        kernels = (("barrier_hessian_inverse", accepted_s), ("conjugate_gradient", trial_z))
        for name, store in kernels:
            kernel = getattr(ipm, name)

            def recorded(spec, S, *args, kernel=kernel, store=store):
                store.extend((spec.kind, row.tobytes()) for row in S)
                return kernel(spec, S, *args)

            monkeypatch.setattr(ipm, name, recorded)
        # each warm solve starts from the optimum at the previous required return
        cases = []
        for previous, problem in (
            [gen_hmcr(synth_returns(4, 8, 0), r0, 3.0, 0.9) for r0 in (5e-4, 4.5e-4)],
            [gen_portfolio(synth_returns(6, 30, 0), r0) for r0 in (5e-4, 4.5e-4)],
        ):
            report = solve(previous, cold_start(previous))
            ws = warmstart(PreviousSolution(*report.solution, problem=previous), problem.cones)
            cases += [(problem, cold_start(problem)), (problem, warm_start(problem, ws))]
        qp = qp_shifted()[0]
        cases.append((qp, cold_start(qp)))  # ends Optimal with tau below 0.1
        for problem, start in cases:
            tested.clear()
            del accepted_s[:], trial_z[:]
            report = solve(problem, start)
            assert report.status is SolveStatus.OPTIMAL
            # the start was tested on entry, and a cold start repeats its rows
            # across blocks; every later s and z was a trial's
            first_s, first_z = (
                {(b.spec.kind, row.tobytes()) for b in problem.cones.barrier_batches
                 for row in b.rows(v)}
                for v in (start.s, start.z)
            )
            s_rows = [key for key in accepted_s if key not in first_s]
            z_rows = [key for key in trial_z if key not in first_z]
            assert len(s_rows) >= report.iterations - 1 and z_rows
            assert {tested[key] for key in s_rows} == {1}, "accepted s rows tested again"
            assert {tested[key] for key in z_rows} == {1}, "trial z rows tested again"
        assert report.tau < 0.1  # qp_shifted's, the last case

    def test_each_warmstart_row_is_tested_once(self, monkeypatch):
        # a smoothed s0 row meets only the smoothing's own result test, and
        # its z0 row only the dual test
        tested = _record_interior_tests(monkeypatch)
        for previous, problem in (
            [gen_hmcr(synth_returns(4, 8, 0), r0, 3.0, 0.9) for r0 in (5e-4, 4.5e-4)],
            [gen_portfolio(synth_returns(6, 30, 0), r0) for r0 in (5e-4, 4.5e-4)],
        ):
            report = solve(previous, cold_start(previous))
            tested.clear()
            warmstart(PreviousSolution(*report.solution, problem=previous), problem.cones)
            assert len(tested) >= 4 and set(tested.values()) == {1}


def _record_interior_tests(monkeypatch):
    """A Counter of (kind, row bytes) over every row each kind's interior test receives.

    Only the outermost test of a call counts: a dual test that runs the
    primal one on mapped rows, or on the same rows, counts once.
    """
    tested = Counter()
    depth = [0]
    for cone in cones_module.CONES.values():
        for name in ("interior", "interior_dual"):
            test = getattr(type(cone), name)

            def recording(self, spec, S, test=test):
                if not depth[0]:
                    tested.update((spec.kind, row.tobytes()) for row in S)
                depth[0] += 1
                try:
                    return test(self, spec, S)
                finally:
                    depth[0] -= 1

            monkeypatch.setattr(type(cone), name, recording)
    return tested


class TestNumericalErrorReason:
    def test_no_reason_unless_numerical_error(self):
        prob, _ = lp_box()
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.OPTIMAL
        assert report.reason is None

    def test_proximity_rejected_every_trial(self, monkeypatch):
        # rho = 0 on every block: each trial passes the interior test and
        # fails the neighborhood
        def stalled(cones, s, z, mu):
            stacks, rho = evaluate(cones, s, z, mu)
            return stacks, np.zeros_like(rho)

        evaluate = ipm.evaluate
        monkeypatch.setattr(ipm, "evaluate", stalled)
        prob, _ = lp_box()
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.NUMERICAL_ERROR
        assert report.reason == ipm.PROXIMITY_REJECTED

    def test_no_grid_step_inside_the_cones(self, monkeypatch):
        # a boundary step of 0 leaves every grid value out of both searches
        monkeypatch.setattr(ConeProduct, "step_bound", lambda *args: 0.0)
        prob, _ = lp_box()
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.NUMERICAL_ERROR
        assert report.reason == ipm.NO_STEP_INSIDE

    def test_factorization_failed(self, monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(ipm, "splu", singular)
        prob, _ = lp_box()
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.NUMERICAL_ERROR
        assert report.reason == ipm.FACTORIZATION_FAILED

    def test_barrier_kernel_raised(self, monkeypatch):
        def exterior(*args):
            raise ipm.BoundaryOrExterior("point is not strictly interior to soc(3)")

        monkeypatch.setattr(ipm, "barrier_hessian_inverse", exterior)
        prob, _ = socp_norm()
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.NUMERICAL_ERROR
        assert report.reason == f"{ipm.KERNEL_RAISED}: point is not strictly interior to soc(3)"
