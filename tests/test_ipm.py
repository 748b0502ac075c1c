"""Homogeneous-embedding solver: fixtures, statuses, invariants."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from conepath import ipm
from conepath.cones import ConeKind, ConeProduct, ConeSpec, barrier_hessian_inverse, svec
from conepath.errors import RejectedWarmStart, Unsupported
from conepath.ipm import (
    ConicProblem,
    Iterate,
    Settings,
    SolveStatus,
    check_termination,
    cold_start,
    homogeneous_map,
    residual_map,
    solve,
    warm_start,
)
from conepath.problems import gen_hmcr, gen_portfolio, gen_svm_l1, synth_returns, synth_samples
from conepath.warmstart import PreviousSolution, WarmStartResult, warmstart

from support import make_spec, random_interior


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
        status, _ = check_termination(prob, v)
        assert status is SolveStatus.OPTIMAL

    def test_cold_start_is_undecided(self):
        prob, _ = lp_box()
        status, _ = check_termination(prob, cold_start(prob))
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

    def test_solve_time_recorded(self):
        prob, _ = lp_box()
        report = solve(prob, cold_start(prob))
        assert report.solve_time > 0.0


class TestKKTStructure:
    def test_one_assembly_per_solve_and_ordering_computed_once(self, monkeypatch):
        prob = gen_portfolio(synth_returns(6, 30, 0), 5e-4)
        kinds = {spec.kind for spec in prob.cones.blocks}
        assert {ConeKind.ZERO, ConeKind.NONNEGATIVE, ConeKind.SECOND_ORDER} <= kinds
        # a nonneg scaling block is diagonal; the other barrier kinds are dense
        scaling_nnz = sum(
            spec.dim if spec.kind is ConeKind.NONNEGATIVE else spec.dim**2
            for spec in prob.cones.blocks
            if spec.kind is not ConeKind.ZERO
        )
        # the regularization diagonal is stored too: where P has no
        # diagonal entry, and on the Zero blocks, which have no scaling
        unscaled = sum(spec.dim for spec in prob.cones.blocks if spec.kind is ConeKind.ZERO)
        missing = prob.n - np.count_nonzero(prob.P.diagonal())
        expected = prob.P.nnz + 2 * prob.A.nnz + scaling_nnz + missing + unscaled
        assembled, orderings, factors = [], [], []
        bmat = ipm.sp.bmat
        rcm = ipm.reverse_cuthill_mckee

        def counting_bmat(*args, **kwargs):
            K = bmat(*args, **kwargs)
            assembled.append(K.nnz)
            return K

        def counting_rcm(K, **kwargs):
            orderings.append(K.shape)
            return rcm(K, **kwargs)

        def counting_splu(K, **kwargs):
            factors.append((kwargs, K.data.all()))
            return splu(K, **kwargs)

        monkeypatch.setattr(ipm.sp, "bmat", counting_bmat)
        monkeypatch.setattr(ipm, "reverse_cuthill_mckee", counting_rcm)
        monkeypatch.setattr(ipm, "splu", counting_splu)

        def check(report, iterations):
            assert report.status is SolveStatus.OPTIMAL
            assert assembled == [expected]
            # one order per solve; one factorization per step, each in
            # that order with static diagonal pivots
            assert orderings == [(prob.n + prob.m,) * 2]
            assert len(factors) == report.iterations == iterations
            static = dict(permc_spec="NATURAL", **ipm.STATIC_PIVOTS)
            assert all(kwargs == static for kwargs, _ in factors)
            for seen in (assembled, orderings, factors):
                seen.clear()

        cold = solve(prob, cold_start(prob))
        # the unit point's exact zeros in the SOC block's H^-1 are stored
        # entries of the first K; they take no second ordering
        assert not factors[0][1]
        check(cold, 19)
        ws = warmstart(PreviousSolution(*cold.solution, problem=prob), prob.cones)
        check(solve(prob, warm_start(prob, ws)), 12)

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

    def fresh(self, prob, stacks, mu):
        """K, the exact K and H^-1/mu as a per-iteration assembly builds them."""
        H = np.zeros((prob.m, prob.m))
        for b, stack in zip(prob.cones.barrier_batches, stacks):
            # a nonneg stack holds the diagonals; the other kinds, full blocks
            full = np.diag(stack.ravel()) if stack.ndim == 2 else sp.block_diag(stack).toarray()
            H[b.sl, b.sl] = full
        Hinv = sp.csc_matrix(H)
        Hinv.data /= mu
        K_exact = sp.bmat([[prob.P, prob.A.T], [prob.A, -Hinv]], format="csc")
        reg = np.r_[np.full(prob.n, ipm.REGULARIZATION), np.full(prob.m, -ipm.REGULARIZATION)]
        K = K_exact + sp.diags(reg, format="csc")
        K.eliminate_zeros()
        return K, K_exact, Hinv

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
                # the unit point of an SOC block: exact zeros in its H^-1
                s[unit_soc.sl] = cones.unit_points()[0][unit_soc.sl]
            mu = float(np.exp(rng.uniform(-5.0, 1.0)))
            stacks = [barrier_hessian_inverse(b.spec, b.rows(s)) for b in cones.barrier_batches]
            if kkt is None:
                kkt = ipm._KKT(prob, stacks)
                q = kkt.q
            kkt.factor(stacks, mu)
            assert kkt.q is q
            K, K_exact, Hinv = self.fresh(prob, stacks, mu)
            assert zeros == (not kkt.K.data.all())
            # the stored K is K[q][:, q], with the stored zeros a fresh assembly drops
            qi = np.argsort(q)
            stored = kkt.K[qi][:, qi].tocsc()
            stored.eliminate_zeros()
            stored.sort_indices()
            for attr in ("indptr", "indices", "data"):
                assert getattr(stored, attr).tobytes() == getattr(K, attr).tobytes()
            v = rng.standard_normal(prob.n + prob.m)
            r = rng.standard_normal(prob.m)
            assert (kkt.Kx @ v).tobytes() == (K_exact @ v).tobytes()
            assert (kkt.Hinv @ r).tobytes() == (Hinv @ r).tobytes()
            # a fresh symmetric splu with static diagonal pivots of the fresh K[q][:, q]
            lu = splu(K[q][:, q].tocsc(), permc_spec="NATURAL", **ipm.STATIC_PIVOTS)
            assert (lu.perm_r == lu.perm_c).all()  # every pivot on the diagonal

            def fresh_solve(rhs):
                sol = np.empty_like(rhs)
                sol[q] = lu.solve(rhs[q])
                return sol

            sol = fresh_solve(v)
            for _ in range(ipm.REFINEMENT_STEPS):
                sol += fresh_solve(v - K_exact @ sol)
            top, bottom = kkt.solve(v[: prob.n], v[prob.n :])
            if zeros:
                # a stored zero is a structural entry the fresh K lacks:
                # the factor's supernodes, and so its rounding, may differ
                np.testing.assert_allclose(np.r_[top, bottom], sol, rtol=1e-10, atol=1e-12)
                continue
            for ours, theirs in ((kkt.lu.L, lu.L), (kkt.lu.U, lu.U)):
                for attr in ("indptr", "indices", "data"):
                    assert getattr(ours, attr).tobytes() == getattr(theirs, attr).tobytes()
            assert kkt._solve(v).tobytes() == fresh_solve(v).tobytes()
            assert np.r_[top, bottom].tobytes() == sol.tobytes()


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

    @pytest.mark.parametrize(
        "build, last_mu",
        [
            (lambda: gen_svm_l1(synth_samples(480, 10, seed=0), 0.05), 1e-9),
            (lambda: gen_portfolio(synth_returns(50, 194, 0).window(0, 191), 5e-4), 1e-7),
            (lambda: gen_hmcr(synth_returns(20, 43, 0).window(0, 40), 5e-4, 3.0, 0.9), 1e-7),
            (psd_trace_one, 1e-7),
            (log_sum_exp, 1e-7),
        ],
        ids=["svm-l1", "rebalance", "hmcr", "psd", "exp"],
    )
    def test_refined_residual_within_10x_of_partial_pivoting(self, monkeypatch, build, last_mu):
        prob = build()
        rng = np.random.default_rng(3)
        seen = []
        factor = ipm._KKT.factor

        def residual(sol, Kx, rhs):
            return np.abs(Kx @ sol - rhs).max() / np.abs(rhs).max()

        def checked(kkt, stacks, mu):
            factor(kkt, stacks, mu)
            qi = np.argsort(kkt.q)
            # quasi-definite: n positive pivots, then m negative ones
            d = kkt.K.diagonal()[qi]
            assert (d[: prob.n] > 0).all() and (d[prob.n :] < 0).all()
            seen.append(mu)
            if mu >= self.LATE_MU:
                return
            # the former scheme: a fresh K, COLAMD, partial pivoting and
            # one refinement step
            K = kkt.K[qi][:, qi].tocsc()
            K.eliminate_zeros()
            lu = splu(K)
            for rhs in (np.r_[-prob.q, prob.b], rng.standard_normal(prob.n + prob.m)):
                ours = np.concatenate(kkt.solve(rhs[: prob.n], rhs[prob.n :]))
                ours = residual(ours, kkt.Kx, rhs)
                sol = lu.solve(rhs)
                sol += lu.solve(rhs - kkt.Kx @ sol)
                partial = residual(sol, kkt.Kx, rhs)
                assert ours <= 10.0 * partial, (mu, ours, partial)

        monkeypatch.setattr(ipm._KKT, "factor", checked)
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.OPTIMAL
        assert sum(mu < self.LATE_MU for mu in seen) >= 5
        assert min(seen) <= last_mu


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


def _scan_affine(cones, s, ds, z, dz, tau, dtau, kappa, dkappa):
    """The affine step as the solver chose it before the boundary step: 80 trials from 1."""
    alpha_aff = 1.0
    for _ in range(80):
        if (
            tau + alpha_aff * dtau > 0.0
            and kappa + alpha_aff * dkappa > 0.0
            and cones.is_interior(s + alpha_aff * ds, 0.0)
            and cones.is_interior_dual(z + alpha_aff * dz, 0.0)
        ):
            break
        alpha_aff *= 0.8
    else:
        alpha_aff = 0.0
    return alpha_aff


def _scan_combined(cones, s, ds, z, dz, tau, dtau, kappa, dkappa):
    """The combined step's interior guard as scanned before the boundary step; None if no trial."""
    alpha = ipm.MAX_ALPHA
    while alpha >= ipm.ALPHA_FLOOR:
        if (
            tau + alpha * dtau > 0.0
            and kappa + alpha * dkappa > 0.0
            and cones.is_interior(s + alpha * ds, ipm.MARGIN)
            and cones.is_interior_dual(z + alpha * dz, ipm.MARGIN)
        ):
            return alpha
        alpha *= 0.8
    return None


def _sigma(alpha_aff):
    return min(max((1.0 - alpha_aff) ** 3, 1e-3), 0.9)


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
            z.append(-ipm.barrier_gradient(spec, random_interior(spec, rng)))
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
            step = _random_step(rng)
            cones, s, ds, z, dz, tau, dtau, kappa, dkappa = step
            bound = min(
                cones.step_bound(s, ds, z, dz), ipm._ratio(tau, dtau), ipm._ratio(kappa, dkappa)
            )

            def trial(margin):
                def accept(a):
                    ok = (
                        tau + a * dtau > 0.0
                        and kappa + a * dkappa > 0.0
                        and cones.is_interior(s + a * ds, margin)
                        and cones.is_interior_dual(z + a * dz, margin)
                    )
                    return a if ok else None

                return accept

            old = _scan_affine(*step)
            new = ipm._search(ipm.AFFINE_GRID, trial(0.0), bound) or 0.0
            # an affine step below ALPHA_FLOOR counts as 0: sigma is capped either way
            assert new == (old if old >= ipm.ALPHA_FLOOR else 0.0)
            assert _sigma(new) == _sigma(old)

            old = _scan_combined(*step)
            new = ipm._search(ipm.COMBINED_GRID, trial(ipm.MARGIN), bound)
            assert new == old
            accepted.append(old)
        # the cases cover the first trial, later ones and no step at all
        assert any(a == ipm.MAX_ALPHA for a in accepted)
        assert sum(a is not None and a < 0.1 for a in accepted) >= 20
        assert sum(a is None for a in accepted) >= 10

    def test_interior_tests_per_iteration(self, monkeypatch):
        # guards the gain: the full scan took 6.2 primal interior tests per
        # iteration on this instance, the search from the boundary step 2.1
        prob = gen_portfolio(synth_returns(6, 30, 0).window(0, 30), 5e-4)
        calls = []
        test = ConeProduct.is_interior

        def counted(self, *args):
            calls.append(1)
            return test(self, *args)

        monkeypatch.setattr(ConeProduct, "is_interior", counted)
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.OPTIMAL
        assert len(calls) / report.iterations <= 2.5


class TestNumericalErrorReason:
    def test_no_reason_unless_numerical_error(self):
        prob, _ = lp_box()
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.OPTIMAL
        assert report.reason is None

    def test_svm_l1_repro_is_a_proximity_stall(self):
        # an LP whose iterate sits on the proximity boundary: every trial
        # passes the interior test and fails the neighborhood
        prob = gen_svm_l1(synth_samples(480, 10, seed=0), 0.04)
        report = solve(prob, cold_start(prob))
        assert report.status is SolveStatus.NUMERICAL_ERROR
        assert report.reason == ipm.PROXIMITY_REJECTED

    def test_no_grid_step_inside_the_cones(self, monkeypatch):
        monkeypatch.setattr(ipm, "MARGIN", 1e300)
        prob, _ = socp_norm()
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
