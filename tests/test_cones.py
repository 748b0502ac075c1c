"""Barrier calculus: packing, interiority, identities, conjugates."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import block_diag

from conepath import _newton, cones, ipm
from conepath._newton import newton_rows
from conepath.cones import (
    ConeKind,
    ConeProduct,
    ConeSpec,
    barrier_gradient,
    barrier_hessian,
    barrier_hessian_inverse,
    barrier_value,
    conjugate_gradient,
    conjugate_value,
    dual_coords,
    is_interior,
    is_interior_dual,
    order_of_packed,
    packed_dim,
    smat,
    svec,
    unit_point,
)
from conepath.errors import BoundaryOrExterior, NoConvergence, Unsupported
from conepath.smoothing import smooth, smooth_newton

from support import (
    ALL_KINDS,
    finite_difference_gradient,
    finite_difference_hessian,
    make_spec,
    random_interior,
    row_mu,
)


class TestConeSpec:
    def test_constructors_and_degree(self):
        assert ConeSpec.zero(3).degree == 0
        assert ConeSpec.nonnegative(5).degree == 5
        assert ConeSpec.second_order(4).degree == 1
        assert ConeSpec.psd_triangle(3).degree == 3
        assert ConeSpec.psd_triangle(3).dim == 6
        assert ConeSpec.exponential().degree == 3
        assert ConeSpec.power(0.3).degree == 3

    def test_validation(self):
        with pytest.raises(Unsupported):
            ConeSpec.nonnegative(0)
        with pytest.raises(Unsupported):
            ConeSpec.second_order(1)
        with pytest.raises(Unsupported):
            ConeSpec.power(0.0)
        with pytest.raises(Unsupported):
            ConeSpec.power(1.0)


class TestPacking:
    def test_packed_dim_round_trip(self):
        for order in range(1, 8):
            assert order_of_packed(packed_dim(order)) == order

    def test_svec_smat_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(1, 6)
            M = rng.standard_normal((n, n))
            M = 0.5 * (M + M.T)
            assert np.allclose(smat(svec(M)), M, atol=1e-14)

    def test_svec_preserves_inner_products(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, n))
            A = 0.5 * (A + A.T)
            B = 0.5 * (B + B.T)
            assert math.isclose(
                float(svec(A) @ svec(B)), float(np.sum(A * B)), rel_tol=1e-12
            )

    def test_svec_identity(self):
        v = svec(np.eye(3))
        M = smat(v)
        assert np.allclose(M, np.eye(3))
        # packed off-diagonals carry the sqrt(2) factor
        w = svec(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert math.isclose(np.linalg.norm(w), math.sqrt(2.0), rel_tol=1e-15)


class TestInteriority:
    def test_zero_cone_exact(self):
        spec = ConeSpec.zero(3)
        assert is_interior(spec, np.zeros(3))
        assert not is_interior(spec, np.array([0.0, 1e-300, 0.0]))
        # the dual of {0} is everything
        assert is_interior_dual(spec, np.array([5.0, -3.0, 0.0]))

    def test_random_interior_points(self):
        rng = np.random.default_rng(2)
        for kind in ALL_KINDS:
            for _ in range(100):
                spec = make_spec(kind, rng)
                s = random_interior(spec, rng)
                assert is_interior(spec, s), kind
                assert not is_interior(spec, -s) or kind == "pow", kind

    def test_boundary_rejected(self):
        assert not is_interior(ConeSpec.nonnegative(2), np.array([1.0, 0.0]))
        assert not is_interior(ConeSpec.second_order(3), np.array([1.0, 1.0, 0.0]))
        assert not is_interior(ConeSpec.psd_triangle(2), svec(np.diag([1.0, 0.0])))

    def test_dual_interior_matches_barrier_domain(self):
        # points whose dual-map image is interior accept the dual barrier
        rng = np.random.default_rng(3)
        for kind in ("exp", "pow"):
            for _ in range(200):
                spec = make_spec(kind, rng)
                s = random_interior(spec, rng)
                z = -barrier_gradient(spec, s)  # gradients land in int K*
                assert is_interior_dual(spec, z), kind
                y = dual_coords(spec, z)
                assert is_interior(spec if kind == "pow" else ConeSpec.exponential(), y)

    def test_symmetric_duals_self(self):
        rng = np.random.default_rng(4)
        for kind in ("nonneg", "soc", "psd"):
            spec = make_spec(kind, rng)
            s = random_interior(spec, rng)
            assert is_interior_dual(spec, s)


def _scalings(product, s, z, mu=0.3):
    """The barrier batches' Scalings at (s, z), which ipm passes to ConeProduct.corrector."""
    return [
        barrier_hessian_inverse(b.spec, b.rows(s), b.rows(z), mu) for b in product.barrier_batches
    ]


def _dense_scaling(form):
    """One row's Scaling as a dense matrix: blockdiag(blocks) + sum_c U_c U_c'/pivot_c."""
    return block_diag(*form.blocks) + (form.lifts.T / form.pivots) @ form.lifts


class TestBarrierIdentities:
    def test_gradient_degree_identity(self):
        # <grad f(s), s> = -nu
        rng = np.random.default_rng(5)
        for kind in ALL_KINDS:
            for _ in range(200):
                spec = make_spec(kind, rng)
                s = random_interior(spec, rng)
                g = barrier_gradient(spec, s)
                assert math.isclose(float(g @ s), -spec.degree, rel_tol=1e-10), kind

    def test_log_homogeneity(self):
        # f(t s) = f(s) - nu log t
        rng = np.random.default_rng(6)
        for kind in ALL_KINDS:
            for _ in range(100):
                spec = make_spec(kind, rng)
                s = random_interior(spec, rng)
                t = float(np.exp(rng.uniform(-1.0, 1.0)))
                lhs = barrier_value(spec, t * s)
                rhs = barrier_value(spec, s) - spec.degree * math.log(t)
                assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-10), kind

    def test_gradient_hessian_homogeneity(self):
        rng = np.random.default_rng(7)
        for kind in ALL_KINDS:
            for _ in range(50):
                spec = make_spec(kind, rng)
                s = random_interior(spec, rng)
                t = float(np.exp(rng.uniform(-1.0, 1.0)))
                assert np.allclose(
                    barrier_gradient(spec, t * s),
                    barrier_gradient(spec, s) / t,
                    rtol=1e-10,
                    atol=1e-12,
                )
                assert np.allclose(
                    barrier_hessian(spec, t * s),
                    barrier_hessian(spec, s) / t**2,
                    rtol=1e-9,
                    atol=1e-12,
                )

    def test_hessian_times_point_is_minus_gradient(self):
        rng = np.random.default_rng(8)
        for kind in ALL_KINDS:
            for _ in range(100):
                spec = make_spec(kind, rng)
                s = random_interior(spec, rng)
                H = barrier_hessian(spec, s)
                g = barrier_gradient(spec, s)
                assert np.allclose(H @ s, -g, rtol=1e-9, atol=1e-11), kind

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for kind in ALL_KINDS:
            for _ in range(20):
                spec = make_spec(kind, rng)
                s = random_interior(spec, rng)
                g = barrier_gradient(spec, s)
                g_fd = finite_difference_gradient(lambda v: barrier_value(spec, v), s)
                assert np.allclose(g, g_fd, rtol=1e-6, atol=1e-5), kind

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for kind in ALL_KINDS:
            for _ in range(10):
                spec = make_spec(kind, rng)
                s = random_interior(spec, rng)
                H = barrier_hessian(spec, s)
                H_fd = finite_difference_hessian(
                    lambda v: barrier_gradient(spec, v), s
                )
                assert np.allclose(H, H_fd, rtol=1e-5, atol=1e-4), kind

    def test_hessian_inverse(self):
        rng = np.random.default_rng(11)
        dual_rng = np.random.default_rng(12)  # z and mu, apart from the points s
        # second_order(3) too: its t, u and v fill 3 x 3 numbers, as exp's and pow's dense H^-1 does
        for kind in (*ALL_KINDS, "soc3"):
            for _ in range(50):
                spec = ConeSpec.second_order(3) if kind == "soc3" else make_spec(kind, rng)
                s = random_interior(spec, rng)
                z = -np.exp(dual_rng.uniform(-3.0, 3.0)) * barrier_gradient(
                    spec, random_interior(spec, dual_rng)
                )
                mu = float(np.exp(dual_rng.uniform(-3.0, 3.0)))
                H = barrier_hessian(spec, s)
                W2 = _dense_scaling(barrier_hessian_inverse(spec, s, z, mu))
                if spec.kind in (ConeKind.SECOND_ORDER, ConeKind.POWER):
                    # the Nesterov-Todd and the power cone's primal-dual scaling
                    # (TestNesterovToddScaling, TestPrimalDualScaling), each
                    # H(s)^-1/mu on the central path z = -mu grad f(s)
                    np.testing.assert_allclose(W2 @ z, s, rtol=1e-12)
                    z = -mu * barrier_gradient(spec, s)
                    W2 = _dense_scaling(barrier_hessian_inverse(spec, s, z, mu))
                # H^-1/mu_i, mu_i each row's path parameter: mu on PSD, <s, z>/nu elsewhere
                mu_i = row_mu(ConeProduct((spec,)), s, z, mu)
                assert np.allclose(H @ W2 * mu_i[:, None], np.eye(spec.dim), rtol=1e-8, atol=1e-8)
                if kind == "nonneg":
                    # the Nesterov-Todd scaling: W^2 z = s
                    np.testing.assert_allclose(W2 @ z, s, rtol=4 * EPS)

    def test_boundary_point_raises(self):
        for kind in ALL_KINDS:
            spec = make_spec(kind, None)
            with pytest.raises(BoundaryOrExterior):
                barrier_value(spec, np.zeros(spec.dim))


class TestUnitPoints:
    def test_unit_points_are_central(self):
        # e_z = -grad f(e_s), so <e_s, e_z> = nu and both are interior
        for kind in ALL_KINDS:
            spec = make_spec(kind, None)
            e_s, e_z = unit_point(spec)
            assert is_interior(spec, e_s)
            assert is_interior_dual(spec, e_z)
            assert np.allclose(e_z, -barrier_gradient(spec, e_s), rtol=1e-12)
            assert math.isclose(float(e_s @ e_z), spec.degree, rel_tol=1e-12)

    def test_symmetric_units(self):
        assert np.allclose(unit_point(ConeSpec.nonnegative(3))[0], np.ones(3))
        assert np.allclose(
            unit_point(ConeSpec.second_order(4))[0], np.array([1.0, 0, 0, 0])
        )
        assert np.allclose(unit_point(ConeSpec.psd_triangle(2))[0], svec(np.eye(2)))


class TestConjugates:
    def test_conjugate_gradient_inverts_gradient(self):
        # grad f(-grad f*(y)) = -y for y in int K*
        rng = np.random.default_rng(12)
        for kind in ALL_KINDS:
            for _ in range(100):
                spec = make_spec(kind, rng)
                s = random_interior(spec, rng)
                y = -barrier_gradient(spec, s)
                gy = conjugate_gradient(spec, y)
                assert np.allclose(-gy, s, rtol=1e-7, atol=1e-9), kind

    def test_conjugate_value_fenchel(self):
        # f*(-grad f(s)) = -nu - f(s)
        rng = np.random.default_rng(13)
        for kind in ALL_KINDS:
            for _ in range(50):
                spec = make_spec(kind, rng)
                s = random_interior(spec, rng)
                y = -barrier_gradient(spec, s)
                lhs = conjugate_value(spec, y)
                rhs = -spec.degree - barrier_value(spec, s)
                assert math.isclose(lhs, rhs, rel_tol=1e-8, abs_tol=1e-8), kind

    def test_conjugate_scaling_identity(self):
        # grad f*(t y) = grad f*(y) / t
        rng = np.random.default_rng(14)
        for kind in ALL_KINDS:
            for _ in range(50):
                spec = make_spec(kind, rng)
                s = random_interior(spec, rng)
                y = -barrier_gradient(spec, s)
                t = float(np.exp(rng.uniform(-1.0, 1.0)))
                assert np.allclose(
                    conjugate_gradient(spec, t * y),
                    conjugate_gradient(spec, y) / t,
                    rtol=1e-7,
                    atol=1e-9,
                )

    def test_exterior_rejected(self):
        with pytest.raises(BoundaryOrExterior):
            conjugate_gradient(ConeSpec.nonnegative(2), np.array([1.0, -1.0]))


class TestInteriorTests:
    # the smoothing Newton, with the targets s - y and mu = 1 whose
    # solution is s (s - c + mu grad f(s) = y + grad f(s) = 0)

    def test_one_interior_test_per_newton_point(self, monkeypatch):
        # the Newton loop tests each trial point once; value, gradient and
        # Hessian must not test the points it has already accepted again
        tested = []
        inner = cones.is_interior

        def recording(spec, s):
            tested.append(np.asarray(s, dtype=float).tobytes())
            return inner(spec, s)

        monkeypatch.setattr(cones, "is_interior", recording)
        rng = np.random.default_rng(21)
        for spec in (ConeSpec.exponential(), ConeSpec.power(0.3)):
            for _ in range(10):
                s = random_interior(spec, rng)
                y = -barrier_gradient(spec, s)
                tested.clear()
                smooth_newton(spec, s - y, 1.0)
                assert tested
                assert len(tested) - len(set(tested)) == 0, "points tested twice"

    def test_one_interior_test_per_row_point_in_a_stack(self, monkeypatch):
        # a 40-row power stack runs one masked Newton; every row point it
        # tests (hint or trial) is tested once
        tested = []
        inner = cones.is_interior

        def recording(spec, s):
            tested.extend(row.tobytes() for row in np.atleast_2d(np.asarray(s, dtype=float)))
            return inner(spec, s)

        monkeypatch.setattr(cones, "is_interior", recording)
        rng = np.random.default_rng(22)
        spec = ConeSpec.power(0.9)
        S = np.array([random_interior(spec, rng) for _ in range(40)])
        Y = -barrier_gradient(spec, S)
        for hint in (None, S * np.exp(rng.uniform(-0.3, 0.3, (40, 1)))):
            tested.clear()
            smooth_newton(spec, S - Y, 1.0, hint=hint)
            assert len(tested) > 40
            assert len(tested) - len(set(tested)) == 0, "row points tested twice"


def _stack_cases(kind, rng, k):
    spec = make_spec(kind, np.random.default_rng(5), dim=4, order=3)
    S = np.array([random_interior(spec, rng) for _ in range(k)])
    Y = np.array([-barrier_gradient(spec, random_interior(spec, rng)) for _ in range(k)])
    return spec, S, Y


class TestStackedKernels:
    """A (k, dim) stack gives, row for row, what the 1-D kernels give."""

    KERNELS = (barrier_value, barrier_gradient, barrier_hessian, barrier_hessian_inverse)
    MU = 0.3  # the global mu, which only PSD's hessian_inverse reads

    @classmethod
    def call(cls, kernel, spec, S, Y):
        """kernel at S; barrier_hessian_inverse also takes the dual rows Y and MU."""
        return kernel(spec, S, Y, cls.MU) if kernel is barrier_hessian_inverse else kernel(spec, S)

    @staticmethod
    def assert_rows_equal(stacked, rows, kind):
        stacked = np.asarray(stacked)
        assert stacked.shape == (len(rows), *np.shape(rows[0]))
        for got, want in zip(stacked, rows):
            if kind in ("exp", "pow"):
                # numpy's vector log and power may differ from libm's in the last ulp
                assert np.allclose(got, want, rtol=1e-12, atol=0.0)
            else:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_kernels_match_rows(self, kind, k):
        spec, S, Y = _stack_cases(kind, np.random.default_rng(30 + k), k)
        for kernel in self.KERNELS:
            stacked = self.call(kernel, spec, S, Y)
            rows = [self.call(kernel, spec, s, y) for s, y in zip(S, Y)]
            if kernel is barrier_hessian_inverse:
                # a Scaling, field by field: its arrays row by row, the rest whole
                for field in ("blocks", "lifts", "pivots", "gradient"):
                    got = [getattr(form, field) for form in rows]
                    self.assert_rows_equal(getattr(stacked, field), got, kind)
                assert all(f.signs == stacked.signs for f in rows)
            else:
                self.assert_rows_equal(stacked, rows, kind)
        self.assert_rows_equal(
            conjugate_gradient(spec, Y), [conjugate_gradient(spec, y) for y in Y], kind
        )
        assert np.array_equal(is_interior(spec, S), [is_interior(spec, s) for s in S])
        assert np.array_equal(is_interior_dual(spec, Y), [is_interior_dual(spec, y) for y in Y])

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_smoothing_matches_rows(self, kind):
        rng = np.random.default_rng(33)
        spec, S, Y = _stack_cases(kind, rng, 5)
        C = S - Y
        mu = np.exp(rng.uniform(-6.0, 0.0, 5))
        stacked = smooth(spec, C, mu, hint=S)
        rows = [smooth(spec, c, m, hint=s) for c, m, s in zip(C, mu, S)]
        self.assert_rows_equal(stacked.s, [r.s for r in rows], kind)
        assert list(stacked.newton_iters) == [r.newton_iters for r in rows]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_one_exterior_row_raises(self, kind):
        spec, S, Y = _stack_cases(kind, np.random.default_rng(34), 5)
        assert is_interior(spec, S).all()
        interior_S = S.copy()
        S[2] = -S[2]
        assert list(is_interior(spec, S)) == [True, True, False, True, True]
        for kernel in self.KERNELS:
            with pytest.raises(BoundaryOrExterior):
                self.call(kernel, spec, S, Y)
        Y[3] = -Y[3]
        with pytest.raises(BoundaryOrExterior):
            conjugate_gradient(spec, Y)
        # the scaling tests its dual rows against K* too
        with pytest.raises(BoundaryOrExterior):
            barrier_hessian_inverse(spec, interior_S, Y, self.MU)
        # so does a row that is not finite: the solver's kernels skip the
        # test on rows it has accepted, these entry points keep it
        spec, S, Y = _stack_cases(kind, np.random.default_rng(35), 5)
        interior_S, interior_Y = S.copy(), Y.copy()
        for bad in (np.nan, np.inf):
            S[1, -1] = Y[1, -1] = bad
            assert list(is_interior(spec, S)) == [True, False, True, True, True]
            assert not is_interior_dual(spec, Y)[1]
            for kernel in self.KERNELS:
                with pytest.raises(BoundaryOrExterior):
                    self.call(kernel, spec, S, Y)
            with pytest.raises(BoundaryOrExterior):
                barrier_hessian_inverse(spec, interior_S, Y, self.MU)
            with pytest.raises(BoundaryOrExterior):
                conjugate_gradient(spec, Y)
        # and dual rows whose shape is not that of s
        S, Y = interior_S, interior_Y
        for s, y in ((S, Y[:4]), (S[0], Y), (S, Y[:, :-1])):
            with pytest.raises(BoundaryOrExterior):
                barrier_hessian_inverse(spec, s, y, self.MU)


def newton_one_point(value, grad, hess, inside, s0):
    """newton_rows on the k = 1 stack of s0, with per-point oracles."""
    S, iters, traces, errors = newton_rows(
        lambda T, r: np.array([value(t) for t in T]),
        lambda T, r: (np.array([grad(t) for t in T]), np.array([hess(t) for t in T])),
        lambda T: np.array([inside(t) for t in T], dtype=bool),
        np.asarray(s0, dtype=float)[None],
        decrement_tol=1e-12, grad_tol=None, max_iters=100, collect_trace=True,
    )
    assert errors == [None]
    return S[0], int(iters[0]), traces[0]


class TestDampedNewton:
    def test_minimizes_smoothing_objective(self):
        # quadratic-plus-barrier model with a known stationarity condition
        spec = ConeSpec.exponential()
        rng = np.random.default_rng(15)
        for _ in range(20):
            c = rng.standard_normal(3) * 2.0
            mu = 0.1
            s0, _ = unit_point(spec)
            s, iters, trace = newton_one_point(
                value=lambda v: 0.5 * float((v - c) @ (v - c))
                + mu * barrier_value(spec, v),
                grad=lambda v: (v - c) + mu * barrier_gradient(spec, v),
                hess=lambda v: np.eye(3) + mu * barrier_hessian(spec, v),
                inside=lambda v: is_interior(spec, v),
                s0=s0,
            )
            resid = np.linalg.norm(s - c + mu * barrier_gradient(spec, s))
            assert resid <= 1e-7 * max(1.0, np.linalg.norm(c))
            assert iters <= 60
            assert len(trace) >= 1

    def test_monotone_objective_on_trace(self):
        spec = ConeSpec.power(0.4)
        rng = np.random.default_rng(16)
        c = rng.standard_normal(3)
        mu = 1.0
        s0, _ = unit_point(spec)
        _, _, trace = newton_one_point(
            value=lambda v: 0.5 * float((v - c) @ (v - c))
            + mu * barrier_value(spec, v),
            grad=lambda v: (v - c) + mu * barrier_gradient(spec, v),
            hess=lambda v: np.eye(3) + mu * barrier_hessian(spec, v),
            inside=lambda v: is_interior(spec, v),
            s0=s0,
        )
        values = [row[1] for row in trace]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_one_derivative_evaluation_per_newton_step(self, monkeypatch):
        # a smoothing Newton step takes gradient and Hessian from one
        # evaluation of u and its first two derivatives; the one gradient
        # alone is the optimality residual of the result (the hint skips
        # the continuation's unit point, whose e_z is a gradient too)
        spec, S, Y = _stack_cases("pow", np.random.default_rng(17), 10)
        orders = []
        u = cones.PowerCone.u

        def recorded(self, spec, S, order=0):
            orders.append(order)
            return u(self, spec, S, order)

        monkeypatch.setattr(cones.PowerCone, "u", recorded)
        result = smooth_newton(spec, S - Y, 0.1, hint=S)
        assert result.newton_iters.min() > 1
        assert 2 in orders
        assert 1 not in orders[:-1]
        assert orders[-1] == 1
        # without a hint the continuation starts at e_s, which needs no gradient
        orders.clear()
        smooth_newton(spec, S - Y, 0.1)
        assert 1 not in orders[: orders.index(2)]
        assert 1 not in orders[:-1]

    def test_gradient_evaluates_no_second_derivatives(self, monkeypatch):
        # the barrier gradient needs u and du only
        spec, S, _ = _stack_cases("pow", np.random.default_rng(18), 40)
        orders = []
        u = cones.PowerCone.u

        def recorded(self, spec, S, order=0):
            orders.append(order)
            return u(self, spec, S, order)

        monkeypatch.setattr(cones.PowerCone, "u", recorded)
        barrier_gradient(spec, S)
        assert orders == [1]


NONSYMMETRIC = (ConeSpec.power(0.1), ConeSpec.power(0.5), ConeSpec.power(0.9), ConeSpec.exponential())


def _dual_rows(spec, X):
    """The points y of int K* with M y = x, one per row of X in int K."""
    return np.linalg.solve(cones.CONES[spec.kind].dual_map(spec), X.T).T


def _dual_stack(spec, seed):
    """Seeded rows of int K*: 40 at scales 1e-6 to 1e6, 8 within 1e-10
    of a flat face of K*'s boundary, and on power cones 8 with y3 = 0."""
    rng = np.random.default_rng(seed)
    X = np.array([random_interior(spec, rng) for _ in range(56)])
    if spec.kind.value == "pow":
        X[40:48, 0] = 1e-10 / spec.alpha  # y1 = 1e-10
        lim = X[40:48, 0] ** spec.alpha * X[40:48, 1] ** (1 - spec.alpha)
        X[40:48, 2] = rng.uniform(-0.85, 0.85, 8) * lim
        X[48:, 2] = 0.0
    else:
        X[40:48, 1] = 1e-10  # y3 = -1e-10
        X[40:48, 2] = 1e-10 * np.log(X[40:48, 0] / 1e-10) - np.exp(rng.uniform(-1, 1, 8))
        X = X[:48]
    X[:40] *= 10.0 ** rng.uniform(-6.0, 6.0, (40, 1))
    return _dual_rows(spec, X)


def _identity_error(spec, Y):
    """||grad f(-grad f*(y)) + y|| / ||y|| per row."""
    G = barrier_gradient(spec, -conjugate_gradient(spec, Y))
    return np.linalg.norm(G + Y, axis=1) / np.linalg.norm(Y, axis=1)


def _newton_reference(spec, Y):
    """argmin <y, s> + f(s) per row by the damped Newton of the smoothing routes."""
    value, derivatives, inside = cones.CONES[spec.kind].oracles(spec)
    e_s, _ = unit_point(spec)
    S0 = e_s * (spec.degree / (Y @ e_s))[:, None]

    def shifted(T, r):
        G, H = derivatives(T)
        return Y[r] + G, H

    S, _, _, errors = newton_rows(
        lambda T, r: np.vecdot(Y[r], T) + value(T), shifted, inside, S0,
        decrement_tol=1e-12, grad_tol=1e-10 * np.maximum(1.0, np.linalg.norm(Y, axis=1)),
        max_iters=100, collect_trace=False,
    )
    assert errors == [None] * len(Y)
    return S


class TestConjugateRoots:
    """The exp and pow conjugate gradients, one scalar root per row."""

    @pytest.mark.parametrize("spec", NONSYMMETRIC, ids=str)
    def test_gradient_identity(self, spec):
        assert _identity_error(spec, _dual_stack(spec, 41)).max() <= 1e-12

    @pytest.mark.parametrize("spec", NONSYMMETRIC, ids=str)
    def test_near_the_curved_boundary(self, spec):
        # at relative dual slack 1e-10, u(s) is ~1e-10 of the terms it is
        # the difference of, so one ulp of any float64 s moves grad f(s)
        # by ~1e-16 times that ratio: the identity holds to that scale
        rng = np.random.default_rng(42)
        X = np.array([random_interior(spec, rng) for _ in range(20)])
        x1, x2 = X[:, 0], X[:, 1]
        if spec.kind.value == "pow":
            X[:, 2] = np.sign(X[:, 2]) * (1 - 1e-10) * x1**spec.alpha * x2 ** (1 - spec.alpha)
        else:
            X[:, 2] = x2 * np.log(x1 / x2) - 1e-10 * x2
        Y = _dual_rows(spec, X)
        S = -conjugate_gradient(spec, Y)
        x1, x2, x3 = S.T
        if spec.kind.value == "pow":
            terms = (x1**spec.alpha * x2 ** (1 - spec.alpha)) ** 2 + x3**2
        else:
            terms = np.abs(x2 * np.log(x1 / x2)) + np.abs(x3)
        ratio = terms / cones.CONES[spec.kind].u(spec, S)
        assert ratio.min() > 1e8
        assert (_identity_error(spec, Y) <= 1e-14 * ratio).all()

    @pytest.mark.parametrize("spec", NONSYMMETRIC, ids=str)
    def test_agrees_with_newton_reference(self, spec):
        Y = _dual_stack(spec, 43)
        S = -conjugate_gradient(spec, Y)
        R = _newton_reference(spec, Y)
        assert (np.abs(S - R).max(axis=1) <= 1e-10 * np.abs(R).max(axis=1)).all()

    @pytest.mark.parametrize("spec", NONSYMMETRIC, ids=str)
    def test_dual_slack_computed_once(self, spec, monkeypatch):
        # the class's test of K* and its equation share one slack of M y.  ipm
        # calls the class on tested rows; the checked entry point tests first
        calls = []
        slack = type(cones.CONES[spec.kind]).slack

        def counted(self, spec, S):
            calls.append(len(S))
            return slack(self, spec, S)

        monkeypatch.setattr(type(cones.CONES[spec.kind]), "slack", counted)
        cones.CONES[spec.kind].conjugate_gradient(spec, _dual_stack(spec, 46))
        assert len(calls) == 1

    def test_does_not_run_the_damped_newton(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("newton_rows called")

        monkeypatch.setattr(_newton, "newton_rows", refuse)
        # a module that imported it by name holds its own reference
        monkeypatch.setattr(cones, "newton_rows", refuse, raising=False)
        for spec in NONSYMMETRIC:
            assert np.isfinite(conjugate_gradient(spec, _dual_stack(spec, 44))).all()

    @pytest.mark.parametrize("spec", NONSYMMETRIC, ids=str)
    def test_rows_float64_cannot_carry_raise(self, spec):
        # at |y| ~ 1e300 a power cone's u(s) underflows, at 1e-300 it
        # overflows; an exp row's s leaves the range past 1e308 and 1e-308
        Y = _dual_stack(spec, 45)[:5]
        Y /= np.linalg.norm(Y, axis=1)[:, None]
        big = 1e300 if spec.kind.value == "pow" else 1e308
        for scale in (big, 1.0 / big):
            Z = Y.copy()
            Z[2] *= scale
            assert is_interior_dual(spec, Z).all()
            with pytest.raises(NoConvergence):
                conjugate_gradient(spec, Z)
            with pytest.raises(NoConvergence):
                conjugate_gradient(spec, Z[2])


EPS = np.finfo(float).eps
INVERSE_SPECS = (
    ConeSpec.power(0.1), ConeSpec.power(1 / 3), ConeSpec.power(0.5), ConeSpec.power(0.9),
    ConeSpec.exponential(),
)


def _hessian_rows(spec, seed):
    """Seeded rows of int K at scales 10^k, k in [-6, 6]: 20 random, 20 at relative
    slack 1e-10 of the curved boundary and 20 with x1 or x2 at 1e-10 (a flat face)."""
    rng = np.random.default_rng(seed)
    X = np.array([random_interior(spec, rng) for _ in range(60)])
    x1, x2 = X[:, 0], X[:, 1]
    if spec.kind.value == "pow":
        x1[40:50] = x2[50:] = 1e-10
        rho = np.r_[
            rng.uniform(-0.9, 0.9, 20), rng.choice([-1.0, 1.0], 20) * (1 - 1e-10),
            rng.uniform(-0.9, 0.9, 20),
        ]
        X[:, 2] = rho * x1**spec.alpha * x2 ** (1 - spec.alpha)
    else:
        x2[40:] = 1e-10
        X[40:, 2] = -np.abs(X[40:, 2])
        X[20:40, 2] = x2[20:40] * np.log(x1[20:40] / x2[20:40]) - 1e-10 * x2[20:40]
    X *= 10.0 ** rng.integers(-6, 7, (60, 1))
    assert is_interior(spec, X).all()
    return X


def _floored_inverse(H):
    """The eigenvalue-floored inverse: eigenvalues below 1e-14 of the largest are raised to it."""
    w, U = np.linalg.eigh(H)
    w = np.maximum(w, w[:, -1:] * 1e-14)
    return (U / w[:, None, :]) @ U.transpose(0, 2, 1)


def _unit_dual(spec, k):
    """k rows of the unit dual point, a z in int K* for every row of a stack."""
    return np.tile(unit_point(spec)[1], (k, 1))


def _scaled_inverse(spec, S):
    """The kernel's H^-1/mu_i per row of S, and each row's mu_i: at z = the unit dual point,
    or for a power cone, whose kernel is H^-1/mu_i on the central path only, z = -grad f(s)."""
    Z = -barrier_gradient(spec, S) if spec.kind is ConeKind.POWER else _unit_dual(spec, len(S))
    mu_i = row_mu(ConeProduct((spec,) * len(S)), S.ravel(), Z.ravel(), 1.0)[:: spec.dim]
    return barrier_hessian_inverse(spec, S, Z, 1.0).blocks[:, 0], mu_i


class TestClosedFormHessianInverse:
    """NonsymmetricCone.hessian_inverse: LDL' in closed form, the floored eigh route as fallback."""

    @pytest.mark.parametrize("spec", INVERSE_SPECS, ids=str)
    def test_residual_within_the_condition_bound(self, spec):
        S = _hessian_rows(spec, 50)
        H = barrier_hessian(spec, S)
        X, mu_i = _scaled_inverse(spec, S)
        residual = np.abs(H @ X * mu_i[:, None, None] - np.eye(3)).max(axis=(1, 2))
        assert (residual <= 1e2 * EPS * np.linalg.cond(H)).all()

    @pytest.mark.parametrize("spec", INVERSE_SPECS, ids=str)
    def test_rows_off_the_curved_boundary_run_no_eigendecomposition(self, spec, monkeypatch):
        # the random rows and the flat-face rows, cond(H) up to ~1e21 among them
        S = _hessian_rows(spec, 51)[np.r_[0:20, 40:60]]

        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        X, _ = _scaled_inverse(spec, S)
        assert np.isfinite(X).all()
        assert np.array_equal(X, X.transpose(0, 2, 1))

    @pytest.mark.parametrize("spec", INVERSE_SPECS, ids=str)
    def test_rows_failing_the_pivot_test_take_the_floored_route(self, spec, monkeypatch):
        # at relative slack 1e-10 cond(H) exceeds 1/eps and rounding leaves
        # some rows with a pivot <= 0: those rows, and only those, are
        # decomposed, and get the floored inverse of their H, bit for bit
        S = _hessian_rows(spec, 52)
        given = []
        eigh = np.linalg.eigh

        def recording(H):
            given.append(H.copy())
            return eigh(H)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        X, mu_i = _scaled_inverse(spec, S)
        (H,) = given
        dense = barrier_hessian(spec, S)
        failed = [i for i in range(len(S)) if any(np.array_equal(dense[i], h) for h in H)]
        assert 0 < len(failed) == len(H) and set(failed) <= set(range(20, 40))
        floored = X[failed]
        assert floored.tobytes() == (_floored_inverse(H) / mu_i[failed, None, None]).tobytes()
        assert np.isfinite(floored).all()
        assert np.allclose(floored, floored.transpose(0, 2, 1), rtol=4 * EPS, atol=0.0)
        # the other rows are their own closed forms, whatever shares their stack
        kept = np.setdiff1d(np.arange(len(S)), failed)
        assert np.array_equal(X[kept], _scaled_inverse(spec, S[kept])[0])

    @pytest.mark.parametrize(
        "spec,row",
        [
            (ConeSpec.power(0.3), [1e-300, 1.0, 0.0]),
            (ConeSpec.exponential(), [1e300, 1e-300, -1.0]),
        ],
        ids=["pow", "exp"],
    )
    def test_non_finite_row_raises(self, spec, row):
        # interior, but H overflows: no inverse to floor
        S = np.array([unit_point(spec)[0], row])
        Z = _unit_dual(spec, 2)
        with np.errstate(all="ignore"):
            assert is_interior(spec, S).all()
            for points, duals in ((S, Z), (S[1], Z[1])):
                with pytest.raises(np.linalg.LinAlgError):
                    barrier_hessian_inverse(spec, points, duals, 1.0)


class TestDualCoords:
    @pytest.mark.parametrize("spec", NONSYMMETRIC, ids=str)
    def test_equals_the_dual_map(self, spec):
        rng = np.random.default_rng(53)
        Y = rng.standard_normal((50, 3)) * 10.0 ** rng.uniform(-6.0, 6.0, (50, 1))
        M = cones.CONES[spec.kind].dual_map(spec)
        assert np.array_equal(dual_coords(spec, Y), Y @ M.T)
        assert np.array_equal(dual_coords(spec, Y[0]), M @ Y[0])


def _root_equations(spec, monkeypatch, call):
    """The (equation, lo, hi) of every bracketed_root call that call() makes."""
    seen = []
    root = cones.bracketed_root

    def recording(equation, lo, hi, x0):
        seen.append((equation, lo, hi))
        return root(equation, lo, hi, x0)

    monkeypatch.setattr(cones, "bracketed_root", recording)
    call()
    return seen


class TestRootDerivatives:
    """Halley's step needs each root equation's second derivative, in closed form in all three."""

    @staticmethod
    def calls(spec):
        yield lambda: conjugate_gradient(spec, _dual_stack(spec, 54))
        if spec.kind.value == "pow":
            rng = np.random.default_rng(55)
            C = rng.standard_normal((100, 3)) * 10.0 ** rng.uniform(-4.0, 4.0, (100, 3))
            yield lambda: smooth(spec, C, 10.0 ** rng.uniform(-10.0, 3.0, 100))

    @pytest.mark.parametrize("spec", NONSYMMETRIC, ids=str)
    def test_derivatives_match_central_differences(self, spec, monkeypatch):
        for call in self.calls(spec):
            for equation, lo, hi in _root_equations(spec, monkeypatch, call):
                r = np.flatnonzero(lo < hi)
                for x in (lo[r], hi[r], 0.5 * (lo[r] + hi[r])):
                    h = 1e-5 * np.maximum(1.0, np.abs(x))
                    f, df, d2f = equation(x, r)
                    up, down = equation(x + h, r), equation(x - h, r)
                    slope = (up[0] - down[0]) / (2 * h)
                    curvature = (up[1] - down[1]) / (2 * h)
                    assert np.allclose(slope, df, rtol=1e-6, atol=0.0)
                    assert (np.abs(curvature - d2f) <= 1e-6 * (np.abs(d2f) + np.abs(df))).all()

    @pytest.mark.parametrize("spec", NONSYMMETRIC, ids=str)
    def test_at_most_three_evaluations_per_conjugate_root(self, spec, monkeypatch):
        # bracketed Newton with a stop at a 1e-12 step took up to 6 on these
        # rows; Halley's step, stopped on its cubic prediction, takes 3
        count = {}
        root = _newton.bracketed_root

        def counting(equation, lo, hi, x0):
            n = np.zeros(len(lo), dtype=int)

            def counted(x, rows):
                n[rows] += 1
                return equation(x, rows)

            out = root(counted, lo, hi, x0)
            count["n"] = n[lo < hi]
            return out

        monkeypatch.setattr(cones, "bracketed_root", counting)
        conjugate_gradient(spec, _dual_stack(spec, 41))
        assert count["n"].size and count["n"].max() <= 3


class TestBracketedRoot:
    @pytest.mark.parametrize("kind", ["exp", "atan"])
    def test_roots_to_rounding_level(self, kind):
        # e^x - c: convex, roots log c; atan(x - a): Halley's step from far
        # out leaves the bracket and takes midpoints.  Either way a row that
        # stops on the cubic prediction has its root to a few ulps
        rng = np.random.default_rng(56)
        root = rng.uniform(-20.0, 20.0, 200)
        c = np.exp(root)
        if kind == "exp":
            root = np.log(c)

            def equation(x, rows):
                e = np.exp(x)
                return e - c[rows], e, e
        else:

            def equation(x, rows):
                z = x - root[rows]
                q = 1.0 / (1.0 + z * z)
                return np.arctan(z), q, -2.0 * z * q * q

        lo, hi = root - rng.uniform(0.1, 30.0, 200), root + rng.uniform(0.1, 30.0, 200)
        x = _newton.bracketed_root(equation, lo, hi, np.where(rng.random(200) < 0.5, lo, hi))
        assert (np.abs(x - root) <= 4 * EPS * np.maximum(1.0, np.abs(root))).all()

    @pytest.mark.parametrize(
        "flat,c,below,above", [(1, 100.0, 1.0, 1.0 + 1e-4), (2, -1e-5, 0.5, 1e-5)],
        ids=["first", "second"],
    )
    def test_no_stop_predicted_across_a_midpoint(self, flat, c, below, above):
        # z + c z^3, whose slope reads 0 at one evaluation: that step is not
        # a number and takes the bracket's midpoint.  Neither the midpoint
        # step nor the step after it follows a Halley step, so each must
        # meet 1e-12.  Else the first case stops 5e-5 from the root, with
        # K = 100 leaving an error near 1e-11, and the second, whose Halley
        # step of 0.5 ends 1.25e-6 below the root, stops on a midpoint step
        # of ~6e-6 that leaves 4e-6
        root = np.linspace(-1.0, 1.0, 5)
        evaluations = []

        def equation(x, rows):
            evaluations.append(None)
            z = x - root[rows]
            slope = 0.0 if len(evaluations) == flat else 1.0 + 3.0 * c * z * z
            return z + c * z**3, np.full_like(z, slope), 6.0 * c * z

        lo, hi = root - below, root + above
        with np.errstate(divide="ignore", invalid="ignore"):
            x = _newton.bracketed_root(equation, lo, hi, lo.copy())
        assert (np.abs(x - root) <= 4 * EPS).all()

    def test_two_cycle_at_the_rounding_floor_stops(self):
        # a value that rounds to +-1e-15 with slope 1e-4 sends Newton back
        # and forth by 1e-11, above the step test's 1e-12
        def equation(x, rows):
            return np.where(x < 1.0, -1e-15, 1e-15), np.full_like(x, 1e-4), np.zeros_like(x)

        lo, hi = np.zeros(2), np.full(2, 2.0)
        x = _newton.bracketed_root(equation, lo, hi, np.array([1.0 - 3e-12, 1.0 + 4e-12]))
        assert np.all(np.abs(x - 1.0) <= 1e-11)


class TestConeProduct:
    def test_dims_and_slices(self):
        product = ConeProduct(
            (ConeSpec.zero(2), ConeSpec.nonnegative(3), ConeSpec.second_order(4))
        )
        assert product.dim == 9
        assert product.degree == 4
        sl = product.slices()
        assert [s.start for s in sl] == [0, 2, 5]
        assert [s.stop for s in sl] == [2, 5, 9]

    def test_interiority_with_zero_blocks(self):
        product = ConeProduct((ConeSpec.zero(2), ConeSpec.nonnegative(2)))
        s = np.array([0.0, 0.0, 1.0, 2.0])
        z = np.array([-3.0, 7.0, 0.5, 0.5])
        assert product.is_interior(s)
        assert product.is_interior_dual(z)
        assert not product.is_interior(np.array([1e-9, 0.0, 1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_in_any_block_is_not_interior(self, bad):
        # one finiteness pass covers every batch, a Zero block's z included
        product = ConeProduct(
            (ConeSpec.zero(2), ConeSpec.nonnegative(2), ConeSpec.second_order(3), ConeSpec.power(0.3))
        )
        s = np.array([0.0, 0.0, 1.0, 2.0, 2.0, 0.5, 0.5, 1.0, 1.0, 0.1])
        z = np.array([-3.0, 7.0, 0.5, 0.5, 2.0, -0.5, 0.5, 1.0, 1.0, -0.1])
        assert product.is_interior(s) and product.is_interior_dual(z)
        for i in range(product.dim):
            bent = z.copy()
            bent[i] = bad
            assert not product.is_interior_dual(bent)
            if i >= 2:
                bent = s.copy()
                bent[i] = bad
                assert not product.is_interior(bent)

    def test_unit_points(self):
        product = ConeProduct((ConeSpec.zero(2), ConeSpec.second_order(3)))
        e_s, e_z = product.unit_points()
        assert np.allclose(e_s, [0, 0, 1, 0, 0])
        assert np.allclose(e_z, [0, 0, 1, 0, 0])


class TestCorrector:
    """Mehrotra's second-order term: only kinds with the Nesterov-Todd scaling in K have one."""

    def test_nonneg_term_is_ds_dz_over_z_bitwise(self):
        rng = np.random.default_rng(0)
        product = ConeProduct(
            (ConeSpec.zero(2), ConeSpec.nonnegative(3), ConeSpec.nonnegative(3),
             ConeSpec.nonnegative(4))
        )
        s, z = np.exp(rng.uniform(-20.0, 20.0, (2, product.dim)))
        z[:2] = rng.standard_normal(2)
        ds, dz = rng.standard_normal((2, product.dim)) * np.exp(rng.uniform(-20.0, 20.0, (2, 1)))
        out = product.corrector(_scalings(product, s, z), z, ds, dz)
        # a Zero block has no barrier: its rows take 0 and leave the term on
        assert out[:2].tolist() == [0.0, 0.0]
        assert out[2:].tobytes() == (ds[2:] * dz[2:] / z[2:]).tobytes()

    def test_nonneg_and_soc_products_are_corrected(self):
        rng = np.random.default_rng(2)
        spec = ConeSpec.second_order(4)
        product = ConeProduct((ConeSpec.zero(1), ConeSpec.nonnegative(2), spec, spec))
        assert product.corrected
        s, z = (np.r_[0.0, np.ones(2), random_interior(spec, rng), random_interior(spec, rng)]
                for _ in range(2))
        ds, dz = rng.standard_normal((2, product.dim))
        stacks = _scalings(product, s, z)
        out = product.corrector(stacks, z, ds, dz)
        assert out[0] == 0.0
        assert out[1:3].tobytes() == (ds[1:3] * dz[1:3] / z[1:3]).tobytes()
        soc = cones.CONES[ConeKind.SECOND_ORDER]
        rows = slice(3, product.dim)
        stack = [v[rows].reshape(2, 4) for v in (z, ds, dz)]
        assert out[rows].tobytes() == soc.corrector(spec, stacks[1], *stack).ravel().tobytes()

    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k not in ("nonneg", "soc")])
    def test_other_kinds_have_none(self, kind):
        rng = np.random.default_rng(1)
        spec = make_spec(kind, rng)
        s = random_interior(spec, rng)
        z = -barrier_gradient(spec, random_interior(spec, rng))
        ds, dz = rng.standard_normal((2, spec.dim))
        assert cones.CONES[spec.kind].corrector is None
        # one block without a term leaves the whole product uncorrected
        product = ConeProduct((ConeSpec.nonnegative(2), spec))
        ones = np.ones(2)
        stacks = _scalings(product, np.r_[ones, s], np.r_[ones, z])
        assert product.corrector(stacks, np.r_[ones, z], np.r_[ones, ds], np.r_[ones, dz]) is None


def _arrow(x):
    """L(x), the matrix of y -> x o y = (x'y, x0 y1 + y0 x1): the second-order cone's
    Jordan product."""
    L = x[0] * np.eye(len(x))
    L[0, 1:] = L[1:, 0] = x[1:]
    return L


def _spectral(x, f):
    """f(x) through x's spectral decomposition (x0 +- ||x1||) with the frame (1, +-x1/||x1||)/2."""
    n = np.linalg.norm(x[1:])
    u = x[1:] / n if n > 0.0 else np.eye(len(x) - 1)[0]  # any frame on the axis
    return 0.5 * f(x[0] + n) * np.r_[1.0, u] + 0.5 * f(x[0] - n) * np.r_[1.0, -u]


def _dense_quadratic(x):
    """P(x) = 2 L(x)^2 - L(x o x), x's quadratic representation, from its definition."""
    L = _arrow(x)
    return 2.0 * L @ L - _arrow(L @ x)


def _soc_pairs(seed, dim=6, k=120):
    """Seeded SOC pairs (s, z) scaled 1e-6 to 1e6, with det/x0^2 from 1 to 1e-12 (near the
    boundary), and for each pair the smaller of the two relative gaps."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(k):
        gaps = 10.0 ** -rng.integers(0, 13, 2).astype(float)
        points = []
        for gap in gaps:
            u = rng.standard_normal(dim - 1)
            x = np.r_[1.0, np.sqrt(1.0 - gap) * u / np.linalg.norm(u)]
            points.append(10.0 ** rng.uniform(-6.0, 6.0) * x)
        pairs.append((*points, gaps.min()))
    return pairs


class TestNesterovToddScaling:
    """The second-order block of K is the Nesterov-Todd W^2 = P(w), and its term is Mehrotra's.

    Each identity is checked at seeded pairs scaled 1e-6 to 1e6 and up to
    a relative gap of 1e-12, within a multiple of eps/gap: the pair's own
    determinants carry that rounding, so no formula can do better.
    """

    SPEC = ConeSpec.second_order(6)

    @staticmethod
    def tolerance(gap):
        return 64.0 * EPS / gap

    def test_w2_maps_z_to_s_and_grad_f_to_grad_f_star(self):
        spec = self.SPEC
        for s, z, gap in _soc_pairs(0):
            W2 = _dense_scaling(barrier_hessian_inverse(spec, s, z, 0.3))
            np.testing.assert_allclose(W2, W2.T, rtol=0.0, atol=EPS * np.abs(W2).max())
            err = np.linalg.norm(W2 @ z - s) / np.linalg.norm(s)
            assert err <= self.tolerance(gap), (err, gap)
            target = conjugate_gradient(spec, z)
            err = np.linalg.norm(W2 @ barrier_gradient(spec, s) - target) / np.linalg.norm(target)
            assert err <= self.tolerance(gap), (err, gap)
            if gap >= 1e-4:
                # the dense reference w = P(s^1/2) (P(s^1/2) z)^-1/2, W^2 = P(w).
                # Its square roots round more than the closed form does, so
                # it is compared at the better-centred pairs only
                h = _dense_quadratic(_spectral(s, np.sqrt))
                w = h @ _spectral(h @ z, lambda t: t**-0.5)
                reference = _dense_quadratic(w)
                assert np.abs(W2 - reference).max() <= 1e-9 * np.abs(reference).max()

    def test_lifted_scaling_in_ipm_maps_z_to_s(self):
        # W^2 z = s through K's arrays, as ipm assembles and applies them (_KKT.hinv)
        pairs = _soc_pairs(1, k=40)
        product = ConeProduct((ConeSpec.nonnegative(2),) + (self.SPEC,) * len(pairs))
        s = np.r_[1.0, 2.0, np.concatenate([p[0] for p in pairs])]
        z = np.r_[3.0, 0.5, np.concatenate([p[1] for p in pairs])]
        m = product.dim
        problem = ipm.ConicProblem(
            P=np.zeros((1, 1)), q=np.ones(1), A=np.ones((m, 1)), b=np.zeros(m), cones=product
        )
        stacks = [
            barrier_hessian_inverse(b.spec, b.rows(s), b.rows(z), 0.3)
            for b in product.barrier_batches
        ]
        kkt = ipm._KKT(problem, stacks)
        kkt.factor(stacks)
        out = kkt.hinv(z)
        np.testing.assert_allclose(out[:2], s[:2], rtol=4 * EPS)
        for (_, _, gap), rows_out, rows_s in zip(
            pairs, np.split(out[2:], len(pairs)), np.split(s[2:], len(pairs))
        ):
            err = np.linalg.norm(rows_out - rows_s) / np.linalg.norm(rows_s)
            assert err <= self.tolerance(gap), (err, gap)

    def test_term_removes_the_second_order_part_of_the_complementarity(self):
        # in lambda-coordinates, W^-1 s = W z = lambda, the combined step of
        # ipm, ds = -W^2 (dz + z + sigma mu grad f(s)) - term, satisfies
        # (s + ds) o (z + dz) - s o z - ds o dz = lambda o (ds + dz)
        #                                      = sigma mu e - lambda o lambda - ds_aff o dz_aff
        spec, soc = self.SPEC, cones.CONES[ConeKind.SECOND_ORDER]
        rng = np.random.default_rng(2)
        e = np.r_[1.0, np.zeros(spec.dim - 1)]
        for s, z, gap in _soc_pairs(3):
            W2 = _dense_scaling(barrier_hessian_inverse(spec, s, z, 0.3))
            d, U = np.linalg.eigh(W2)
            W, W_inv = (U * d**0.5) @ U.T, (U * d**-0.5) @ U.T  # the dense reference
            lam = W @ z
            ds_aff, dz = rng.standard_normal((2, spec.dim)) * np.linalg.norm(s)
            dz_aff = rng.standard_normal(spec.dim) * np.linalg.norm(z)
            dz *= np.linalg.norm(z) / np.linalg.norm(s)
            sigma_mu = 0.1 * float(s @ z)
            H = barrier_hessian_inverse(spec, s[None], z[None], 0.3)
            term = soc.corrector(spec, H, z[None], ds_aff[None], dz_aff[None])[0]
            ds = -W2 @ (dz + z + sigma_mu * barrier_gradient(spec, s)) - term
            ds_hat, dz_hat = W_inv @ ds, W @ dz
            linear = (_arrow(lam + ds_hat) @ (lam + dz_hat) - _arrow(lam) @ lam
                      - _arrow(ds_hat) @ dz_hat)
            removed = _arrow(W_inv @ ds_aff) @ (W @ dz_aff)
            expected = sigma_mu * e - _arrow(lam) @ lam - removed
            scale = np.linalg.norm(lam) * (np.linalg.norm(ds_hat) + np.linalg.norm(dz_hat))
            err = np.linalg.norm(linear - expected) / scale
            assert err <= self.tolerance(gap), (err, gap)

    def test_nonneg_rows_reduce_the_general_term_to_ds_dz_over_z(self):
        # W = sqrt(s/z) and lambda = sqrt(s z) per coordinate: W L(lambda)^-1
        # ((W^-1 ds) o (W dz)) is the nonneg kind's ds dz/z
        rng = np.random.default_rng(4)
        spec = ConeSpec.nonnegative(50)
        S, Z = np.exp(rng.uniform(-14.0, 14.0, (2, 3, 50)))
        DS, DZ = rng.standard_normal((2, 3, 50))
        W = np.sqrt(S / Z)
        general = W * ((DS / W) * (W * DZ)) / np.sqrt(S * Z)
        H = barrier_hessian_inverse(spec, S, Z, 0.3)
        term = cones.CONES[ConeKind.NONNEGATIVE].corrector(spec, H, Z, DS, DZ)
        np.testing.assert_allclose(term, general, rtol=8 * EPS)


POW_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)


def _pow_pairs(spec, seed):
    """Seeded (S, Z) stacks off the central path: the s rows of _hessian_rows (20 random,
    20 at relative slack 1e-10 of the curved boundary, 20 on a flat face, scaled 1e-6 to
    1e6), each with z = -t grad f(x), x a row of another such stack and t = 10^k, k in
    [-6, 6]: z is as near the dual boundary as x is to the primal one."""
    rng = np.random.default_rng(seed)
    S = _hessian_rows(spec, seed)
    X = _hessian_rows(spec, seed + 1)[rng.permutation(len(S))]
    return S, -barrier_gradient(spec, X) * 10.0 ** rng.integers(-6, 7, (len(S), 1))


def _cancellation(*pairs):
    """Per row, the largest sum |x_j y_j| / |<x, y>| over the pairs (X, Y): the factor by which
    rounding in <x, y> exceeds eps."""
    return np.max([np.vecdot(np.abs(X), np.abs(Y)) / np.abs(np.vecdot(X, Y)) for X, Y in pairs],
                  axis=0)


def _closed_form(spec, S, Z, monkeypatch):
    """The kernel's blocks with the primal-dual update switched off: H(s)^-1/mu_i per row."""
    with monkeypatch.context() as patch:
        patch.setattr(cones.PowerCone, "primal_dual", False)
        return barrier_hessian_inverse(spec, S, Z, 0.3).blocks[:, 0]


class TestPrimalDualScaling:
    """The power cone's block of K is W^2 with W^2 z = s and W^2 grad f(s) = grad f*(z) off
    the central path (cones._primal_dual), and H(s)^-1/mu_i, bit for bit, on it.

    Each identity holds within a multiple of eps times the cancellation in
    the pairings <s, z>, <s~, z>, <s, z~> and <s~, z~> that W^2 is built
    from: a z near the dual boundary, paired with a random s, puts 1e10
    in it.
    """

    @pytest.mark.parametrize("alpha", POW_ALPHAS)
    def test_w2_maps_z_to_s_and_grad_f_to_grad_f_star(self, alpha):
        spec = ConeSpec.power(alpha)
        S, Z = _pow_pairs(spec, 70)
        W2 = barrier_hessian_inverse(spec, S, Z, 0.3).blocks[:, 0]
        G, GZ = barrier_gradient(spec, S), conjugate_gradient(spec, Z)
        bound = 16.0 * EPS * _cancellation((S, Z), (GZ, Z), (S, G), (GZ, G))
        for X, Y in ((Z, S), (G, GZ)):
            err = np.linalg.norm(np.einsum("kij,kj->ki", W2, X) - Y, axis=1)
            assert (err <= bound * np.linalg.norm(Y, axis=1)).all()
        assert np.array_equal(W2, W2.transpose(0, 2, 1))
        # positive definite once equilibrated: strictly on the random and
        # curved-boundary rows; a flat-face row at relative 1e-10 can be
        # singular to working precision (cond ~ 1e16), and is checked to rounding
        d = 1.0 / np.sqrt(np.einsum("kii->ki", W2))
        smallest = np.linalg.eigvalsh(W2 * d[:, :, None] * d[:, None, :])[:, 0]
        assert (smallest[:40] > 0.0).all() and (smallest[40:] >= -4.0 * EPS).all()

    @pytest.mark.parametrize("alpha", POW_ALPHAS)
    def test_w2_is_the_two_sided_bfgs_update(self, alpha):
        # S (S'Z)^-1 S' + B - B Z (Z'B Z)^-1 Z'B with B = H(s)^-1/mu_i, S = (s, s~) and
        # Z = (z, z~), in dense linear algebra, on the random rows
        spec = ConeSpec.power(alpha)
        S, Z = (M[:20] for M in _pow_pairs(spec, 71))
        W2 = barrier_hessian_inverse(spec, S, Z, 0.3).blocks[:, 0]
        mu_i = np.vecdot(S, Z) / 3.0
        B = np.linalg.inv(barrier_hessian(spec, S)) / mu_i[:, None, None]
        Sm = np.stack([S, -conjugate_gradient(spec, Z)], axis=2)
        Zm = np.stack([Z, -barrier_gradient(spec, S)], axis=2)
        BZ = B @ Zm
        reference = (Sm @ np.linalg.solve(cones._t(Sm) @ Zm, cones._t(Sm)) + B
                     - BZ @ np.linalg.solve(cones._t(Zm) @ BZ, cones._t(BZ)))
        scale = np.abs(reference).max(axis=(1, 2))[:, None, None]
        assert (np.abs(W2 - reference) <= 1e-9 * scale).all()

    @pytest.mark.parametrize("alpha", POW_ALPHAS)
    def test_central_path_rows_keep_the_closed_form_bitwise(self, alpha, monkeypatch):
        # z = -mu grad f(s), mu = 10^k, at every row of _hessian_rows, and the unit
        # pair; mixed into one stack with off-path rows, they keep H^-1/mu_i alone
        spec = ConeSpec.power(alpha)
        rng = np.random.default_rng(72)
        S = np.vstack([_hessian_rows(spec, 72), unit_point(spec)[0]])
        Z = -barrier_gradient(spec, S) * 10.0 ** rng.integers(-6, 7, (len(S), 1))
        Z[-1] = unit_point(spec)[1]
        off_S, off_Z = _pow_pairs(spec, 73)
        S, Z = np.vstack([S, off_S]), np.vstack([Z, off_Z])
        W2 = barrier_hessian_inverse(spec, S, Z, 0.3).blocks[:, 0]
        closed = _closed_form(spec, S, Z, monkeypatch)
        on = len(S) - len(off_S)
        assert W2[:on].tobytes() == closed[:on].tobytes()
        assert not any(W2[i].tobytes() == closed[i].tobytes() for i in range(on, len(S)))


class TestOneEvaluation:
    """ipm reads grad f(s) and the term's state from the Scaling of (s, z) alone: each is
    bit for bit what the separate kernels give at the same rows."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_scaling_gradient_is_the_barrier_gradient_bitwise(self, kind):
        for seed in range(3):
            spec, S, Y = _stack_cases(kind, np.random.default_rng(50 + seed), 6)
            H = barrier_hessian_inverse(spec, S, Y, 0.3)
            assert H.gradient.tobytes() == barrier_gradient(spec, S).tobytes()

    def test_soc_term_from_the_scaling_is_the_term_from_a_fresh_nt_point_bitwise(self):
        spec, soc = ConeSpec.second_order(6), cones.CONES[ConeKind.SECOND_ORDER]
        pairs = _soc_pairs(5, k=40)
        S, Z = (np.array([pair[i] for pair in pairs]) for i in (0, 1))
        DS, DZ = np.random.default_rng(6).standard_normal((2, *S.shape))
        H = barrier_hessian_inverse(spec, S, Z, 0.3)
        fresh = dataclasses.replace(H, point=soc._nt_point(S, Z))
        term = soc.corrector(spec, H, Z, DS, DZ)
        assert term.tobytes() == soc.corrector(spec, fresh, Z, DS, DZ).tobytes()


def _one_block(spec):
    return ConeProduct((spec,))


def _side(product, v, d, dual):
    """(bound, interior test) for v + alpha*d on one side of a one-block product.

    The other side sits at its unit point with a zero direction, which
    binds nothing.
    """
    e_s, e_z = product.unit_points()
    zero = np.zeros(product.dim)
    if dual:
        return product.step_bound(e_s, zero, v, d), product.is_interior_dual
    return product.step_bound(v, d, e_z, zero), product.is_interior


def _side_point(spec, rng, dual):
    """A seeded point of int K, or of int K* (minus a barrier gradient)."""
    s = random_interior(spec, rng)
    return -barrier_gradient(spec, s) if dual else s


SIDES = [(kind, dual) for kind in ALL_KINDS for dual in (False, True)]


class TestStepBound:
    """ConeProduct.step_bound on K and K*: the kinds' closed forms and the ratio tests."""

    EXACT = ("nonneg", "soc", "psd")

    @pytest.mark.parametrize("kind,dual", SIDES)
    def test_bound_is_the_boundary(self, kind, dual):
        # just past the bound every kind fails the interior test; just
        # before it the exact kinds pass, at points scaled 1e-6 to 1e6
        rng = np.random.default_rng(11)
        finite = 0
        for scale in 10.0 ** np.arange(-6, 7, 2):
            for _ in range(15):
                spec = make_spec(kind, rng)
                product = _one_block(spec)
                v = scale * _side_point(spec, rng, dual)
                d = scale * 10.0 ** rng.uniform(-2, 2) * rng.standard_normal(spec.dim)
                bound, inside = _side(product, v, d, dual)
                assert bound > 0.0
                if math.isinf(bound):
                    continue
                finite += 1
                assert not inside(v + bound * (1 + 1e-6) * d)
                if kind in self.EXACT:
                    assert inside(v + bound * (1 - 1e-9) * d)
        assert finite >= 50

    @pytest.mark.parametrize("kind,dual", SIDES)
    def test_direction_with_no_negative_part_is_unbounded(self, kind, dual):
        # the unit point of the side lies inside it: the ray never leaves
        rng = np.random.default_rng(12)
        spec = make_spec(kind, rng)
        product = _one_block(spec)
        e_s, e_z = unit_point(spec)
        for scale in (1e-6, 1.0, 1e6):
            v = scale * _side_point(spec, rng, dual)
            assert _side(product, v, scale * (e_z if dual else e_s), dual)[0] == math.inf

    def test_nonneg_ratio_test(self):
        product = _one_block(ConeSpec.nonnegative(4))
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert _side(product, v, np.array([0.0, 1.0, 0.0, 5.0]), False)[0] == math.inf
        assert _side(product, v, np.array([-4.0, 1.0, -1.0, 0.0]), False)[0] == 0.25

    def test_soc_tangent_direction(self):
        # d0 = ||d1||: the leading coefficient d0^2 - ||d1||^2 is exactly 0,
        # so the quadratic degenerates to a line
        rng = np.random.default_rng(13)
        spec = ConeSpec.second_order(4)
        product = _one_block(spec)
        for _ in range(20):
            v = random_interior(spec, rng)
            # a power of two keeps every square exact
            d = np.array([-5.0, 3.0, 0.0, 4.0]) * 2.0 ** rng.integers(-10, 11)
            assert d[0] ** 2 - d[1:] @ d[1:] == 0.0
            bound, inside = _side(product, v, d, False)
            b = v[0] * d[0] - v[1:] @ d[1:]
            gap = v[0] ** 2 - v[1:] @ v[1:]
            assert math.isclose(bound, gap / (-2.0 * b), rel_tol=1e-12)
            assert not inside(v + bound * (1 + 1e-6) * d)
            assert inside(v + bound * (1 - 1e-9) * d)
            # the opposite tangent stays inside for every alpha
            assert _side(product, v, -d, False)[0] == math.inf

    def test_soc_row_outside_the_cone_is_unbounded(self):
        # a row that fails the interior test takes no bound from the quadratic
        spec = ConeSpec.second_order(3)
        V = np.array([[1.0, 1.0, 0.0], [-2.0, 0.0, 0.0]])
        D = np.array([[-1.0, 0.5, 0.0], [1.0, 0.0, 0.0]])
        bound = cones.CONES[spec.kind].step_bound(spec, V, D)
        assert np.all(bound == math.inf)

    def test_zero_block_imposes_no_bound(self):
        rng = np.random.default_rng(14)
        nonneg = ConeSpec.nonnegative(3)
        product = ConeProduct((ConeSpec.zero(2), nonneg, ConeSpec.zero(1)))
        v = random_interior(nonneg, rng)
        d = rng.standard_normal(3) - 1.0
        s = np.r_[0.0, 0.0, v, 0.0]
        ds = np.r_[5.0, -7.0, d, -1.0]
        z = np.r_[-3.0, 1.0, v, 2.0]
        dz = np.r_[-1e9, 1e9, np.zeros(3), 1e9]
        assert product.step_bound(s, ds, z, dz) == _side(_one_block(nonneg), v, d, False)[0]

    def test_stack_gives_one_bound_per_row(self):
        rng = np.random.default_rng(15)
        for kind in ALL_KINDS:
            spec = make_spec(kind, rng)
            V = np.array([random_interior(spec, rng) for _ in range(6)])
            D = rng.standard_normal(V.shape)
            kernel = cones.CONES[spec.kind]
            rows = [kernel.step_bound(spec, V[i : i + 1], D[i : i + 1])[0] for i in range(6)]
            assert np.array_equal(kernel.step_bound(spec, V, D), rows), kind
