"""Smoothing operators: analytic kernels, Newton fallback, projections."""

import math
import warnings

import numpy as np
import pytest

from conepath.cones import (
    MU_MAX,
    ConeProduct,
    ConeSpec,
    barrier_gradient,
    is_interior,
    is_interior_dual,
    svec,
    smat,
    unit_point,
)
from conepath.errors import NoConvergence, Unsupported
from conepath.smoothing import (
    project,
    project_dual,
    smooth,
    smooth_newton,
    smooth_product,
)

from support import ALL_KINDS, make_spec, random_interior


def moreau_residual(spec, c, mu, s):
    return float(np.linalg.norm(s - c + mu * barrier_gradient(spec, s)))


class TestNonnegative:
    def test_closed_form(self):
        # each coordinate solves s^2 - c s - mu = 0, positive root
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = rng.standard_normal(5) * 3.0
            mu = float(np.exp(rng.uniform(math.log(1e-8), math.log(10.0))))
            res = smooth(ConeSpec.nonnegative(5), c, mu)
            expected = 0.5 * (c + np.sqrt(c * c + 4.0 * mu))
            assert np.allclose(res.s, expected, rtol=1e-12)
            assert res.newton_iters == 0

    def test_stable_for_large_negative_entries(self):
        c = np.array([-1e8, -1.0, 0.0, 1.0, 1e8])
        s = smooth(ConeSpec.nonnegative(5), c, 1e-6).s
        assert np.all(s > 0)
        assert np.all(np.isfinite(s))
        # s*(s - c) = mu wherever the offset mu/c is representable at
        # the magnitude of c; at c = 1e8 the exact root rounds to c itself
        assert np.allclose(s[:4] * (s[:4] - c[:4]), 1e-6, rtol=1e-6)
        assert s[4] == c[4]

    def test_matches_newton_oracle(self):
        spec = ConeSpec.nonnegative(4)
        rng = np.random.default_rng(1)
        for _ in range(25):
            c = rng.standard_normal(4) * 2.0
            mu = float(np.exp(rng.uniform(math.log(1e-4), math.log(1.0))))
            closed = smooth(spec, c, mu).s
            hint, _ = unit_point(spec)
            newton = smooth_newton(spec, c, mu, hint).s
            assert np.linalg.norm(closed - newton) <= 1e-8 * max(
                1.0, np.linalg.norm(c)
            )


class TestSecondOrder:
    def test_known_values(self):
        # on the axis c = (1, 0, 0) with mu = 1, s0 solves s0^2 - s0 - 1 = 0,
        # the golden ratio; off axis c = (1, 1, 0) gives s0 = 1 + sqrt(2)/2
        spec = ConeSpec.second_order(3)
        res = smooth(spec, np.array([1.0, 0.0, 0.0]), 1.0)
        assert math.isclose(res.s[0], 1.618033988749895, rel_tol=1e-12)
        res = smooth(spec, np.array([1.0, 1.0, 0.0]), 1.0)
        assert math.isclose(res.s[0], 1.0 + math.sqrt(2.0) / 2.0, rel_tol=1e-12)

    def test_axis_branch(self):
        # c1 = 0 keeps the result on the axis: s = (s0, 0, ...)
        spec = ConeSpec.second_order(3)
        res = smooth(spec, np.array([2.0, 0.0, 0.0]), 1.0)
        assert abs(res.s[1]) < 1e-15 and abs(res.s[2]) < 1e-15
        s0 = res.s[0]
        # stationarity on the axis: s0 - 2 - mu * (-1/s0) has the 2-root form
        assert math.isclose(s0 * (s0 - 2.0), 1.0, rel_tol=1e-12)

    def test_matches_newton_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            spec = ConeSpec.second_order(dim)
            c = rng.standard_normal(dim) * 2.0
            mu = float(np.exp(rng.uniform(math.log(1e-4), math.log(1.0))))
            closed = smooth(spec, c, mu).s
            hint, _ = unit_point(spec)
            newton = smooth_newton(spec, c, mu, hint).s
            assert np.linalg.norm(closed - newton) <= 1e-8 * max(
                1.0, np.linalg.norm(c)
            )

    def test_stationarity_residual(self):
        # the reported residual uses the stable kernel quantities and holds
        # over the whole mu range; recomputing grad f(s) from packed
        # coordinates cancels near the boundary, so the ambient-space
        # cross-check is restricted to moderate mu
        rng = np.random.default_rng(3)
        for _ in range(200):
            dim = int(rng.integers(2, 8))
            spec = ConeSpec.second_order(dim)
            c = rng.standard_normal(dim) * 5.0
            mu = float(np.exp(rng.uniform(math.log(1e-8), math.log(10.0))))
            res = smooth(spec, c, mu)
            scale = max(1.0, float(np.linalg.norm(c)))
            assert res.optimality_residual <= 1e-8 * scale
            if mu >= 1e-4:
                assert moreau_residual(spec, c, mu, res.s) <= 1e-8 * scale

    def test_overflowing_row_fails_alone(self):
        # c0^2/mu overflows, so the closed form gives inf/inf: that row
        # fails as a Newton row does, the other row is untouched
        spec = ConeSpec.second_order(3)
        big = np.array([1e200, 1.0, 0.0])
        with pytest.raises(NoConvergence):
            smooth(spec, big, 1e-3)
        c = np.array([[1.0, 1.0, 0.0], big])
        res = smooth(spec, c, 1e-3)
        assert np.isnan(res.s[1]).all() and np.isnan(res.optimality_residual[1])
        assert np.array_equal(res.s[0], smooth(spec, c[0], 1e-3).s)


class TestPsd:
    def test_diagonal_case_matches_nonnegative_kernel(self):
        spec = ConeSpec.psd_triangle(3)
        d = np.array([2.0, -1.0, 0.5])
        c = svec(np.diag(d))
        mu = 0.3
        res = smooth(spec, c, mu)
        expected = 0.5 * (d + np.sqrt(d * d + 4.0 * mu))
        assert np.allclose(np.sort(np.linalg.eigvalsh(smat(res.s))), np.sort(expected))

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(4)
        spec = ConeSpec.psd_triangle(3)
        M = rng.standard_normal((3, 3))
        C = 0.5 * (M + M.T)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        mu = 0.2
        S1 = smat(smooth(spec, svec(C), mu).s)
        S2 = smat(smooth(spec, svec(Q @ C @ Q.T), mu).s)
        assert np.allclose(Q @ S1 @ Q.T, S2, atol=1e-10)

    def test_eigen_space_residual(self):
        # optimality_residual is computed on the eigenvalues, so the
        # nonnegative-kernel accuracy carries over verbatim
        rng = np.random.default_rng(5)
        for _ in range(100):
            order = int(rng.integers(2, 5))
            spec = ConeSpec.psd_triangle(order)
            M = rng.standard_normal((order, order))
            c = svec(0.5 * (M + M.T) * 2.0)
            mu = float(np.exp(rng.uniform(math.log(1e-8), math.log(10.0))))
            res = smooth(spec, c, mu)
            assert res.optimality_residual <= 1e-8 * max(1.0, np.linalg.norm(c))

    def test_matrix_space_residual_moderate_mu(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            spec = ConeSpec.psd_triangle(3)
            M = rng.standard_normal((3, 3))
            c = svec(0.5 * (M + M.T))
            mu = float(np.exp(rng.uniform(math.log(1e-4), math.log(10.0))))
            res = smooth(spec, c, mu)
            assert moreau_residual(spec, c, mu, res.s) <= 1e-7 * max(
                1.0, np.linalg.norm(c)
            )


class TestClosedFormsAtTheFloatFloor:
    """Near the float floor a closed form can round onto the boundary; such a row fails alone."""

    @pytest.mark.parametrize(
        "spec",
        [ConeSpec.nonnegative(3), ConeSpec.second_order(3), ConeSpec.psd_triangle(2)],
        ids=["nonneg", "soc", "psd"],
    )
    def test_rows_are_interior_or_nan(self, spec):
        C = np.random.default_rng(11).normal(0.0, 2.0, (2000, spec.dim))
        res = smooth(spec, C, 1e-16)
        failed = np.isnan(res.s).any(axis=1)
        assert np.array_equal(failed, np.isnan(res.optimality_residual))
        assert is_interior(spec, res.s[~failed]).all()
        assert np.isfinite(res.optimality_residual[~failed]).all()

    def test_nonnegative_root_underflowing_to_zero_fails_alone(self):
        # 2 mu/(|c| + sqrt(c^2 + 4 mu)) = 1e-350 rounds to 0, the boundary
        spec = ConeSpec.nonnegative(2)
        c = np.array([-1e150, 1.0])
        with pytest.raises(NoConvergence):
            smooth(spec, c, 1e-200)
        res = smooth(spec, np.stack([c, [-1.0, 1.0]]), 1e-200)
        assert np.isnan(res.s[0]).all() and np.isnan(res.optimality_residual[0])
        assert is_interior(spec, res.s[1])

    @pytest.mark.parametrize("big", [-1e200, 1e200])
    @pytest.mark.parametrize("kind", ["nonneg", "psd"])
    def test_squares_past_the_float_range_fail_without_a_warning(self, kind, big):
        # c^2 overflows in the nonnegative root from |c| ~ 1.3e154 on
        if kind == "nonneg":
            spec, C = ConeSpec.nonnegative(2), np.array([[big, 1.0]])
        else:
            spec, C = ConeSpec.psd_triangle(2), svec(np.diag([big, 1.0]))[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = smooth(spec, C, np.array([1e-200]))
        assert np.isnan(res.s).all() and np.isnan(res.optimality_residual).all()


class TestNewtonKinds:
    @pytest.mark.parametrize("kind", ["exp", "pow"])
    def test_stationarity_residual(self, kind):
        rng = np.random.default_rng(7)
        spec = make_spec(kind, rng)
        for _ in range(100):
            c = rng.standard_normal(3) * 2.0
            mu = float(np.exp(rng.uniform(math.log(1e-6), math.log(10.0))))
            res = smooth(spec, c, mu)
            assert is_interior(spec, res.s)
            assert moreau_residual(spec, c, mu, res.s) <= 1e-8 * max(
                1.0, np.linalg.norm(c)
            )

    def test_hint_shortens_warm_repeat(self):
        spec = ConeSpec.exponential()
        c = np.array([1.0, 2.0, 0.5])
        first = smooth(spec, c, 1e-3)
        again = smooth(spec, c, 1e-3, hint=first.s)
        assert again.newton_iters <= first.newton_iters
        assert np.allclose(again.s, first.s, rtol=1e-9)


POW_ALPHAS = (0.01, 0.1, 0.5, 0.9, 0.99)


def _scaled_targets(rng, k):
    """k targets at scales 1e-6 to 1e6 with weights from 1e-10 to MU_MAX."""
    C = rng.standard_normal((k, 3)) * 10.0 ** rng.uniform(-6.0, 6.0, (k, 1))
    return C, 10.0 ** rng.uniform(-10.0, math.log10(MU_MAX), k)


class TestPowerRoot:
    """The power cone's smoothing by one scalar root per row."""

    @pytest.mark.parametrize("alpha", POW_ALPHAS)
    def test_agrees_with_newton(self, alpha):
        # the smoothing objective is 1-strongly convex, so a Newton row that
        # meets its residual to 1e-8 max(1, |c|) lies that close to the prox;
        # the others have |c| > 5 and mu/|c|^2 < 1e-7, where the residual
        # sits near the float64 floor, or did not converge
        spec = ConeSpec.power(alpha)
        C, mu = _scaled_targets(np.random.default_rng(71), 120)
        ref = smooth_newton(spec, C, mu)
        scale = np.maximum(1.0, np.linalg.norm(C, axis=1))
        ok = ref.optimality_residual <= 1e-8 * scale
        assert ok.sum() >= 90
        got = smooth(spec, C[ok], mu[ok])
        assert (got.newton_iters == 0).all()
        assert (np.linalg.norm(got.s - ref.s[ok], axis=1) <= 1e-8 * scale[ok]).all()

    @pytest.mark.parametrize("alpha", POW_ALPHAS)
    def test_stationarity_residual(self, alpha):
        spec = ConeSpec.power(alpha)
        rng = np.random.default_rng(72)
        C = rng.standard_normal((100, 3))
        mu = 10.0 ** rng.uniform(-2.0, 2.0, 100)
        res = smooth(spec, C, mu)
        bound = 1e-12 * np.maximum(1.0, np.linalg.norm(C, axis=1))
        assert is_interior(spec, res.s).all()
        assert (res.optimality_residual <= bound).all()
        R = res.s - C + mu[:, None] * barrier_gradient(spec, res.s)
        assert (np.linalg.norm(R, axis=1) <= bound).all()

    def test_zero_c3_gives_zero_s3(self):
        spec = ConeSpec.power(0.3)
        C, mu = _scaled_targets(np.random.default_rng(73), 30)
        C[:, 2] = 0.0
        C[::2, 2] = -0.0
        res = smooth(spec, C, mu)
        assert np.isfinite(res.s).all()
        assert (res.s[:, 2] == 0.0).all()

    def test_row_beyond_range_fails_alone(self):
        spec = ConeSpec.power(0.7)
        rng = np.random.default_rng(74)
        C = rng.standard_normal((6, 3))
        C[4] = [1.0, -2e100, 0.5]
        with pytest.raises(NoConvergence):
            smooth(spec, C[4], 1e-3)
        res = smooth(spec, C, 1e-3)
        assert np.isnan(res.s[4]).all() and np.isnan(res.optimality_residual[4])
        rest = np.isfinite(res.s).all(axis=1)
        assert list(rest) == [True, True, True, True, False, True]

    def test_row_rounding_onto_the_boundary_fails_alone(self):
        # far below mu/|c|^2 ~ 1e-12 the exact prox lies within float64
        # rounding of the boundary; such a row fails, every row returned
        # is strictly interior
        spec = ConeSpec.power(0.5)
        C, mu = _scaled_targets(np.random.default_rng(78), 200)
        res = smooth(spec, C, mu)
        failed = np.isnan(res.s).any(axis=1)
        assert failed.any()
        assert (mu[failed] < 1e-12 * np.vecdot(C[failed], C[failed])).all()
        assert is_interior(spec, res.s[~failed]).all()

    def test_stack_equals_rows(self):
        spec = ConeSpec.power(0.45)
        C, mu = _scaled_targets(np.random.default_rng(75), 40)
        C[3, 2] = 0.0
        C[7] = [3e100, 1.0, 1.0]
        res = smooth(spec, C, mu)
        for c, m, s, r in zip(C, mu, res.s, res.optimality_residual):
            try:
                alone = smooth(spec, c, m)
            except NoConvergence:
                assert np.isnan(s).all() and np.isnan(r)
                continue
            assert np.array_equal(s, alone.s)
            assert r == alone.optimality_residual

    def test_does_not_run_the_damped_newton(self, monkeypatch):
        from conepath import _newton, cones

        def refuse(*args, **kwargs):
            raise AssertionError("smoothing_newton called")

        monkeypatch.setattr(_newton, "smoothing_newton", refuse)
        # a module that imported it by name holds its own reference
        monkeypatch.setattr(cones, "smoothing_newton", refuse)
        C, mu = _scaled_targets(np.random.default_rng(76), 20)
        for alpha in POW_ALPHAS:
            smooth(ConeSpec.power(alpha), C, mu)

    def test_bracket_holds(self, monkeypatch):
        # h(lo) <= 0 <= h(hi) on every row with a bracket, checked on the
        # equation the route hands to the root finder
        from conepath import cones

        rows_checked = []
        root = cones.bracketed_root

        def checked(equation, lo, hi, x0):
            r = np.flatnonzero(lo < hi)
            assert (equation(lo[r], r)[0] <= 0.0).all()
            assert (equation(hi[r], r)[0] >= 0.0).all()
            assert ((lo[r] <= x0[r]) & (x0[r] <= hi[r])).all()
            rows_checked.append(r.size)
            return root(equation, lo, hi, x0)

        monkeypatch.setattr(cones, "bracketed_root", checked)
        rng = np.random.default_rng(77)
        for alpha in np.linspace(0.01, 0.99, 15):
            C = rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-4.0, 4.0, (200, 3))
            smooth(ConeSpec.power(alpha), C, 10.0 ** rng.uniform(-10.0, 3.0, 200))
        assert sum(rows_checked) == 15 * 200


class TestValidation:
    def test_mu_bounds(self):
        spec = ConeSpec.nonnegative(2)
        c = np.ones(2)
        with pytest.raises(Unsupported):
            smooth(spec, c, 0.0)
        with pytest.raises(Unsupported):
            smooth(spec, c, -1.0)
        with pytest.raises(Unsupported):
            smooth(spec, c, 2e6)

    def test_zero_cone_unsupported(self):
        with pytest.raises(Unsupported):
            smooth(ConeSpec.zero(2), np.zeros(2), 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(Unsupported):
            smooth(ConeSpec.nonnegative(3), np.ones(2), 1.0)


class TestProduct:
    def test_blockwise_with_zero_passthrough(self):
        product = ConeProduct(
            (ConeSpec.zero(2), ConeSpec.nonnegative(2), ConeSpec.second_order(3))
        )
        c = np.array([5.0, -1.0, 1.0, -2.0, 1.0, 0.5, 0.0])
        s, results = smooth_product(product, c, 0.1)
        # zero block passes through untouched and reports no result
        assert np.allclose(s[:2], c[:2])
        assert results[0] is None
        assert results[1] is not None and results[2] is not None
        assert np.allclose(s[2:4], smooth(ConeSpec.nonnegative(2), c[2:4], 0.1).s)

    def test_per_block_mu(self):
        product = ConeProduct((ConeSpec.nonnegative(1), ConeSpec.nonnegative(1)))
        c = np.array([1.0, 1.0])
        s, _ = smooth_product(product, c, np.array([1e-6, 1.0]))
        assert s[0] < s[1]

    def test_hints_forwarded(self):
        product = ConeProduct((ConeSpec.exponential(),))
        c = np.array([1.0, 2.0, 0.5])
        s_cold, res_cold = smooth_product(product, c, 1e-3)
        s_warm, res_warm = smooth_product(product, c, 1e-3, hints=[s_cold])
        assert res_warm[0].newton_iters <= res_cold[0].newton_iters
        assert np.allclose(s_warm, s_cold, rtol=1e-9)


NONSYMMETRIC_SPECS = (
    ConeSpec.exponential(),
    ConeSpec.power(0.001),
    ConeSpec.power(0.5),
    ConeSpec.power(0.999),
)
SPEC_IDS = ("exp", "pow-0.001", "pow-0.5", "pow-0.999")


def _projection_targets(spec, rng):
    """Four targets per scale 10^k, k in [-8, 8]: a random one, one with a
    zero coordinate, one inside K and one inside the polar cone -K*; and
    one fixed target."""
    for k in range(-8, 9):
        c = rng.standard_normal(3)
        zero = rng.standard_normal(3)
        zero[rng.integers(3)] = 0.0
        inside = random_interior(spec, rng)
        polar = barrier_gradient(spec, random_interior(spec, rng))  # -grad f(s) is in int K*
        for t in (c, zero, inside, polar):
            yield 10.0**k * t / np.linalg.norm(t)
    # near the polar cone's boundary, where the power root's Newton ended
    # in a two-cycle at the rounding floor
    yield np.array([-7.513983105259508e-07, -1.386400606296596e-07, -6.451197660336809e-07])


def _in_closure(spec, x, eps, dual=False):
    """x + eps*e is strictly inside K (or K*), e the unit point normalized:
    x lies within eps of the closed cone along e."""
    e = unit_point(spec)[1 if dual else 0]
    return bool((is_interior_dual if dual else is_interior)(spec, x + eps * e / np.linalg.norm(e)))


class TestProjection:
    def test_nonnegative(self):
        c = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(project(ConeSpec.nonnegative(3), c), [0.0, 0.0, 2.0])

    def test_second_order_three_cases(self):
        spec = ConeSpec.second_order(3)
        inside = np.array([2.0, 1.0, 0.0])
        assert np.allclose(project(spec, inside), inside)
        polar = np.array([-2.0, 1.0, 0.0])
        assert np.allclose(project(spec, polar), np.zeros(3))
        shell = np.array([0.0, 2.0, 0.0])
        assert np.allclose(project(spec, shell), [1.0, 1.0, 0.0])

    def test_psd_eigenvalue_clip(self):
        spec = ConeSpec.psd_triangle(2)
        C = np.diag([3.0, -2.0])
        P = smat(project(spec, svec(C)))
        assert np.allclose(P, np.diag([3.0, 0.0]), atol=1e-12)

    def test_zero_cone(self):
        assert np.allclose(project(ConeSpec.zero(3), np.ones(3)), np.zeros(3))
        assert np.allclose(project_dual(ConeSpec.zero(3), np.ones(3)), np.ones(3))

    def test_moreau_decomposition(self):
        # c = proj_K(c) - proj_{K*}(-c), orthogonal split
        rng = np.random.default_rng(8)
        for kind in ("nonneg", "soc", "psd"):
            for _ in range(100):
                spec = make_spec(kind, rng)
                c = rng.standard_normal(spec.dim) * 3.0
                p = project(spec, c)
                q = project_dual(spec, -c)
                assert np.linalg.norm(c - (p - q)) <= 1e-10 * max(
                    1.0, np.linalg.norm(c)
                )
                assert abs(float(p @ q)) <= 1e-9 * max(1.0, float(c @ c))

    def test_newton_kinds_projection_limit(self):
        # smoothing converges to the projection as mu -> 0
        rng = np.random.default_rng(9)
        for kind in ("exp", "pow"):
            spec = make_spec(kind, rng)
            for _ in range(10):
                c = rng.standard_normal(3) * 2.0
                p = project(spec, c)
                gaps = [
                    np.linalg.norm(smooth(spec, c, mu).s - p)
                    for mu in (1e-2, 1e-4, 1e-6)
                ]
                assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("spec", NONSYMMETRIC_SPECS, ids=SPEC_IDS)
    def test_optimality_conditions(self, spec):
        rng = np.random.default_rng(1300)
        for c in _projection_targets(spec, rng):
            nc = np.linalg.norm(c)
            # proj_K(c) - c lies in K*, and proj_K*(c) - c in K
            for x, dual in ((project(spec, c), False), (project_dual(spec, c), True)):
                assert _in_closure(spec, x, 1e-10 * nc, dual), (c, x)
                assert _in_closure(spec, x - c, 1e-10 * nc, not dual), (c, x)
                assert abs(float(x @ (x - c))) <= 1e-9 * nc * nc, (c, x)

    @pytest.mark.parametrize("spec", NONSYMMETRIC_SPECS, ids=SPEC_IDS)
    def test_scales_exactly(self, spec):
        # t = max|c_i| scales by a power of two without rounding
        rng = np.random.default_rng(1301)
        for c in list(_projection_targets(spec, rng))[::4]:
            p = project(spec, c)
            for k in (-40, 40):
                assert np.array_equal(project(spec, 2.0**k * c), 2.0**k * p)

    @pytest.mark.parametrize("spec", NONSYMMETRIC_SPECS, ids=SPEC_IDS)
    def test_zero_target(self, spec):
        for route in (project, project_dual):
            assert np.array_equal(route(spec, np.zeros(3)), np.zeros(3))

    def test_power_does_not_run_the_damped_newton(self, monkeypatch):
        from conepath import _newton, cones

        def refuse(*args, **kwargs):
            raise AssertionError("damped Newton called")

        for name in ("newton_rows", "smoothing_newton"):
            monkeypatch.setattr(_newton, name, refuse)
            # a module that imported it by name holds its own reference
            monkeypatch.setattr(cones, name, refuse, raising=False)
        rng = np.random.default_rng(1302)
        for spec in NONSYMMETRIC_SPECS[1:]:
            for c in list(_projection_targets(spec, rng))[::5]:
                assert np.isfinite(project(spec, c)).all()
                assert np.isfinite(project_dual(spec, c)).all()


class TestShrinkToProjection:
    @pytest.mark.parametrize("kind", list(ALL_KINDS))
    def test_distance_decreases_in_mu(self, kind):
        rng = np.random.default_rng(10)
        spec = make_spec(kind, rng)
        for _ in range(20):
            c = rng.standard_normal(spec.dim) * 2.0
            p = project(spec, c)
            d = [np.linalg.norm(smooth(spec, c, mu).s - p) for mu in (1e-2, 1e-4, 1e-6)]
            assert d[0] > d[1] > d[2], kind
