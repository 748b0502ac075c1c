"""Warm-start generation: parameter selection, certification, bounds."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from conepath import ipm
from conepath.cones import (
    ConeProduct,
    ConeSpec,
    barrier_gradient,
    conjugate_gradient,
    is_interior,
    is_interior_dual,
    svec,
    unit_point,
)
from conepath.errors import BoundaryOrExterior, NotApplicable, Unsupported
from conepath.ipm import ConicProblem, residual_map
from conepath.smoothing import smooth
from conepath.warmstart import (
    PreviousSolution,
    SelectedParameters,
    certify_central_path,
    proximity,
    residual_bound_check,
    residual_infinity,
    select_parameters,
    warmstart,
)

from support import make_spec, random_interior


def nn_problem(q, b, n=2):
    # min q'x  s.t.  x + s = ... encoded as -Ix + s = b, s >= 0
    return ConicProblem(
        P=sp.csc_matrix((n, n)),
        A=sp.csc_matrix(-np.eye(n)),
        q=np.asarray(q, dtype=float),
        b=np.asarray(b, dtype=float),
        cones=ConeProduct((ConeSpec.nonnegative(n),)),
    )


class TestSelectParameters:
    def test_nonnegative_rule(self):
        spec = ConeSpec.nonnegative(2)
        sel = select_parameters(spec, np.array([2.0, 1e-6]), np.array([1e-6, 3.0]), 1e-6)
        assert sel == SelectedParameters(1.0, 1e-6, "nn")

    def test_soc_rule_scales_lambda(self):
        spec = ConeSpec.second_order(3)
        sb = np.array([4.0, 0.0, 0.0])
        zb = np.array([1.0, 0.0, 0.0])
        sel = select_parameters(spec, sb, zb, 1e-6)
        assert sel.rule == "soc"
        assert math.isclose(sel.lam, 4.0)
        assert math.isclose(sel.mu0, 4e-6)

    def test_soc_degenerate_leader(self):
        spec = ConeSpec.second_order(3)
        sb = np.array([1e-12, 0.0, 0.0])
        zb = np.array([1.0, 0.0, 0.0])
        sel = select_parameters(spec, sb, zb, 1e-12)
        assert sel.rule == "soc-degenerate"
        assert sel.lam == 1.0
        assert math.isclose(sel.mu0, 1e-12)

    def test_mu_clamped_to_unit_interval(self):
        spec = ConeSpec.nonnegative(1)
        hi = select_parameters(spec, np.array([1.0]), np.array([1.0]), 50.0)
        assert hi.mu0 == 1.0
        lo = select_parameters(spec, np.array([1.0]), np.array([1.0]), 1e-30)
        assert lo.mu0 == 1e-12

    def test_zero_rule(self):
        spec = ConeSpec.zero(2)
        sel = select_parameters(spec, np.zeros(2), np.array([1.0, -1.0]), 1e-6)
        assert sel.rule == "zero"

    def test_bad_residual_rejected(self):
        spec = ConeSpec.nonnegative(1)
        with pytest.raises(Unsupported):
            select_parameters(spec, np.ones(1), np.ones(1), -1.0)


class TestWarmstartUsesSelectedParameters:
    """warmstart() sizes every block with select_parameters, then overrides."""

    def make(self):
        cones = ConeProduct(
            (
                ConeSpec.zero(2),
                ConeSpec.nonnegative(3),
                ConeSpec.second_order(3),  # healthy leading entries
                ConeSpec.second_order(3),  # degenerate leading entry
                ConeSpec.power(0.4),
            )
        )
        s_star = np.array(
            [0.0, 0.0, 2.0, 1e-7, 0.5, 2.0, 1.0, 0.5, 1e-12, 0.0, 0.0, 1.2, 0.8, 0.3]
        )
        z_star = np.array(
            [1.5, -0.5, 1e-7, 3.0, 0.2, 1.0, -0.5, 0.2, 1.0, 0.0, 0.0, 1.5, 1.6, -0.4]
        )
        x_star = np.array([0.3, -0.7])
        rng = np.random.default_rng(21)
        A = rng.standard_normal((cones.dim, 2))
        # data a residual of about 1e-4 away from the previous triple
        prob = ConicProblem(
            P=sp.csc_matrix((2, 2)),
            A=sp.csc_matrix(A),
            q=-(A.T @ z_star) + 1e-4 * rng.uniform(-1.0, 1.0, 2),
            b=A @ x_star + s_star + 1e-4 * rng.uniform(-1.0, 1.0, cones.dim),
            cones=cones,
        )
        prev = PreviousSolution(x_star, s_star, z_star, problem=prob)
        r_inf = residual_infinity(prob, x_star, s_star, z_star)
        return prob, prev, r_inf

    def test_every_kind_matches(self):
        prob, prev, r_inf = self.make()
        assert 1e-6 < r_inf < 1e-3
        res = warmstart(prev, prob.cones)
        rules = []
        for k, (spec, sl) in enumerate(zip(prob.cones.blocks, prob.cones.slices())):
            sel = select_parameters(spec, prev.s_star[sl], prev.z_star[sl], r_inf)
            blk = res.per_block[k]
            assert (blk.lam, blk.mu0, blk.rule) == tuple(sel), k
            rules.append(blk.rule)
        assert rules == ["zero", "nn", "soc", "soc-degenerate", "nonsymmetric-heuristic"]
        assert res.per_block[2].mu0 == min(max(2.0 * r_inf, 1e-12), 1.0)

    def test_soc_lambda_override_keeps_residual_mu0(self):
        # a lambda-only override does not rescale mu0 by lambda: mu0 stays
        # the clamped residual norm, not the "soc" rule's lambda*r_inf
        prob, prev, r_inf = self.make()
        res = warmstart(prev, prob.cones, overrides={2: {"lambda": 0.5}})
        blk = res.per_block[2]
        assert (blk.lam, blk.mu0, blk.rule) == (0.5, min(max(r_inf, 1e-12), 1.0), "override")
        assert res.per_block[3].rule == "soc-degenerate"


class TestResidualInfinity:
    def test_exact_solution_is_zero(self):
        prob = nn_problem([1.0, 1.0], [-1.0, -1.0])
        x = np.array([1.0, 1.0])
        s = np.zeros(2)
        z = np.array([1.0, 1.0])
        assert residual_infinity(prob, x, s, z) == 0.0

    def test_perturbed_solution(self):
        prob = nn_problem([1.0, 1.0], [-1.0, -1.0])
        x = np.array([1.0, 1.0])
        s = np.zeros(2)
        z = np.array([1.0 + 1e-5, 1.0])
        r = residual_infinity(prob, x, s, z)
        assert math.isclose(r, 1e-5, rel_tol=1e-6)


class TestWorkedExample:
    """s* = (2, 1e-6), z* = (0, 3), residual 1e-2: hand-checked output."""

    def make(self):
        x_star = np.array([2.0, 1e-6])
        s_star = np.array([2.0, 1e-6])
        z_star = np.array([0.0, 3.0])
        # b = 0 makes the primal residual vanish at x* = s*; the dual
        # residual is q - z* = (1e-2, 0), so ||R||_inf = 1e-2 exactly
        prob = nn_problem(q=z_star + np.array([1e-2, 0.0]), b=np.zeros(2))
        prev = PreviousSolution(x_star, s_star, z_star, problem=prob)
        return prob, prev

    def test_hand_numbers(self):
        prob, prev = self.make()
        res = warmstart(prev, prob.cones)
        blk = res.per_block[0]
        assert blk.rule == "nn"
        assert blk.lam == 1.0
        assert math.isclose(blk.mu0, 1e-2)
        # coordinate oracle: s solves s*(s - c) = mu with c = s* - z*
        c = prev.s_star - prev.z_star
        expected = 0.5 * (c + np.sqrt(c * c + 4.0 * 1e-2))
        assert np.allclose(res.s0, expected, rtol=1e-14)
        assert math.isclose(res.s0[0], 2.004987562112089, rel_tol=1e-14)
        assert math.isclose(res.s0[1], 0.003329638944712267, rel_tol=1e-12)
        assert np.allclose(res.z0, 1e-2 / res.s0, rtol=1e-14)
        # complementarity lands exactly on nu*mu0/lam = 2e-2
        assert math.isclose(float(res.s0 @ res.z0), 0.02, rel_tol=1e-15)

    def test_x_passes_through(self):
        prob, prev = self.make()
        res = warmstart(prev, prob.cones)
        assert np.array_equal(res.x0, prev.x_star)

    def test_certification(self):
        prob, prev = self.make()
        res = warmstart(prev, prob.cones)
        report = certify_central_path(res, prob.cones)
        assert report.ok
        blk = report.blocks[0]
        assert blk.gradient_residual <= 1e-12
        assert blk.complementarity_error <= 1e-14


class TestZeroBlocks:
    def test_pass_through(self):
        cones = ConeProduct((ConeSpec.zero(2), ConeSpec.nonnegative(2)))
        prev = PreviousSolution(
            np.array([1.0]),
            np.array([0.0, 0.0, 2.0, 1.0]),
            np.array([5.0, -1.0, 1.0, 2.0]),
        )
        res = warmstart(prev, cones, overrides={1: {"mu0": 1e-6}})
        assert np.allclose(res.s0[:2], 0.0)
        assert np.array_equal(res.z0[:2], prev.z_star[:2])
        assert res.per_block[0].rule == "zero"
        assert np.all(res.s0[2:] > 0)
        assert np.all(res.z0[2:] > 0)


class TestOverridesAndFallback:
    def test_lambda_and_mu_override(self):
        cones = ConeProduct((ConeSpec.nonnegative(2),))
        prev = PreviousSolution(
            np.array([1.0]), np.array([1.0, 2.0]), np.array([2.0, 1.0])
        )
        res = warmstart(prev, cones, overrides={0: {"lambda": 0.5, "mu0": 1e-2}})
        blk = res.per_block[0]
        assert blk.rule == "override"
        assert blk.lam == 0.5
        assert blk.mu0 == 1e-2
        # c = s* - 0.5 z* = (0, 1.5); smoothing at mu = 1e-2 stays interior
        assert np.all(res.s0 > 0)

    def test_missing_problem_without_mu_override(self):
        cones = ConeProduct((ConeSpec.nonnegative(2),))
        prev = PreviousSolution(np.array([1.0]), np.ones(2), np.ones(2))
        with pytest.raises(Unsupported):
            warmstart(prev, cones)

    def test_one_failed_row_falls_back_alone(self):
        # 40 equal power blocks smooth as one stack; the block whose target
        # leaves the float64 working range falls back, the others keep the
        # smoothing they get one block at a time
        spec = ConeSpec.power(0.3)
        cones = ConeProduct((spec,) * 40)
        rng = np.random.default_rng(41)
        s_star = np.concatenate([random_interior(spec, rng) for _ in range(40)])
        z_star = np.concatenate(
            [-barrier_gradient(spec, random_interior(spec, rng)) for _ in range(40)]
        )
        s_star[3 * 17 : 3 * 18] = [2e100, 3e100, 1e100]
        prev = PreviousSolution(np.zeros(1), s_star, z_star)
        res = warmstart(prev, cones, overrides={k: {"mu0": 1e-3} for k in range(40)})
        assert res.fallback_blocks == [17]
        assert res.per_block[17].rule == "fallback"
        for k, sl in enumerate(cones.slices()):
            if k == 17:
                continue
            alone = smooth(spec, s_star[sl] - z_star[sl], 1e-3, hint=s_star[sl]).s
            assert np.allclose(res.s0[sl], alone, rtol=1e-12, atol=0.0), k
            assert res.per_block[k].rule == "override"

    def test_overflowing_closed_form_falls_back_alone(self):
        # an SOC target whose c0^2/mu overflows fails in the closed form
        # and falls back like a failed Newton row; its neighbour does not
        spec = ConeSpec.second_order(3)
        cones = ConeProduct((spec, spec))
        s_star = np.array([2.0, 1.0, 0.0, 1e200, 1.0, 0.0])
        z_star = np.array([1.0, -0.5, 0.0, 1.0, 0.0, 0.0])
        prev = PreviousSolution(np.zeros(1), s_star, z_star)
        res = warmstart(prev, cones, overrides={k: {"lambda": 1.0, "mu0": 1e-3} for k in range(2)})
        assert res.fallback_blocks == [1]
        assert res.per_block[1].rule == "fallback"
        assert np.array_equal(res.s0[3:], unit_point(spec)[0])
        alone = smooth(spec, s_star[:3] - z_star[:3], 1e-3, hint=s_star[:3]).s
        assert np.array_equal(res.s0[:3], alone)
        assert res.per_block[0].rule == "override"

    @pytest.mark.parametrize(
        "spec", [ConeSpec.second_order(3), ConeSpec.psd_triangle(2)], ids=["soc", "psd"]
    )
    def test_closed_form_on_the_boundary_falls_back_alone(self, spec):
        # at mu0 = 1e-16 the closed form rounds many targets onto the
        # boundary, and the z0 of others rounds out of K*; each such block
        # falls back alone, and warmstart does not raise
        rng = np.random.default_rng(12)
        cones = ConeProduct((spec,) * 200)
        s_star, z_star = rng.normal(0.0, 2.0, (2, cones.dim))
        res = warmstart(
            PreviousSolution(np.zeros(1), s_star, z_star),
            cones,
            overrides={k: {"lambda": 1.0, "mu0": 1e-16} for k in range(200)},
        )
        alone = smooth(spec, (s_star - z_star).reshape(200, spec.dim), 1e-16).s
        assert set(np.flatnonzero(np.isnan(alone).any(axis=1))) < set(res.fallback_blocks)
        assert len(res.fallback_blocks) < 200
        assert cones.is_interior(res.s0) and cones.is_interior_dual(res.z0)

    def test_fallback_to_unit_points(self):
        # a previous point so extreme smoothing cannot converge is
        # replaced blockwise by the cold unit point at mu = 1
        cones = ConeProduct((ConeSpec.exponential(),))
        bad = np.array([1e300, 1e300, 1e300])
        prev = PreviousSolution(np.array([1.0]), bad, -bad)
        res = warmstart(prev, cones, overrides={0: {"mu0": 1e-6}})
        assert res.fallback_blocks == [0]
        assert res.per_block[0].rule == "fallback"
        assert res.per_block[0].lam == 1.0
        assert res.per_block[0].mu0 == 1.0
        assert is_interior(cones.blocks[0], res.s0)


class TestCertification:
    @pytest.mark.parametrize("kind", ["nonneg", "soc", "psd", "exp", "pow"])
    def test_certified_on_random_pairs(self, kind):
        rng = np.random.default_rng(17)
        hits = 0
        for _ in range(60):
            spec = make_spec(kind, rng)
            cones = ConeProduct((spec,))
            s_star = random_interior(spec, rng)
            z_star = random_interior(spec, rng, scale=0.5)
            if not is_interior_dual(spec, z_star):
                continue
            hits += 1
            prev = PreviousSolution(np.array([1.0]), s_star, z_star)
            mu0 = float(np.exp(rng.uniform(math.log(1e-10), math.log(1e-2))))
            res = warmstart(prev, cones, overrides={0: {"mu0": mu0}})
            if res.fallback_blocks:
                continue
            report = certify_central_path(res, cones)
            assert report.ok, (kind, mu0, report)
        assert hits >= 30

    def test_complementarity_identity(self):
        # <s0, z0> = nu * mu0 / lam exactly, by the gradient form of z0
        rng = np.random.default_rng(18)
        cones = ConeProduct((ConeSpec.nonnegative(5),))
        s_star = rng.uniform(0.5, 2.0, 5)
        z_star = rng.uniform(0.5, 2.0, 5)
        prev = PreviousSolution(np.array([1.0]), s_star, z_star)
        res = warmstart(prev, cones, overrides={0: {"mu0": 1e-5}})
        blk = res.per_block[0]
        assert math.isclose(
            float(res.s0 @ res.z0), blk.nu * blk.mu0 / blk.lam, rel_tol=1e-12
        )

    def test_zero_only_not_applicable(self):
        cones = ConeProduct((ConeSpec.zero(2),))
        prev = PreviousSolution(np.array([1.0]), np.zeros(2), np.array([3.0, -1.0]))
        res = warmstart(prev, cones)
        report = certify_central_path(res, cones)
        assert report.ok  # vacuously
        assert all(not b.applicable for b in report.blocks)

    def test_tampered_point_fails(self):
        cones = ConeProduct((ConeSpec.nonnegative(3),))
        prev = PreviousSolution(np.array([1.0]), np.ones(3), np.ones(3))
        res = warmstart(prev, cones, overrides={0: {"mu0": 1e-4}})
        res.z0[0] *= 1.5  # break the gradient alignment
        report = certify_central_path(res, cones)
        assert not report.ok


class TestEqualShiftIdentity:
    def test_shift_symmetry(self):
        # s0 - s* = lam*(z0 - z*) up to the smoothing residual: both sides
        # express the same smoothing displacement
        rng = np.random.default_rng(19)
        cones = ConeProduct((ConeSpec.nonnegative(4),))
        s_star = rng.uniform(0.5, 3.0, 4)
        z_star = rng.uniform(0.5, 3.0, 4)
        prev = PreviousSolution(np.array([1.0]), s_star, z_star)
        res = warmstart(prev, cones, overrides={0: {"mu0": 1e-6}})
        lam = res.per_block[0].lam
        c = s_star - lam * z_star
        scale = max(1.0, float(np.linalg.norm(c)))
        shift_s = res.s0 - s_star
        shift_z = lam * (res.z0 - z_star)
        assert np.linalg.norm(shift_s - shift_z) <= 1e-8 * scale


class TestResidualBounds:
    def make_active_lp(self):
        # x* = (1, 1) active at both rows: s* ~ 0, z* = (1, 1) > 0,
        # strictly complementary
        prob = nn_problem([1.0, 1.0], [-1.0, -1.0])
        prev = PreviousSolution(
            np.array([1.0, 1.0]),
            np.array([1e-9, 1e-9]),
            np.array([1.0, 1.0]),
            problem=prob,
        )
        return prob, prev

    def test_bounds_hold_on_lp(self):
        prob, prev = self.make_active_lp()
        res = warmstart(prev, prob.cones)
        report = residual_bound_check(prev, res, prob)
        assert report.applicable
        assert report.satisfied
        assert report.actual <= report.bound

    def test_not_applicable_when_mu_overridden(self):
        prob, prev = self.make_active_lp()
        res = warmstart(prev, prob.cones, overrides={0: {"mu0": 0.5}})
        report = residual_bound_check(prev, res, prob)
        assert not report.applicable
        assert "mu0" in report.reason
        assert report.satisfied is None

    def test_not_applicable_on_mixed_composition(self):
        cones = ConeProduct((ConeSpec.nonnegative(1), ConeSpec.second_order(3)))
        prob = ConicProblem(
            P=sp.csc_matrix((1, 1)),
            A=sp.csc_matrix(np.ones((4, 1))),
            q=np.zeros(1),
            b=np.ones(4),
            cones=cones,
        )
        prev = PreviousSolution(
            np.zeros(1),
            np.array([1.0, 2.0, 0.5, 0.5]),
            np.array([1.0, 2.0, -0.5, -0.5]),
            problem=prob,
        )
        res = warmstart(prev, cones)
        report = residual_bound_check(prev, res, prob)
        assert not report.applicable
        assert "one non-Zero cone family" in report.reason

    def test_psd_bound_with_zero_column_pinned(self):
        # A has an all-zero column and a column with structural zeros; the
        # PSD bound reads A's stored columns, and the report keeps the
        # values it had when the bound densified A's block rows
        rng = np.random.default_rng(31)
        cones = ConeProduct((ConeSpec.psd_triangle(3),))
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        s = svec((Q * np.array([1.5, 0.7, 0.0])) @ Q.T)
        z = svec((Q * np.array([0.0, 0.0, 2.0])) @ Q.T)
        column = np.array([[0.5], [0.0], [-1.0], [0.25], [0.0], [2.0]])
        A = sp.hstack([-sp.eye(6), sp.csc_matrix((6, 1)), sp.csc_matrix(column)]).tocsc()
        x = np.linspace(-1.0, 1.0, 8)
        prob = ConicProblem(
            P=sp.csc_matrix((8, 8)),
            q=-(A.T @ z),
            A=A,
            b=s + A @ x + 1e-3 * np.array([1.0, -1.0, 0.5, -0.5, 1.0, -1.0]),
            cones=cones,
        )
        prev = PreviousSolution(x, s, z, problem=prob)
        report = residual_bound_check(prev, warmstart(prev, cones), prob)
        assert (report.family, report.applicable, report.reason) == ("psd", True, None)
        pinned = {
            "bound": 0.007428571428571433,
            "actual": 0.002151758213718935,
            "mu0": 0.0010000000000000009,
            "r_star_inf": 0.0010000000000000009,
            "delta_s_inf": 0.0011517582137190452,
            "delta_s_bound": 0.0014285714285714292,
        }
        for name, value in pinned.items():
            assert math.isclose(getattr(report, name), value, rel_tol=1e-12), name
        assert report.satisfied

    def test_residuals_stay_small_after_warmstart(self):
        prob, prev = self.make_active_lp()
        res = warmstart(prev, prob.cones)
        r = residual_map(prob, res.x0, res.s0, res.z0)
        # the warm point's residual stays within a small multiple of the
        # previous residual plus the warmstart displacement
        shift = float(
            np.linalg.norm(res.s0 - prev.s_star, np.inf)
            + np.linalg.norm(res.z0 - prev.z_star, np.inf)
        )
        r_prev = residual_infinity(prob, prev.x_star, prev.s_star, prev.z_star)
        bound = 2.0 * (r_prev + shift)
        assert np.linalg.norm(r.r_p, np.inf) <= bound
        assert np.linalg.norm(r.r_d, np.inf) <= bound


class TestProximity:
    def test_on_path_point_has_rho_mu(self):
        # for z = mu * (-grad f(s)), rho = nu / <grad f(s), grad f*(z)>
        # evaluates to exactly mu
        cones = ConeProduct((ConeSpec.nonnegative(3),))
        s = np.array([1.0, 2.0, 0.5])
        mu = 0.3
        z = -mu * barrier_gradient(cones.blocks[0], s)
        rho = ipm.evaluate(cones, s, z, mu)[1]
        assert np.allclose(rho, mu, rtol=1e-10)

    def test_off_path_point_has_smaller_rho(self):
        cones = ConeProduct((ConeSpec.nonnegative(2),))
        s = np.array([1.0, 1.0])
        z = np.array([2.0, 0.5])  # <s,z>/nu = 1.25 but rho < that
        mu_agg = float(s @ z) / 2
        rho = ipm.evaluate(cones, s, z, mu_agg)[1]
        assert rho[0] < mu_agg

    def test_warmstart_passes_tight_proximity(self):
        cones = ConeProduct((ConeSpec.nonnegative(4),))
        rng = np.random.default_rng(20)
        prev = PreviousSolution(
            np.array([1.0]), rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4)
        )
        res = warmstart(prev, cones, overrides={0: {"mu0": 1e-6}})
        report = proximity(res, cones, beta=0.99)
        assert report.all_ok

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("side", ["s0", "z0"])
    def test_exterior_or_non_finite_block_raises(self, side, bad):
        # ipm.evaluate tests nothing; proximity tests the warmstart's point first
        cones = ConeProduct((ConeSpec.zero(1), ConeSpec.nonnegative(2), ConeSpec.second_order(3)))
        prev = PreviousSolution(np.array([1.0]), np.r_[0.0, np.ones(5)], np.ones(6))
        res = warmstart(prev, cones, overrides={1: {"mu0": 1e-4}, 2: {"mu0": 1e-4}})
        assert proximity(res, cones).all_ok
        for i in (2, 5):  # a nonneg entry, an SOC entry
            bent = dataclasses.replace(res, **{side: getattr(res, side).copy()})
            getattr(bent, side)[i] = bad
            with pytest.raises(BoundaryOrExterior):
                proximity(bent, cones)

    def test_beta_validation(self):
        cones = ConeProduct((ConeSpec.nonnegative(2),))
        prev = PreviousSolution(np.array([1.0]), np.ones(2), np.ones(2))
        res = warmstart(prev, cones, overrides={0: {"mu0": 1e-4}})
        with pytest.raises(Unsupported):
            proximity(res, cones, beta=0.0)

    def test_all_zero_composition_rejected(self):
        cones = ConeProduct((ConeSpec.zero(2),))
        prev = PreviousSolution(np.array([1.0]), np.zeros(2), np.ones(2))
        res = warmstart(prev, cones)
        with pytest.raises(NotApplicable):
            proximity(res, cones)

    def test_zero_blocks_skipped(self):
        cones = ConeProduct((ConeSpec.zero(2), ConeSpec.nonnegative(2)))
        s = np.array([0.0, 0.0, 1.0, 1.0])
        z = np.array([4.0, -2.0, 1.0, 1.0])
        rho = ipm.evaluate(cones, s, z, 1.0)[1]
        assert math.isnan(rho[0])
        assert rho[1] > 0

    def test_rho_is_the_gradient_pairing_bitwise(self):
        # proximity's rho is ipm.evaluate's; it equals nu_i/<grad f(s_i), grad f*(z_i)>
        # from the checked kernels bit for bit, on and off the central path
        rng = np.random.default_rng(29)
        specs = [ConeSpec.zero(2), ConeSpec.nonnegative(3), ConeSpec.nonnegative(3)]
        specs += [make_spec(kind, rng) for kind in ("soc", "psd", "exp")] + [ConeSpec.power(0.4)] * 2
        cones = ConeProduct(specs)
        s_star = np.concatenate([random_interior(spec, rng) for spec in specs[1:]])
        z_star = np.concatenate([random_interior(spec, rng) for spec in specs[1:]])
        prev = PreviousSolution(np.ones(1), np.r_[0.0, 0.0, s_star], np.r_[1.0, -1.0, z_star])
        res = warmstart(prev, cones, overrides={k: {"mu0": 1e-3} for k in range(1, len(specs))})
        assert res.fallback_blocks == []
        # off the path: z0 = -grad f at other interior points, still in int K*
        off = dataclasses.replace(res, z0=res.z0.copy())
        for _, spec, sl in cones.barrier_blocks:
            off.z0[sl] = -barrier_gradient(spec, random_interior(spec, rng))
        for point in (res, off):
            expected = np.full(len(specs), np.nan)
            for b in cones.barrier_batches:
                gs = barrier_gradient(b.spec, b.rows(point.s0))
                gz = conjugate_gradient(b.spec, b.rows(point.z0))
                expected[b.blocks.start : b.blocks.stop] = b.degree / np.vecdot(gs, gz)
            rho = proximity(point, cones).rho
            assert math.isnan(rho[0])
            assert rho.tobytes() == expected.tobytes()
