"""Tests for period-dominating sprays and the control continuation."""

import numpy as np
import pytest

from minflux import loops as lp
from minflux import sprays as sp
from minflux.errors import (
    ContinuationStalled,
    DegenerateLoop,
    LeftDomain,
    ThirdComponentVanishes,
)


def catenoid_loop(n=256):
    x = np.arange(n) / n
    w = np.exp(2j * np.pi * x)
    f = np.stack(
        [0.5 * (1.0 / w - w), 0.5j * (1.0 / w + w), np.ones(n, complex)], axis=1
    )
    return 2j * np.pi * f


def rotated_family(n_t=4):
    base = catenoid_loop()
    out = []
    for k in range(n_t):
        t = 0.1 * k
        c, s = np.cos(t), np.sin(t)
        v = base.copy()
        v[:, 0] = c * base[:, 0] - s * base[:, 1]
        v[:, 1] = s * base[:, 0] + c * base[:, 1]
        out.append(v)
    return out


SEG = lp.Segment(0.0, 0.25)


@pytest.fixture(scope="module")
def spray():
    return sp.build_spray(rotated_family(), SEG)


@pytest.fixture(scope="module")
def spray_fixed():
    return sp.build_spray_fixed_third(rotated_family(), SEG)


class TestBuildSpray:
    def test_identity_at_zero_is_exact(self, spray):
        w = np.zeros(spray.dim_w, dtype=complex)
        for k in range(spray.n_t):
            out = spray.deform(k, w)
            assert np.array_equal(out[0], spray.base[k])

    def test_locality_outside_segment(self, spray):
        w = 0.1 * np.ones(spray.dim_w, dtype=complex)
        n = spray.base[0].shape[0]
        x = np.arange(n) / n
        support = np.zeros(n, dtype=bool)
        for _, prof in spray.controls:
            support |= prof != 0.0
        assert np.all(support <= SEG.contains(x))  # bumps sit in the segment
        out = spray.deform(0, w)[0]
        assert np.array_equal(out[~support], spray.base[0][~support])

    def test_deformation_stays_on_quadric(self, spray):
        from minflux import nullquadric as nq

        w = (0.2 + 0.1j) * np.ones(spray.dim_w, dtype=complex)
        vals = spray.deform(0, w)[0]
        scale = np.max(np.abs(vals)) ** 2
        assert np.max(nq.null_residual(vals)) <= 1e-10 * scale

    def test_jacobian_dominates_at_every_t(self, spray):
        for k in range(spray.n_t):
            J = sp.period_jacobian(spray, k)
            sv = np.linalg.svd(J, compute_uv=False)
            assert sv[-1] > sp.SIGMA_MIN

    def test_degenerate_loop_rejected(self):
        flat = np.tile(np.array([1.0, 1j, 0.0]), (256, 1))
        with pytest.raises(DegenerateLoop):
            sp.build_spray([flat], SEG)


class TestFixedThird:
    def test_third_component_untouched(self, spray_fixed):
        w = (0.3 - 0.2j) * np.ones(spray_fixed.dim_w, dtype=complex)
        out = spray_fixed.deform(0, w)[0]
        assert np.array_equal(out[:, 2], spray_fixed.base[0][:, 2])

    def test_quadric_preserved_exactly(self, spray_fixed):
        from minflux import nullquadric as nq

        w = (0.3 - 0.2j) * np.ones(spray_fixed.dim_w, dtype=complex)
        vals = spray_fixed.deform(0, w)[0]
        scale = np.max(np.abs(vals)) ** 2
        assert np.max(nq.null_residual(vals)) <= 1e-12 * scale

    def test_rank_on_first_two_components(self, spray_fixed):
        for k in range(spray_fixed.n_t):
            J = sp.period_jacobian(spray_fixed, k)
            assert J.shape[0] == 2
            sv = np.linalg.svd(J, compute_uv=False)
            assert sv[-1] > sp.SIGMA_MIN

    def test_equals_gauss_map_formula(self, spray_fixed):
        # oracle: the closed-form Gauss-map control, (z1 - i z2) e^(-t) and
        # (-z1 - i z2) e^(t), is the 1-2 rotation at angle -i t, so
        # deform(k, w) applies it with t = i w prof
        rng = np.random.default_rng(5)
        m = spray_fixed.dim_w
        w = 0.3 * (rng.normal(size=m) + 1j * rng.normal(size=m))
        for k in range(spray_fixed.n_t):
            vals = spray_fixed.base[k].copy()
            for (_, prof), wj in zip(spray_fixed.controls, 1j * w):
                t = wj * prof
                u = (vals[:, 0] - 1j * vals[:, 1]) * np.exp(-t)
                v = (-vals[:, 0] - 1j * vals[:, 1]) * np.exp(t)
                vals[:, 0] = 0.5 * (u - v)
                vals[:, 1] = 0.5j * (u + v)
            out = spray_fixed.deform(k, w)[0]
            assert np.max(np.abs(out - vals)) <= 1e-14 * np.max(np.abs(vals))

    def test_vanishing_third_rejected(self):
        # spinors a = 1, b = sin(2 pi x): third component 2ab has a zero
        # inside the segment while the loop stays nondegenerate there
        n = 256
        x = np.arange(n) / n
        b = np.sin(2 * np.pi * x).astype(complex)
        bad = np.stack([1.0 - b * b, 1j * (1.0 + b * b), 2.0 * b], axis=1)
        with pytest.raises(ThirdComponentVanishes):
            sp.build_spray_fixed_third([bad], SEG)


class TestSingleCurve:
    """A spray has one curve: the domain has one homology generator."""

    @pytest.mark.parametrize(
        "build", [sp.build_spray, sp.build_spray_fixed_third]
    )
    def test_two_curve_family_rejected(self, build):
        second = [2.0 * v for v in rotated_family()]
        with pytest.raises(ValueError, match="one \\(N, 3\\) loop"):
            build([rotated_family(), second], SEG)

    @pytest.mark.parametrize(
        "build", [sp.build_spray, sp.build_spray_fixed_third]
    )
    def test_segment_list_rejected(self, build):
        with pytest.raises(ValueError, match="one Segment"):
            build(rotated_family(), [SEG, lp.Segment(0.5, 0.75)])


class TestSolveW:
    def test_trivial_targets_zero_path(self, spray):
        targets = np.stack(
            [spray.periods(k, np.zeros(spray.dim_w)) for k in range(spray.n_t)]
        )
        path = sp.solve_w(spray, sp.PeriodTargets(targets))
        assert path.shape == (spray.n_t, spray.dim_w)
        assert np.all(path == 0)

    def test_small_ramp_tracked(self, spray):
        rng = np.random.default_rng(3)
        w_star = 0.02 * (rng.normal(size=spray.dim_w) + 1j * rng.normal(size=spray.dim_w))
        fracs = np.linspace(0.0, 1.0, spray.n_t)
        targets = np.stack(
            [spray.periods(k, f * w_star) for k, f in enumerate(fracs)]
        )
        path = sp.solve_w(spray, sp.PeriodTargets(targets))
        res = max(
            float(np.linalg.norm(spray.periods(k, path[k]) - targets[k]))
            for k in range(spray.n_t)
        )
        assert res <= sp.TOL_PERIOD

    def test_targets_not_met_at_zero(self, spray):
        targets = np.stack(
            [spray.periods(k, np.zeros(spray.dim_w)) for k in range(spray.n_t)]
        )
        targets[0] += 1.0
        with pytest.raises(ValueError):
            sp.solve_w(spray, sp.PeriodTargets(targets))

    def test_unreachable_ramp_fails_cleanly(self, spray):
        targets = np.stack(
            [spray.periods(k, np.zeros(spray.dim_w)) for k in range(spray.n_t)]
        )
        targets[-1] += 50.0
        with pytest.raises((ContinuationStalled, LeftDomain)):
            sp.solve_w(spray, sp.PeriodTargets(targets))

    def test_read_only_targets_left_unchanged(self, spray, monkeypatch):
        # the full-step solve of each step fails once, which forces
        # sub-stepping through blended targets; they must not be written
        # into the caller's array.  loops._substep recurses into itself
        # through the module, so the patch passes the inner calls
        # (depth < 6) through and wraps each step's first call only.
        substep, solves = lp._substep, []

        def full_step_fails(solve, a, b, x, depth=6):
            if depth < 6:
                return substep(solve, a, b, x, depth)
            calls = []

            def failing_once(target, w):
                calls.append(target)
                return None if len(calls) == 1 else solve(target, w)

            out = substep(failing_once, a, b, x)
            solves.append(len(calls))
            return out

        monkeypatch.setattr(lp, "_substep", full_step_fails)
        # half the scale of the ramp that leaves the trust radius, so the
        # whole path is solved
        rng = np.random.default_rng(3)
        w_star = 0.1 * (rng.normal(size=spray.dim_w) + 1j * rng.normal(size=spray.dim_w))
        fracs = np.linspace(0.0, 1.0, spray.n_t)
        targets = np.stack(
            [spray.periods(k, f * w_star) for k, f in enumerate(fracs)]
        )
        before = targets.copy()
        targets.flags.writeable = False
        path = sp.solve_w(spray, sp.PeriodTargets(targets))
        assert path.shape == (spray.n_t, spray.dim_w)
        assert solves == [3] * (spray.n_t - 1)
        assert np.array_equal(targets, before)

    def test_one_continuation_per_solve(self, spray, monkeypatch):
        calls, continue_ = [], lp._continue

        def counted(*args):
            calls.append(args)
            return continue_(*args)

        monkeypatch.setattr(lp, "_continue", counted)
        targets = np.stack(
            [spray.periods(k, np.zeros(spray.dim_w)) for k in range(spray.n_t)]
        )
        sp.solve_w(spray, sp.PeriodTargets(targets))
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["spray", "spray_fixed"])
    def test_one_flow_sweep_per_newton_point(self, name, request, monkeypatch):
        # each (loop, w) point the Newton solves visit costs one flow
        # sweep, and the Jacobian there reads that sweep's tape: a solve
        # ends at its last residual point, and the next solve on the same
        # loop starts there
        spray = request.getfixturevalue(name)
        rng = np.random.default_rng(5)
        w_star = 0.1 * (rng.normal(size=spray.dim_w)
                        + 1j * rng.normal(size=spray.dim_w))
        fracs = np.linspace(0.0, 1.0, spray.n_t)
        targets = np.stack(
            [spray.periods(k, f * w_star) for k, f in enumerate(fracs)]
        )
        points, sweeps, tapes, reads = set(), [], [], []
        newton, deform, jacobian = lp._newton, lp._flow_deform, lp._flow_jacobian

        def traced_newton(residual, *args):
            def recorded(x):
                out = residual(x)
                # the residual swept (loop, x) now, or read the last sweep
                assert sweeps[-1][1] == x.tobytes()
                points.add(sweeps[-1])
                return out

            return newton(recorded, *args)

        def traced_deform(values, controls, w):
            sweeps.append((id(values), w.tobytes()))
            out = deform(values, controls, w)
            tapes.append(out[1])
            return out

        def traced_jacobian(tape, weights):
            reads.append(tape is tapes[-1])
            return jacobian(tape, weights)

        monkeypatch.setattr(lp, "_newton", traced_newton)
        monkeypatch.setattr(lp, "_flow_deform", traced_deform)
        monkeypatch.setattr(lp, "_flow_jacobian", traced_jacobian)
        sp.solve_w(spray, sp.PeriodTargets(targets))
        assert len(points) > spray.n_t
        assert len(sweeps) == len(points)
        assert set(sweeps) == points
        assert len(reads) >= spray.n_t - 1 and all(reads)

    @pytest.mark.parametrize("name", ["spray", "spray_fixed"])
    def test_sweeps_at_full_resolution(self, name, request, monkeypatch):
        # the raised-cosine bumps are resolved only at the loop's own
        # sample count: solve_w takes no coarse level
        spray = request.getfixturevalue(name)
        w_star = 0.05 * np.ones(spray.dim_w, dtype=complex)
        targets = np.stack(
            [spray.periods(k, f * w_star)
             for k, f in enumerate(np.linspace(0.0, 1.0, spray.n_t))]
        )
        sizes, deform = [], lp._flow_deform

        def traced_deform(values, controls, w):
            sizes.append(len(values))
            return deform(values, controls, w)

        monkeypatch.setattr(lp, "_flow_deform", traced_deform)
        sp.solve_w(spray, sp.PeriodTargets(targets))
        assert len(sizes) >= spray.n_t - 1
        assert set(sizes) == {spray.base[0].shape[0]}

    def test_unreachable_third_target_rejected(self, spray_fixed):
        # a fixed-third spray never moves the third period, so a third
        # target off the base loop's is unreachable, not dropped
        targets = np.stack(
            [spray_fixed.periods(k, np.zeros(spray_fixed.dim_w))
             for k in range(spray_fixed.n_t)]
        )
        targets[1:, 0, 2] += 1.0
        with pytest.raises(ValueError, match="step 1 misses .* by 1"):
            sp.solve_w(spray_fixed, sp.PeriodTargets(targets))

    def test_flows_looked_up_through_loops(self, spray, monkeypatch):
        # the tracer wraps loops._flow_deform: LoopSpray.periods reaches it
        # through the module
        calls, flow_deform = [], lp._flow_deform

        def counted(*args):
            calls.append(args)
            return flow_deform(*args)

        monkeypatch.setattr(lp, "_flow_deform", counted)
        spray.periods(0, np.zeros(spray.dim_w))
        assert len(calls) == 1

    def test_targets_shape_normalization(self):
        flat = np.zeros((4, 3), dtype=complex)
        t = sp.PeriodTargets(flat)
        assert t.values.shape == (4, 1, 3)
