"""Tests for periodic paths, conformal pairs and the period lemmas."""

import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from minflux import isotopy as iso
from minflux import loops as lp
from minflux import nullquadric as nq
from minflux import sprays as sp
from minflux.errors import (
    EmptySegment,
    InvalidPair,
    NonFiniteValues,
    NotImmersion,
)
from minflux.weierstrass import PolarGrid


def circle_samples(n=256, radius=1.0):
    x = np.arange(n) / n
    return radius * np.stack(
        [np.cos(2 * np.pi * x), np.sin(2 * np.pi * x), np.zeros(n)], axis=1
    )


def catenoid_boundary_loop(n=256):
    """Boundary loop of the catenoid annulus chart on the unit circle."""
    x = np.arange(n) / n
    w = np.exp(2j * np.pi * x)
    f = np.stack(
        [0.5 * (1.0 / w - w), 0.5j * (1.0 / w + w), np.ones(n, complex)], axis=1
    )
    return 2j * np.pi * f  # multiply by dz/dx / z on |z| = 1


class TestPeriod:
    def test_pure_oscillation(self):
        n = 256
        x = np.arange(n) / n
        sig = np.stack(
            [np.exp(2j * np.pi * x), 1j * np.exp(2j * np.pi * x), np.zeros(n)],
            axis=1,
        )
        assert np.allclose(lp.period(lp.PeriodicPath(sig)), 0.0, atol=1e-14)

    def test_constant(self):
        sig = np.tile(np.array([1, 1j, 0], complex), (64, 1))
        assert np.allclose(lp.period(lp.PeriodicPath(sig)), [1, 1j, 0])

    def test_catenoid_loop_residue_oracle(self):
        # only the constant Fourier term survives; its third entry is 2 pi i
        per = lp.period(lp.PeriodicPath(catenoid_boundary_loop()))
        assert np.allclose(per, [0, 0, 2j * np.pi], atol=1e-12)

    @given(st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, a, b):
        rng = np.random.default_rng(9)
        s = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
        t = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
        lhs = lp.period(lp.PeriodicPath(a * s + b * t))
        rhs = a * lp.period(lp.PeriodicPath(s)) + b * lp.period(lp.PeriodicPath(t))
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_quadrature_convergence(self):
        for n in (256, 512):
            a = lp.period(lp.PeriodicPath(catenoid_boundary_loop(n)))
            b = lp.period(lp.PeriodicPath(catenoid_boundary_loop(2 * n)))
            assert np.linalg.norm(a - b) <= 1e-12


def central_difference_jacobian(values, controls, w, weights, h=1e-6):
    m = len(controls)
    cols = []
    for j in range(m):
        dw = np.zeros(m, dtype=complex)
        dw[j] = h
        plus = lp.read_out(weights, lp._flow_deform(values, controls, w + dw)[0])
        minus = lp.read_out(weights, lp._flow_deform(values, controls, w - dw)[0])
        cols.append((plus - minus) / (2.0 * h))
    return np.stack(cols, axis=1)


def forward_flow_jacobian(values, controls, w, weights):
    """Forward-mode reference Jacobian: one sweep carries one tangent per
    control.  At control k the new tangent is prof_k * G_k * out_k, with
    G_k the plane rotation generator or the identity (scaling), and every
    later control acts on the earlier tangents as it acts on the loop; the
    readouts of the tangents are the columns.  Cost O(m^2 N).  A scalar
    profile is constant."""
    v = np.asarray(values, dtype=complex)
    # state[0] is the deformed loop, state[k + 1] tangent k
    state = np.zeros((len(controls) + 1,) + v.shape, dtype=complex)
    state[0] = v
    for k, ((kind, prof, _), wk) in enumerate(zip(controls, w)):
        prof = np.broadcast_to(prof, v.shape[:1])
        state[: k + 1] = nq.flow(state[: k + 1], kind, wk * prof)
        loop = state[0]
        if kind == "scaling":
            state[k + 1] = prof[:, None] * loop
        else:
            i, j = int(kind[-2]) - 1, int(kind[-1]) - 1
            state[k + 1, :, i] = -prof * loop[:, j]
            state[k + 1, :, j] = prof * loop[:, i]
    return lp.read_out(weights, state[1:]).T


# the kind sets of build_spray and build_spray_fixed_third
SPRAY_KINDS = {
    "spray": ("rotation_12", "rotation_13", "rotation_23"),
    "spray_fixed_third": ("rotation_12", "rotation_12"),
}


def jacobian_case(family, seed, n):
    """Controls and readout weights of a Jacobian caller.

    driver: the flux drivers' controls, read by the period and the
    continuation's two normalisation rows (the e^(2 pi i x)-weighted means
    of components 1 and 2); spray kinds: bump controls read by the period
    rows of the spray."""
    weights = lp.period_weights(n)
    if family == "driver":
        controls = iso._driver_controls(PolarGrid([1.0], n))
        assert {kind for kind, _, _ in controls} == set(nq.FLOW_KINDS)
        e = np.exp(2j * np.pi * np.arange(n) / n)
        return controls, np.concatenate([weights, e[None, :, None] * weights[:2]])
    controls = sp._make_controls(
        lp.Segment(0.0, 0.25), n, np.random.default_rng(seed),
        SPRAY_KINDS[family],
    )
    return controls, weights[: 3 if family == "spray" else 2]


class TestFlowJacobian:
    @given(
        st.sampled_from(["driver", *SPRAY_KINDS]),
        st.integers(0, 2**16),
        st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 2.0 * np.pi)),
                 min_size=12, max_size=12),
    )
    # no shrinking: each trial costs 2m + 1 flow sweeps, so shrinking the
    # 12 polar pairs of a failing case would take minutes
    @settings(max_examples=40, deadline=None,
              phases=[p for p in Phase if p is not Phase.shrink])
    def test_matches_central_difference(self, family, seed, polar):
        n = 256
        controls, weights = jacobian_case(family, seed, n)
        w = np.array([r * np.exp(1j * phi) for r, phi in polar])[: len(controls)]
        v = catenoid_boundary_loop(n)
        exact = lp._flow_jacobian(
            lp._flow_deform(v, controls, w, tangents=True)[1], weights)
        assert exact.shape == (len(weights), len(controls))
        assert exact.flags.c_contiguous
        fd = central_difference_jacobian(v, controls, w, weights)
        assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(exact))

    @pytest.mark.parametrize("family", ["driver", *SPRAY_KINDS])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adjoint_matches_forward_mode(self, family, seed):
        # the sweep's forward tangents against the reference's, which
        # composes nq.flow
        n = 512
        controls, weights = jacobian_case(family, seed, n)
        rng = np.random.default_rng(100 + seed)
        m = len(controls)
        w = 0.5 * rng.uniform(size=m) * np.exp(2j * np.pi * rng.uniform(size=m))
        v = catenoid_boundary_loop(n)
        swept = lp._flow_jacobian(
            lp._flow_deform(v, controls, w, tangents=True)[1], weights)
        forward = forward_flow_jacobian(v, controls, w, weights)
        assert np.max(np.abs(swept - forward)) <= 1e-13 * np.max(np.abs(forward))

    def test_sweep_matches_flow(self):
        # the sweep composes nq.flow, control by control, and the tangents
        # ride along without changing the loop
        n = 256
        controls, _ = jacobian_case("driver", 0, n)
        w = 0.1 * np.exp(1j * np.arange(len(controls)))
        v = catenoid_boundary_loop(n)
        for k in range(len(controls) + 1):
            loop, tangents = lp._flow_deform(v, controls[:k], w[:k])
            ref = v
            for (kind, prof, _), wk in zip(controls[:k], w[:k]):
                ref = nq.flow(ref, kind, wk * prof)
            assert np.array_equal(loop, ref)
            assert tangents is None
            swept, tangents = lp._flow_deform(v, controls[:k], w[:k],
                                              tangents=True)
            assert np.array_equal(swept, loop)
            assert tangents.shape == (k,) + v.shape

    def test_read_out_is_the_period(self):
        v = catenoid_boundary_loop(256)
        stack = np.stack([v, 2.0 * v])
        got = lp.read_out(lp.period_weights(256), stack)
        assert np.max(np.abs(got - lp.period(stack))) <= 1e-14 * np.max(np.abs(stack))


def full_loop_sweep(values, controls, w, tangents):
    """The flow sweep acting on every sample for every control, whatever
    its span: the reference a span sweep must equal outside and inside
    the spans."""
    v = np.asarray(values, dtype=complex)
    state = np.zeros((len(controls) + 1 if tangents else 1,) + v.shape,
                     dtype=complex)
    state[0] = v
    for k, ((kind, prof, _), wk) in enumerate(zip(controls, w)):
        live = state[: k + 1]
        nq.flow_action(live, kind, nq.flow_factors(kind, wk * prof), out=live)
        if tangents:
            loop = state[0]
            if kind == "scaling":
                state[k + 1] = np.asarray(prof)[..., None] * loop
            else:
                i, j = int(kind[-2]) - 1, int(kind[-1]) - 1
                state[k + 1, :, i] = -prof * loop[:, j]
                state[k + 1, :, j] = prof * loop[:, i]
    return state[0], state[1:] if tangents else None


def span_cases(n):
    """Named control lists of every kind of span, on n samples."""
    x = np.arange(n) / n
    bump = lp.raised_cosine(x, 0.3, sp.BUMP_WIDTH / 2)
    rng = np.random.default_rng(3)
    wrapped = sp._make_controls(lp.Segment(0.9, 1.1), n, rng,
                                SPRAY_KINDS["spray"])
    drivers = iso._driver_controls(PolarGrid([1.0], n))
    # the coarse level of _continue: every 8th sample of each profile
    coarse = [lp.control(kind, prof[::8] if np.ndim(prof) else prof)
              for kind, prof, _ in drivers]
    return {
        "bump": [lp.control(kind, bump) for kind in nq.FLOW_KINDS],
        "wrapped": wrapped,
        "zero": [lp.control("rotation_13", np.zeros(n))],
        "drivers": drivers,
        "coarse": coarse,
        "mixed": [lp.control("rotation_12", bump), drivers[5],
                  lp.control("scaling", np.zeros(n)), wrapped[1], drivers[0]],
    }


class TestSpanSweep:
    @pytest.mark.parametrize(
        "case", ["bump", "wrapped", "zero", "drivers", "coarse", "mixed"])
    @pytest.mark.parametrize("tangents", [False, True])
    def test_equals_full_loop_sweep(self, case, tangents):
        n = 512
        controls = span_cases(n)[case]
        v = catenoid_boundary_loop(n // 8 if case == "coarse" else n)
        rng = np.random.default_rng(7)
        w = 0.3 * (rng.normal(size=len(controls))
                   + 1j * rng.normal(size=len(controls)))
        loop, tan = lp._flow_deform(v, controls, w, tangents)
        want_loop, want_tan = full_loop_sweep(v, controls, w, tangents)
        assert np.array_equal(loop, want_loop)
        if tangents:
            assert np.array_equal(tan, want_tan)
        else:
            assert tan is None

    def test_spans(self):
        n = 512
        cases = span_cases(n)
        # a bump of width BUMP_WIDTH is nonzero on 25 or 26 samples
        span = cases["bump"][0].span
        assert all(c.span == span for c in cases["bump"])
        assert 25 <= span.stop - span.start <= 26
        assert np.all(cases["bump"][0].profile[span] != 0.0)
        # the wrapped segment's middle bump crosses x = 0: its covering
        # slice is nearly the loop, so the span is full; the others sit
        # before and after x = 0
        spans = [c.span for c in cases["wrapped"]]
        assert spans[1] == slice(None)
        assert spans[0].start > n // 2 and 0 < spans[2].stop < n // 2
        assert cases["zero"][0].span == slice(0, 0)
        # the drivers' profiles (the scalar 1, cos and sin, which vanishes
        # at x = 0) have full spans at both resolutions
        assert all(c.span == slice(None)
                   for c in cases["drivers"] + cases["coarse"])
        for c in cases["bump"] + cases["wrapped"]:
            outside = np.ones(n, dtype=bool)
            outside[c.span] = False
            assert not np.any(c.profile[outside])

    def test_coarse_level_built_from_subsampled_profiles(self, monkeypatch):
        # _continue derives the coarse level's spans from the subsampled
        # profiles; for the drivers they are full
        levels, level = [], lp._level

        def recorded(controls, *args):
            levels.append(controls)
            return level(controls, *args)

        monkeypatch.setattr(lp, "_level", recorded)
        n = iso.N_S_DEFAULT
        v = catenoid_boundary_loop(n)
        controls = iso._driver_controls(PolarGrid([1.0], n))
        p0 = lp.period(v)
        targets = p0 + np.linspace(0.0, 1e-3, 3)[:, None] * np.array([1, 0, 0])
        lp._period_continuation(v, targets, controls)
        full, coarse = levels
        assert full is controls
        assert len(coarse) == len(controls)
        for c, fine in zip(coarse, controls):
            assert c.span == slice(None)
            want = fine.profile[:: n // lp.COARSE_SAMPLES] if np.ndim(
                fine.profile) else fine.profile
            assert np.array_equal(c.profile, want)


class TestPeriodicPath:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            lp.PeriodicPath(np.zeros((48, 3)))
        with pytest.raises(ValueError):
            lp.PeriodicPath(np.zeros((96, 3)))

    def test_resample_roundtrip(self):
        v = catenoid_boundary_loop(128)
        up = lp.resample(v, 512)
        back = lp.resample(up, 128)
        assert np.max(np.abs(back - v)) < 1e-12

    def test_fourier_derivative(self):
        n = 256
        x = np.arange(n) / n
        v = np.stack([np.sin(2 * np.pi * x), np.zeros(n), np.zeros(n)], axis=1)
        dv = lp.fourier_derivative(v)
        assert np.allclose(dv[:, 0], 2 * np.pi * np.cos(2 * np.pi * x), atol=1e-10)


class TestSegments:
    def test_contains_wraps(self):
        seg = lp.Segment(0.9, 1.1)
        assert seg.contains(0.95) and seg.contains(0.05)
        assert not seg.contains(0.5)


class TestConformalPair:
    def test_constant_pair_loop(self):
        n = 64
        hp = np.tile([1.0, 0.0, 0.0], (n, 1))
        g = np.tile([0.0, 1.0, 0.0], (n, 1))
        pair = lp.ConformalPair(h=np.zeros((n, 3)), g=g, hprime=hp).validate()
        assert np.allclose(pair.hprime + 1j * pair.g, [1, 1j, 0])

    def test_circle_pair_on_quadric(self):
        n = 256
        h = circle_samples(n) / (2 * np.pi)
        hp = lp.fourier_derivative(h)
        g = np.stack([-hp[:, 1], hp[:, 0], hp[:, 2]], axis=1)
        pair = lp.ConformalPair(h=h, g=g, hprime=hp).validate()
        loop = lp.PeriodicPath(pair.hprime + 1j * pair.g)
        assert np.max(nq.null_residual(loop.values)) < 1e-10
        assert np.linalg.norm(lp.period(loop).real) < 1e-12

    def test_invalid_pair_rejected(self):
        n = 64
        hp = np.tile([1.0, 0.0, 0.0], (n, 1))
        g = np.tile([0.5, 1.0, 0.0], (n, 1))
        pair = lp.ConformalPair(h=np.zeros((n, 3)), g=g, hprime=hp)
        with pytest.raises(InvalidPair):
            pair.validate()


class TestNondegenerateOn:
    def test_constant_is_degenerate(self):
        sig = np.tile(np.array([1, 1j, 0], complex), (256, 1))
        assert not lp.nondegenerate_on(lp.PeriodicPath(sig), lp.Segment(0.0, 0.5))

    def test_single_ray_is_degenerate(self):
        n = 256
        x = np.arange(n) / n
        sig = np.exp(2j * np.pi * x)[:, None] * np.array([1, 1j, 0])
        assert not lp.nondegenerate_on(lp.PeriodicPath(sig), lp.Segment(0.0, 0.5))

    def test_catenoid_loop_is_nondegenerate(self):
        path = lp.PeriodicPath(catenoid_boundary_loop())
        assert lp.nondegenerate_on(path, lp.Segment(0.0, 0.25))

    def test_empty_segment(self):
        path = lp.PeriodicPath(catenoid_boundary_loop())
        with pytest.raises((EmptySegment, ValueError)):
            lp.nondegenerate_on(path, lp.Segment(0.5, 0.5))


class TestZeroPeriodPair:
    def test_round_circle_spin_class_1(self):
        pair = lp.make_zero_period_pair(circle_samples(), spin_class=1)
        orth, norm = pair.residuals()
        assert orth.max() <= 1e-10 and norm.max() <= 1e-10
        assert np.linalg.norm(pair.g.mean(axis=0)) <= 1e-10
        assert nq.pi1_class(pair.hprime + 1j * pair.g) == 1

    def test_round_circle_spin_class_0(self):
        pair = lp.make_zero_period_pair(circle_samples(), spin_class=0)
        assert nq.pi1_class(pair.hprime + 1j * pair.g) == 0
        assert np.linalg.norm(pair.g.mean(axis=0)) <= 1e-10

    def test_scaling_invariance_of_residuals(self):
        p1 = lp.make_zero_period_pair(circle_samples(), spin_class=0)
        p2 = lp.make_zero_period_pair(3.0 * circle_samples(), spin_class=0)
        r1 = max(r.max() for r in p1.residuals())
        r2 = max(r.max() for r in p2.residuals())
        assert abs(r1 - r2) < 1e-12

    def test_derivative_constant_on_core_windows(self):
        # h' is one constant on [0, delta] and another on [2 delta, 3 delta]
        delta = lp.PAIR_DELTA
        pair = lp.make_zero_period_pair(circle_samples(), spin_class=0)
        n = pair.h.shape[0]
        x = np.arange(n) / n
        for lo, hi in ((0.0, delta), (2 * delta, 3 * delta)):
            win = pair.hprime[(x >= lo) & (x < hi)]
            assert np.max(np.linalg.norm(win - win[0], axis=1)) < 1e-12

    def test_sup_distance_reported(self):
        pair = lp.make_zero_period_pair(circle_samples(), spin_class=0)
        assert 0 < pair.meta["sup_distance"] < 1.0

    def test_nonimmersion_rejected(self):
        n = 128
        x = np.arange(n) / n
        bad = np.stack([np.cos(2 * np.pi * x) ** 2, np.zeros(n), np.zeros(n)], axis=1)
        with pytest.raises(NotImmersion):
            lp.make_zero_period_pair(bad, spin_class=0)

    @pytest.mark.parametrize(
        "kwargs, error, match",
        [
            ({"h0": circle_samples()[:, 0]}, ValueError, "h0"),
            ({"h0": circle_samples()[:, :2]}, ValueError, "h0"),
            ({"h0": np.where(np.arange(256)[:, None] == 5, np.nan, circle_samples())},
             NonFiniteValues, "h0"),
            ({"spin_class": 2}, ValueError, "spin_class"),
            ({"spin_class": -1}, ValueError, "spin_class"),
            ({"spin_class": 0.5}, ValueError, "spin_class"),
            ({"spin_class": "1"}, ValueError, "spin_class"),
            ({"spin_class": None}, ValueError, "spin_class"),
        ],
        ids=[
            "h0_1d", "h0_two_columns", "h0_nan_sample", "spin_class_2",
            "spin_class_minus_1", "spin_class_half", "spin_class_str",
            "spin_class_none",
        ],
    )
    def test_bad_input_typed(self, kwargs, error, match):
        # each bad input is rejected up front, before any FFT can warn
        args = {"h0": circle_samples(), "spin_class": 0, **kwargs}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=match):
                lp.make_zero_period_pair(**args)

    @pytest.mark.parametrize("as_path", [False, True], ids=["array", "path"])
    def test_non_real_h0_rejected(self, as_path):
        # a third component with imaginary part 0.3 cos 2 pi x used to be
        # dropped silently (a PeriodicPath) or with a ComplexWarning
        x = np.arange(256) / 256
        h0 = circle_samples().astype(complex)
        h0[:, 2] += 0.3j * np.cos(2 * np.pi * x)
        if as_path:
            h0 = lp.PeriodicPath(h0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="h0 must be real"):
                lp.make_zero_period_pair(h0, spin_class=0)

    def test_real_path_equals_real_array(self):
        p1 = lp.make_zero_period_pair(circle_samples(), spin_class=0)
        p2 = lp.make_zero_period_pair(lp.PeriodicPath(circle_samples()),
                                      spin_class=0)
        assert p1.g.tobytes() == p2.g.tobytes()
        assert p1.h.tobytes() == p2.h.tobytes()

    def test_work_counts(self, monkeypatch):
        # one transport for the fixed prefix and two per p-part; one
        # seed_grid call for the coarse grid and one period call per Newton
        # residual; the Jacobian is the builder's own, one per Newton step
        counts = {}

        def count(owner, name):
            inner = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(lp, "_transport_frame")
        count(lp._ZeroPeriodBuilder, "period")
        count(lp._ZeroPeriodBuilder, "seed_grid")
        count(lp._ZeroPeriodBuilder, "jacobian")
        lp.make_zero_period_pair(circle_samples(), spin_class=1)
        assert counts == {
            "_transport_frame": 13, "period": 5, "seed_grid": 1, "jacobian": 4,
        }


class TestNewton:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_one_step_is_least_norm(self, dtype):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(2, 5))
        b = rng.normal(size=2)
        if dtype is complex:
            A = A + 1j * rng.normal(size=(2, 5))
            b = b + 1j * rng.normal(size=2)
        x = lp._newton(
            lambda v: A @ v - b, lambda v: A, np.zeros(5, dtype), 1e-12, 1
        )
        assert x is not None and x.dtype == dtype
        assert np.max(np.abs(x - np.linalg.pinv(A) @ b)) <= 1e-14

    def test_unreachable_target_is_none(self):
        # b is outside the range of A: the least-squares point is reached
        # in one step, and no step can lower the residual below 1/sqrt(2)
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([0.0, 1.0])
        x = lp._newton(lambda v: A @ v - b, lambda v: A, np.zeros(2), 1e-12, 40)
        assert x is None

    @pytest.mark.parametrize(
        "target", [(0.5, 0.3), (0.99, 0.0), (1.0, 0.0), (2.0, 0.0), (-0.8, 0.9)]
    )
    def test_inf_residual_keeps_iterates_inside(self, target):
        target = np.array(target)
        inside = []

        def residual(v):
            if np.linalg.norm(v) >= 1.0:
                return np.full(2, np.inf)
            inside.append(v)
            return v - target

        x = lp._newton(residual, lambda v: np.eye(2), np.zeros(2), 1e-12, 60)
        if np.linalg.norm(target) < 1.0:
            assert x is not None and np.allclose(x, target, atol=1e-12)
        elif np.linalg.norm(target) > 1.0:
            assert x is None
        # a target on the sphere is approached from inside, to within tol
        assert x is None or np.linalg.norm(x) < 1.0
        assert all(np.linalg.norm(v) < 1.0 for v in inside)

    def test_cap_bounds_every_step(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(2, 4))
        b = 10.0 * rng.normal(size=2)
        seen = []

        def residual(v):
            seen.append(v)
            return A @ v - b

        cap = 0.25
        x = lp._newton(residual, lambda v: A, np.zeros(4), 1e-12, 200, cap=cap)
        assert x is not None
        assert np.max(np.abs(x - np.linalg.pinv(A) @ b)) <= 1e-12
        # a linear residual accepts every capped step, so each evaluated
        # point is the next iterate
        jumps = np.linalg.norm(np.diff(np.array(seen), axis=0), axis=1)
        assert len(jumps) > 4
        assert np.max(jumps) <= cap * (1.0 + 1e-12)
        assert np.isclose(jumps[0], cap)

    @staticmethod
    def short_jumps(limit, calls):
        # a solver that only manages jumps of at most limit
        def solve(target, x):
            calls.append((x, target))
            return target if abs(target - x) <= limit else None

        return solve

    def test_substep_reaches_b_through_midpoints(self):
        calls = []
        y = lp._substep(self.short_jumps(0.125, calls), 0.0, 1.0, 0.0)
        assert y == 1.0
        done = [(x, t) for x, t in calls if abs(t - x) <= 0.125]
        assert [t for _, t in done] == [k / 8 for k in range(1, 9)]

    def test_substep_none_once_depth_runs_out(self):
        solve = self.short_jumps(1.0 / 128, [])
        assert lp._substep(solve, 0.0, 1.0, 0.0) is None
        assert lp._substep(solve, 0.0, 1.0, 0.0, depth=7) == 1.0
        solve = self.short_jumps(0.125, [])
        assert lp._substep(solve, 0.0, 1.0, 0.0, depth=2) is None


def reference_transport_frame(unit_tangents, n1_start):
    """_transport_frame as first written: a sequential loop, one projection
    per sample, normalising by np.linalg.norm."""
    m = unit_tangents.shape[0]
    n1 = np.empty((m, 3))
    v = n1_start - (n1_start @ unit_tangents[0]) * unit_tangents[0]
    n1[0] = v / np.linalg.norm(v)
    for k in range(1, m):
        u = unit_tangents[k]
        v = n1[k - 1] - (n1[k - 1] @ u) * u
        n1[k] = v / np.linalg.norm(v)
    n2 = np.cross(unit_tangents, n1)
    return n1, n2


def reference_g_field(b, p, c, net_winding, refs):
    """The unmemoised g_field: both frames are transported on every call,
    by the library's transport, and g is assembled in one pass.

    refs holds the arctan2 branch references; the first call sets them, so
    callers make that call at p = 0, as the builder's constructor does.
    """

    def stable_angle(key, raw):
        if key not in refs:
            refs[key] = raw
            return raw
        base = refs[key]
        return base + (raw - base + np.pi) % (2.0 * np.pi) - np.pi

    n, d, x = b.n, b.delta, b.x
    hp = b.hprime(p)
    nh = np.linalg.norm(hp, axis=1)
    unit = hp / nh[:, None]
    g = np.empty((n, 3))
    g_core = b._core_g(p)[0]
    g[b.m_core] = g_core
    g[b.m_anti] = np.array([0.0, -1.0, 0.0])
    m_spin_1, m_spin_2 = b.spins
    idx = np.where(b.m_trans)[0]
    idx = np.concatenate([[idx[0] - 1], idx, [idx[-1] + 1]])
    n1, n2 = lp._transport_frame(unit[idx], g_core)
    target = np.array([0.0, -1.0, 0.0])
    th = stable_angle("trans", np.arctan2(target @ n2[-1], target @ n1[-1]))
    u = (x[idx] - d) / d
    alpha = (th + 2.0 * np.pi * m_spin_1) * lp.smooth_step(u)
    vals = nh[idx, None] * (
        np.cos(alpha)[:, None] * n1 + np.sin(alpha)[:, None] * n2
    )
    g[idx[1:-1]] = vals[1:-1]
    idx = b.idx_ext
    idx2 = np.concatenate([idx, [0]])
    tail = idx2[b.cut - 1 :] % n
    t1, t2 = lp._transport_frame(unit[tail], b.n1_pre[b.cut - 1])
    n1 = np.concatenate([b.n1_pre[: b.cut - 1], t1], axis=0)
    n2 = np.concatenate([b.n2_pre[: b.cut - 1], t2], axis=0)
    th = stable_angle("ext", np.arctan2(g_core @ n2[-1], g_core @ n1[-1]))
    xs = np.concatenate([x[idx], [1.0]])
    u = (xs - 3.0 * d) / (1.0 - 3.0 * d)
    alpha = (th + 2.0 * np.pi * (m_spin_2 + net_winding)) * lp.smooth_step(u)
    alpha = alpha + b._correction_bumps(u) @ c
    vals = np.linalg.norm(hp[idx2 % n], axis=1)[:, None] * (
        np.cos(alpha)[:, None] * n1 + np.sin(alpha)[:, None] * n2
    )
    g[idx] = vals[:-1]
    return g


def fresh_builder():
    """Builder on a field that is e1 on the flattened window and wiggles
    elsewhere, as make_zero_period_pair hands it over.  The builder always
    works at PAIR_SAMPLES samples and width PAIR_DELTA, as in the program."""
    n = lp.PAIR_SAMPLES
    x = np.arange(n) / n
    bump = lp.smooth_bump(x, 0.55, 0.3)
    w = np.stack(
        [
            np.ones(n),
            0.8 * bump * np.sin(4 * np.pi * x),
            0.8 * bump * (1.0 - np.cos(2 * np.pi * x)),
        ],
        axis=1,
    )
    return lp._ZeroPeriodBuilder(w, 0.1)


#: p-values for the memo tests: zero, two generic points, and a point whose
#: transition angle lies across the arctan2 cut from that of p = 0
P_POOL = (
    np.zeros(3),
    np.array([0.3, -0.2, 0.25]),
    np.array([-0.1, 0.15, 0.05]),
    np.array([0.0, 0.0, -0.1]),
)

_coeffs = st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4)


def smooth_unit_field(rng, m, max_turn=0.05):
    """Random walk on the sphere: consecutive unit vectors at most max_turn
    radians apart, as the pair builder's tangent fields are."""
    u = np.empty((m, 3))
    u[0] = rng.normal(size=3)
    u[0] /= np.linalg.norm(u[0])
    for k in range(1, m):
        r = rng.normal(size=3)
        r -= (r @ u[k - 1]) * u[k - 1]
        turn = rng.uniform(0.0, max_turn)
        u[k] = np.cos(turn) * u[k - 1] + np.sin(turn) * r / np.linalg.norm(r)
        u[k] /= np.linalg.norm(u[k])
    return u


class TestTransportFrame:
    # The prefix scan multiplies the projections in another order than the
    # sequential loop.  On smooth fields the two agree to rounding; on rough
    # fields the products are nearly rank one and rounding grows (up to
    # 7e-11 over 400 seeds), so there only the frame invariants are exact.

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4096))
    @example(0, 1)
    @example(1, 4096)
    @settings(max_examples=30, deadline=None)
    def test_matches_linalg_norm_version(self, seed, m):
        rng = np.random.default_rng(seed)
        tangents = smooth_unit_field(rng, m)
        start = rng.normal(size=3)
        got = lp._transport_frame(tangents, start)
        want = reference_transport_frame(tangents, start)
        assert np.max(np.abs(got[0] - want[0])) <= 1e-13
        assert np.max(np.abs(got[1] - want[1])) <= 1e-13

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_frame_invariants_on_arbitrary_fields(self, seed, m):
        rng = np.random.default_rng(seed)
        tangents = rng.normal(size=(m, 3))
        tangents /= np.linalg.norm(tangents, axis=1)[:, None]
        n1, n2 = lp._transport_frame(tangents, rng.normal(size=3))
        assert np.max(np.abs(np.linalg.norm(n1, axis=1) - 1.0)) <= 1e-13
        assert np.max(np.abs(np.sum(n1 * tangents, axis=1))) <= 1e-13
        assert np.max(np.abs(n2 - np.cross(tangents, n1))) <= 1e-13


_p_vectors = st.tuples(*[st.floats(-0.5, 0.5)] * 3).map(np.array).filter(
    lambda p: np.linalg.norm(p) <= 0.5
)


class TestZeroPeriodBuilderArithmetic:
    """period and jacobian reduce g in closed form; g_field is the
    reference."""

    @given(_p_vectors, _coeffs, st.integers(0, 1))
    @example(P_POOL[3], [0.0] * 4, 0)
    @settings(max_examples=30, deadline=None)
    def test_period_is_mean_of_g_field(self, p, c, winding):
        b = fresh_builder()
        b.net_winding = winding
        g = b.g_field(p, np.array(c))
        got = b.period(p, np.array(c))
        assert np.max(np.abs(got - g.mean(axis=0))) <= 1e-14 * np.abs(g).mean()

    @pytest.mark.parametrize("size", [13, 49])
    @pytest.mark.parametrize("winding", [0, 1])
    def test_seed_grid_equals_period_rows(self, winding, size):
        b = fresh_builder()
        b.net_winding = winding
        angles = np.linspace(-np.pi, np.pi, size)[:-1]
        got = b.seed_grid(angles)
        want = np.array([
            [b.period(np.zeros(3), np.array([a1, 0.0, 0.0, a4])) for a4 in angles]
            for a1 in angles
        ])
        assert got.shape == want.shape == (size - 1, size - 1, 3)
        scale = np.abs(b.g_field(np.zeros(3))).mean()
        assert np.max(np.abs(got - want)) <= 1e-14 * scale
        r_got = np.linalg.norm(got, axis=-1)
        r_want = np.linalg.norm(want, axis=-1)
        assert np.argmin(r_got) == np.argmin(r_want)

    def test_seed_grid_split_separates_the_moving_bumps(self):
        # at the program's PAIR_DELTA and PAIR_SAMPLES, the first and last
        # correction bumps have disjoint supports that the split separates
        b = fresh_builder()
        lo, hi = b.grid_split
        assert 0 < lo <= hi < len(b.bumps)
        assert not b.bumps[lo:, 0].any() and b.bumps[lo - 1, 0] > 0
        assert not b.bumps[:hi, -1].any() and b.bumps[hi, -1] > 0

    @given(_p_vectors, _coeffs, st.integers(0, 1))
    @example(P_POOL[3], [0.0] * 4, 0)
    @example(P_POOL[3], [0.5, -1.0, 2.0, -3.0], 1)
    @settings(max_examples=30, deadline=None)
    def test_jacobian_matches_central_differences(self, p, c, winding):
        b = fresh_builder()
        b.net_winding = winding
        q = np.concatenate([p, c])
        exact = b.jacobian(p, np.array(c))
        assert exact.shape == (3, 7)
        h = 1e-5
        fd = np.stack(
            [(b.period(*np.split(q + dq, [3])) - b.period(*np.split(q - dq, [3])))
             / (2.0 * h) for dq in h * np.eye(7)],
            axis=1,
        )
        # column by column, so that the small p-columns are held to it too
        scale = np.max(np.abs(exact), axis=0)
        assert np.all(np.max(np.abs(exact - fd), axis=0) <= 1e-6 * scale)


class TestZeroPeriodBuilderMemo:
    """The memoised g_field equals the unmemoised one, whatever the order."""

    @given(
        st.lists(
            st.tuples(st.integers(0, len(P_POOL) - 1), _coeffs, st.integers(0, 1)),
            min_size=1,
            max_size=8,
        )
    )
    @example([(0, [0.0] * 4, 0), (0, [0.5] * 4, 1), (0, [0.5] * 4, 0)])
    @example([(1, [0.0] * 4, 1), (1, [1.0] * 4, 0), (3, [0.0] * 4, 0)])
    @settings(max_examples=30, deadline=None)
    def test_equals_unmemoised_reference(self, calls):
        b = fresh_builder()
        refs = {}
        reference_g_field(b, np.zeros(3), np.zeros(4), 0, refs)
        for i, c, winding in calls:
            p, c = P_POOL[i].copy(), np.array(c)
            b.net_winding = winding
            want = reference_g_field(b, p, c, winding, refs)
            assert np.array_equal(b.g_field(p, c), want)

    def test_branch_reference_independent_of_call_order(self):
        p0, p1 = P_POOL[0], P_POOL[3]
        raw = []
        for p in (p0, p1):
            refs = {}
            reference_g_field(fresh_builder(), p, np.zeros(4), 0, refs)
            raw.append(refs["trans"])
        # the two raw transition angles lie on either side of the cut
        assert raw[0] > 3.0 and raw[1] < -3.0
        a, b = fresh_builder(), fresh_builder()
        a1, a0 = a.g_field(p1), a.g_field(p0)
        b0, b1 = b.g_field(p0), b.g_field(p1)
        assert np.array_equal(a0, b0)
        assert np.array_equal(a1, b1)
