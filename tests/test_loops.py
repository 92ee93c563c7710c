"""Tests for periodic paths, conformal pairs and the period lemmas."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minflux import isotopy as iso
from minflux import loops as lp
from minflux import nullquadric as nq
from minflux.errors import (
    EmptySegment,
    InvalidPair,
    NotImmersion,
    SegmentOverlap,
)


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


def central_difference_jacobian(values, controls, w, h=1e-6):
    m = len(controls)
    J = np.empty((3, m), dtype=complex)
    for j in range(m):
        dw = np.zeros(m, dtype=complex)
        dw[j] = h
        plus = lp._flow_deform(values, controls, w + dw).mean(axis=0)
        minus = lp._flow_deform(values, controls, w - dw).mean(axis=0)
        J[:, j] = (plus - minus) / (2.0 * h)
    return J


class TestFlowJacobian:
    @given(
        st.sampled_from(["driver", "default"]),
        st.integers(0, 2**16),
        st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 2.0 * np.pi)),
                 min_size=12, max_size=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_central_difference(self, family, seed, polar):
        n = 256
        if family == "driver":
            controls = iso._driver_controls(n, seed=seed, jitter=0.1 * (seed % 3))
        else:
            fixed = lp.Segment(0.3, 0.45) if seed % 2 else None
            controls = lp._default_controls(n, fixed, np.random.default_rng(seed))
        assert {kind for kind, _ in controls} == set(lp._FLOW_SEQ)
        w = np.array([r * np.exp(1j * phi) for r, phi in polar])
        v = catenoid_boundary_loop(n)
        exact = lp._flow_jacobian(v, controls, w)
        fd = central_difference_jacobian(v, controls, w)
        assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(exact))


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

    def test_overlap(self):
        assert lp.Segment(0.1, 0.3).overlaps(lp.Segment(0.2, 0.4))
        assert not lp.Segment(0.1, 0.3).overlaps(lp.Segment(0.4, 0.6))


class TestConformalPair:
    def test_constant_pair_loop(self):
        n = 64
        hp = np.tile([1.0, 0.0, 0.0], (n, 1))
        g = np.tile([0.0, 1.0, 0.0], (n, 1))
        pair = lp.ConformalPair(h=np.zeros((n, 3)), g=g, hprime=hp)
        loop = lp.pair_to_loop(pair)
        assert np.allclose(loop.values, [1, 1j, 0])

    def test_circle_pair_on_quadric(self):
        n = 256
        h = circle_samples(n) / (2 * np.pi)
        hp = lp.fourier_derivative(h)
        g = np.stack([-hp[:, 1], hp[:, 0], hp[:, 2]], axis=1)
        pair = lp.ConformalPair(h=h, g=g, hprime=hp)
        loop = lp.pair_to_loop(pair)
        assert np.max(nq.null_residual(loop.values)) < 1e-10
        assert np.linalg.norm(lp.period(loop).real) < 1e-12

    def test_invalid_pair_rejected(self):
        n = 64
        hp = np.tile([1.0, 0.0, 0.0], (n, 1))
        g = np.tile([0.5, 1.0, 0.0], (n, 1))
        pair = lp.ConformalPair(h=np.zeros((n, 3)), g=g, hprime=hp)
        with pytest.raises(InvalidPair):
            lp.pair_to_loop(pair)


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
    def test_core_integral_vanishes_at_p_zero(self):
        assert np.allclose(lp.zero_family_core_integral(np.zeros(3), 0.1, 0.05), 0.0)

    def test_core_integral_formula(self):
        p = np.array([0.2, -0.1, 0.4])
        eps, delta = 0.1, 0.05
        val = lp.zero_family_core_integral(p, eps, delta)
        expect = eps * delta * (
            np.array([-p[1], p[0], p[2]])
            - eps * p[2] ** 2 / (1 + eps * p[0]) * np.array([1.0, 0.0, 0.0])
        )
        assert np.allclose(val, expect)

    def test_round_circle_spin_class_1(self):
        pair = lp.make_zero_period_pair(circle_samples(), spin_class=1, delta=0.05)
        orth, norm = pair.residuals()
        assert orth.max() <= 1e-10 and norm.max() <= 1e-10
        assert np.linalg.norm(pair.g.mean(axis=0)) <= 1e-10
        assert nq.pi1_class(pair.hprime + 1j * pair.g) == 1

    def test_round_circle_spin_class_0(self):
        pair = lp.make_zero_period_pair(circle_samples(), spin_class=0, delta=0.05)
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
        delta = 0.05
        pair = lp.make_zero_period_pair(circle_samples(), spin_class=0, delta=delta)
        n = pair.n_samples
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


def reference_transport_frame(unit_tangents, n1_start):
    """_transport_frame as first written, normalising by np.linalg.norm."""
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
    """The unmemoised g_field: both frames are transported on every call.

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
    g_core = b._core_g(p)
    g[b.m_core] = g_core
    g[b.m_anti] = np.array([0.0, -1.0, 0.0])
    m_spin_1, m_spin_2 = b.spins
    idx = np.where(b.m_trans)[0]
    idx = np.concatenate([[idx[0] - 1], idx, [idx[-1] + 1]])
    n1, n2 = reference_transport_frame(unit[idx], g_core)
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
    t1, t2 = reference_transport_frame(unit[tail], b.n1_pre[b.cut - 1])
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


def fresh_builder(n=1024, delta=0.05, eps=0.1):
    """Builder on a field that is e1 on the flattened window and wiggles
    elsewhere, as make_zero_period_pair hands it over."""
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
    return lp._ZeroPeriodBuilder(w, delta, eps, n)


#: p-values for the memo tests: zero, two generic points, and a point whose
#: transition angle lies across the arctan2 cut from that of p = 0
P_POOL = (
    np.zeros(3),
    np.array([0.3, -0.2, 0.25]),
    np.array([-0.1, 0.15, 0.05]),
    np.array([0.0, 0.0, -0.1]),
)

_coeffs = st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4)


class TestTransportFrame:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_matches_linalg_norm_version(self, seed, m):
        rng = np.random.default_rng(seed)
        tangents = rng.normal(size=(m, 3))
        tangents /= np.linalg.norm(tangents, axis=1)[:, None]
        start = rng.normal(size=3)
        got = lp._transport_frame(tangents, start)
        want = reference_transport_frame(tangents, start)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


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


@pytest.fixture(scope="module")
def catenoid_pair():
    return lp.loop_to_pair(catenoid_boundary_loop())


class TestPrescribePeriodIsotopy:
    def test_already_met_target_constant_family(self, catenoid_pair):
        v = catenoid_pair.g.mean(axis=0)
        fam = lp.prescribe_period_isotopy(
            catenoid_pair, v, fixed=lp.Segment(0.0, 0.25),
            nonflat_on=lp.Segment(0.5, 0.75),
        )
        assert all(f is catenoid_pair for f in fam)

    def test_catenoid_to_zero(self, catenoid_pair):
        fixed = lp.Segment(0.3, 0.45)
        fam = lp.prescribe_period_isotopy(
            catenoid_pair, np.zeros(3), fixed=fixed,
            nonflat_on=lp.Segment(0.6, 0.8),
        )
        assert len(fam) == 64
        assert fam[0] is catenoid_pair
        assert np.linalg.norm(fam[-1].g.mean(axis=0)) <= 1e-8
        for f in fam:
            orth, norm = f.residuals()
            assert orth.max() <= 1e-9 and norm.max() <= 1e-9
        # frozen segment
        n = catenoid_pair.n_samples
        x = np.arange(n) / n
        mask = fixed.contains(x)
        assert np.allclose(fam[-1].g[mask], catenoid_pair.g[mask], atol=1e-12)
        assert np.allclose(fam[-1].hprime[mask], catenoid_pair.hprime[mask], atol=1e-12)

    def test_overlapping_segments_rejected(self, catenoid_pair):
        with pytest.raises(SegmentOverlap):
            lp.prescribe_period_isotopy(
                catenoid_pair, np.zeros(3), fixed=lp.Segment(0.0, 0.5),
                nonflat_on=lp.Segment(0.4, 0.6),
            )


class TestConnectImmersions:
    def test_identical_endpoints(self):
        h = circle_samples()
        fam = lp.connect_immersions(h, h)
        assert np.array_equal(fam[0], h) and np.array_equal(fam[-1], h)
        assert all(np.allclose(f, h, atol=1e-12) for f in fam)

    def test_circle_to_double_circle(self):
        h0 = circle_samples()
        fam = lp.connect_immersions(h0, 2.0 * h0)
        speeds = [
            np.min(np.linalg.norm(lp.fourier_derivative(f), axis=1)) for f in fam
        ]
        assert min(speeds) >= 2 * np.pi - 1e-9

    def test_circle_to_ellipse(self):
        n = 256
        x = np.arange(n) / n
        ell = np.stack(
            [np.cos(2 * np.pi * x), 2.0 * np.sin(2 * np.pi * x), np.zeros(n)], axis=1
        )
        fam = lp.connect_immersions(circle_samples(n), ell, n_t=64)
        assert np.array_equal(fam[0], circle_samples(n))
        assert np.array_equal(fam[-1], ell)
        for f in fam:
            fine = lp.resample(f, 1024)
            speed = np.linalg.norm(lp.fourier_derivative(fine), axis=1)
            assert speed.min() > 0.0
