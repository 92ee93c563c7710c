"""Tests for the null quadric geometry module."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minflux import nullquadric as nq
from minflux.errors import (
    NonFiniteValues,
    NotOnQuadric,
    UndersampledLoop,
    ZeroPoint,
)


def spinors(max_mag=3.0):
    part = st.floats(-max_mag, max_mag, allow_nan=False)
    return st.tuples(part, part, part, part).map(
        lambda t: (complex(t[0], t[1]), complex(t[2], t[3]))
    )


class TestNullResidual:
    def test_null_examples(self):
        assert nq.null_residual([1, 1j, 0]) == 0.0
        assert nq.null_residual([0, 2j, 2]) == 0.0

    def test_non_null_example(self):
        assert nq.null_residual([1, 0, 0]) == pytest.approx(1.0)

    def test_vectorized(self):
        z = np.array([[1, 1j, 0], [1, 0, 0]], dtype=complex)
        r = nq.null_residual(z)
        assert r.shape == (2,)
        assert r[0] == 0.0 and r[1] == pytest.approx(1.0)


class TestSpinorCover:
    def test_forward_examples(self):
        assert np.allclose(nq.spinor_to_null(1, 0), [1, 1j, 0])
        assert np.allclose(nq.spinor_to_null(1, 1), [0, 2j, 2])
        assert np.allclose(nq.spinor_to_null(0, 1), [-1, 1j, 0])

    def test_inverse_examples(self):
        a, b = nq._pointwise_spinor(np.array([1, 1j, 0]))
        assert (a, b) == (1, 0)
        a, b = nq._pointwise_spinor(np.array([0, 2j, 2]))
        assert abs(a - 1) < 1e-14 and abs(b - 1) < 1e-14

    def test_roundtrip_on_100_random_spinors(self):
        rng = np.random.default_rng(42)
        a, b = rng.normal(size=(2, 100)) + 1j * rng.normal(size=(2, 100))
        sa, sb = nq._pointwise_spinor(nq.spinor_to_null(a, b))
        same = np.abs(sa - a) + np.abs(sb - b)
        flip = np.abs(sa + a) + np.abs(sb + b)
        assert np.all(np.minimum(same, flip) < 1e-10 * (1 + np.abs(a) + np.abs(b)))

    def test_branch_rule(self):
        # the dominant component is the principal square root
        a, b = nq._pointwise_spinor(nq.spinor_to_null(-2.0, 1.0))
        assert a == 2.0 and b == -1.0

    @given(spinors())
    @settings(max_examples=60, deadline=None)
    def test_image_is_null(self, s):
        a, b = s
        z = nq.spinor_to_null(a, b)
        mag = abs(a) ** 2 + abs(b) ** 2
        assert nq.null_residual(z) <= 1e-14 * (1.0 + mag**2)


class TestFlow:
    def test_scaling_example(self):
        z = nq.flow(np.array([1, 1j, 0]), "scaling", np.log(2.0))
        assert np.allclose(z, [2, 2j, 0])

    def test_identity_at_zero(self):
        z0 = np.array([1, 1j, 0], dtype=complex)
        for kind in nq.FLOW_KINDS:
            assert np.allclose(nq.flow(z0, kind, 0.0), z0)

    def test_preserves_quadric_random_complex_times(self):
        rng = np.random.default_rng(3)
        z0 = np.array([1, 1j, 0], dtype=complex)
        for _ in range(50):
            t = complex(rng.normal(), rng.normal())
            assert nq.null_residual(nq.flow(z0, "rotation_12", t)) < 1e-10

    def test_group_law(self):
        rng = np.random.default_rng(5)
        z0 = nq.spinor_to_null(1.0 + 0.5j, -0.3 + 2.0j)
        for kind in nq.FLOW_KINDS:
            s = complex(rng.normal(), rng.normal())
            t = complex(rng.normal(), rng.normal())
            a = nq.flow(nq.flow(z0, kind, s), kind, t)
            b = nq.flow(z0, kind, s + t)
            assert np.allclose(a, b)

    @pytest.mark.parametrize("kind", nq.FLOW_KINDS)
    def test_per_sample_times(self, kind):
        # t broadcasts against z[..., 0]: sample k moves by its own t[k],
        # exactly as the scalar flow at that time
        rng = np.random.default_rng(11)
        z = nq.spinor_to_null(
            rng.normal(size=16) + 1j * rng.normal(size=16),
            rng.normal(size=16) + 1j * rng.normal(size=16),
        )
        t = rng.normal(size=16) + 1j * rng.normal(size=16)
        moved = nq.flow(z, kind, t)
        for k in range(16):
            assert np.array_equal(moved[k], nq.flow(z[k], kind, t[k]))
        # a (16, 1) time column acts on a (16, 4, 3) stack sample by sample
        stack = np.stack([z, 2 * z, 1j * z, -z], axis=1)
        moved = nq.flow(stack, kind, t[:, None])
        for c in range(4):
            assert np.array_equal(moved[:, c], nq.flow(stack[:, c], kind, t))


def _spinor_loop(n, winding_half_turns):
    x = np.arange(n) / n
    a = np.exp(1j * np.pi * winding_half_turns * x)
    b = np.zeros(n, dtype=complex)
    return nq.spinor_to_null(a, b + 0.2)


class TestPi1Class:
    def test_constant_loop(self):
        loop = np.tile(np.array([1, 1j, 0], dtype=complex), (64, 1))
        assert nq.pi1_class(loop) == 0

    def test_half_turn_spinor_loop(self):
        assert nq.pi1_class(_spinor_loop(256, 1)) == 1

    def test_full_turn_spinor_loop(self):
        assert nq.pi1_class(_spinor_loop(256, 2)) == 0

    def test_concatenation_squares_to_zero(self):
        loop = _spinor_loop(128, 1)
        doubled = np.concatenate([loop, loop], axis=0)
        assert nq.pi1_class(doubled) == 0

    def test_stable_under_resampling(self):
        for n in (64, 128, 256, 512, 1024):
            assert nq.pi1_class(_spinor_loop(n, 1)) == 1

    def test_undersampled_raises(self):
        # spinor phase advancing near a quarter turn per sample is ambiguous
        with pytest.raises(UndersampledLoop):
            nq.pi1_class(_spinor_loop(64, 33))

    def test_origin_rejected(self):
        loop = np.zeros((64, 3), dtype=complex)
        with pytest.raises(ZeroPoint):
            nq.pi1_class(loop)

    def test_off_quadric_rejected(self):
        loop = np.tile(np.array([1, 0, 0], dtype=complex), (64, 1))
        with pytest.raises(NotOnQuadric):
            nq.pi1_class(loop)

    def test_non_finite_rejected(self):
        # NaN passes both the quadric test and the margin test, so these
        # loops used to get a class (0 and 1)
        all_nan = np.full((64, 3), np.nan, dtype=complex)
        x = np.arange(256) / 256
        w = np.exp(2j * np.pi * x)
        catenoid = np.stack(
            [0.5 * (1.0 / w - w), 0.5j * (1.0 / w + w), np.ones(256, complex)],
            axis=1,
        )
        assert nq.pi1_class(catenoid) == 1
        catenoid[100, 0] = np.nan
        for loop in (all_nan, catenoid):
            with pytest.raises(NonFiniteValues):
                nq.pi1_class(loop)

    def test_overflowing_squares_rejected(self):
        # finite samples near 1e160 square to inf; the quadric test then
        # read inf / inf as NaN, which passed, and these loops got a class
        huge = _spinor_loop(256, 1) * 1e160
        one_huge = _spinor_loop(256, 1)
        one_huge[100] *= 1e160
        for loop in (huge, one_huge):
            assert np.all(np.isfinite(loop))
            with pytest.raises(NonFiniteValues, match="float range"):
                nq.pi1_class(loop)
