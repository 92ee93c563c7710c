"""Tests for the Weierstrass representation module."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minflux import isotopy as iso
from minflux import nullquadric as nq
from minflux import riemann as rm
from minflux import weierstrass as wz
from minflux.errors import (
    ApproximationBudgetExceeded,
    GaussMapVanishes,
    NonFiniteValues,
    RealPeriodNonzero,
    UnknownName,
)


class TestLaurentSeries:
    def test_evaluation(self):
        s = wz.LaurentSeries([1.0, 2.0, 3.0], -1)  # 1/z + 2 + 3z
        z = np.array([1.0, 2.0, 0.5j])
        assert np.allclose(s(z), 1 / z + 2 + 3 * z)

    def test_product_and_sum(self):
        a = wz.LaurentSeries([1.0], 1)  # z
        b = wz.LaurentSeries([1.0], -1)  # 1/z
        z = np.array([0.5, 2.0, 1j])
        assert np.allclose((a * b)(z), 1.0)
        assert np.allclose((a + b)(z), z + 1 / z)

    def test_residue(self):
        s = wz.LaurentSeries([5.0, 1.0, 2.0], -2)
        assert s.residue == 1.0
        assert wz.LaurentSeries([1.0], 0).residue == 0.0

    def test_exp_series(self):
        e = wz.LaurentSeries.exp_series()
        z = np.array([2.0, -2.0, 1j, 0.5 - 1.5j])
        assert np.allclose(e(z), np.exp(z), atol=1e-14)


def _random_series(rng, size, k_min):
    return wz.LaurentSeries(rng.normal(size=size) + 1j * rng.normal(size=size), k_min)


def _abs_sum(series, grid):
    """sum |c_k| r^k at each grid point: the scale of evaluation round-off."""
    k = series.k_min + np.arange(series.coeffs.size)
    per_radius = np.abs(series.coeffs) @ (grid.radii[:, None] ** k).T
    return np.repeat(per_radius, grid.n_th)


class TestPolarGrid:
    """Evaluation on a PolarGrid (by FFT) agrees with Horner on its points."""

    def test_points_are_annulus_grid(self):
        radii = np.linspace(0.5, 2.0, 10)[1:-1]
        grid = wz.PolarGrid(radii, 32)
        want = wz.annulus_grid(0.5, 2.0, 8, 32).points
        assert grid.points.tobytes() == want.tobytes()

    @pytest.mark.parametrize("radius", [0.5, 0.99, 1.0, 1.3])
    @pytest.mark.parametrize("n", [128, 512, 1024, 4096])
    def test_circle_is_one_ring_grid(self, radius, n):
        # the circle's points are the one-ring grid's, and keep the bits
        # of the closed form radius e^(2 pi i k / n)
        got = wz.circle(radius, n)
        assert got.tobytes() == wz.PolarGrid([radius], n).points.tobytes()
        closed = radius * np.exp(2j * np.pi * (np.arange(n) / n))
        assert got.tobytes() == closed.tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        k_min=st.integers(-80, 80),
        size=st.integers(1, 160),
        n_th=st.sampled_from([1, 3, 8, 17, 64]),
        r_in=st.floats(0.5, 1.0),
        r_out=st.floats(1.0, 2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_series_matches_horner(self, seed, k_min, size, n_th, r_in, r_out):
        # size up to 160 against n_th down to 1 folds many powers together
        s = _random_series(np.random.default_rng(seed), size, k_min)
        grid = wz.PolarGrid(np.linspace(r_in, r_out, 4), n_th)
        err = np.abs(s(grid) - s(grid.points))
        assert np.all(err <= 1e-12 * _abs_sum(s, grid))

    @given(seed=st.integers(0, 2**32 - 1), radius=st.floats(0.52, 1.98))
    @settings(max_examples=10, deadline=None)
    def test_degree_512_block(self, seed, radius):
        # the largest spinor block runge_extend fits
        s = _random_series(np.random.default_rng(seed), 1025, -512)
        grid = wz.PolarGrid([radius], 256)
        err = np.abs(s(grid) - s(grid.points))
        assert np.all(err <= 1e-12 * _abs_sum(s, grid))

    @given(seed=st.integers(0, 2**32 - 1), parity=st.sampled_from([0, 1]))
    @settings(max_examples=20, deadline=None)
    def test_laurent_map(self, seed, parity):
        rng = np.random.default_rng(seed)
        a, b = _random_series(rng, 21, -10), _random_series(rng, 17, -8)
        m = rm.LaurentMap(a, b, parity=parity, scale=1.3)
        grid = wz.PolarGrid(np.linspace(0.55, 1.95, 5), 64)
        twist = (np.abs(grid.points) / m.scale) ** parity
        scale = (_abs_sum(a, grid) ** 2 + _abs_sum(b, grid) ** 2) * twist
        err = np.abs(m(grid) - m(grid.points))
        assert np.all(err <= 1e-12 * scale[:, None])

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_quotient(self, seed):
        # b / a with a bounded away from 0 on the annulus
        rng = np.random.default_rng(seed)
        a = _random_series(rng, 9, -4) * 0.05 + 1.0
        b = _random_series(rng, 9, -4)
        q = wz.LaurentQuotient(b, a)
        grid = wz.PolarGrid(np.linspace(0.55, 1.95, 5), 64)
        ref = q(grid.points)
        av = np.abs(a(grid.points))
        scale = (_abs_sum(b, grid) + np.abs(ref) * _abs_sum(a, grid)) / av
        assert np.all(np.abs(q(grid) - ref) <= 1e-12 * scale)

    def test_other_callables_see_points(self):
        seen = []

        def g(z):
            seen.append(type(z))
            return np.full(np.shape(z), 2.0, dtype=complex)

        grid = wz.PolarGrid([0.7, 1.4], 16)
        data = wz.WeierstrassData(g, 1.0)
        assert data.f(grid).tobytes() == data.f(grid.points).tobytes()
        assert seen == [np.ndarray, np.ndarray]

    @pytest.mark.parametrize("name", ["catenoid", "enneper_annulus"])
    def test_theta_and_density_accept_a_grid(self, name):
        # theta/dz, f theta/dz and the density on a grid equal the same
        # calls on its points, up to the FFT's rounding of exact g and f3
        data = wz.catalog(name)
        grid = wz.PolarGrid([0.7, 1.2], 8)
        assert np.array_equal(
            data.theta_over_dz(grid), data.theta_over_dz(grid.points)
        )
        for fun in (data.f_theta, lambda z: wz.metric_density(data, z)):
            got, want = fun(grid), fun(grid.points)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


class TestAssembleF:
    def test_constant_example(self):
        f = wz.WeierstrassData(1.0, 1.0).f
        assert np.allclose(f(np.array([0.3 + 0.1j])), [[0, 1j, 1]])

    def test_catenoid_at_one(self):
        f = wz.WeierstrassData(wz.LaurentSeries([1.0], 1), 1.0).f
        assert np.allclose(f(np.array([1.0 + 0j])), [[0, 1j, 1]])

    def test_null_on_random_data(self):
        rng = np.random.default_rng(1)
        grid = wz.annulus_grid(n_r=16, n_th=64)
        g = wz.LaurentSeries(rng.normal(size=5) + 1j * rng.normal(size=5), -2) + 10.0
        f3 = wz.LaurentSeries(rng.normal(size=4), -1)
        vals = wz.WeierstrassData(g, f3).f(grid)
        assert np.max(nq.null_residual(vals)) <= 1e-12 * np.max(np.abs(vals)) ** 2

    def test_vanishing_gauss_map_rejected(self):
        with pytest.raises(GaussMapVanishes):
            wz.null_triple(np.array([1.0, 0.0, 2.0]), np.ones(3))


class TestGaussMap:
    """The assembled triple gives back g as f3 / (f1 - i f2)."""

    def test_roundtrip_on_circle(self):
        zs = wz.circle(1.0, 256)
        f = wz.WeierstrassData(wz.LaurentSeries([1.0], 1), 1.0).f(zs)
        assert np.max(np.abs(f[:, 2] / (f[:, 0] - 1j * f[:, 1]) - zs)) < 1e-13

    def test_catenoid_boundary(self):
        zs = wz.circle(1.0, 256)
        f = wz.catalog("catenoid").f(zs)
        assert np.max(np.abs(f[:, 2] / (f[:, 0] - 1j * f[:, 1]) - zs)) < 1e-12


class TestMetricDensity:
    def test_catenoid_unit_circle(self):
        cat = wz.catalog("catenoid")
        d = wz.metric_density(cat, wz.circle(1.0, 64))
        assert np.allclose(d, 1.0)

    def test_plane(self):
        pl = wz.catalog("vertical_plane")
        d = wz.metric_density(pl, np.array([0.7 + 0.1j]))
        assert np.allclose(d, 1.0)

    def test_dual_formula_consistency(self):
        rng = np.random.default_rng(2)
        grid = wz.annulus_grid(n_r=8, n_th=32)
        g = wz.LaurentSeries(rng.normal(size=3), 0) + 5.0
        f3 = wz.LaurentSeries(rng.normal(size=3), -1)
        data = wz.WeierstrassData(g, f3, theta="dz")
        direct = wz.metric_density(data, grid)
        gv, fv = np.abs(g(grid)), np.abs(f3(grid))
        classic = 0.25 * (1.0 / gv + gv) ** 2 * fv**2
        assert np.allclose(direct, classic, rtol=1e-12)


class TestDensity:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           theta=st.sampled_from(["dz", "dz/z"]))
    def test_is_half_the_squared_norm_of_f_theta(self, seed, theta):
        # the definition 0.5 |f theta/dz|^2, from the assembled triple
        rng = np.random.default_rng(seed)
        g = wz.LaurentSeries(rng.normal(size=4) + 1j * rng.normal(size=4), -2)
        f3 = wz.LaurentSeries(rng.normal(size=3) + 1j * rng.normal(size=3), -1)
        data = wz.WeierstrassData(g, f3, theta=theta)
        z = wz.annulus_grid(n_r=8, n_th=32)
        got = wz.density(g(z), f3(z) * data.theta_over_dz(z))
        want = 0.5 * np.sum(np.abs(data.f_theta(z)) ** 2, axis=-1)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


class TestFluxAndPeriods:
    def test_catenoid_flux(self):
        cat = wz.catalog("catenoid")
        assert np.allclose(wz.flux(cat, 1.0), [0, 0, 2 * np.pi], atol=1e-12)

    def test_enneper_flux_zero(self):
        enn = wz.catalog("enneper_annulus")
        assert np.allclose(wz.flux(enn, 1.0), 0.0, atol=1e-12)
        assert np.allclose(wz.real_period(enn, 1.0), 0.0, atol=1e-12)

    def test_helicoid_real_period(self):
        hel = wz.WeierstrassData(wz.LaurentSeries([1.0], 1), 1j, theta="dz/z")
        rp = wz.real_period(hel, 1.0)
        assert abs(rp[2] + 2 * np.pi) < 1e-12

    def test_flux_additivity_double_traversal(self):
        cat = wz.catalog("catenoid")
        once = wz.circle(1.0, 256)
        twice = np.concatenate([once, once])
        assert np.allclose(wz.flux(cat, twice), 2 * wz.flux(cat, once), atol=1e-12)


class TestIntegrateImmersion:
    def test_empty_path(self):
        cat = wz.catalog("catenoid")
        v = np.array([1.0, 2.0, 3.0])
        assert np.allclose(wz.integrate_immersion(cat, 1.0, v, 1.0), v)

    def test_two_homotopic_paths_agree(self):
        cat = wz.catalog("catenoid")
        up = [np.exp(1j * t) for t in np.linspace(0.4, 2.7, 5)]
        lo = [np.exp(-1j * t) for t in np.linspace(0.4, 2.7, 5)]
        a = wz.integrate_immersion(cat, 1.0, np.zeros(3), -1.0, path=up)
        b = wz.integrate_immersion(cat, 1.0, np.zeros(3), -1.0, path=lo)
        assert np.linalg.norm(a - b) <= 1e-10

    def test_enneper_loop_closes(self):
        enn = wz.catalog("enneper_annulus")
        loop = [np.exp(1j * t) for t in np.linspace(0.8, 5.5, 7)]
        back = wz.integrate_immersion(enn, 1.0, np.zeros(3), 1.0, path=loop)
        assert np.linalg.norm(back) <= 1e-12

    def test_real_period_blocks_integration(self):
        hel = wz.WeierstrassData(wz.LaurentSeries([1.0], 1), 1j, theta="dz/z")
        with pytest.raises(RealPeriodNonzero):
            wz.integrate_immersion(hel, 1.0, np.zeros(3), -1.0)

    def test_catenoid_closed_form(self):
        # u(z) = Re(-(1/z + z)/2, i(z - 1/z)/2, log z) up to the basepoint shift
        cat = wz.catalog("catenoid")
        def exact(z):
            return np.array(
                [-0.5 * (1 / z + z), 0.5j * (z - 1 / z), np.log(z)]
            ).real
        got = wz.integrate_immersion(cat, 1.0, exact(1.0 + 0j), 1.5 + 0.2j)
        assert np.allclose(got, exact(1.5 + 0.2j), atol=1e-11)


class TestExactPrimitive:
    @pytest.fixture(scope="class")
    def member(self):
        fam = iso.prescribe_flux(
            wz.catalog("catenoid"), np.array([0.3, -0.5, 9.0]), n_t=16
        )
        return fam.members[8]

    def test_paths_round_the_hole_agree_on_a_driver_member(self, member):
        a, b = 0.7 + 0.1j, -1.6 + 0.2j
        up = wz.integrate_immersion(member, a, np.zeros(3), b, path=[1.4j])
        down = wz.integrate_immersion(member, a, np.zeros(3), b, path=[-1.4j])
        assert np.linalg.norm(up - down) <= wz.TOL_PERIOD

    def test_array_target_equals_per_point_calls(self, member):
        z = np.array([[0.6 + 0.3j, -1.1j], [1.9 + 0.0j, -0.8 - 0.8j]])
        path = [1.2j, -1.0 + 0.1j]
        got = wz.integrate_immersion(member, 1.0, np.ones(3), z, path=path)
        assert got.shape == (2, 2, 3)
        for idx in np.ndindex(z.shape):
            one = wz.integrate_immersion(member, 1.0, np.ones(3), z[idx],
                                         path=path)
            np.testing.assert_allclose(got[idx], one, rtol=0, atol=1e-14)

    def test_non_finite_on_a_boundary_circle_raises(self):
        cat = wz.catalog("catenoid")

        def f3(z):
            # NaN on the outer circle only: the homology loop stays finite
            return np.where(np.isclose(np.abs(z), 2.0), np.nan, 1.0 + 0j)

        bad = wz.WeierstrassData(cat.g, f3, theta="dz/z")
        with pytest.raises(NonFiniteValues, match="boundary circles"):
            wz.integrate_immersion(bad, 1.0, np.zeros(3), 1.5)

    def test_series_missing_the_data_on_the_rims_raises(self):
        # f3 is constant on each boundary circle but not holomorphic: the
        # z^k, k < 0, read on the inner circle miss the outer one's
        cat = wz.catalog("catenoid")

        def f3(z):
            return 1.0 + 1e-3 * (np.abs(z) - 1.0) ** 2 + 0j

        bad = wz.WeierstrassData(cat.g, f3, theta="dz/z")
        with pytest.raises(ApproximationBudgetExceeded, match="sampled"):
            wz.integrate_immersion(bad, 1.0, np.zeros(3), 1.5)


class TestConformality:
    def test_assembled_is_conformal(self):
        cat = wz.catalog("catenoid")
        assert wz.conformality_residual(cat.f(cat.grid())) <= 1e-12

    def test_corruption_detected(self):
        cat = wz.catalog("catenoid")
        vals = cat.f(cat.grid())
        vals[..., 0] += 0.1
        assert wz.conformality_residual(vals) > 0.01

    def test_scale_invariance(self):
        cat = wz.catalog("catenoid")
        vals = cat.f(wz.circle(1.0, 64))
        assert wz.conformality_residual(vals) == wz.conformality_residual(2 * vals)


def nonvanishing_series(rng, k_min=-2, size=5):
    """A seeded Laurent series, zero-free on 1/2 <= |z| <= 2.

    Its z^0 coefficient (k_min <= 0 < k_min + size) has modulus at least
    1, and each other term at most 0.1 sqrt(2) there.
    """
    k = k_min + np.arange(size)
    c = 0.1 * (rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size))
    c = c / 2.0 ** np.abs(k)
    c[k == 0] = 1.0 + 0.5j * rng.uniform(-1, 1)
    return wz.LaurentSeries(c, k_min)


class OpaqueG(wz.WeierstrassData):
    """The same data, with g hidden behind a plain callable."""

    def __init__(self, data):
        exact = data.g
        super().__init__(lambda z: exact(z), data.f3, theta=data.theta,
                         r_inner=data.r_inner, r_outer=data.r_outer)


class TestIsFlat:
    def test_flat_exponential(self):
        assert wz.is_flat(wz.catalog("flat_exponential")) is True

    def test_catenoid_not_flat(self):
        assert wz.is_flat(wz.catalog("catenoid")) is False

    def test_polynomial_multiple_of_ray(self):
        # g = 1 as a plain callable: the sampled test on the data's grid,
        # where f = f3 null_triple(1, 1) is a multiple of one ray
        data = wz.WeierstrassData(1.0, wz.LaurentSeries([1.0, 0.0, 1.0]))
        assert wz.is_flat(data) is True

    def test_exact_g_takes_no_samples(self):
        class Unsampled(wz.WeierstrassData):
            def f(self, z):
                raise AssertionError("is_flat sampled exact data")

        c = 0.6 + 0.3j
        a = wz.LaurentSeries([0.1, 1.0, 0.1], -1)
        for g, flat in ((wz.LaurentQuotient(a * c, a), True),
                        (wz.LaurentSeries([c]), True),
                        (wz.LaurentQuotient(a, a + wz.LaurentSeries([c], 1)),
                         False)):
            assert wz.is_flat(Unsampled(g, 1.0, theta="dz/z")) is flat

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank_one=st.booleans())
    def test_coefficients_agree_with_samples(self, seed, rank_one):
        rng = np.random.default_rng(seed)
        den = nonvanishing_series(rng)
        if rank_one:
            c = rng.uniform(0.3, 3.0) * np.exp(2j * np.pi * rng.uniform())
            num = den * complex(c)
        else:
            num = nonvanishing_series(rng, k_min=int(rng.integers(-4, 1)))
        data = wz.WeierstrassData(
            wz.LaurentQuotient(num, den), nonvanishing_series(rng),
            theta="dz/z",
        )
        assert wz.is_flat(data) == wz.is_flat(OpaqueG(data)) == rank_one


class TestCatalogAndImmersion:
    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            wz.catalog("trinoid")

    def test_minimal_immersion_flux_cached(self):
        imm = wz.MinimalImmersion(wz.catalog("catenoid"))
        assert np.allclose(imm.flux, [0, 0, 2 * np.pi], atol=1e-12)

    def test_minimal_immersion_rejects_real_period(self):
        hel = wz.WeierstrassData(wz.LaurentSeries([1.0], 1), 1j, theta="dz/z")
        with pytest.raises(RealPeriodNonzero):
            wz.MinimalImmersion(hel)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_minimal_immersion_rejects_non_finite_density(self, value):
        # the catenoid's g with an f3 that is bad at one of the 64 x 256
        # grid points: a NaN density fails no comparison, an inf one
        # passes min()
        cat = wz.catalog("catenoid")

        def f3(z):
            v = np.ones(np.shape(z), dtype=complex)
            if v.size == wz.GRID_RADIAL * wz.GRID_ANGULAR:
                v[1000] = value
            return v

        with pytest.raises(NonFiniteValues, match="not finite"):
            wz.MinimalImmersion(wz.WeierstrassData(cat.g, f3, theta="dz/z"))

    def test_metric_positive_on_grid(self):
        for name in ("catenoid", "enneper_annulus", "flat_exponential"):
            data = wz.catalog(name)
            assert wz.metric_density(data, data.grid()).min() > 0
