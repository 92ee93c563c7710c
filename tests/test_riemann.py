"""Tests for the annulus, its homology generator and the loop extension."""

import numpy as np
import pytest

from minflux import isotopy as iso
from minflux import loops as lp
from minflux import nullquadric as nq
from minflux import riemann as rm
from minflux import weierstrass as wz
from minflux.errors import ApproximationBudgetExceeded, VanishingOnDomain


def catenoid_restriction(n=256):
    cat = wz.catalog("catenoid")
    chart = rm.homology_basis(rm.annulus())[0]
    return iso.restrict_data(cat, chart, n=n)


class TestAnnulus:
    @pytest.mark.parametrize(
        "r_inner, r_outer", [(0.0, 2.0), (-0.5, 2.0), (2.0, 1.0), (1.0, 1.0),
                             (float("nan"), 2.0)]
    )
    def test_bad_radii_rejected(self, r_inner, r_outer):
        with pytest.raises(ValueError):
            rm.annulus(r_inner, r_outer)

    def test_frozen(self):
        dom = rm.annulus(0.5, 2.0)
        assert dom == rm.Annulus(0.5, 2.0)
        with pytest.raises(AttributeError):
            dom.r_inner = 0.1


class TestHomologyBasis:
    def test_annulus_midpoint_radius(self):
        (chart,) = rm.homology_basis(rm.annulus(0.5, 2.0))
        assert np.isclose(chart.radius, 1.0)  # geometric mean of 0.5 and 2

    def test_winding_matrix_is_identity(self):
        # the generator winds once around the hole and not around the
        # outer complement
        chart = rm.homology_basis(rm.annulus(0.3, 3.0))[0]
        pts = wz.circle(chart.radius, 256)
        # about z0, the winding of the shifted curve pts - z0 about 0
        assert rm.winding_number(pts) == 1
        assert rm.winding_number(pts - 0.2) == 1
        assert rm.winding_number(pts - 3.5) == 0


class TestWindingNumber:
    def test_basic(self):
        z = np.exp(2j * np.pi * np.arange(128) / 128)
        assert rm.winding_number(z) == 1
        assert rm.winding_number(z - 2.0) == 0
        assert rm.winding_number(np.concatenate([z, z])) == 2


class TestRestrictToCurve:
    """isotopy.restrict_data samples f theta against the chart form."""

    def test_constant_triple_dz(self):
        chart = rm.homology_basis(rm.annulus())[0]
        data = wz.WeierstrassData(1.0, 1.0, theta="dz")  # f = (0, i, 1)
        loop = iso.restrict_data(data, chart, n=256)
        # integral of a constant against dz over a closed curve vanishes
        assert np.allclose(lp.period(loop), 0.0, atol=1e-13)

    def test_constant_triple_dz_over_z(self):
        chart = rm.homology_basis(rm.annulus())[0]
        data = wz.WeierstrassData(1.0, 1.0, theta="dz/z")
        loop = iso.restrict_data(data, chart, n=256)
        assert np.allclose(lp.period(loop), 2j * np.pi * np.array([0, 1j, 1]))

    def test_catenoid_period(self):
        loop = catenoid_restriction()
        assert np.allclose(lp.period(loop), [0, 0, 2j * np.pi], atol=1e-12)

    def test_refinement_stability(self):
        p1 = lp.period(catenoid_restriction(256))
        p2 = lp.period(catenoid_restriction(512))
        assert np.linalg.norm(p1 - p2) < 1e-12

    def test_bad_theta(self):
        # the form is checked once, when the data are built
        with pytest.raises(ValueError, match="theta"):
            wz.WeierstrassData(1.0, 1.0, theta="dz^2")


class TestRungeExtend:
    def test_catenoid_exact_recovery(self):
        dom = rm.annulus()
        cat = wz.catalog("catenoid")
        chart = rm.homology_basis(dom)[0]
        loop = catenoid_restriction()
        ext = rm.runge_extend(loop, dom)
        assert ext.parity == 1
        assert ext.meta["degree"] == 16
        assert ext.meta["sup_error"] <= 1e-12
        # off-sample circle agreement with the generating data
        # (theta = dz/z, so the chart factor 2 pi i z / z is constant)
        z = wz.circle(chart.radius, 777)
        target = cat.f(z) * 2j * np.pi
        assert np.max(np.abs(ext(z) - target)) <= 1e-8
        # whole-annulus grid agreement
        grid = wz.annulus_grid(dom.r_inner, dom.r_outer, n_r=32, n_th=128)
        assert np.max(np.abs(ext(grid) - cat.f(grid) * 2j * np.pi)) <= 1e-6

    def test_extension_is_exactly_null(self):
        dom = rm.annulus()
        ext = rm.runge_extend(catenoid_restriction(), dom)
        grid = wz.annulus_grid(dom.r_inner, dom.r_outer, n_r=16, n_th=64)
        vals = ext(grid)
        scale = np.max(np.abs(vals)) ** 2
        assert np.max(nq.null_residual(vals)) <= 1e-12 * scale

    def test_default_grid_is_annulus_grid(self):
        dom = rm.annulus(0.6, 1.8)
        chart = rm.homology_basis(dom)[0]
        m = rm.LaurentMap(wz.LaurentSeries([1.0]), wz.LaurentSeries([0.2, 0.5]))
        loop = lp.PeriodicPath(m(wz.circle(chart.radius, 256)))
        ext = rm.runge_extend(loop, dom)
        # the default grid is the annulus grid of the weierstrass module
        grid = wz.annulus_grid(dom.r_inner, dom.r_outer)
        mods = np.sum(np.abs(ext(grid)) ** 2, axis=-1)
        assert ext.meta["min_grid_mod"] == pytest.approx(mods.min(), rel=1e-12)

    def test_parity_one_grid_mod_is_the_triple_mod(self):
        # the spinor modulus 2 (|a|^2 + |b|^2)^2 carries the factor
        # (r / scale)^2 of the half-integer twist on each ring
        dom = rm.annulus(0.6, 1.8)
        chart = rm.homology_basis(dom)[0]
        m = rm.LaurentMap(wz.LaurentSeries([1.0]), wz.LaurentSeries([0.2, 0.5]),
                          parity=1, scale=chart.radius)
        loop = lp.PeriodicPath(m(wz.circle(chart.radius, 256)))
        ext = rm.runge_extend(loop, dom)
        assert ext.parity == 1
        grid = wz.annulus_grid(dom.r_inner, dom.r_outer)
        mods = np.sum(np.abs(ext(grid)) ** 2, axis=-1)
        assert ext.meta["min_grid_mod"] == pytest.approx(mods.min(), rel=1e-12)
        # the minimum lies off the generator circle, where the twist
        # factor differs from 1
        rings = mods.reshape(wz.GRID_RADIAL, -1).min(axis=1)
        assert abs(wz._open_radii(0.6, 1.8, wz.GRID_RADIAL)[np.argmin(rings)]
                   - chart.radius) > 0.1

    @pytest.mark.parametrize("parity", [0, 1])
    def test_squared_modulus_is_the_triple_mod(self, parity):
        # one ring per row, from the blocks alone
        m = rm.LaurentMap(wz.LaurentSeries([1.0, 0.3j], -1),
                          wz.LaurentSeries([0.2, 0.5]), parity=parity,
                          scale=1.3)
        grid = wz.PolarGrid([0.6, 1.0, 1.8], 64)
        want = np.sum(np.abs(m(grid)) ** 2, axis=-1).reshape(3, 64)
        got = m.squared_modulus(grid)
        assert got.shape == (3, 64)
        assert np.max(np.abs(got - want) / want) <= 1e-14

    def test_period_matches_quadrature(self):
        dom = rm.annulus()
        chart = rm.homology_basis(dom)[0]
        loop = catenoid_restriction()
        ext = rm.runge_extend(loop, dom)
        z = wz.circle(chart.radius, 1024)
        quad = (ext(z) * (2j * np.pi * z)[:, None]).mean(axis=0)
        period = 2j * np.pi * np.array([c.residue for c in ext.components()])
        assert np.linalg.norm(period - quad) < 1e-10

    def test_idempotence(self):
        dom = rm.annulus()
        chart = rm.homology_basis(dom)[0]
        ext = rm.runge_extend(catenoid_restriction(), dom)
        loop2 = lp.PeriodicPath(ext(wz.circle(chart.radius, 256)))
        ext2 = rm.runge_extend(loop2, dom)
        assert ext2.parity == ext.parity
        pad = max(len(ext.a.coeffs), len(ext2.a.coeffs))

        def coeffs(series, k_min):
            out = np.zeros(2 * pad, dtype=complex)
            lo = series.k_min - k_min
            out[lo : lo + len(series.coeffs)] = series.coeffs
            return out

        k0 = min(ext.a.k_min, ext2.a.k_min)
        # extension of an extension reproduces the spinor blocks up to sign
        d_plus = np.max(np.abs(coeffs(ext.a, k0) - coeffs(ext2.a, k0)))
        d_minus = np.max(np.abs(coeffs(ext.a, k0) + coeffs(ext2.a, k0)))
        assert min(d_plus, d_minus) < 1e-10

    def test_perturbed_loop_extends(self):
        # analytic perturbation: rotation with a degree-1 trig profile
        loop = catenoid_restriction().values.copy()
        x = np.arange(loop.shape[0]) / loop.shape[0]
        t = 0.05 * np.cos(2 * np.pi * x)
        c, s = np.cos(t), np.sin(t)
        v0, v1 = loop[:, 0].copy(), loop[:, 1].copy()
        loop[:, 0] = c * v0 - s * v1
        loop[:, 1] = s * v0 + c * v1
        ext = rm.runge_extend(lp.PeriodicPath(loop), rm.annulus())
        assert ext.meta["sup_error"] <= 1e-6
        assert ext.parity == 1

    def test_budget_exceeded_on_rough_loop(self):
        loop = catenoid_restriction().values.copy()
        x = np.arange(loop.shape[0]) / loop.shape[0]
        t = 0.5 * lp.raised_cosine(x, 0.3, 0.04)  # only C^1: slow decay
        c, s = np.cos(t), np.sin(t)
        v0, v1 = loop[:, 0].copy(), loop[:, 1].copy()
        loop[:, 0] = c * v0 - s * v1
        loop[:, 1] = s * v0 + c * v1
        with pytest.raises(ApproximationBudgetExceeded):
            rm.runge_extend(lp.PeriodicPath(loop), rm.annulus(), tol=1e-13)

    def test_vanishing_extension_rejected(self):
        # spinor blocks with a common zero on a node of the verification
        # grid: open radius 13 of the annulus, at angle 0
        z0 = wz._open_radii(0.5, 2.0, wz.GRID_RADIAL)[13]
        a = wz.LaurentSeries([-z0, 1.0], 0)  # z - z0
        b = wz.LaurentSeries([-1j * z0, 1j], 0)  # i(z - z0)
        m = rm.LaurentMap(a, b)
        chart = rm.homology_basis(rm.annulus())[0]
        loop = lp.PeriodicPath(m(wz.circle(chart.radius, 256)))
        with pytest.raises(VanishingOnDomain):
            rm.runge_extend(loop, rm.annulus())


class TestLaurentMap:
    def test_parity_one_single_valued_and_null(self):
        rng = np.random.default_rng(5)
        a = wz.LaurentSeries(rng.normal(size=5) + 1j * rng.normal(size=5), -2)
        b = wz.LaurentSeries(rng.normal(size=4) + 1j * rng.normal(size=4), -1)
        m = rm.LaurentMap(a, b, parity=1)
        z = np.exp(2j * np.pi * np.arange(128) / 128)
        vals = m(z)
        scale = max(np.max(np.abs(vals)) ** 2, 1.0)
        assert np.max(nq.null_residual(vals)) <= 1e-12 * scale
        # single valued: closing the circle returns the same value
        assert np.allclose(m(z[:1]), m(z[:1] * np.exp(2j * np.pi)))

    def test_components_match_callable(self):
        rng = np.random.default_rng(6)
        a = wz.LaurentSeries(rng.normal(size=3), -1)
        b = wz.LaurentSeries(rng.normal(size=3), 0)
        for parity in (0, 1):
            m = rm.LaurentMap(a, b, parity=parity)
            z = np.array([0.7 + 0.1j, 1.4 - 0.3j])
            comp = np.stack([c(z) for c in m.components()], axis=-1)
            assert np.allclose(comp, m(z), atol=1e-13)

    def test_period_is_residue(self):
        # isotopy._spinor_member reads a member's period off these residues
        a = wz.LaurentSeries([1.0, 0.5], -1)
        b = wz.LaurentSeries([0.3, 2.0], 0)
        z = 1.2 * np.exp(2j * np.pi * np.arange(512) / 512)
        for parity in (0, 1):
            m = rm.LaurentMap(a, b, parity=parity, scale=1.3)
            quad = (m(z) * (2j * np.pi * z)[:, None]).mean(axis=0)
            res = 2j * np.pi * np.array([c.residue for c in m.components()])
            assert np.linalg.norm(res - quad) < 1e-12
