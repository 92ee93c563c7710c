"""Tests for labyrinths, Lopez-Ros parameters, distances and the step."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from minflux import cli
from minflux import isotopy as iso
from minflux import labyrinth as lb
from minflux import weierstrass as wz
from minflux.errors import (
    BandTooThin,
    DisconnectedGraph,
    EstimateNotMet,
    FlatInput,
    GaussMapTooSmall,
    NoBandFound,
    NonFiniteValues,
)


def grid_rule(m, grid, labs=(), factor=None):
    """f and the density of base member m on a polar grid, or of its
    transform grown by factor on the walls of labs: the step's grid rule,
    applied to m alone and to every point of the grid."""
    g, f3 = wz._evaluate(m.g, grid), wz._evaluate(m.f3, grid)
    if factor is not None:
        g = lb._grown(g, lb._wall_mask(labs, grid.points), factor)
    return wz.null_triple(g, f3), wz.density(g, f3 * m.theta_over_dz(grid))


def point_rule(h, grid):
    """The same from member h's own callables on the grid's points, by
    Horner's scheme: the evaluation before the grid rule."""
    z = grid.points
    return h.f(z), wz.metric_density(h, z)


def wide_band():
    end = lb.AnnulusEnd(0, 0.2, 2.0)
    return lb.AnnulusBand(0, 0, 0.3, 1.9, end, (0.5, 1.0))


def ones_families(n=9):
    """An f3 family and a member family with g = f3 = 1 and theta = dz, as
    opaque callables, and their ts."""
    t = np.linspace(0.0, 1.0, n)
    f3 = [lambda z: np.ones_like(np.asarray(z, complex))] * n
    return f3, [wz.WeierstrassData(1.0, 1.0)] * n, t


class TestBuildLabyrinth:
    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_set_count(self, N):
        lab = lb.build_labyrinth(wide_band(), N)
        assert len(lab.sets) == 2 * N**2

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_radial_clearances_exact(self, N):
        lab = lb.build_labyrinth(wide_band(), N)
        sets = lab.sets  # ordered outermost to innermost
        for a, b in zip(sets, sets[1:]):
            assert a.rad_lo - b.rad_hi == pytest.approx(
                1.0 / (2.0 * N**3), abs=1e-15
            )

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_sets_disjoint_and_inside_band(self, N):
        band = wide_band()
        lab = lb.build_labyrinth(band, N)
        for s in lab.sets:
            assert band.r < s.rad_lo < s.rad_hi < band.R
        los = np.array([s.rad_lo for s in lab.sets])
        his = np.array([s.rad_hi for s in lab.sets])
        # intervals sorted outermost-in, so each must clear the next
        assert np.all(los[:-1] > his[1:])

    def test_band_too_thin(self):
        end = lb.AnnulusEnd(0, 1.3, 2.0)
        band = lb.AnnulusBand(0, 0, 1.4, 1.9, end, (0.5, 1.0))
        with pytest.raises(BandTooThin):
            lb.build_labyrinth(band, 2)  # 2/N = 1 > width 0.5

    def test_membership_matches_per_set(self):
        lab = lb.build_labyrinth(wide_band(), 3)
        rng = np.random.default_rng(1)
        w = (0.2 + 1.8 * rng.random(4000)) * np.exp(
            2j * np.pi * rng.random(4000)
        )
        slow = np.zeros(w.shape, dtype=bool)
        for s in lab.sets:
            slow |= s.contains_chart(w)
        assert np.array_equal(slow, lab.contains_chart(w))

    def test_openings_alternate_sides(self):
        N = 3
        lab = lb.build_labyrinth(wide_band(), N)
        # along the positive real axis, even walls are open (crossable)
        # and odd walls are closed; along the negative axis it is reversed
        mids = np.array([0.5 * (s.rad_lo + s.rad_hi) for s in lab.sets])
        on_pos = lab.contains_chart(mids + 0j)
        on_neg = lab.contains_chart(-mids + 0j)
        parities = np.array([s.n % 2 for s in lab.sets])
        assert np.array_equal(on_pos, parities == 1)
        assert np.array_equal(on_neg, parities == 0)

    def test_polygons_one_closed_outline_per_set(self):
        N = 2
        lab = lb.build_labyrinth(wide_band(), N)
        polys = lab.polygons()
        assert len(polys) == 2 * N**2
        for s, p in zip(lab.sets, polys):
            assert p[0] == p[-1]
            # the wall midpoint (mid radius, mid angle of the closed arc)
            sign = -1.0 if s.n % 2 else 1.0
            mid = sign * 0.5 * (s.rad_lo + s.rad_hi) * np.exp(1j * np.pi)
            assert lab.contains_chart(np.array([mid]))[0]


class TestFindBands:
    def test_constant_third_single_band_at_mid_radius(self):
        end = lb.AnnulusEnd(0, 1.3, 2.0)
        f3, _, t = ones_families()
        bands = lb.find_bands(f3, [end], t)
        assert len(bands) == 1
        mid = 0.5 * (bands[0].r + bands[0].R)
        assert mid == pytest.approx(0.5 * (end.r + end.R), abs=0.05)

    def test_moving_zero_avoided(self):
        # the zero of f_t^3 sweeps the radii [0.85, 0.9] over the bracket
        end = lb.AnnulusEnd(0, 0.5, 1.3)
        t = np.linspace(0.0, 1.0, 11)
        f3t = [lambda z, tt=tt: np.asarray(z, complex) - (0.8 + 0.1 * tt)
               for tt in t]
        bands = lb.find_bands(f3t, [end], t, width=0.2)
        assert len(bands) == 1
        b = bands[0]
        assert b.R < 0.85 or b.r > 0.9

    def test_no_band_found(self):
        # zeros spread so that every candidate window contains one
        end = lb.AnnulusEnd(0, 0.55, 1.15)
        zeros = np.arange(0.6, 1.15, 0.04)

        def f3(z):
            z = np.asarray(z, dtype=complex)
            out = np.ones_like(z)
            for a in zeros:
                out = out * (z - a)
            return out

        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(NoBandFound):
            lb.find_bands([f3] * 5, [end], t)

    def test_inversion_chart_band_radii_literal(self):
        end = lb.AnnulusEnd(0, 0.5, 0.8, kind="inversion", c=0.4)
        f3, _, t = ones_families()
        bands = lb.find_bands(f3, [end], t)
        assert end.r < bands[0].r < bands[0].R < end.R
        # the band's physical grid lies in the physical end annulus, on
        # circles whose chart radii run from r to R
        z = bands[0].grid(8, 16).points
        assert np.all((np.abs(z) > 0.5 - 1e-12) & (np.abs(z) < 0.8 + 1e-12))
        w = np.abs(end.to_chart(z))
        assert w.min() == pytest.approx(bands[0].r, rel=1e-14)
        assert w.max() == pytest.approx(bands[0].R, rel=1e-14)

    @pytest.mark.parametrize("zero, free", [(0.6, False), (0.75, True)])
    def test_inversion_window_zero_caught_on_grid(self, zero, free):
        # f3 = z - zero is exact, so its winding circles are one-ring polar
        # grids evaluated by FFT.  The chart window (0.55, 0.75) of the
        # inversion end w = 0.4/z holds z = 0.6 (w = 0.667), not z = 0.75
        # (w = 0.533)
        end = lb.AnnulusEnd(0, 0.5, 0.8, kind="inversion", c=0.4)
        band = lb.AnnulusBand(0, 0, 0.55, 0.75, end, (0.5, 1.0))
        f3 = wz.LaurentSeries([-zero, 1.0], 0)
        assert lb._window_zero_free(f3, band) == free
        if not free:
            # every candidate window of width 0.2 holds w = 0.667
            with pytest.raises(NoBandFound):
                lb.find_bands([f3] * 5, [end], np.linspace(0.0, 1.0, 5),
                              width=0.2)


class TestChooseParams:
    def test_lambda_oracle(self):
        # N = 2, c0 = 1, bracket start 1/2, margin LAMBDA_MARGIN = 1/4: the
        # growth target is 2 N^4 (1 + 1/4) = 40 and the smallest admissible
        # lambda is 78
        end = lb.AnnulusEnd(0, 1.3, 2.0)
        band = lb.AnnulusBand(0, 0, 1.4, 1.9, end, (0.5, 1.0))
        _, members, t = ones_families()
        p = lb.choose_params(members, [band], 2, t)
        assert p.lam == pytest.approx(78.0, abs=1e-12)
        assert p.c0 == pytest.approx(1.0, abs=1e-12)
        assert p.eps == pytest.approx(0.5, abs=1e-12)

    def test_gauss_map_too_small(self):
        end = lb.AnnulusEnd(0, 1.3, 2.0)
        band = lb.AnnulusBand(0, 0, 1.4, 1.9, end, (0.5, 1.0))
        t = np.linspace(0.0, 1.0, 9)
        tiny = [wz.WeierstrassData(1e-12, 1.0)] * len(t)
        with pytest.raises(GaussMapTooSmall):
            lb.choose_params(tiny, [band], 2, t)

    def test_epsilon_uses_chart_units(self):
        # inversion chart with c = 0.4: theta/dz = 1 but dz/dw = -c/w^2,
        # so the chart-unit integrand on |w| ~ 0.6 is about 1.1, not 1
        end = lb.AnnulusEnd(0, 0.5, 0.8, kind="inversion", c=0.4)
        band = lb.AnnulusBand(0, 0, 0.55, 0.75, end, (0.5, 1.0))
        _, members, t = ones_families()
        p = lb.choose_params(members, [band], 2, t)
        expect = 0.5 * 0.4 / 0.75**2
        assert p.eps == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("which", ["epsilon", "lambda"])
    def test_reverification_failure_is_typed(self, monkeypatch, which):
        # an overestimated sampled minimum makes the chosen parameter too
        # bold; the fine-grid re-verification must catch it, and name the
        # measured quantity and its bound: doubling gives eps = 1, or c0 = 4
        # and lam = 18, so at t = 1/2 the grown |g| is 20
        end = lb.AnnulusEnd(0, 1.3, 2.0)
        band = lb.AnnulusBand(0, 0, 1.4, 1.9, end, (0.5, 1.0))
        # g = 2 and f3 theta/dw = 1, so the sampled values tell which
        # minimum is taken
        t = np.linspace(0.0, 1.0, 9)
        members = [wz.WeierstrassData(2.0, 1.0)] * t.size
        real = lb._sampled_min

        def overestimate(probe, refine):
            is_g = real(probe, refine) == 2.0
            scale = 2.0 if is_g == (which == "lambda") else 1.0
            return scale * real(probe, refine)

        monkeypatch.setattr(lb, "_sampled_min", overestimate)
        measured = {
            "epsilon": r"min \|f3 theta/dw\| 1 <= eps 1$",
            "lambda": r"\(1 \+ lam t\) min \|g\| 20 < 2 N\^4 32$",
        }[which]
        with pytest.raises(
            EstimateNotMet, match=f"^walls stage: {which} inequality fails on "
            f"re-verification: {measured}"
        ):
            lb.choose_params(members, [band], 2, t)

    def test_reverification_of_bracket_without_samples(self, monkeypatch):
        # no t sample lies in (0.55, 0.6): both passes must check the
        # nearest sample, so the overestimate is still caught
        end = lb.AnnulusEnd(0, 1.3, 2.0)
        band = lb.AnnulusBand(0, 0, 1.4, 1.9, end, (0.55, 0.6))
        _, members, t = ones_families(2)
        real = lb._sampled_min
        monkeypatch.setattr(
            lb, "_sampled_min", lambda *a: 2.0 * real(*a)
        )
        with pytest.raises(EstimateNotMet):
            lb.choose_params(members, [band], 2, t)

    def test_invalid_params_typed(self):
        with pytest.raises(EstimateNotMet, match=r"^walls stage: invalid "
                           r"Lopez-Ros parameters lam 1, eps 0, c0 1: "):
            lb.LopezRosParams(lam=1.0, eps=0.0, c0=1.0)


class TestDeduplication:
    """Equal members are evaluated once; results must not depend on it."""

    def families(self, t):
        # one member, or one equal but distinct member per t; both take
        # the exact Laurent path, so the values are the same bits
        cat = wz.catalog("catenoid")

        def copy(s):
            return wz.LaurentSeries(s.coeffs, s.k_min)

        shared = [cat.f3] * t.size, [cat] * t.size
        f3s = [copy(cat.f3) for _ in t]
        separate = f3s, [
            wz.WeierstrassData(copy(cat.g), f3, theta=cat.theta) for f3 in f3s
        ]
        return shared, separate

    def test_bands_and_params_identical(self):
        t = np.linspace(0.0, 1.0, 9)
        shared, separate = self.families(t)
        assert len(lb._distinct(shared[0])) == len(lb._distinct(shared[1])) == 1
        assert len(lb._distinct(separate[0])) == t.size
        assert len(lb._distinct(separate[1])) == t.size
        ends = [
            lb.AnnulusEnd(0, 0.5, 0.8, kind="inversion", c=0.4),
            lb.AnnulusEnd(1, 1.3, 2.0),
        ]
        out = []
        for f3, members in (shared, separate):
            bands = lb.find_bands(f3, ends, t)
            out.append((bands, lb.choose_params(members, bands, 3, t)))
        assert out[0] == out[1]

    def test_tau_independent_of_deduplication(self, catenoid_step):
        # distinct members with equal data: nothing is shared, tau must
        # equal that of the constant family, where all members are one
        ts = np.linspace(0.0, 1.0, 3)
        _, (_, copies) = self.families(ts)
        res = lb.complete_step(copies, core=(0.8, 1.3), delta=0.5, ts=ts)
        assert res.tau == catenoid_step.tau


class TestLopezRos:
    def setup_method(self):
        self.cat = wz.catalog("catenoid")
        end = lb.AnnulusEnd(0, 1.3, 2.0)
        band = lb.AnnulusBand(0, 0, 1.45, 1.85, end, (0.5, 1.0))
        self.lab = lb.build_labyrinth(band, 6)
        self.t = np.linspace(0.0, 1.0, 5)
        self.params = lb.LopezRosParams(lam=100.0, eps=0.1, c0=1.3)
        self.out = lb.lopez_ros(
            [self.cat] * 5, self.params, [self.lab], self.t
        )

    def test_identity_at_t0(self):
        z = self.cat.grid(n_r=8, n_th=32)
        assert np.array_equal(self.out[0].f(z), self.cat.f(z))

    def test_third_component_shared(self):
        assert all(h.f3 is self.cat.f3 for h in self.out)

    def test_gauss_map_scaled_on_walls_only(self):
        s = self.lab.sets[0]  # n = 1, odd: closed along the positive axis
        inside = complex(0.5 * (s.rad_lo + s.rad_hi))
        outside = complex(1.35)
        h = self.out[-1]
        assert h.g(np.array([inside]))[0] == pytest.approx(
            (1.0 + 100.0) * self.cat.g(np.array([inside]))[0]
        )
        assert h.g(np.array([outside]))[0] == self.cat.g(np.array([outside]))[0]

    def test_flux_on_core_circle_unchanged(self):
        circle = wz.circle(1.0, 512)
        for h in self.out:
            assert np.array_equal(wz.flux(h, circle), wz.flux(self.cat, circle))

    def test_point_set_density_matches_members(self):
        # the point set evaluates the base member once and recomputes only
        # the wall points per factor: every transformed member's density
        # must equal the grid rule on the whole grid bit for bit, and the
        # density of its own callables to 1e-13 relative
        grid = wz.PolarGrid(np.linspace(1.3, 2.0, 96), 64)
        points = lb._PointSet(grid, [self.cat]).walls([self.lab])
        assert 0 < np.count_nonzero(points.mask) < grid.points.size
        for h, fac in zip(self.out, lb._factors(self.params, self.t)):
            got = points.density(self.cat, fac)
            f, want = grid_rule(self.cat, grid, [self.lab], fac)
            assert np.array_equal(got, want)
            # the change of f, read at the wall points only, and 0.0 off them
            change = f - grid_rule(self.cat, grid)[0]
            assert not np.any(change[~points.mask])
            assert np.array_equal(
                points.f_change(self.cat, fac), change[points.mask]
            )
            np.testing.assert_allclose(
                got, point_rule(h, grid)[1], rtol=1e-13, atol=0
            )
        assert np.array_equal(
            points.density(self.cat), grid_rule(self.cat, grid)[1]
        )


class TestFlatDistance:
    @given(
        r_in=st.floats(0.1, 2.0),
        width=st.floats(0.05, 2.0),
        s=st.floats(0.0, 1.0),
        angle=st.floats(0.0, 2.0 * np.pi),
        n_r=st.integers(2, 32),
        n_th=st.integers(3, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_flat_dijkstra(
        self, r_in, width, s, angle, n_r, n_th
    ):
        r_out = r_in + width
        x0 = (r_in + s * width) * np.exp(1j * angle)
        graph = lb.build_metric_graph(
            r_in, r_out, x0, radii=np.linspace(r_in, r_out, n_r), n_th=n_th
        )
        flat = graph.distance(np.ones(graph.nodes.shape))
        # every graph path is at least as long as the radial gap between
        # its ends' circles, and the radial path from the source attains
        # the gap to the nearer boundary circle
        r_src = graph.radii[graph.source // graph.n_th]
        gap = min(r_src - graph.radii[0], graph.radii[-1] - r_src)
        assert gap == pytest.approx(flat, rel=1e-12, abs=0)


def coo_edges(graph):
    """The graph's edges as unsorted COO arrays (rows, cols, lengths).

    The reference for the CSR edge pattern: node ids, edge order and edge
    lengths are those of the original graph construction.
    """
    n_r, n_th = graph.radii.size, graph.n_th

    def nid(i, j):
        return i * n_th + np.mod(j, n_th)

    i_idx, j_idx = np.arange(n_r), np.arange(n_th)
    I, J = np.meshgrid(i_idx, j_idx, indexing="ij")
    rows, cols = [nid(I, J).ravel()], [nid(I, J + 1).ravel()]
    Ii, Ji = np.meshgrid(i_idx[:-1], j_idx, indexing="ij")
    for dj in (-1, 0, 1):
        rows.append(nid(Ii, Ji).ravel())
        cols.append(nid(Ii + 1, Ji + dj).ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return rows, cols, np.abs(graph.nodes[rows] - graph.nodes[cols])


def coo_distance(graph, dens):
    """MetricGraph.distance from the COO edges, converted to CSR per call."""
    rows, cols, lengths = coo_edges(graph)
    rho = np.sqrt(np.abs(dens))
    wts = 0.5 * (rho[rows] + rho[cols]) * lengths
    n = graph.nodes.size
    m = csr_matrix((wts, (rows, cols)), shape=(n, n))
    d = dijkstra(m, directed=False, indices=graph.source)
    val = float(np.min(d[graph.boundary]))
    if not np.isfinite(val):
        raise DisconnectedGraph("no path from the source to the boundary")
    return val


class TestGraphPattern:
    @given(
        radii=st.lists(st.floats(0.1, 3.0), min_size=2, max_size=12,
                       unique=True),
        n_th=st.integers(3, 24),
        x0=st.complex_numbers(max_magnitude=3.0, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
        walled=st.sets(st.integers(0, 11), max_size=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_distance_equals_coo_reference(self, radii, n_th, x0, seed, walled):
        radii = np.sort(radii)
        n_r = radii.size
        graph = lb.build_metric_graph(
            radii[0], radii[-1], x0, radii=radii, n_th=n_th
        )
        assert graph.cols.dtype == graph.indptr.dtype == np.int32
        rows, cols, lengths = coo_edges(graph)
        n = graph.nodes.size
        want = csr_matrix((lengths, (rows, cols)), shape=(n, n))
        assert np.array_equal(graph.indptr, want.indptr)
        assert np.array_equal(graph.cols, want.indices)
        assert np.array_equal(graph.lengths, want.data)
        degree = np.diff(want.indptr)
        assert np.array_equal(graph.rows, np.repeat(np.arange(n), degree))
        walled = sorted(i for i in walled if i < n_r)
        dens = np.random.default_rng(seed).uniform(0.01, 10.0, (n_r, n_th))
        dens[walled] = np.inf
        density = dens.ravel()

        # a ring of infinite density blocks every path through it, so the
        # graph is cut when one lies between the source ring and each
        # boundary ring (inclusive) other than the source ring itself
        i_src = graph.source // n_th
        cut = all(
            b != i_src
            and any(min(i_src, b) <= k <= max(i_src, b) for k in walled)
            for b in (0, n_r - 1)
        )
        if cut:
            with pytest.raises(DisconnectedGraph):
                coo_distance(graph, density)
            with pytest.raises(DisconnectedGraph):
                graph.distance(density)
        else:
            assert graph.distance(density) == coo_distance(graph, density)

    def test_too_few_angles_rejected(self):
        with pytest.raises(ValueError):
            lb.build_metric_graph(1.0, 2.0, 1.5, n_th=2)


class TestBoundedDistance:
    """distance stops its search at the radial path's cost; the result must
    be the bits of the boundary minimum of a full search."""

    @given(
        n_r=st.integers(2, 12),
        n_th=st.integers(3, 24),
        ring=st.integers(0, 11),
        angle=st.floats(0.0, 2.0 * np.pi),
        seed=st.integers(0, 2**32 - 1),
        walled=st.sets(st.integers(0, 11), max_size=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_full_search(self, n_r, n_th, ring, angle, seed, walled):
        ring = min(ring, n_r - 1)
        radii = np.linspace(0.5, 2.0, n_r)
        x0 = radii[ring] * np.exp(1j * angle)
        graph = lb.build_metric_graph(0.5, 2.0, x0, radii=radii, n_th=n_th)
        dens = np.random.default_rng(seed).uniform(0.01, 10.0, (n_r, n_th))
        dens[sorted(i for i in walled if i < n_r)] = np.inf
        density = dens.ravel()

        try:
            want = graph.boundary_distance(graph.node_distances(density))
        except DisconnectedGraph:
            with pytest.raises(DisconnectedGraph):
                graph.distance(density)
        else:
            assert graph.distance(density) == want


def maze(dens, skip):
    """A mini-labyrinth on a (n_r, n_th) density array, in place: every odd
    circle below the outer one, except the circle skip, is an infinite arc
    with a one-node opening, at angle 0 and n_th // 2 alternately.  Walls
    with openings apart block every spoke that crosses two of them, while
    the staircase threads the openings along the finite circles between."""
    n_r, n_th = dens.shape
    walls = [k for k in range(1, n_r - 1, 2) if k != skip]
    for w, k in enumerate(walls):
        opening = dens[k, (w % 2) * (n_th // 2)]
        dens[k] = np.inf
        dens[k, (w % 2) * (n_th // 2)] = opening
    return walls


def full_field(graph, dens):
    """The edge weights of a search and an unbounded search's field."""
    m = graph._weighted(dens)
    full = dijkstra(m, directed=False, indices=graph.source)
    return m.data, full.reshape(-1, graph.n_th)


class TestBoundedNodeDistances:
    """node_distances stops its search at the larger path bound: every node
    it settles carries the bits of a full search, and every value the step
    reads off the field is the full search's or gives its answer."""

    @given(
        n_r=st.integers(1, 12),
        n_th=st.integers(3, 24),
        ring=st.integers(0, 11),
        angle=st.floats(0.0, 2.0 * np.pi),
        seed=st.integers(0, 2**32 - 1),
        walled=st.sets(st.integers(0, 11), max_size=3),
        labyrinth=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_full_search_up_to_limit(
        self, n_r, n_th, ring, angle, seed, walled, labyrinth
    ):
        ring = min(ring, n_r - 1)
        radii = np.linspace(0.5, 2.0, n_r) if n_r > 1 else np.array([1.0])
        graph = lb.build_metric_graph(
            0.5, 2.0, radii[ring] * np.exp(1j * angle), radii=radii, n_th=n_th
        )
        # a factor per circle times one per node: walls of any height
        rng = np.random.default_rng(seed)
        dens = (
            10.0 ** rng.uniform(-2, 4, (n_r, 1))
            * 10.0 ** rng.uniform(-1, 1, (n_r, n_th))
        )
        if labyrinth:
            maze(dens, ring)
        else:
            dens[sorted(i for i in walled if i < n_r)] = np.inf
        weights, full = full_field(graph, dens.ravel())
        limit = max(graph._path_bounds(weights)) * (1.0 + 1e-9)
        got = graph.node_distances(dens.ravel())

        settled = np.isfinite(got)
        assert np.array_equal(got[settled], full[settled])
        assert np.all(settled[np.isfinite(full) & (full <= limit)])
        for k in range(n_r):
            assert np.min(got[k]) == np.min(full[k])
        assert np.min(got.ravel()[graph.boundary]) == np.min(
            full.ravel()[graph.boundary]
        )
        # est3 tests bound > b for b > 0: the same answer, or no pass
        for near in range(n_r):
            for far in range(n_r):
                cut = lb._crossing_bound(got, near, far)
                want = lb._crossing_bound(full, near, far)
                assert cut == want or not (cut > 0 or want > 0)


class TestPathBounds:
    """_path_bounds are the costs of graph paths, so no less than the least
    distance on their circles, and the staircase keeps them near it."""

    @given(
        n_r=st.integers(1, 12),
        n_th=st.integers(3, 24),
        ring=st.integers(0, 11),
        seed=st.integers(0, 2**32 - 1),
        labyrinth=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_less_than_circle_minimum(self, n_r, n_th, ring, seed, labyrinth):
        ring = min(ring, n_r - 1)
        radii = np.linspace(0.5, 2.0, n_r) if n_r > 1 else np.array([1.0])
        graph = lb.build_metric_graph(
            0.5, 2.0, radii[ring], radii=radii, n_th=n_th
        )
        dens = np.random.default_rng(seed).uniform(0.01, 10.0, (n_r, n_th))
        if labyrinth:
            maze(dens, ring)
        weights, full = full_field(graph, dens.ravel())
        inward, outward = graph._path_bounds(weights)
        assert inward >= np.min(full[0]) * (1.0 - 1e-12)
        assert outward >= np.min(full[-1]) * (1.0 - 1e-12)
        # and no more than the spoke along the source's angle, 0
        rho = np.sqrt(dens[:, 0])
        spoke = graph.nodes.reshape(n_r, n_th)[:, 0]
        step = 0.5 * (rho[:-1] + rho[1:]) * np.abs(np.diff(spoke))
        assert inward <= np.sum(step[:ring]) * (1.0 + 1e-12)
        assert outward <= np.sum(step[ring:]) * (1.0 + 1e-12)

    def test_finite_through_labyrinth(self):
        graph = lb.build_metric_graph(
            0.5, 2.0, 1.25, radii=np.linspace(0.5, 2.0, 11), n_th=16
        )
        dens = np.ones((11, 16))
        assert maze(dens, graph.source // 16) == [1, 3, 7, 9]
        # the source, at angle 0 on circle 5, meets a closed wall either way
        assert graph.source == 5 * 16 and np.isinf(dens[[3, 9], 0]).all()
        weights, full = full_field(graph, dens.ravel())
        bounds = graph._path_bounds(weights)
        assert np.all(np.isfinite(bounds))
        assert bounds[0] >= np.min(full[0]) and bounds[1] >= np.min(full[-1])

    def test_near_endpoint_distance_on_catalog(self, catenoid_step, monkeypatch):
        # the endpoint search of the catalog step, run in full
        res = catenoid_step
        searches = []

        def full_search(m, **kwargs):
            kwargs.pop("limit")
            searches.append((m, dijkstra(m, **kwargs)))
            return searches[-1][1]

        cat = wz.catalog("catenoid")
        radii = lb._fine_radii(cat.r_inner, cat.r_outer, res.labyrinths, res.N)
        fine = lb.build_metric_graph(
            cat.r_inner, cat.r_outer, complex(wz.homology_radius(cat)),
            radii=radii, n_th=128,
        )
        monkeypatch.setattr(lb, "dijkstra", full_search)
        end = lb.intrinsic_distance(
            cat, fine, res.labyrinths, lb._factors(res.params, res.ts)[-1]
        )
        assert end.value == res.final_distance
        (m, d), = searches
        d = d.reshape(-1, fine.n_th)
        # a spoke-only bound reads about 15,000 here
        for bound, circle in zip(fine._path_bounds(m.data), (d[0], d[-1])):
            assert np.min(circle) <= bound < 1.1 * np.min(circle)


@pytest.mark.parametrize("name", ["catalog", "stored"])
def test_step_identical_with_unbounded_searches(name, monkeypatch):
    # every value complete_step reports is read where the bounded searches
    # carry the bits of full ones
    data = wz.catalog("catenoid") if name == "catalog" else stored_endpoint()

    def step():
        return lb.complete_step(
            data, core=(0.8, 1.3), delta=0.5, ts=np.linspace(0.0, 1.0, 64)
        )

    bounded = step()
    dijkstra_ = lb.dijkstra
    monkeypatch.setattr(
        lb, "dijkstra",
        lambda m, limit=None, **kwargs: dijkstra_(m, **kwargs),
    )
    full = step()
    assert bounded.report == full.report
    assert bounded.report["passes"] == full.report["passes"]
    assert np.array_equal(bounded.distances, full.distances)
    assert bounded.final_distance == full.final_distance


def full_distance(graph, dens):
    """Boundary minimum of a search that settles every node; inf where no
    path reaches the boundary."""
    d = graph.node_distances(dens)
    return float(np.min(d.ravel()[graph.boundary]))


class TestCertifiedDistance:
    """_certified_distance never exceeds a full search of the transformed
    densities: it is the base search where no wall density falls, and a
    search of the transformed densities where one does."""

    @given(
        n_r=st.integers(3, 10),
        n_th=st.integers(3, 16),
        ring=st.integers(0, 9),
        seed=st.integers(0, 2**32 - 1),
        share=st.floats(0.05, 0.6),
        # each wall density is multiplied by a factor in [low, high]: only
        # a low below 1 lets a wall density fall
        low=st.one_of(st.just(1.0), st.floats(0.25, 1.0)),
        high=st.floats(1.0, 4.0),
        special=st.sampled_from([None, "inf", "cut", "nan"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_lower_bound(self, n_r, n_th, ring, seed, share, low, high,
                         special):
        radii = np.linspace(0.5, 2.0, n_r)
        graph = lb.build_metric_graph(
            0.5, 2.0, radii[ring % n_r], radii=radii, n_th=n_th
        )
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.01, 10.0, graph.nodes.size)
        base_value = graph.distance(base)
        walls = rng.uniform(size=base.size) < share
        dens = base.copy()
        dens[walls] *= rng.uniform(low, high, np.count_nonzero(walls))
        if special == "inf":  # about half of the walls impassable
            dens[walls & (rng.uniform(size=base.size) < 0.5)] = np.inf
        elif special == "cut":  # impassable rings on both sides of x0
            i = graph.source // n_th
            for k in {max(i - 1, 0), min(i + 1, n_r - 1)} - {i}:
                walls[k * n_th : (k + 1) * n_th] = True
                dens[k * n_th : (k + 1) * n_th] = np.inf
        elif special == "nan":  # one wall node
            node = rng.integers(base.size)
            walls[node], dens[node] = True, np.nan
            with pytest.raises(NonFiniteValues, match="NaN at 1 of"):
                lb._certified_distance(graph, base, base_value, dens, walls)
            return
        full = full_distance(graph, dens)
        if np.any(dens[walls] < base[walls]):
            if np.isinf(full):
                with pytest.raises(DisconnectedGraph):
                    lb._certified_distance(
                        graph, base, base_value, dens, walls
                    )
                return
            want = full
        else:
            want = base_value
        got = lb._certified_distance(graph, base, base_value, dens, walls)
        assert got == want
        assert got <= full


class TestRecordedDistance:
    """_certified_distance returns the base member's recorded search where
    no wall density falls, and otherwise the bits of a new search."""

    @given(
        n_r=st.integers(2, 10),
        n_th=st.integers(3, 16),
        ring=st.integers(0, 9),
        seed=st.integers(0, 2**32 - 1),
        share=st.floats(0.0, 0.5),
        factors=st.lists(
            st.one_of(st.just(1.0), st.floats(0.25, 4.0)), min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_full_search(self, n_r, n_th, ring, seed, share, factors):
        radii = np.linspace(0.5, 2.0, n_r)
        graph = lb.build_metric_graph(
            0.5, 2.0, radii[min(ring, n_r - 1)], radii=radii, n_th=n_th
        )
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.01, 10.0, graph.nodes.size)
        walls = rng.uniform(size=base.size) < share
        # tau's search, as complete_step records it
        tau = graph.distance(base)
        assert tau == full_distance(graph, base)
        # one factor on every wall, as the Lopez-Ros transform grows the
        # Gauss map; in any order, some below 1
        for fac in factors:
            dens = base.copy()
            dens[walls] *= fac * fac
            got = lb._certified_distance(graph, base, tau, dens, walls)
            full = full_distance(graph, dens)
            if np.any(dens[walls] < base[walls]):
                assert got == full
            else:
                assert got == tau <= full

    @staticmethod
    def spoke_graph():
        """4 rings of 8 nodes at radii 0.5, 1, 1.5 and 2, the source node 8
        on ring 1, and density 1 everywhere: the shortest path is the
        spoke in to node 0 on the inner circle."""
        graph = lb.build_metric_graph(
            0.5, 2.0, 1.0, radii=np.linspace(0.5, 2.0, 4), n_th=8
        )
        return graph, np.ones(graph.nodes.size)

    def test_infinite_walls(self):
        graph, base = self.spoke_graph()
        tau = graph.distance(base)
        walls = np.zeros(base.size, dtype=bool)
        walls[:8] = True  # the inner circle
        walls[16:23] = True  # ring 2 but for one opening
        dens = base.copy()
        dens[walls] = np.inf
        # no wall density falls: the recorded search is the bound, below
        # the search through the opening
        got = lb._certified_distance(graph, base, tau, dens, walls)
        assert got == tau < full_distance(graph, dens)
        walls[23] = True  # a closed ring cuts the graph
        dens[walls] = np.inf
        got = lb._certified_distance(graph, base, tau, dens, walls)
        assert got == tau < full_distance(graph, dens) == np.inf
        # from the cut graph, lowering a wall on the source's ring leaves
        # it cut; the new search finds no boundary
        walls[12] = True
        cut = dens.copy()
        cut[12] = np.inf
        with pytest.raises(DisconnectedGraph):
            lb._certified_distance(graph, cut, np.inf, dens, walls)
        # lowering the opening's wall searches through it again
        opened = cut.copy()
        opened[23] = 1.0
        got = lb._certified_distance(graph, cut, np.inf, opened, walls)
        assert got == full_distance(graph, opened) < np.inf

    def test_nan_wall_density_raises(self):
        graph, base = self.spoke_graph()
        tau = graph.distance(base)
        walls = np.zeros(base.size, dtype=bool)
        walls[20] = True  # ring 2, opposite the spoke the path takes
        for grown in (2.0, 4.0):  # grown walls keep the recorded search
            dens = base.copy()
            dens[walls] = grown
            got = lb._certified_distance(graph, base, tau, dens, walls)
            assert got == tau == full_distance(graph, dens)
        dens = base.copy()
        dens[walls] = np.nan
        with pytest.raises(NonFiniteValues, match="NaN at 1 of 32"):
            lb._certified_distance(graph, base, tau, dens, walls)


class TestNonFiniteDensity:
    """A NaN density raises; an infinite one is a wall (see
    TestIntrinsicDistance.test_disconnected_graph)."""

    @pytest.mark.parametrize("where, count", [("ring", 32), ("node", 1)])
    @pytest.mark.parametrize("method", ["distance", "node_distances"])
    def test_nan_density_raises(self, where, count, method):
        graph = lb.build_metric_graph(
            1.0, 2.0, 1.5, radii=np.linspace(1.0, 2.0, 16), n_th=32
        )
        dens = np.ones((16, 32))
        if where == "ring":
            dens[3] = np.nan  # the circle |z| = 1.2
        else:
            dens[3, 0] = np.nan
        with pytest.raises(NonFiniteValues, match=f"NaN at {count} of 512"):
            getattr(graph, method)(dens.ravel())


def parent_fine_radii(r_in, r_out, labyrinths, N):
    """The earlier fine radial layout, kept as a refinement reference: 4
    rings per 1/N^3 cell, half a spacing off the wall edges, from the band's
    outer circle down to its inner one, over the 48 coarse radii."""
    pieces = [np.linspace(r_in, r_out, 48)]
    h = 1.0 / (4 * N**3)
    for lab in labyrinths:
        band = lab.band
        count = int(np.ceil((band.R - band.r) / h)) + 1
        inner = band.R - (np.arange(count - 2) + 0.5) * h
        chart_r = np.concatenate(([band.r], inner, [band.R]))
        pieces.append(np.sort(band.end.radius_in_chart(chart_r)))
    radii = np.unique(np.concatenate(pieces))
    return radii[(radii >= r_in) & (radii <= r_out)]


def check_mask_alternates(lab, radii, n_th):
    """Along every ray of a polar graph on radii, no radial edge joins two
    wall nodes, and every wall the ray meets holds exactly one of its nodes.
    A ray meets wall n where the wall's own set (LabyrinthSet) holds the
    ray's point at the wall's mid radius."""
    N = lab.N
    nodes = wz.PolarGrid(radii, n_th).points.reshape(radii.size, n_th)
    mask = lab.contains(nodes)
    assert not np.any(mask[:-1] & mask[1:])
    ring, ray = np.nonzero(mask)
    u = lab.band.R - np.abs(lab.band.end.to_chart(nodes[ring, ray]))
    wall = np.floor(u * N**3).astype(int) + 1
    count = np.zeros((2 * N**2 + 1, n_th), dtype=int)
    np.add.at(count, (wall, ray), 1)
    way = lab.band.end.to_chart(nodes[0])
    way /= np.abs(way)
    met = np.array([
        s.contains_chart(0.5 * (s.rad_lo + s.rad_hi) * way) for s in lab.sets
    ])
    assert met.any()
    np.testing.assert_array_equal(count[1:], met.astype(int))


class TestFineRadii:
    """One fine ring at the centre of every wall and of every gap."""

    @staticmethod
    def layout(kind, N):
        r_in, r_out = 0.2, 2.0
        end = lb.AnnulusEnd(0, r_in, r_out, kind=kind, c=r_in * r_out)
        band = lb.AnnulusBand(0, 0, 0.3, 1.9, end, (0.5, 1.0))
        lab = lb.build_labyrinth(band, N)
        return lab, lb._fine_radii(r_in, r_out, [lab], N)

    @pytest.mark.parametrize("kind", ["identity", "inversion"])
    @pytest.mark.parametrize("N", [2, 9, 19])
    def test_walls_and_gaps_resolved(self, kind, N):
        # exactly one ring inside each wall and each gap between walls, and
        # every ring clear of every wall edge by at least 0.2 of a cell
        lab, radii = self.layout(kind, N)
        chart = np.sort(lab.band.end.radius_in_chart(radii))

        def rings(lo, hi):
            return np.count_nonzero((chart > lo) & (chart < hi))

        for s in lab.sets:
            assert rings(s.rad_lo, s.rad_hi) == 1
        for outer, inner in zip(lab.sets, lab.sets[1:]):
            assert rings(inner.rad_hi, outer.rad_lo) == 1
        edges = np.array([[s.rad_lo, s.rad_hi] for s in lab.sets]).ravel()
        clear = np.min(np.abs(chart[:, None] - edges[None, :]))
        assert clear >= 0.2 / N**3

    @pytest.mark.parametrize("kind", ["identity", "inversion"])
    @pytest.mark.parametrize("N", [2, 9, 19])
    def test_mask_alternates_along_rays(self, kind, N):
        check_mask_alternates(*self.layout(kind, N), n_th=128)

    @pytest.mark.parametrize("kind", ["identity", "inversion"])
    @pytest.mark.parametrize("N", [2, 9, 19])
    def test_wall_free_strip_has_no_fine_ring(self, kind, N):
        # the band's edge circle r is kept, and between it and the top of
        # the strip, R - 2/N, lie only coarse radii
        lab, radii = self.layout(kind, N)
        band = lab.band
        chart = band.end.radius_in_chart(radii)
        h = 1.0 / (2.0 * N**3)
        strip = (chart > band.r) & (chart < band.R - 2.0 / N - 0.5 * h)
        assert np.all(np.isin(radii[strip], np.linspace(0.2, 2.0, 48)))
        assert np.any(chart == band.r)

    def test_mask_alternates_on_the_endpoint_graph(self, catenoid_step):
        r = catenoid_step
        cat = wz.catalog("catenoid")
        radii = lb._fine_radii(cat.r_inner, cat.r_outer, r.labyrinths, r.N)
        for lab in r.labyrinths:
            check_mask_alternates(lab, radii, n_th=128)

    def test_refinement_guard(self, catenoid_step):
        # the centred layout against the earlier 4-rings-per-cell one: the
        # endpoint distance stays within 2e-5 relative, on at most
        # 48 + 2 (4N^2 + 2) rings
        r = catenoid_step
        cat = wz.catalog("catenoid")
        radii = lb._fine_radii(cat.r_inner, cat.r_outer, r.labyrinths, r.N)
        assert radii.size <= 48 + 2 * (4 * r.N**2 + 2)
        x0 = complex(wz.homology_radius(cat))
        fine = lb.build_metric_graph(
            cat.r_inner, cat.r_outer, x0, n_th=128, radii=parent_fine_radii(
                cat.r_inner, cat.r_outer, r.labyrinths, r.N
            ),
        )
        factor = lb._factors(r.params, r.ts)[-1]
        ref = lb.intrinsic_distance(cat, fine, r.labyrinths, factor).value
        assert r.final_distance == pytest.approx(ref, rel=2e-5)


def shortest_window_crossing(graph, dens, i_lo, i_hi):
    """Shortest path from circle i_lo to circle i_hi inside the circles
    between them: a multi-source Dijkstra on the window's sub-graph, built
    from the COO reference edges."""
    rows, cols, lengths = coo_edges(graph)
    rho = np.sqrt(dens)
    n, n_th = graph.nodes.size, graph.n_th
    m = csr_matrix((0.5 * (rho[rows] + rho[cols]) * lengths, (rows, cols)),
                   shape=(n, n))
    a, b = i_lo * n_th, (i_hi + 1) * n_th
    d = dijkstra(m[a:b, a:b], directed=False, indices=np.arange(n_th),
                 min_only=True)
    return float(np.min(d[-n_th:]))


class TestCrossingBound:
    @given(
        n_r=st.integers(2, 40),
        n_th=st.integers(3, 32),
        window=st.tuples(st.integers(0, 39), st.integers(0, 39)),
        x0=st.complex_numbers(max_magnitude=2.5, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_below_shortest_window_crossing(self, n_r, n_th, window, x0, seed):
        i_lo, i_hi = sorted(min(i, n_r - 1) for i in window)
        graph = lb.build_metric_graph(
            0.5, 2.0, x0, radii=np.linspace(0.5, 2.0, n_r), n_th=n_th
        )
        # a factor per circle times one per node: walls of any height,
        # so the bound is positive in about half of the cases
        rng = np.random.default_rng(seed)
        dens = (
            10.0 ** rng.uniform(-2, 4, (n_r, 1))
            * 10.0 ** rng.uniform(-1, 1, (n_r, n_th))
        ).ravel()
        field = graph.node_distances(dens)
        want = shortest_window_crossing(graph, dens, i_lo, i_hi)
        # either circle may face the source; the relative slack covers
        # the two runs summing edge weights in different orders
        for near, far in ((i_lo, i_hi), (i_hi, i_lo)):
            assert lb._crossing_bound(field, near, far) <= want * (1 + 1e-12)

    def test_tight_when_near_circle_is_cheap(self):
        # metric ~0 out to circle 2 and flat beyond: the whole near circle
        # sits at distance ~0, so the bound meets the shortest crossing
        graph = lb.build_metric_graph(
            1.0, 2.0, 1.0, radii=np.linspace(1.0, 2.0, 11), n_th=64
        )
        cheap = np.abs(graph.nodes) < 1.2 + 1e-9
        dens = np.where(cheap, 1e-12, 1.0)
        field = graph.node_distances(dens)
        want = shortest_window_crossing(graph, dens, 2, 7)
        got = lb._crossing_bound(field, 2, 7)
        assert want - 1e-4 < got <= want

    def test_far_circle_without_finite_node_reads_minus_inf(self):
        # a far circle beyond the limit or cut off bounds nothing: -inf,
        # not the NaN of inf - inf, nor the inf of inf - 3
        d = np.full((3, 4), np.inf)
        d[0] = [0.0, 1.0, 2.0, 3.0]
        assert lb._crossing_bound(d, 2, 1) == -np.inf
        assert lb._crossing_bound(d, 0, 1) == -np.inf


class TestIntrinsicDistance:
    def flat(self, f3=1.0):
        return wz.WeierstrassData(1.0, f3, theta="dz", r_inner=0.5, r_outer=2.0)

    def distance(self, data, x0, **graph_args):
        graph = lb.build_metric_graph(0.5, 2.0, x0, **graph_args)
        return lb.intrinsic_distance(data, graph)

    def test_flat_radial_distance(self):
        # to the nearer circle, the inner one
        d = self.distance(self.flat(), 1.0 + 0j)
        assert d.value == pytest.approx(0.5, rel=0.02)

    def test_refinement_stable(self):
        d1 = self.distance(self.flat(), 1.0 + 0j)
        d2 = self.distance(
            self.flat(), 1.0 + 0j, radii=np.linspace(0.5, 2.0, 128), n_th=512
        )
        assert abs(d2.value - d1.value) <= 0.01 * d1.value

    def test_density_scaling(self):
        d1 = self.distance(self.flat(), 1.0 + 0j)
        d4 = self.distance(self.flat(2.0), 1.0 + 0j)
        assert d4.value == pytest.approx(2.0 * d1.value, rel=1e-12)

    @pytest.mark.parametrize("x0", [0.8, 1.0, 2.5])
    def test_x0_outside_graph_rejected(self, x0):
        # build_metric_graph takes a source on a boundary ring
        # (TestBoundedDistance); intrinsic_distance checks the graph's x0
        graph = lb.build_metric_graph(1.0, 2.0, x0)
        with pytest.raises(ValueError, match="strictly inside"):
            lb.intrinsic_distance(self.flat(), graph)

    def test_disconnected_graph(self):
        graph = lb.build_metric_graph(
            1.0, 2.0, 1.05 + 0j, radii=np.linspace(1.0, 2.0, 32), n_th=64
        )

        def blocked(z):
            # walls on the inner circle and on a ring beyond the source
            dens = np.ones(np.asarray(z).shape)
            ring = (np.abs(np.abs(z) - 1.5) < 0.1) | (np.abs(z) < 1.02)
            dens[ring] = np.inf
            return dens

        with pytest.raises(DisconnectedGraph):
            graph.distance(blocked(graph.nodes))


def distinct_family():
    """Four members that differ in g and f3, and their ts."""
    ts = np.linspace(0.0, 1.0, 4)
    members = [
        wz.WeierstrassData(
            wz.LaurentSeries([1.0 + 0.05 * t], 1),
            wz.LaurentSeries([1.0 + 0.1 * t], 0),
            theta="dz/z",
        )
        for t in ts
    ]
    return members, ts


def stored_endpoint():
    """The frozen flux-driver endpoint of the labyrinth_step benchmark."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    return cli.load_family(perfbench / "stored_endpoint.json").members[-1]


def step_core_grid(rho, core):
    """complete_step's 8 x 512 grid on the core, about the homology radius."""
    lo, hi = core
    return wz.PolarGrid(
        rho * np.linspace(lo / rho + 1e-9, hi / rho - 1e-9, 8), 512
    )


@pytest.fixture(scope="module")
def catenoid_step():
    return lb.complete_step(wz.catalog("catenoid"), core=(0.8, 1.3), delta=0.5)


def naive_checks(members, res, core, exact=True):
    """tau, the per-t distances, the parameters and the check values of
    complete_step, evaluating every member one at a time on the step's
    polar grids.  exact: by the grid rule (grid_rule), which the step must
    match bit for bit; otherwise through each member's own callables on the
    grid's points (point_rule), which it must match to 1e-12.  searches
    holds a full search of every transformed member, which the per-t
    distances must not exceed."""
    data0 = members[0]
    r_in, r_out = data0.r_inner, data0.r_outer
    rho = float(np.sqrt(r_in * r_out))
    labs = res.labyrinths
    factors = lb._factors(res.params, res.ts)

    def values(j, grid, base=False):
        # f and density of transformed member j, or of its base member
        m = members[j]
        if exact:
            return grid_rule(m, grid, labs, None if base else factors[j])
        return point_rule(m if base else res.members[j], grid)

    def on(fun, grid):
        return wz._evaluate(fun, grid) if exact else fun(grid.points)

    coarse = lb.build_metric_graph(r_in, r_out, complex(rho))
    coarse_grid = wz.PolarGrid(coarse.radii, coarse.n_th)

    def full_search(dens):
        # every node settled: the reference for the bounded distance
        return coarse.boundary_distance(coarse.node_distances(dens))

    first = {id(m): j for j, m in reversed(list(enumerate(members)))}
    base_dens = {
        i: values(j, coarse_grid, base=True)[1] for i, j in first.items()
    }
    base_search = {i: full_search(dens) for i, dens in base_dens.items()}
    walls = lb._wall_mask(labs, coarse_grid.points)
    out = {"tau": min(base_search.values()), "distances": [], "searches": []}
    for j, m in enumerate(members):
        dens = values(j, coarse_grid)[1]
        out["searches"].append(full_search(dens))
        # the base member's search, unless a wall density falls below it
        falls = np.any(dens[walls] < base_dens[id(m)][walls])
        out["distances"].append(
            out["searches"][-1] if falls else base_search[id(m)]
        )
    # the parameters, from the bracket members on each band's two grids
    eps_min, c0 = np.inf, np.inf
    for lab in labs:
        band = lab.band
        for j in lb._bracket_samples(res.ts, band.bracket):
            m = members[j]
            for grid in (band.grid(24, 48), band.grid(48, 96)):
                scale = band.end.dz_dw(band.end.to_chart(grid.points))
                f3t = on(m.f3, grid) * m.theta_over_dz(grid) * scale
                eps_min = min(eps_min, float(np.min(np.abs(f3t))))
                c0 = min(c0, float(np.min(np.abs(on(m.g, grid)))))
    t0 = min(lab.band.bracket[0] for lab in labs)
    target = 2.0 * res.N**4 * (1.0 + lb.LAMBDA_MARGIN)
    out["eps"], out["c0"] = 0.5 * eps_min, c0
    out["lam"] = max(0.0, (target / c0 - 1.0) / t0)

    probe = wz.PolarGrid(wz._open_radii(r_in, r_out, 16), 64)
    out["anchoring"] = np.array_equal(
        values(0, probe)[0], values(0, probe, base=True)[0]
    )
    out["third_component_deviation"] = max(
        float(np.max(np.abs(on(h.f3, probe) - on(m.f3, probe))))
        for h, m in zip(res.members, members)
    )
    circle = wz.PolarGrid([rho], 512)

    def flux(j, base=False):
        theta = members[j].theta_over_dz(circle)[:, None]
        ft = values(j, circle, base)[0] * theta
        return wz.period_from_f_theta(ft, circle.points).imag

    out["flux_deviation"] = max(
        float(np.max(np.abs(flux(j) - flux(j, base=True))))
        for j in range(len(members))
    )
    core_grid = step_core_grid(rho, core)
    out["core_deviation"] = max(
        float(np.max(np.abs(
            values(j, core_grid)[0] - values(j, core_grid, base=True)[0]
        )))
        for j in range(len(members))
    )
    eps, N = res.params.eps, res.N
    est1, est2 = np.inf, np.inf
    for lab in labs:
        band = lab.band
        grid = band.grid(96, 128)
        w = band.end.to_chart(grid.points)
        inside = lab.contains_chart(w)
        t_lo, t_hi = band.bracket
        for t in (t_lo, 0.5 * (t_lo + t_hi), t_hi):
            j = int(np.argmin(np.abs(res.ts - t)))
            dens_chart = values(j, grid)[1] * np.abs(band.end.dz_dw(w)) ** 2
            if np.any(inside):
                m1 = float(np.min(dens_chart[inside]))
                est1 = min(est1, m1 / (N**8 * eps**2))
            est2 = min(est2, float(np.min(dens_chart)) / eps**2)
    out["est1_ratio"], out["est2_ratio"] = est1, est2
    return out


def point_rule_final_distance(members, res):
    """The endpoint distance with the last transformed member's own
    callables on the fine graph's points, a block of rings at a time."""
    data0 = members[0]
    radii = lb._fine_radii(data0.r_inner, data0.r_outer, res.labyrinths, res.N)
    fine = lb.build_metric_graph(
        data0.r_inner, data0.r_outer, complex(np.sqrt(data0.r_inner * data0.r_outer)),
        radii=radii, n_th=128,
    )

    def density(z):
        step = 512 * 128
        return np.concatenate([
            wz.metric_density(res.members[-1], z[k : k + step])
            for k in range(0, z.size, step)
        ])

    return fine.distance(density(fine.nodes))


class TestNodeSetEvaluation:
    """complete_step evaluates each base member and wall mask once per
    point set.  Every value must equal member-by-member evaluation under
    the same grid rule bit for bit, and evaluation through each member's
    own callables on the points (Horner, null triple) to 1e-12 relative."""

    def assert_matches(self, members, res, core):
        want = naive_checks(members, res, core)
        assert res.tau == want.pop("tau")
        assert np.array_equal(res.distances, want.pop("distances"))
        assert np.all(res.distances <= want.pop("searches"))
        assert res.report["passes"]["anchoring"] == want.pop("anchoring")
        for key, value in want.items():
            assert res.report[key] == value, key

    def assert_near_point_rule(self, members, res, core):
        want = naive_checks(members, res, core, exact=False)
        assert res.tau == pytest.approx(want.pop("tau"), rel=1e-12)
        np.testing.assert_allclose(
            res.distances, want.pop("distances"), rtol=1e-12, atol=0
        )
        searches = np.array(want.pop("searches"))
        assert np.all(res.distances <= searches * (1.0 + 1e-12))
        assert res.report["passes"]["anchoring"] == want.pop("anchoring")
        for key, value in want.items():
            assert res.report[key] == pytest.approx(value, rel=1e-12), key
        assert res.final_distance == pytest.approx(
            point_rule_final_distance(members, res), rel=1e-12
        )

    def test_constant_family(self, catenoid_step):
        members = [wz.catalog("catenoid")] * catenoid_step.ts.size
        self.assert_matches(members, catenoid_step, (0.8, 1.3))

    def test_distinct_members(self):
        members, ts = distinct_family()
        res = lb.complete_step(members, core=(0.8, 1.3), delta=0.5, ts=ts)
        self.assert_matches(members, res, (0.8, 1.3))

    def test_constant_family_near_point_rule(self, catenoid_step):
        members = [wz.catalog("catenoid")] * catenoid_step.ts.size
        self.assert_near_point_rule(members, catenoid_step, (0.8, 1.3))

    def test_distinct_members_near_point_rule(self):
        members, ts = distinct_family()
        res = lb.complete_step(members, core=(0.8, 1.3), delta=0.5, ts=ts)
        self.assert_near_point_rule(members, res, (0.8, 1.3))


class TestDistanceReuse:
    """complete_step searches a pair of conclusion (IV) only where one of
    its wall densities falls below its base member's; naive_checks searches
    every pair."""

    @staticmethod
    def count_searches(monkeypatch):
        sizes = []
        dijkstra = lb.dijkstra

        def counted(graph, *args, **kwargs):
            sizes.append(graph.shape[0])
            return dijkstra(graph, *args, **kwargs)

        monkeypatch.setattr(lb, "dijkstra", counted)
        return sizes

    def test_catalog_step_searches_twice(self, monkeypatch):
        sizes = self.count_searches(monkeypatch)
        res = lb.complete_step(wz.catalog("catenoid"), core=(0.8, 1.3), delta=0.5)
        assert res.ok
        # tau on the 64 x 256 coarse graph, which every t of (IV) takes,
        # then the endpoint on the fine graph
        assert len(sizes) == 2
        assert sizes[0] == 64 * 256 < sizes[1]

    @pytest.mark.parametrize("family, searches", [("constant", 3), ("distinct", 6)])
    def test_factor_dip_searched(self, monkeypatch, family, searches):
        # one factor below 1: where |g|^2 > 1/0.5 on the walls,
        # (|g| + 1/|g|)^2 falls as g halves, so that pair's wall densities
        # fall below its base member's, and it is searched
        factors = lb._factors

        def dipped(params, t_grid):
            out = factors(params, t_grid)
            out[len(out) // 2] = 0.5
            return out

        monkeypatch.setattr(lb, "_factors", dipped)
        if family == "constant":
            ts = np.linspace(0.0, 1.0, 8)
            members = [wz.catalog("catenoid")] * ts.size
        else:
            members, ts = distinct_family()
        sizes = self.count_searches(monkeypatch)
        res = lb.complete_step(members, core=(0.8, 1.3), delta=0.5, ts=ts)
        # tau of each distinct member and the dip, one more than without
        # the dip; each then the endpoint
        assert len(sizes) == searches
        TestNodeSetEvaluation().assert_matches(members, res, (0.8, 1.3))


class TestNoWallInCore:
    """The bands lie in the ends, outside the core, so no wall meets the
    homology circle or the core grid.  There every transformed member
    equals its base member bit for bit, which is why flux_deviation and
    core_deviation read exactly 0."""

    @pytest.mark.parametrize("family", ["catalog", "stored", "distinct"])
    def test_wall_mask_empty(self, catenoid_step, family):
        core = (0.8, 1.3)
        if family == "catalog":
            members, res = [wz.catalog("catenoid")], catenoid_step
        else:
            if family == "stored":
                ts = np.linspace(0.0, 1.0, 64)
                members = [stored_endpoint()] * ts.size
            else:
                members, ts = distinct_family()
            res = lb.complete_step(members, core=core, delta=0.5, ts=ts)
        rho = float(np.sqrt(members[0].r_inner * members[0].r_outer))
        for grid in (wz.PolarGrid([rho], 512), step_core_grid(rho, core)):
            assert not np.any(lb._wall_mask(res.labyrinths, grid.points))
        assert res.report["flux_deviation"] == 0.0
        assert res.report["core_deviation"] == 0.0


class TestCompleteStep:
    def test_all_checks_pass(self, catenoid_step):
        assert catenoid_step.ok
        assert all(catenoid_step.report["passes"].values())

    def test_anchoring_and_invariants_exact(self, catenoid_step):
        rep = catenoid_step.report
        assert rep["third_component_deviation"] == 0.0
        assert rep["flux_deviation"] <= 1e-10
        assert rep["core_deviation"] <= 1e-10

    def test_third_component_change_detected(self, monkeypatch):
        # check (II) reads the returned members' own f3
        lopez_ros = lb.lopez_ros

        def shifted(*args):
            out = lopez_ros(*args)
            for h in out:
                h.f3 = lambda z, f3=h.f3: f3(z) + 1e-6
            return out

        monkeypatch.setattr(lb, "lopez_ros", shifted)
        r = lb.complete_step(
            wz.catalog("catenoid"), core=(0.8, 1.3), delta=0.5,
            ts=np.linspace(0.0, 1.0, 8),
        )
        assert not r.report["passes"]["third_components"]
        assert r.report["third_component_deviation"] == pytest.approx(1e-6)

    def test_distance_conclusions(self, catenoid_step):
        r = catenoid_step
        assert np.all(r.distances > r.tau - r.delta)
        assert r.final_distance > 1.0 / r.delta

    def test_wall_count_and_resolution(self, catenoid_step):
        r = catenoid_step
        assert r.N >= 2
        assert r.report["fine_resolution"] == 1.0 / (2.0 * r.N**3)
        for lab in r.labyrinths:
            assert len(lab.sets) == 2 * r.N**2
            assert 2.0 / r.N < lab.band.R - lab.band.r

    def test_estimate_ratios_exceed_one(self, catenoid_step):
        rep = catenoid_step.report
        assert rep["est1_ratio"] > 1.0
        assert rep["est2_ratio"] > 1.0
        assert rep["est3_ratio"] > 1.0

    @pytest.mark.parametrize("family", ["distinct", "quotient"])
    def test_laurent_input_evaluated_on_grids_only(self, monkeypatch, family):
        # exact data evaluate on the step's polar grids, one inverse FFT per
        # ring: no LaurentSeries is ever called on an array of points
        points = []
        call = wz.LaurentSeries.__call__

        def counted(self, z):
            if not isinstance(z, wz.PolarGrid):
                points.append(np.size(z))
            return call(self, z)

        monkeypatch.setattr(wz.LaurentSeries, "__call__", counted)
        if family == "distinct":
            members, ts = distinct_family()
        else:
            g = wz.LaurentQuotient(
                wz.LaurentSeries([1.0], 1), wz.LaurentSeries([1.0], 0)
            )
            ts = np.linspace(0.0, 1.0, 8)
            members = wz.WeierstrassData(g, wz.LaurentSeries([1.0]), "dz/z")
        res = lb.complete_step(members, core=(0.8, 1.3), delta=0.5, ts=ts)
        assert res.ok
        assert sum(points) == 0

    def test_opaque_callables_see_points(self, catenoid_step):
        # g and f3 as plain lambdas take the fallback at every point set:
        # they are handed points, never a grid, and the step agrees with
        # the exact Laurent path to 1e-12
        cat = wz.catalog("catenoid")
        seen = set()

        def g(z):
            seen.add(type(z))
            return cat.g(z)

        data = wz.WeierstrassData(g, lambda z: cat.f3(z), theta=cat.theta)
        res = lb.complete_step(data, core=(0.8, 1.3), delta=0.5)
        assert seen == {np.ndarray}
        assert res.ok and res.N == catenoid_step.N
        for key, value in catenoid_step.report.items():
            if key != "passes":
                assert res.report[key] == pytest.approx(value, rel=1e-12), key
        np.testing.assert_allclose(
            res.distances, catenoid_step.distances, rtol=1e-12, atol=0
        )

    def test_report_independent_of_seed(self, catenoid_step):
        other = lb.complete_step(
            wz.catalog("catenoid"), core=(0.8, 1.3), delta=0.5, seed=5
        )
        assert other.report == catenoid_step.report

    def test_short_crossings_fail_est3(self, monkeypatch):
        # every density of the step scaled by 1e-6 shortens every distance
        # 1000-fold: on the fine graph the band crossings fall to about
        # 2.57, below min(0.5, r) eps N = 2.73, while the endpoint distance,
        # also about 2.57, still exceeds 1/delta = 2; epsilon and N are
        # read from f3 alone, so they do not move
        density = wz.density
        monkeypatch.setattr(
            wz, "density", lambda g, f3t: 1e-6 * density(g, f3t)
        )
        r = lb.complete_step(
            wz.catalog("catenoid"), core=(0.8, 1.3), delta=0.5,
            ts=np.linspace(0.0, 1.0, 8),
        )
        assert r.report["passes"]["conclusion_v"]
        assert not r.report["passes"]["est3"]
        assert r.report["est3_ratio"] < 1.0
        assert not r.ok

    def test_growth_inequality_holds(self, catenoid_step):
        r = catenoid_step
        assert (1.0 + r.params.lam * 0.5) * r.params.c0 > 2.0 * r.N**4

    def test_bad_core_rejected(self):
        with pytest.raises(ValueError):
            lb.complete_step(wz.catalog("catenoid"), core=(1.1, 1.3), delta=0.5)

    @pytest.mark.parametrize(
        "n_members, n_ts, delta, name",
        [
            (1, 8, 0.0, "delta"),
            (1, 8, float("nan"), "delta"),
            (1, 8, float("inf"), "delta"),
            (1, 8, -1.0, "delta"),
            (3, 64, 0.5, "family and ts"),
            (64, 3, 0.5, "family and ts"),
            (0, None, 0.5, "family and ts"),
        ],
    )
    def test_bad_input_typed(self, n_members, n_ts, delta, name):
        cat = wz.catalog("catenoid")
        family = cat if n_members == 1 else [cat] * n_members
        ts = None if n_ts is None else np.linspace(0.0, 1.0, n_ts)
        with pytest.raises(ValueError, match=name):
            lb.complete_step(family, core=(0.8, 1.3), delta=delta, ts=ts)

    def test_family_with_foreign_ts_rejected(self):
        cat = wz.catalog("catenoid")
        ts = np.linspace(0.0, 1.0, 4)
        fam = iso.ImmersionFamily(
            ts=ts, members=[cat] * 4,
            periods=np.zeros((4, 3), complex), basepoint=1.0,
        )
        for other in (np.linspace(0.0, 1.0, 9), ts[::-1]):
            with pytest.raises(ValueError, match="family and ts"):
                lb.complete_step(fam, core=(0.8, 1.3), delta=0.5, ts=other)
        # the family's own ts, or none, are taken as given
        for same in (ts, None, list(ts)):
            members, got = lb._as_members(fam, same)
            assert members == [cat] * 4 and np.array_equal(got, ts)

    def test_flat_family_rejected(self):
        with pytest.raises(FlatInput):
            lb.complete_step(
                wz.catalog("flat_exponential"), core=(0.8, 1.3), delta=0.5
            )

    def test_band_clipped_below_two_over_n_raises_n(self):
        # delta 1.5 asks for N = 7, but the inner end clips its band to
        # 0.27 < 2/7; N must rise to 8, the least with 2/N below 0.27
        r = lb.complete_step(
            wz.catalog("catenoid"), core=(0.8, 1.3), delta=1.5,
            ts=np.linspace(0.0, 1.0, 8),
        )
        assert r.N == 8
        assert r.ok
        for lab in r.labyrinths:
            assert 2.0 / r.N < lab.band.R - lab.band.r

    def test_band_too_thin_for_any_budgeted_n(self):
        # the outer end is 0.01 wide, so no N up to N_MAX fits its band
        with pytest.raises(EstimateNotMet, match=r"band width .* 2/N = "):
            lb.complete_step(
                wz.catalog("catenoid"), core=(0.8, 1.99), delta=0.5,
                ts=np.linspace(0.0, 1.0, 8),
            )

    def test_unreachable_distance_raises(self):
        # delta so small that 1/delta is far beyond what one step provides
        # with only a handful of walls allowed by the band width
        with pytest.raises((EstimateNotMet, BandTooThin)):
            lb.complete_step(
                wz.catalog("catenoid"), core=(0.8, 1.3), delta=1e-4
            )

    def test_wall_count_search_gives_up_after_four_tries(self, monkeypatch):
        # parameters that always ask for one wall more than N: the message
        # names the last N tried and the N its bands need
        def one_more(members, bands, N, t_grid):
            r = min(min(0.5, b.r) for b in bands)
            eps = (1.0 + lb.EST_MARGIN) * 2.0 / (r * (N + 0.5))
            return lb.LopezRosParams(lam=1.0, eps=eps, c0=1.0)

        monkeypatch.setattr(lb, "choose_params", one_more)
        with pytest.raises(EstimateNotMet, match=r"^walls stage: no wall count"
                           r" .* the last N = 5 need N = 6$"):
            lb.complete_step(
                wz.catalog("catenoid"), core=(0.8, 1.3), delta=0.5,
                ts=np.linspace(0.0, 1.0, 8),
            )


class TestStages:
    """complete_step composes its stages; each stage's record is its own."""

    def test_endpoint_stage_on_walls_record(self, catenoid_step):
        # a search over N reruns only the wall and endpoint stages: the
        # endpoint stage on the wall stage's record is the step's, bit for bit
        cat = wz.catalog("catenoid")
        members, ts = [cat] * catenoid_step.ts.size, catenoid_step.ts
        rho = wz.homology_radius(cat)
        base = lb._base_distances(members, rho, 0.5)
        walls = lb._walls(members, ts, (0.8, 1.3), base.required)
        end = lb._endpoint(members, rho, walls, 0.5)
        assert walls.N == catenoid_step.N
        assert end.report["final_distance"] == catenoid_step.final_distance
        assert end.report["est3_ratio"] == catenoid_step.report["est3_ratio"]
        assert end.passes == {"conclusion_v": True, "est3": True}

    def test_independent_of_call_order(self, catenoid_step):
        # the labyrinth_step benchmark alternates its inputs in one process:
        # a fresh interpreter's catalog step, the same after a step on the
        # stored endpoint, and this process's are the same bits
        script = (
            "import sys\n"
            "from minflux import cli, labyrinth as lb, weierstrass as wz\n"
            "stored = cli.load_family(sys.argv[1]).members[-1]\n"
            "for data in (wz.catalog('catenoid'), stored, wz.catalog('catenoid')):\n"
            "    r = lb.complete_step(data, core=(0.8, 1.3), delta=0.5)\n"
            "    print(repr(r.report), r.distances.tobytes().hex())\n"
        )
        root = Path(__file__).resolve().parents[1]
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        out = subprocess.run(
            [sys.executable, "-c", script,
             str(root / "perfbench" / "stored_endpoint.json")],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        here = (f"{catenoid_step.report!r} "
                f"{catenoid_step.distances.tobytes().hex()}")
        assert len(out) == 3
        assert out[0] == out[2] == here
