"""Tests for labyrinths, Lopez-Ros parameters, distances and the step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from minflux import labyrinth as lb
from minflux import weierstrass as wz
from minflux.errors import (
    BandTooThin,
    DisconnectedGraph,
    EstimateNotMet,
    FlatInput,
    GaussMapTooSmall,
    NoBandFound,
)


def wide_band():
    end = lb.AnnulusEnd(0, 0.2, 2.0)
    return lb.AnnulusBand(0, 0, 0.3, 1.9, end, (0.5, 1.0))


def ones_families(n=9):
    t = np.linspace(0.0, 1.0, n)
    f3t = [lambda z: np.ones_like(np.asarray(z, complex))] * n
    g = [lambda z: np.ones_like(np.asarray(z, complex))] * n
    return f3t, g, t


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
        f3t, _, t = ones_families()
        bands = lb.find_bands(f3t, [end], t)
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
        f3t, _, t = ones_families()
        bands = lb.find_bands(f3t, [end], t)
        assert end.r < bands[0].r < bands[0].R < end.R
        # chart points of the band map into the physical end annulus
        z = end.from_chart(bands[0].chart_grid(8, 16))
        assert np.all((np.abs(z) > 0.5 - 1e-12) & (np.abs(z) < 0.8 + 1e-12))


class TestChooseParams:
    def test_lambda_oracle(self):
        # N = 2, c0 = 1, bracket start 1/2, margin 0: the growth target is
        # 2 N^4 = 32 and the smallest admissible lambda is 62
        end = lb.AnnulusEnd(0, 1.3, 2.0)
        band = lb.AnnulusBand(0, 0, 1.4, 1.9, end, (0.5, 1.0))
        f3t, g, t = ones_families()
        p = lb.choose_params(f3t, g, [band], 2, t, margin=0.0)
        assert p.lam == pytest.approx(62.0, abs=1e-12)
        assert p.c0 == pytest.approx(1.0, abs=1e-12)
        assert p.eps == pytest.approx(0.5, abs=1e-12)

    def test_gauss_map_too_small(self):
        end = lb.AnnulusEnd(0, 1.3, 2.0)
        band = lb.AnnulusBand(0, 0, 1.4, 1.9, end, (0.5, 1.0))
        f3t, _, t = ones_families()
        tiny = [lambda z: 1e-12 * np.ones_like(np.asarray(z, complex))] * len(t)
        with pytest.raises(GaussMapTooSmall):
            lb.choose_params(f3t, tiny, [band], 2, t)

    def test_epsilon_uses_chart_units(self):
        # inversion chart with c = 0.4: theta/dz = 1 but dz/dw = -c/w^2,
        # so the chart-unit integrand on |w| ~ 0.6 is about 1.1, not 1
        end = lb.AnnulusEnd(0, 0.5, 0.8, kind="inversion", c=0.4)
        band = lb.AnnulusBand(0, 0, 0.55, 0.75, end, (0.5, 1.0))
        f3t, g, t = ones_families()
        p = lb.choose_params(f3t, g, [band], 2, t)
        expect = 0.5 * 0.4 / 0.75**2
        assert p.eps == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("which", ["epsilon", "lambda"])
    def test_reverification_failure_is_typed(self, monkeypatch, which):
        # an overestimated sampled minimum makes the chosen parameter too
        # bold; the fine-grid re-verification must catch it
        end = lb.AnnulusEnd(0, 1.3, 2.0)
        band = lb.AnnulusBand(0, 0, 1.4, 1.9, end, (0.5, 1.0))
        f3t, g, t = ones_families()
        real = lb._sampled_min

        def overestimate(fun, points, refine):
            is_g = any(fun is h for h in g)
            scale = 2.0 if is_g == (which == "lambda") else 1.0
            return scale * real(fun, points, refine)

        monkeypatch.setattr(lb, "_sampled_min", overestimate)
        with pytest.raises(EstimateNotMet, match=f"{which} inequality"):
            lb.choose_params(f3t, g, [band], 2, t)

    def test_reverification_of_bracket_without_samples(self, monkeypatch):
        # no t sample lies in (0.55, 0.6): both passes must check the
        # nearest sample, so the overestimate is still caught
        end = lb.AnnulusEnd(0, 1.3, 2.0)
        band = lb.AnnulusBand(0, 0, 1.4, 1.9, end, (0.55, 0.6))
        f3t, g, t = ones_families(2)
        real = lb._sampled_min
        monkeypatch.setattr(
            lb, "_sampled_min", lambda *a: 2.0 * real(*a)
        )
        with pytest.raises(EstimateNotMet):
            lb.choose_params(f3t, g, [band], 2, t)

    def test_invalid_params_typed(self):
        with pytest.raises(EstimateNotMet):
            lb.LopezRosParams(lam=1.0, eps=0.0, c0=1.0)


class TestDeduplication:
    """Equal members are evaluated once; results must not depend on it."""

    def families(self, t):
        cat = wz.catalog("catenoid")

        def f3t(z):
            return cat.f3(z) * cat.theta_over_dz(z)

        shared = tuple([f] * t.size for f in (cat.f3, f3t, cat.g))
        wrapped = tuple(
            [lambda z, f=f: f(z) for _ in t] for f in (cat.f3, f3t, cat.g)
        )
        return shared, wrapped

    def test_bands_and_params_identical(self):
        t = np.linspace(0.0, 1.0, 9)
        shared, wrapped = self.families(t)
        assert len(lb._distinct(shared[0])) == 1
        assert len(lb._distinct(wrapped[0])) == t.size
        ends = [
            lb.AnnulusEnd(0, 0.5, 0.8, kind="inversion", c=0.4),
            lb.AnnulusEnd(1, 1.3, 2.0),
        ]
        out = []
        for f3, f3t, g in (shared, wrapped):
            bands = lb.find_bands(f3, ends, t)
            out.append((bands, lb.choose_params(f3t, g, bands, 3, t)))
        assert out[0] == out[1]

    def test_tau_independent_of_deduplication(self, catenoid_step):
        # distinct members with equal data: nothing is shared, tau must
        # equal that of the constant family, where all members are one
        cat = wz.catalog("catenoid")
        ts = np.linspace(0.0, 1.0, 3)
        copies = [
            wz.WeierstrassData(
                lambda z: cat.g(z), lambda z: cat.f3(z), theta=cat.theta,
                r_inner=cat.r_inner, r_outer=cat.r_outer,
            )
            for _ in ts
        ]
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


class TestFlatDistance:
    @given(
        r_in=st.floats(0.1, 2.0),
        width=st.floats(0.05, 2.0),
        s=st.floats(0.0, 1.0),
        angle=st.floats(0.0, 2.0 * np.pi),
        boundary=st.sampled_from(["inner", "outer", "both"]),
        n_r=st.integers(2, 32),
        n_th=st.integers(3, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_flat_dijkstra(
        self, r_in, width, s, angle, boundary, n_r, n_th
    ):
        r_out = r_in + width
        x0 = (r_in + s * width) * np.exp(1j * angle)
        graph = lb.build_metric_graph(
            r_in, r_out, x0, n_r=n_r, n_th=n_th, boundary=boundary
        )
        flat = graph.distance(lambda z: np.ones(np.asarray(z).shape))
        assert graph.flat_distance() == pytest.approx(flat, rel=1e-12, abs=0)


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


def coo_distance(graph, density_fn):
    """MetricGraph.distance from the COO edges, converted to CSR per call."""
    rows, cols, lengths = coo_edges(graph)
    rho = np.sqrt(np.abs(density_fn(graph.nodes)))
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
        boundary=st.sampled_from(["inner", "outer", "both"]),
        x0=st.complex_numbers(max_magnitude=3.0, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
        walled=st.sets(st.integers(0, 11), max_size=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_distance_equals_coo_reference(
        self, radii, n_th, boundary, x0, seed, walled
    ):
        radii = np.sort(radii)
        n_r = radii.size
        graph = lb.build_metric_graph(
            radii[0], radii[-1], x0, radii=radii, n_th=n_th, boundary=boundary
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

        def density(z):
            return dens.ravel()

        # a ring of infinite density blocks every path through it, so the
        # graph is cut when one lies between the source ring and each
        # boundary ring (inclusive) other than the source ring itself
        i_src = graph.source // n_th
        ends = {"inner": [0], "outer": [n_r - 1], "both": [0, n_r - 1]}
        cut = all(
            b != i_src
            and any(min(i_src, b) <= k <= max(i_src, b) for k in walled)
            for b in ends[boundary]
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


class TestFineRadii:
    """Every wall and every gap between walls holds a fine-graph ring."""

    @pytest.mark.parametrize("kind", ["identity", "inversion"])
    @pytest.mark.parametrize("N", [2, 9, 19])
    def test_walls_and_gaps_resolved(self, kind, N):
        r_in, r_out = 0.2, 2.0
        end = lb.AnnulusEnd(0, r_in, r_out, kind=kind, c=r_in * r_out)
        band = lb.AnnulusBand(0, 0, 0.3, 1.9, end, (0.5, 1.0))
        lab = lb.build_labyrinth(band, N)
        radii = lb._fine_radii(r_in, r_out, [lab], N)
        chart = np.sort(end.radius_in_chart(radii))

        def rings(lo, hi, closed):
            if closed:
                return np.count_nonzero((chart >= lo) & (chart <= hi))
            return np.count_nonzero((chart > lo) & (chart < hi))

        for s in lab.sets:
            assert rings(s.rad_lo, s.rad_hi, closed=True) >= 2
        for outer, inner in zip(lab.sets, lab.sets[1:]):
            assert rings(inner.rad_hi, outer.rad_lo, closed=False) >= 1


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
        graph = lb.build_metric_graph(0.5, 2.0, x0, n_r=n_r, n_th=n_th)
        # a factor per circle times one per node: walls of any height,
        # so the bound is positive in about half of the cases
        rng = np.random.default_rng(seed)
        dens = (
            10.0 ** rng.uniform(-2, 4, (n_r, 1))
            * 10.0 ** rng.uniform(-1, 1, (n_r, n_th))
        ).ravel()
        field = graph.node_distances(lambda z: dens)
        want = shortest_window_crossing(graph, dens, i_lo, i_hi)
        # either circle may face the source; the relative slack covers
        # the two runs summing edge weights in different orders
        for near, far in ((i_lo, i_hi), (i_hi, i_lo)):
            assert lb._crossing_bound(field, near, far) <= want * (1 + 1e-12)

    def test_tight_when_near_circle_is_cheap(self):
        # metric ~0 out to circle 2 and flat beyond: the whole near circle
        # sits at distance ~0, so the bound meets the shortest crossing
        graph = lb.build_metric_graph(1.0, 2.0, 1.0, n_r=11, n_th=64)
        cheap = np.abs(graph.nodes) < 1.2 + 1e-9
        dens = np.where(cheap, 1e-12, 1.0)
        field = graph.node_distances(lambda z: dens)
        want = shortest_window_crossing(graph, dens, 2, 7)
        got = lb._crossing_bound(field, 2, 7)
        assert want - 1e-4 < got <= want


class TestIntrinsicDistance:
    def flat(self, f3=1.0):
        return wz.WeierstrassData(1.0, f3, theta="dz", r_inner=1.0, r_outer=2.0)

    def test_flat_radial_distance(self):
        d = lb.intrinsic_distance(self.flat(), 1.0 + 0j, boundary="outer")
        assert d.value == pytest.approx(1.0, rel=0.02)

    def test_refinement_stable(self):
        d1 = lb.intrinsic_distance(self.flat(), 1.0 + 0j, boundary="outer")
        d2 = lb.intrinsic_distance(
            self.flat(), 1.0 + 0j, boundary="outer", n_r=128, n_th=512
        )
        assert abs(d2.value - d1.value) <= 0.01 * d1.value

    def test_density_scaling(self):
        d1 = lb.intrinsic_distance(self.flat(), 1.0 + 0j, boundary="outer")
        d4 = lb.intrinsic_distance(self.flat(2.0), 1.0 + 0j, boundary="outer")
        assert d4.value == pytest.approx(2.0 * d1.value, rel=1e-12)

    def test_calibration_reported(self):
        d = lb.intrinsic_distance(self.flat(), 1.2 + 0j, boundary="both")
        assert 0.9 <= d.calibration <= 1.1
        assert d.resolution > 0

    def test_calibration_follows_passed_graph(self):
        # the exact flat distance is taken to the graph's own boundary
        # circles, whatever the boundary argument says
        graph = lb.build_metric_graph(1.0, 2.0, 1.05 + 0j, boundary="outer")
        d = lb.intrinsic_distance(self.flat(), 1.05 + 0j, graph=graph)
        assert 0.9 <= d.calibration <= 1.1

    def test_disconnected_graph(self):
        graph = lb.build_metric_graph(
            1.0, 2.0, 1.05 + 0j, n_r=32, n_th=64, boundary="outer"
        )

        def blocked(z):
            dens = np.ones(np.asarray(z).shape)
            ring = np.abs(np.abs(z) - 1.5) < 0.1
            dens[ring] = np.inf
            return dens

        with pytest.raises(DisconnectedGraph):
            graph.distance(blocked)


@pytest.fixture(scope="module")
def catenoid_step():
    return lb.complete_step(wz.catalog("catenoid"), core=(0.8, 1.3), delta=0.5)


def naive_checks(members, res, core):
    """tau, the per-t distances and the check values of complete_step,
    evaluating every member through its own callables, one at a time."""
    data0 = members[0]
    rho = float(np.sqrt(data0.r_inner * data0.r_outer))
    coarse = lb.build_metric_graph(data0.r_inner, data0.r_outer, complex(rho))
    out = {
        "tau": min(
            coarse.distance(lambda z, m=m: wz.metric_density(m, z))
            for m in lb._distinct(members)
        ),
        "distances": np.array([
            coarse.distance(lambda z, h=h: wz.metric_density(h, z))
            for h in res.members
        ]),
    }
    pairs = list(zip(res.members, members))
    probe = data0.grid(n_r=16, n_th=64)
    out["anchoring"] = np.array_equal(res.members[0].f(probe), data0.f(probe))
    out["third_component_deviation"] = max(
        float(np.max(np.abs(h.f3(probe) - m.f3(probe)))) for h, m in pairs
    )
    circle = wz.circle(rho, 512)
    out["flux_deviation"] = max(
        float(np.max(np.abs(wz.flux(h, circle) - wz.flux(m, circle))))
        for h, m in pairs
    )
    lo, hi = core
    core_pts = circle * np.linspace(lo / rho + 1e-9, hi / rho - 1e-9, 8)[:, None]
    out["core_deviation"] = max(
        float(np.max(np.abs(h.f(core_pts) - m.f(core_pts)))) for h, m in pairs
    )
    eps, N = res.params.eps, res.N
    est1, est2 = np.inf, np.inf
    for lab in res.labyrinths:
        band = lab.band
        w_grid = band.chart_grid(96, 128)
        z_grid = band.end.from_chart(w_grid)
        inside = lab.contains_chart(w_grid)
        t_lo, t_hi = band.bracket
        for t in (t_lo, 0.5 * (t_lo + t_hi), t_hi):
            h = res.members[int(np.argmin(np.abs(res.ts - t)))]
            dens = wz.metric_density(h, z_grid)
            dens_chart = dens * np.abs(band.end.dz_dw(w_grid)) ** 2
            if np.any(inside):
                m1 = float(np.min(dens_chart[inside]))
                est1 = min(est1, m1 / (N**8 * eps**2))
            est2 = min(est2, float(np.min(dens_chart)) / eps**2)
    out["est1_ratio"], out["est2_ratio"] = est1, est2
    return out


class TestNodeSetEvaluation:
    """complete_step evaluates each base member and wall mask once per
    point set; every value must equal member-by-member evaluation."""

    def assert_matches(self, members, res, core):
        want = naive_checks(members, res, core)
        assert res.tau == want.pop("tau")
        assert np.array_equal(res.distances, want.pop("distances"))
        assert res.report["passes"]["anchoring"] == want.pop("anchoring")
        for key, value in want.items():
            assert res.report[key] == value, key

    def test_constant_family(self, catenoid_step):
        members = [wz.catalog("catenoid")] * catenoid_step.ts.size
        self.assert_matches(members, catenoid_step, (0.8, 1.3))

    def test_distinct_members(self):
        ts = np.linspace(0.0, 1.0, 4)
        members = [
            wz.WeierstrassData(
                wz.LaurentSeries([1.0 + 0.05 * t], 1),
                wz.LaurentSeries([1.0 + 0.1 * t], 0),
                theta="dz/z",
            )
            for t in ts
        ]
        res = lb.complete_step(members, core=(0.8, 1.3), delta=0.5, ts=ts)
        self.assert_matches(members, res, (0.8, 1.3))


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
        assert r.report["fine_resolution"] == 1.0 / (lb.FINE_PER_CELL * r.N**3)
        for lab in r.labyrinths:
            assert len(lab.sets) == 2 * r.N**2
            assert 2.0 / r.N < lab.band.R - lab.band.r

    def test_estimate_ratios_exceed_one(self, catenoid_step):
        rep = catenoid_step.report
        assert rep["est1_ratio"] > 1.0
        assert rep["est2_ratio"] > 1.0
        assert rep["est3_ratio"] > 1.0

    def test_report_independent_of_seed(self, catenoid_step):
        other = lb.complete_step(
            wz.catalog("catenoid"), core=(0.8, 1.3), delta=0.5, seed=5
        )
        assert other.report == catenoid_step.report

    def test_short_crossings_fail_est3(self, monkeypatch):
        # the fine-graph metric scaled by 1e-6 shortens every distance on
        # it 1000-fold: the band crossings fall to about 2.57, below
        # min(0.5, r) eps N = 2.73, while the endpoint distance, also
        # about 2.57, still exceeds 1/delta = 2
        density = wz.metric_density
        monkeypatch.setattr(
            wz, "metric_density", lambda data, z: 1e-6 * density(data, z)
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
