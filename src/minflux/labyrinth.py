"""The completeness step: labyrinths, the Lopez-Ros transform, distances.

An annular band is selected near each end of the domain where the third
component of the derivative data does not vanish.  Inside each band a
labyrinth of 2N^2 thin concentric walls with alternating angular openings
is placed; a Lopez-Ros transformation multiplies the Gauss map by a large
factor on the walls, which blows up the metric there without touching the
third component or any period over curves in the core.  Any path from the
core to the boundary must then either cross the walls (expensive) or
snake through the alternating openings (long), so the intrinsic distance
to the boundary grows by a prescribed amount.  Distances are measured by
Dijkstra runs on polar metric graphs; the endpoint graph has one ring at
the centre of every wall and of every gap between walls (_fine_radii).

Every point set of the step is a polar grid about 0 in the physical plane:
the graphs, the probe, the homology and core circles, the band windows and
their winding circles.  A band of the inversion end w = c/z is still one:
its chart circle of radius s is the physical circle of radius c/s, run the
other way.  The base members are evaluated on these grids, so exact Laurent
data cost one inverse FFT per ring (weierstrass.PolarGrid), and an opaque
callable sees the grid's points.  Every density, of a base member or of a
transformed one, follows one rule from the values of g and f3 theta/dz
(weierstrass.density); the lopez_ros members are the step's output and are
not evaluated by it.

A transformed member differs from its base member only on the walls,
where g is grown; elsewhere g is multiplied by 1.0, so the values keep
their base bits, and every comparison with the base member reads the wall
points only.  So conclusion (IV) takes the base member's coarse search
wherever no wall density falls (_certified_distance).
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from . import weierstrass as wz
from .errors import (
    BandTooThin,
    DisconnectedGraph,
    EstimateNotMet,
    FlatInput,
    GaussMapTooSmall,
    InvalidCore,
    NoBandFound,
    NonFiniteValues,
)
from .loops import fourier_derivative

#: The notice of a complete_step report: what its transformed members are.
SURROGATE_NOTICE = (
    "transformed members are the piecewise gauge surrogate g*(1 + lambda*t) "
    "on the walls and are not holomorphic; anchoring, third_components, "
    "flux_traces and core_approximation hold by construction"
)

#: Deformation-time bracket over which band estimates are checked.
BRACKET = (0.5, 1.0)

#: Safety margin applied to the resolution inequality that selects N.
EST_MARGIN = 0.25

#: Margin in the Gauss-map growth inequality.
LAMBDA_MARGIN = 0.25

#: Largest wall count a single step may request (2 N^2 walls per band).
N_MAX = 50

#: Graph nodes per block of the density in intrinsic_distance, rounded down
#: to whole rings.  A block's grid values (g, f3, theta/dz, the wall mask)
#: live only while its densities are formed, inside the search's weights
#: call, so they add one block, not the whole fine graph, to the step's
#: peak memory.
DENSITY_BLOCK = 2**16


# ---------------------------------------------------------------------------
# ends, bands and labyrinths


@dataclass(frozen=True)
class AnnulusEnd:
    """An annular end with a chart in which the boundary faces outward.

    kind 'identity' uses w = z; kind 'inversion' uses w = c/z, which turns
    the end at the inner boundary into a standard annulus whose large
    radii approach the boundary.  Band radii are literal in this chart.
    """

    hole: int
    r: float
    R: float
    kind: str = "identity"
    c: float = 1.0

    def to_chart(self, z):
        """Chart point of z; an involution, so also the inverse map."""
        z = np.asarray(z, dtype=complex)
        return z if self.kind == "identity" else self.c / z

    def dz_dw(self, w):
        w = np.asarray(w, dtype=complex)
        if self.kind == "identity":
            return np.ones_like(w)
        return -self.c / (w * w)

    def radius_in_chart(self, rz):
        """Chart modulus corresponding to physical modulus rz; the map is an
        involution, so it also takes chart moduli to physical ones."""
        return rz if self.kind == "identity" else self.c / rz


@dataclass(frozen=True)
class AnnulusBand:
    """A compact round band r < |w| < R in the chart of an end."""

    hole: int
    k: int
    r: float
    R: float
    end: AnnulusEnd
    bracket: tuple

    def __post_init__(self):
        if not (self.end.r < self.r < self.R < self.end.R):
            raise ValueError("band not contained in its end")

    def grid(self, n_r, n_th):
        """The band's physical polar grid: n_r circles at the chart radii
        from r to R, with n_th angles each.  In the inversion chart this is
        the chart grid with its angles reversed."""
        return wz.PolarGrid(
            self.end.radius_in_chart(np.linspace(self.r, self.R, n_r)), n_th
        )


@dataclass(frozen=True)
class LabyrinthSet:
    """One wall: a radial interval with an angular opening on one side."""

    n: int
    rad_lo: float
    rad_hi: float
    ang_gap: float  # half-opening in radians around the opening direction

    def contains_chart(self, w):
        w = np.asarray(w, dtype=complex)
        mod = np.abs(w)
        ok = (mod >= self.rad_lo) & (mod <= self.rad_hi)
        sign = -1.0 if self.n % 2 else 1.0
        ang = np.mod(np.angle(sign * w), 2.0 * np.pi)
        ok &= (ang >= self.ang_gap) & (ang <= 2.0 * np.pi - self.ang_gap)
        return ok


@dataclass(frozen=True)
class Labyrinth:
    """2N^2 disjoint walls inside a band, with alternating openings."""

    band: AnnulusBand
    N: int
    sets: tuple

    def contains_chart(self, w):
        """Vectorized membership using the arithmetic wall layout.

        Wall n occupies the fraction [1/4, 3/4] of the n-th radial cell of
        width 1/N^3 below the outer band radius, so membership reduces to
        one floor division instead of a loop over 2N^2 sets.
        """
        shape = np.shape(w)
        w = np.asarray(w, dtype=complex).ravel()
        N = self.N
        u = (self.band.R - np.abs(w)) * N**3
        cell = np.floor(u)
        frac = u - cell
        n = cell + 1.0
        ok = (frac >= 0.25) & (frac <= 0.75) & (n >= 1) & (n <= 2 * N**2)
        # the angular test only where the radial one passes
        sign = np.where(np.mod(n[ok], 2.0) == 1.0, -1.0, 1.0)
        ang = np.mod(np.angle(sign * w[ok]), 2.0 * np.pi)
        gap = 1.0 / N**2
        ok[ok] = (ang >= gap) & (ang <= 2.0 * np.pi - gap)
        return ok.reshape(shape)[()]  # a scalar for a scalar w

    def contains(self, z):
        return self.contains_chart(self.band.end.to_chart(z))

    def polygons(self):
        """Wall outlines in the chart plane, one closed polyline per set,
        with 64 points on each arc."""
        out = []
        for s in self.sets:
            sign = -1.0 if s.n % 2 else 1.0
            th = np.linspace(s.ang_gap, 2.0 * np.pi - s.ang_gap, 64)
            inner = s.rad_lo * np.exp(1j * th)
            outer = s.rad_hi * np.exp(1j * th[::-1])
            poly = sign * np.concatenate([inner, outer, inner[:1]])
            out.append(poly)
        return out


def build_labyrinth(band, N):
    """The standard labyrinth of 2N^2 walls inside a band.

    Wall n sits between the radii s_n = R - n/N^3, shrunk by 1/(4N^3) on
    each side so consecutive walls clear each other by exactly 1/(2N^3),
    and keeps an angular opening of width 2/N^2 on alternating sides.
    """
    N = int(N)
    if N < 2:
        raise ValueError("N must be at least 2")
    if 2.0 / N >= band.R - band.r:
        raise BandTooThin(
            f"band width {band.R - band.r:.3g} does not exceed 2/N = {2.0 / N:.3g}"
        )
    q = 1.0 / (4.0 * N**3)
    s = band.R - np.arange(2 * N**2 + 1) / N**3
    sets = [
        LabyrinthSet(n=n, rad_lo=s[n] + q, rad_hi=s[n - 1] - q, ang_gap=1.0 / N**2)
        for n in range(1, 2 * N**2 + 1)
    ]
    if not all(band.r < sn < band.R for sn in s[1:]):
        raise BandTooThin("wall radii leave the band")
    return Labyrinth(band=band, N=N, sets=tuple(sets))


# ---------------------------------------------------------------------------
# band selection and parameters


def _distinct(objs):
    """The distinct objects among objs by identity, in first-seen order.

    Members of a constant family share one object, and every check here is
    a deterministic function of the callable, so one evaluation per
    distinct callable gives the same result as one per member.
    """
    return list({id(o): o for o in objs}.values())


def _sampled_min(probe, refine):
    """Min of |values| over a probe grid's values and a refined grid's.

    Returns the smaller of the two sampled minima.  The refinement (twice
    the probe density) makes a zero between probe points less likely to
    be missed; it is not a lower bound between samples.
    """
    return min(float(np.min(np.abs(probe))), float(np.min(np.abs(refine))))


def _window_zero_free(f3, band):
    """True when f3 has no zero in the closed band, by the argument principle.

    The zero count in the band annulus is the winding of f3 over the outer
    chart circle minus the winding over the inner one.  Each is sampled at
    256 points of its physical circle, a one-ring polar grid on which exact
    f3 costs one FFT.  On the inversion end the physical circles run their
    chart circles backwards, which negates both windings, so their equality
    still means no zero.  Both circles must stay clear of zero for the
    sampled winding to be trustworthy.
    """
    from .riemann import winding_number

    counts = []
    for radius in (band.r, band.R):
        circle = wz.PolarGrid([band.end.radius_in_chart(radius)], 256)
        vals = wz._evaluate(f3, circle)
        if float(np.min(np.abs(vals))) <= 0.0:
            return False
        counts.append(winding_number(vals))
    return counts[1] == counts[0]


def _bracket_samples(t_grid, bracket):
    """Indices of the t samples inside a bracket, or of the one nearest its
    start when the bracket holds none."""
    t_lo, t_hi = bracket
    sel = np.nonzero((t_grid >= t_lo - 1e-12) & (t_grid <= t_hi + 1e-12))[0]
    if sel.size == 0:
        sel = np.array([np.argmin(np.abs(t_grid - t_lo))])
    return sel


def find_bands(f3_family, ends, t_grid, width=None):
    """Bands near each end where no member's third component vanishes.

    f3_family: list over t_grid of callables z -> f3(z).  For each end, the
    band window with the largest sampled minimum of |f_t^3| over the
    members in BRACKET is selected among 12 windows of the given width
    (default: half the end's span less 5 % padding at each side).  The
    minimum is sampled on the window's physical polar grids of 24 x 48 and
    48 x 96 points (AnnulusBand.grid), where exact f3 costs one FFT per
    ring and an opaque callable sees the points.  A window counts only
    when a sampled argument-principle count finds it free of zeros of
    every sampled member, so zeros between grid points are still caught
    when the boundary circles are resolved.  Raises NoBandFound when every
    candidate window fails.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    idx = _bracket_samples(t_grid, BRACKET)
    bands = []
    for end in ends:
        span = end.R - end.r
        pad = 0.05 * span
        w_band = width if width is not None else 0.5 * (span - 2 * pad)
        w_band = min(w_band, span - 2 * pad)
        starts = np.linspace(end.r + pad, end.R - pad - w_band, 12)
        scores = np.full(starts.size, -1.0)
        for ci, a in enumerate(starts):
            cand = AnnulusBand(
                end.hole, 0, float(a), float(a + w_band), end, BRACKET
            )
            coarse, fine = cand.grid(24, 48), cand.grid(48, 96)
            m = np.inf
            for f3 in _distinct(f3_family[j] for j in idx):
                if not _window_zero_free(f3, cand):
                    m = -1.0
                    break
                m = min(m, _sampled_min(wz._evaluate(f3, coarse),
                                        wz._evaluate(f3, fine)))
            scores[ci] = m
        best = float(np.max(scores))
        if best <= 0.0:
            raise NoBandFound(
                f"third component vanishes on every candidate band of "
                f"end {end.hole} for t in [{BRACKET[0]}, {BRACKET[1]}]"
            )
        good = np.nonzero(scores >= best * (1.0 - 1e-9))[0]
        ci = int(good[len(good) // 2])  # middle of the tied best windows
        a = float(starts[ci])
        bands.append(AnnulusBand(end.hole, 0, a, a + w_band, end, BRACKET))
    return bands


@dataclass(frozen=True)
class LopezRosParams:
    lam: float
    eps: float
    c0: float

    def __post_init__(self):
        if self.eps <= 0 or self.c0 <= 0 or self.lam < 0:
            raise EstimateNotMet(
                f"walls stage: invalid Lopez-Ros parameters lam {self.lam:.6g}, "
                f"eps {self.eps:.6g}, c0 {self.c0:.6g}: need eps, c0 > 0 <= lam"
            )


def _band_f3theta(points, m, band):
    """f^3 theta/dw of base member m in chart units, on a point set."""
    return points.f3_theta(m) * band.end.dz_dw(band.end.to_chart(points.points))


def choose_params(members, bands, N, t_grid):
    """Lopez-Ros parameters for the given bands and wall count N.

    members: per-t Weierstrass data.  epsilon is half the sampled band
    minimum of |f^3 theta / dw| in chart units; lambda is the smallest value
    whose growth inequality (1 + lambda t) c0 > 2 N^4 (1 + LAMBDA_MARGIN)
    holds from the earliest bracket start onward.  The minima are sampled on
    each band's 24 x 48 and 48 x 96 polar grids, and the re-verification
    reads the same 48 x 96 values.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    eps_min = c0 = t0_min = np.inf
    checked = []
    for band in bands:
        sel = _bracket_samples(t_grid, band.bracket)
        chosen = _distinct(members[j] for j in sel)
        coarse = _PointSet(band.grid(24, 48), chosen)
        fine = _PointSet(band.grid(48, 96), chosen)
        t0_min = min(t0_min, band.bracket[0])
        for m in chosen:
            eps_min = min(eps_min, _sampled_min(
                _band_f3theta(coarse, m, band), _band_f3theta(fine, m, band)
            ))
            c0 = min(c0, _sampled_min(coarse.gf3(m)[0], fine.gf3(m)[0]))
        checked.append((band, sel, chosen, fine))
    if not np.isfinite(c0) or c0 < 1e-10:
        raise GaussMapTooSmall(f"sampled min |g| {c0:.3g} on the bands, need >= 1e-10")
    eps = 0.5 * eps_min
    target = 2.0 * N**4 * (1.0 + LAMBDA_MARGIN)
    lam = max(0.0, (target / c0 - 1.0) / t0_min)
    params = LopezRosParams(lam=lam, eps=eps, c0=c0)
    # re-verify both inequalities on the fine grids; 1 + lambda t > 0 and
    # rounding is monotone, so (1 + lambda t) min|g| = min((1 + lambda t)|g|)
    for band, sel, chosen, fine in checked:
        for m in chosen:
            f3_min = float(np.min(np.abs(_band_f3theta(fine, m, band))))
            if f3_min <= eps:
                raise EstimateNotMet(
                    f"walls stage: epsilon inequality fails on re-verification: "
                    f"min |f3 theta/dw| {f3_min:.6g} <= eps {eps:.6g}"
                )
        g_min = {id(m): float(np.min(np.abs(fine.gf3(m)[0]))) for m in chosen}
        for j in sel:
            grown = (1.0 + lam * float(t_grid[j])) * g_min[id(members[j])]
            if grown < 2.0 * N**4 * (1.0 - 1e-12):
                raise EstimateNotMet(
                    f"walls stage: lambda inequality fails on re-verification: "
                    f"(1 + lam t) min |g| {grown:.6g} < 2 N^4 {2.0 * N**4:.6g}"
                )
    return params


# ---------------------------------------------------------------------------
# the Lopez-Ros transformation


def _factors(params, t_grid):
    """The Gauss-map factor 1 + lambda t on the walls, per t sample."""
    return [1.0 + params.lam * float(t) for t in np.asarray(t_grid, dtype=float)]


def _wall_mask(labyrinths, z):
    """True at the physical points z that lie on a wall of any labyrinth."""
    mask = np.zeros(z.shape, dtype=bool)
    for lab in labyrinths:
        mask |= lab.contains(z)
    return mask


def _grown(g_values, mask, factor):
    """Values of the transformed Gauss map: g times factor on the walls."""
    return g_values * np.where(mask, factor, 1.0)


def lopez_ros(data_t, params, labyrinths, t_grid):
    """Per-t transformed data: g multiplied by 1 + lambda t on the walls.

    The third component object is shared, so it is identical before and
    after; on the complement of the walls (in particular on the core) the
    data are unchanged.  At t = 0 the factor is exactly 1 everywhere.
    """
    out = []
    for data, factor in zip(data_t, _factors(params, t_grid)):

        def g(z, base=data.g, fac=factor):
            z = np.asarray(z, dtype=complex)
            return _grown(base(z), _wall_mask(labyrinths, z), fac)

        out.append(wz.WeierstrassData(
            g, data.f3, theta=data.theta, r_inner=data.r_inner,
            r_outer=data.r_outer))
    return out


class _PointSet:
    """Base member values and the union wall mask on one polar grid.

    Each distinct base member's g, f3 and theta/dz are evaluated once on
    the grid, exact Laurent data by one inverse FFT per ring, and so is its
    density.  A transformed member, given by its base member and its
    factor, is recomputed at the points under the mask only (on_walls):
    every rule here acts point by point, and off the walls g is multiplied
    by 1.0, so the other points keep their base bits.
    """

    def __init__(self, grid, members):
        self.grid = grid
        self.points = grid.points
        self.base = {
            id(m): (wz._evaluate(m.g, grid), wz._evaluate(m.f3, grid),
                    m.theta_over_dz(grid))
            for m in _distinct(members)
        }
        self.base_density = {}
        self.mask = None

    def walls(self, labyrinths):
        """Evaluate the union wall mask; returns self."""
        self.mask = _wall_mask(labyrinths, self.points)
        return self

    def gf3(self, m):
        """g and f3 of base member m."""
        g, f3, _ = self.base[id(m)]
        return g, f3

    def f3_theta(self, m):
        _, f3, theta = self.base[id(m)]
        return f3 * theta

    def on_walls(self, m):
        """g, f3 and theta/dz of base member m at the wall points."""
        return tuple(values[self.mask] for values in self.base[id(m)])

    def f_change(self, m, factor):
        """f of base member m grown by factor, less f of m, at the wall
        points; it is 0.0 at every other point."""
        g, f3, _ = self.on_walls(m)
        return wz.null_triple(g * factor, f3) - wz.null_triple(g, f3)

    def density(self, m, factor=None):
        base = self.base_density.get(id(m))
        if base is None:
            base = self.base_density[id(m)] = wz.density(
                self.gf3(m)[0], self.f3_theta(m)
            )
        if factor is None:
            return base
        g, f3, theta = self.on_walls(m)
        out = base.copy()
        out[self.mask] = wz.density(g * factor, f3 * theta)
        return out


# ---------------------------------------------------------------------------
# metric graphs and intrinsic distance


@dataclass
class MetricGraph:
    """8-connected polar graph with precomputed edge geometry.

    The edges are stored once, in CSR order: rows ascending, and columns
    ascending within a row.  rows and cols give the two ends of each edge,
    indptr the start of each row, all int32.
    """

    nodes: np.ndarray  # complex positions, shape (n_r * n_th,)
    radii: np.ndarray
    n_th: int
    rows: np.ndarray
    cols: np.ndarray
    indptr: np.ndarray
    lengths: np.ndarray
    source: int  # the node nearest to x0
    boundary: np.ndarray  # the nodes of the inner and the outer circle
    x0: complex  # the point the graph was built for

    def _weighted(self, dens):
        """The CSR matrix of edge weights under the node densities dens.

        An edge weighs its length times the mean of its ends' dens^(1/2).
        An infinite density is a wall no path crosses; a NaN density raises
        NonFiniteValues, since it would act as a wall without saying so.
        """
        rho = np.abs(dens)
        np.sqrt(rho, out=rho)
        bad = int(np.count_nonzero(np.isnan(rho)))
        if bad:
            raise NonFiniteValues(
                f"metric density is NaN at {bad} of {rho.size} graph nodes"
            )
        # formed in place, the operations of 0.5 (rho_a + rho_b) length in
        # the same order, so the bits are the same with fewer temporaries
        wts = rho[self.rows]
        wts += rho[self.cols]
        wts *= 0.5
        wts *= self.lengths
        n = self.nodes.size
        return csr_matrix((wts, self.cols, self.indptr), shape=(n, n))

    def _path_bounds(self, weights):
        """Costs of explicit graph paths from the source to each boundary
        circle: (inward, to the first circle; outward, to the last).

        weights: the edge weights in CSR order.  Each direction takes the
        cheaper of two paths.  The spoke runs radially along the source's
        angle.  The staircase crosses each step between adjacent circles at
        that step's cheapest radial edge, and on each circle walks the
        cheaper way round between the crossings it joins.  Every cost is a
        float sum of nonnegative weights, so it may be infinite, never NaN,
        and it bounds each circle's least distance on the way.
        """
        n_th, n_r = self.n_th, self.radii.size
        if n_r == 1:
            return 0.0, 0.0
        i, j = divmod(self.source, n_th)
        ang = np.arange(n_th)
        # a row's four edges: its angular successor, then the next circle's
        # three neighbours in column order; the radial one is the middle
        # one, save at the angles 0 and n_th - 1, where the wrap puts it
        # first and last
        slots = weights[:-n_th].reshape(n_r - 1, n_th, 4)
        radial = slots[..., 2].copy()  # (k, t) to (k + 1, t)
        radial[:, 0] = slots[:, 0, 1]
        radial[:, -1] = slots[:, -1, 3]
        arcs = np.concatenate([slots[..., 0], weights[None, -n_th:]])
        cross = np.argmin(radial, axis=1)
        steps = radial[np.arange(n_r - 1), cross]
        # walks between consecutive crossings on circles 1 .. n_r - 2, then
        # the source circle's walks to the first crossing out and in (the
        # spoke, which costs 0 from a boundary circle, covers a walk whose
        # crossing is out of range); each is the cheaper of the arcs inside
        # and outside [lo, hi), summed directly: differences of prefix sums
        # would cancel, and read NaN past an infinite arc
        k = np.concatenate([np.arange(1, n_r - 1), [i, i]])
        a = np.concatenate([cross[:-1], [j, j]])
        b = np.concatenate([cross[1:], cross[[min(i, n_r - 2), max(i - 1, 0)]]])
        lo, hi = np.minimum(a, b)[:, None], np.maximum(a, b)[:, None]
        inside = (lo <= ang) & (ang < hi)
        ring = arcs[k]
        walk = np.minimum(np.sum(ring, axis=1, where=inside),
                          np.sum(ring, axis=1, where=~inside))
        outward = walk[-2] + np.sum(steps[i:]) + np.sum(walk[i:-2])
        inward = walk[-1] + np.sum(steps[:i]) + np.sum(walk[: max(i - 1, 0)])
        spoke = radial[:, j]
        return (min(float(np.sum(spoke[:i])), float(inward)),
                min(float(np.sum(spoke[i:])), float(outward)))

    def node_distances(self, dens):
        """Graph distance from the source to every node, shape (n_r, n_th),
        under the node densities dens.

        The search stops at the larger of the two _path_bounds, times
        1 + 1e-9, and nodes beyond that limit read inf.  Dijkstra settles
        every node up to the limit with the bits of a full search, and the
        limit covers the least distance on each circle and the boundary
        minimum.  An infinite bound leaves the search unbounded.
        """
        m = self._weighted(dens)
        del dens  # frees a caller's temporary before the search, the peak
        limit = max(self._path_bounds(m.data)) * (1.0 + 1e-9)
        d = dijkstra(m, directed=False, indices=self.source, limit=limit)
        return d.reshape(-1, self.n_th)

    def boundary_distance(self, node_distances):
        """The least of the node distances on the boundary circles."""
        val = float(np.min(node_distances.ravel()[self.boundary]))
        if not np.isfinite(val):
            raise DisconnectedGraph("no path from the source to the boundary")
        return val

    def distance(self, dens):
        """Graph distance from the source to the boundary circles under dens.

        The search stops at the smaller of the two _path_bounds, the cost
        of a graph path to a boundary circle, times 1 + 1e-9; nodes beyond
        it are not settled.  The least boundary distance lies within the
        limit, and Dijkstra settles every node up to the limit with the
        same value as a full search: the result is the same bits.  An
        infinite bound leaves the search unbounded.
        """
        m = self._weighted(dens)
        limit = min(self._path_bounds(m.data)) * (1.0 + 1e-9)
        d = dijkstra(m, directed=False, indices=self.source, limit=limit)
        return self.boundary_distance(d)


def build_metric_graph(r_in, r_out, x0, radii=None, n_th=256):
    """Polar graph on the annulus r_in < |z| < r_out, 8-connected.

    Node i n_th + j sits at radius radii[i] (default: 64 radii from r_in to
    r_out) and angle 2 pi j / n_th.  It has one edge to its angular
    successor j + 1 and, below the outer circle, three to the next circle
    out, at angles j - 1, j and j + 1 (mod n_th).  The boundary is the
    inner and the outer circle.  The graph records x0, and its source is
    the node nearest to x0.
    """
    if n_th < 3:
        raise ValueError("n_th must be at least 3")
    if radii is None:
        radii = np.linspace(r_in, r_out, 64)
    radii = np.asarray(radii, dtype=float)
    n_r = radii.size
    nodes = wz.PolarGrid(radii, n_th).points
    grid = nodes.reshape(n_r, n_th)

    # columns of one node's row, relative to the start of its circle: the
    # angular successor, then the next circle's three neighbours, sorted
    j = np.arange(n_th)
    ahead = (j + 1) % n_th
    around = np.sort(np.stack([(j - 1) % n_th, j, (j + 1) % n_th], 1), 1)
    out = n_th + around
    start = (np.arange(n_r) * n_th)[:, None, None]
    cols = np.concatenate([
        (start[:-1] + np.concatenate([ahead[:, None], out], 1)).ravel(),
        (start[-1] + ahead).ravel(),
    ]).astype(np.int32)
    degree = np.full(n_r * n_th, 4, dtype=np.int32)
    degree[(n_r - 1) * n_th:] = 1
    indptr = np.concatenate(([0], np.cumsum(degree))).astype(np.int32)
    rows = np.repeat(np.arange(n_r * n_th, dtype=np.int32), degree)
    # edge lengths in the same order, |node(row) - node(col)|, written in
    # place from column-permuted copies of the node grid, one edge slot
    # at a time, instead of gathering both ends of every edge
    lengths = np.empty(rows.size)
    slots = lengths[:-n_th].reshape(n_r - 1, n_th, 4)
    np.abs(grid[:-1] - grid[:-1, ahead], out=slots[..., 0])
    for k in range(3):
        np.abs(grid[:-1] - grid[1:, around[:, k]], out=slots[..., k + 1])
    np.abs(grid[-1] - grid[-1, ahead], out=lengths[-n_th:])
    x0 = complex(x0)
    source = int(np.argmin(np.abs(nodes - x0)))
    return MetricGraph(
        nodes=nodes, radii=radii, n_th=n_th, rows=rows, cols=cols,
        indptr=indptr, lengths=lengths, source=source,
        boundary=np.concatenate([j, (n_r - 1) * n_th + j]), x0=x0,
    )


@dataclass(frozen=True)
class DistanceResult:
    """A boundary distance and the search's distance field, shape
    (n_r, n_th), as MetricGraph.node_distances returns it."""

    value: float
    node_distances: np.ndarray = field(repr=False, compare=False)

    def __float__(self):
        return self.value


def intrinsic_distance(data, graph, labyrinths=(), factor=None):
    """Intrinsic distance from the graph's x0 to both boundary circles, by
    Dijkstra.

    The metric is density^(1/2) |dz| on the graph, whose inner and outer
    radii must enclose |x0| strictly (ValueError otherwise).  The density
    is that of data, or, given a factor, that of data with g grown by the
    factor on the walls of the labyrinths, by the rule of _PointSet.  It is
    evaluated on the graph's polar grid DENSITY_BLOCK nodes at a time,
    rounded down to whole rings: the rule acts point by point, so the bits
    are those of one evaluation, and a block's values are freed before the
    next.  The result keeps the distance field of the search
    (MetricGraph.node_distances).
    """
    r0 = abs(graph.x0)
    if not graph.radii[0] < r0 < graph.radii[-1]:
        raise ValueError(
            f"|x0| = {r0:g} must lie strictly inside the graph's radii "
            f"[{graph.radii[0]:g}, {graph.radii[-1]:g}]"
        )
    rings = max(1, DENSITY_BLOCK // graph.n_th)

    def density():
        out = np.empty(graph.nodes.shape)
        for i in range(0, graph.radii.size, rings):
            grid = wz.PolarGrid(graph.radii[i : i + rings], graph.n_th)
            block = _PointSet(grid, [data]).walls(labyrinths)
            out[i * graph.n_th : (i + rings) * graph.n_th] = block.density(
                data, factor
            )
        return out

    # a temporary, so node_distances frees it before its search
    dist = graph.node_distances(density())
    return DistanceResult(value=graph.boundary_distance(dist), node_distances=dist)


def _certified_distance(graph, base, base_distance, dens, walls):
    """A lower bound on graph's boundary distance under node densities dens.

    base: node densities equal to dens off the node mask walls, whose search
    gave base_distance.  That is the bound where no wall density of dens
    falls below base's: abs, sqrt, + and products with the nonnegative
    lengths are monotone in floats, so no edge weight fell, and neither did
    Dijkstra's least float sum over graph paths.  Otherwise dens is
    searched; a NaN fails the comparison, and its search raises
    NonFiniteValues.
    """
    if np.all(dens[walls] >= base[walls]):
        return base_distance
    return graph.distance(dens)


def _crossing_bound(d, i_near, i_far):
    """Lower bound on every graph path from circle i_near to circle i_far.

    d: one Dijkstra run's distance field, shape (n_r, n_th).  Along an
    edge it changes by at most the edge's weight, its metric cost (the
    triangle inequality d(b) <= d(a) + w(a, b)), and edges join only the
    same or adjacent circles, so every path across the circles between the
    two costs at least d(b) - d(a) for some node a on i_near and b on i_far.

    The field comes from a search stopped at a limit L no less than any
    circle's least distance (MetricGraph.node_distances), so a finite
    min d[i_far] is exact, and a node of i_near beyond L reads inf.  The
    bound then reads -inf, where a full field gives min d[i_far] -
    max d[i_near] < L - L = 0: for every b > 0 the test bound > b fails
    either way.  A far circle without a finite node bounds nothing and
    reads -inf too, where inf - inf would read NaN.
    """
    far = float(np.min(d[i_far]))
    return far - float(np.max(d[i_near])) if math.isfinite(far) else -math.inf


def _fine_spacing(N):
    """Chart spacing of the fine rings inside a band of an N-labyrinth:
    the wall width 1/(2N^3), which is also the clearance between walls."""
    return 1.0 / (2.0 * N**3)


def _fine_radii(r_in, r_out, labyrinths, N):
    """Radial node set: 48 coarse radii, plus one ring per wall and per gap.

    In the chart of a band, with h = _fine_spacing(N), the rings are R - k h
    for k = 1..4N^2, where odd k are wall centres and even k gap centres,
    and the band's edge circles r and R, where est3 reads its crossing
    bound.  The last gap centre, k = 4N^2, is R - 2/N, the top of the band's
    wall-free strip, which gets no fine ring.  Each ring sits a quarter
    cell from the nearest wall edge, so rounding cannot move it across.
    The coarse radii between R - 2/N and R are dropped, so along every ray
    the wall mask alternates ring by ring there, and every radial edge
    joins a gap ring to a wall ring: for a factor constant on each wall and
    gap, its trapezoid weight is the exact crossing integral.
    """
    radii = np.linspace(r_in, r_out, 48)
    h = _fine_spacing(N)
    rings = []
    for lab in labyrinths:
        band = lab.band
        walled = band.end.radius_in_chart(band.R - np.arange(4 * N**2 + 1) * h)
        lo, hi = np.min(walled), np.max(walled)
        radii = radii[(radii < lo) | (radii > hi)]
        rings += [walled, [band.end.radius_in_chart(band.r)]]
    radii = np.unique(np.concatenate([radii, *rings]))
    return radii[(radii >= r_in) & (radii <= r_out)]


# ---------------------------------------------------------------------------
# the complete step


@dataclass
class CompleteStepResult:
    members: list
    ts: np.ndarray
    labyrinths: list
    params: LopezRosParams
    N: int
    tau: float
    delta: float
    distances: np.ndarray  # per-t certified lower bounds that decide (IV)
    final_distance: float  # fine-grid distance at t = 1
    report: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(self.report.get("passes", {}).values())


def _as_members(family, ts=None):
    if hasattr(family, "members"):
        own = np.asarray(family.ts, dtype=float)
        if ts is not None and not np.array_equal(np.asarray(ts, float), own):
            raise ValueError(
                "family and ts disagree: a family carries its own ts, so ts "
                "must equal them or be left out"
            )
        return list(family.members), own
    if isinstance(family, wz.WeierstrassData):
        ts = np.linspace(0.0, 1.0, 64) if ts is None else np.asarray(ts)
        return [family] * ts.size, ts
    members = list(family)
    if ts is None:
        ts = np.linspace(0.0, 1.0, len(members))
    return members, np.asarray(ts, dtype=float)


# The stage records of complete_step: each holds its stage's own report
# entries (and passes, where the stage checks), which complete_step merges
# in stage order, and the values that later stages read.
_Base = namedtuple("_Base", "report coarse points distance tau required")
_Walls = namedtuple("_Walls", "report N params labyrinths factors members")
_Checks = namedtuple("_Checks", "report passes distances")
_Endpoint = namedtuple("_Endpoint", "report passes")


def _base_distances(members, rho, delta):
    """Stage 1: the coarse 64 x 256 graph and point set, each distinct
    member's distance on it by id, tau (the least) and the target required."""
    distinct = _distinct(members)
    coarse = build_metric_graph(members[0].r_inner, members[0].r_outer, complex(rho))
    points = _PointSet(wz.PolarGrid(coarse.radii, coarse.n_th), distinct)
    distance = {id(m): coarse.distance(points.density(m)) for m in distinct}
    tau = min(distance.values())
    required = max(tau - delta, 1.0 / delta)
    return _Base({"tau": tau, "delta": delta, "required": required},
                 coarse, points, distance, tau, required)


def _walls(members, t_grid, core, required):
    """Stages 2 and 3: bands, Lopez-Ros parameters and the wall count N,
    then the labyrinths, the factors and the transformed members.

    Wide bands fix a provisional epsilon at N = 2.  N then rises to the
    a-priori rule (1 + EST_MARGIN) required / (min(0.5, r) eps), or to the
    least N with 2/N below the narrowest band, and each new N gets bands
    of width 2.5/N and its own parameters, within four tries and N_MAX.
    """
    lo, hi = core
    r_in, r_out = members[0].r_inner, members[0].r_outer
    ends = [AnnulusEnd(0, r_in, lo, kind="inversion", c=r_in * lo),
            AnnulusEnd(1, hi, r_out)]
    f3_family = [m.f3 for m in members]
    N, width = 2, None
    for _ in range(4):
        bands = find_bands(f3_family, ends, t_grid, width=width)
        params = choose_params(members, bands, N, t_grid)
        r_const = min(min(0.5, b.r) for b in bands)
        needed = (1.0 + EST_MARGIN) * required / (r_const * params.eps)
        w_min = min(b.R - b.r for b in bands)
        if N >= needed:
            if 2.0 / N < w_min:
                break
            fit = int(2.0 / w_min) + 1
            why = f"band width {w_min:.3g} does not exceed 2/N = {2.0 / N:.3g}"
        else:
            fit = max(int(np.ceil(needed)), 2)
            why = f"distance {required:.3g} needs N >= {needed:.3g}"
        if fit > N_MAX:
            raise EstimateNotMet(
                f"walls stage: {why}, and the wall count N = {fit} it asks "
                f"for exceeds the supported budget {N_MAX}"
            )
        N, width, tried = fit, 2.5 / fit, N
    else:
        raise EstimateNotMet(
            f"walls stage: no wall count satisfies the crossing bound in 4 "
            f"tries: the bands of the last N = {tried} need N = {N}"
        )
    labs = [build_labyrinth(b, N) for b in bands]
    report = {"N": N, "lam": params.lam, "eps": params.eps, "c0": params.c0}
    return _Walls(report, N, params, labs, _factors(params, t_grid),
                  lopez_ros(members, params, labs, t_grid))


def _checks(members, t_grid, rho, core, base, walls, delta):
    """Stage 4: checks (I)-(IV) and est1/est2.  A transformed member j is
    read as members[j] grown by walls.factors[j] on the walls, off one
    evaluation of the base members and the wall mask per point set: (IV)
    on stage 1's coarse one, the rest on point sets that die with the stage."""
    labs, factors = walls.labyrinths, walls.factors
    pairs = list(zip(members, factors))

    # (I) anchoring at t = 0 and (II) third components, exactly
    grid = wz.annulus_grid(members[0].r_inner, members[0].r_outer, 16, 64)
    probe = _PointSet(grid, members).walls(labs)
    anchored = not np.any(probe.f_change(members[0], factors[0]))
    # each returned member's own f3 against its base member's, once per
    # distinct pair of f3 callables
    f3_pairs = {
        (id(tr.f3), id(m.f3)): (tr.f3, m) for tr, m in zip(walls.members, members)
    }
    third_dev = max(
        float(np.max(np.abs(wz._evaluate(f3, probe.grid) - probe.gf3(m)[1])))
        for f3, m in f3_pairs.values()
    )

    # (III) flux over the core generator: the loop period is a weighted
    # sum of f theta/dz over the circle's points, so the flux changes by
    # that sum over the changes at the wall points
    on_circle = _PointSet(wz.PolarGrid([rho], 512), members).walls(labs)
    weights = fourier_derivative(on_circle.points)[on_circle.mask]
    weights /= on_circle.points.size

    def flux_change(m, fac):
        theta = on_circle.on_walls(m)[2]
        ft = on_circle.f_change(m, fac) * (theta * weights)[:, None]
        return np.abs(ft.sum(axis=0).imag)

    flux_dev = max(float(np.max(flux_change(m, fac))) for m, fac in pairs)

    # approximation on the core: the transform is the identity there
    lo, hi = core
    core_grid = wz.PolarGrid(
        rho * np.linspace(lo / rho + 1e-9, hi / rho - 1e-9, 8), 512
    )
    on_core = _PointSet(core_grid, members).walls(labs)
    core_dev = max(
        float(np.max(np.abs(on_core.f_change(m, fac)), initial=0.0))
        for m, fac in pairs
    )

    # est1 / est2 pointwise on band grids at bracket start, middle and end:
    # the least chart density on the walls, and on the whole band
    on_walls, on_bands = [], []
    for lab in labs:
        band = lab.band
        t_lo, t_hi = band.bracket
        js = [
            int(np.argmin(np.abs(t_grid - t)))
            for t in (t_lo, 0.5 * (t_lo + t_hi), t_hi)
        ]
        on_band = _PointSet(band.grid(96, 128), [members[j] for j in js]).walls(labs)
        # chart coordinates in the order of the physical grid's points
        w = band.end.to_chart(on_band.points)
        inside = lab.contains_chart(w)
        chart_scale = np.abs(band.end.dz_dw(w)) ** 2
        for j in js:
            dens_chart = on_band.density(members[j], factors[j]) * chart_scale
            if np.any(inside):
                on_walls.append(float(np.min(dens_chart[inside])))
            on_bands.append(float(np.min(dens_chart)))
    eps2 = walls.params.eps**2
    bound1 = walls.N**8 * eps2

    # (IV) per-t distances on the coarse graph: each pair takes its base
    # member's search unless one of its wall densities falls
    on_coarse = base.points.walls(labs)
    dists = np.array([
        _certified_distance(base.coarse, on_coarse.density(m), base.distance[id(m)],
                            on_coarse.density(m, fac), on_coarse.mask)
        for m, fac in pairs
    ])
    return _Checks(
        {"third_component_deviation": third_dev, "flux_deviation": flux_dev,
         "core_deviation": core_dev,
         "est1_ratio": min([np.inf] + [m / bound1 for m in on_walls]),
         "est2_ratio": min([np.inf] + [m / eps2 for m in on_bands]),
         "min_distance_t": float(dists.min())},
        {"anchoring": anchored, "third_components": third_dev <= 1e-10,
         "flux_traces": flux_dev <= 1e-10,
         "core_approximation": core_dev <= 1e-10,
         "est1": all(m > bound1 * (1.0 - 1e-6) for m in on_walls),
         "est2": all(m > eps2 for m in on_bands),
         "conclusion_iv": bool(np.all(dists > base.tau - delta))},
        dists,
    )


def _endpoint(members, rho, walls, delta):
    """Stage 5: the last member's distance on the fine graph of _fine_radii
    with 128 angles, conclusion (V), and est3: every graph crossing of each
    band, bounded below off the same distance field."""
    labs, N = walls.labyrinths, walls.N
    r_in, r_out = members[0].r_inner, members[0].r_outer
    radii = _fine_radii(r_in, r_out, labs, N)
    fine = build_metric_graph(r_in, r_out, complex(rho), radii=radii, n_th=128)
    end = intrinsic_distance(members[-1], fine, labs, walls.factors[-1])
    # the core side of a band is band.r in the chart, and radius_in_chart,
    # an involution, maps chart radii to physical ones
    crossings = []  # (least crossing, its bound) per band
    for lab in labs:
        band = lab.band
        near, far = np.searchsorted(
            radii, band.end.radius_in_chart(np.array([band.r, band.R]))
        )
        crossings.append((_crossing_bound(end.node_distances, near, far),
                          min(0.5, band.r) * walls.params.eps * N))
    return _Endpoint(
        {"final_distance": end.value, "fine_resolution": _fine_spacing(N),
         "est3_ratio": min([np.inf] + [c / b for c, b in crossings])},
        {"conclusion_v": end.value > 1.0 / delta,
         "est3": all(c > b for c, b in crossings)},
    )


def complete_step(family, core, delta, ts=None, seed=23):
    """One completeness induction step with full estimate verification.

    family: per-t Weierstrass data (or a single datum for a constant
    family); core: (lo, hi) moduli of an annular core containing the
    homology circle; delta > 0 the step parameter.  Returns the
    transformed family and a verification report; raises EstimateNotMet
    when a measured distance violates its required bound, (IV) before (V):
    a failing (IV) raises before the endpoint stage builds its fine graph.

    The step validates its input, composes five stages and merges their
    report entries and passes in stage order: _base_distances (tau, delta,
    required), _walls (bands over BRACKET, N with the EST_MARGIN safety
    margin, lam, eps, c0; labyrinths), _checks ((I)-(IV), est1, est2) and
    _endpoint ((V), est3).  The step is deterministic: seed is accepted for
    the perfbench workloads, which pass it, and is not read.
    """
    if not (isinstance(delta, numbers.Real) and math.isfinite(delta)
            and delta > 0.0):
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    members, t_grid = _as_members(family, ts)
    if not members or t_grid.shape != (len(members),):
        raise ValueError(
            f"family and ts must be nonempty and of one length, got "
            f"{len(members)} members and ts of shape {t_grid.shape}"
        )
    r_in, r_out = members[0].r_inner, members[0].r_outer
    lo, hi = core
    rho = wz.homology_radius(members[0])
    if not (r_in < lo < rho < hi < r_out):
        raise InvalidCore(
            f"core ({lo:g}, {hi:g}) must be an annulus inside ({r_in:g}, "
            f"{r_out:g}) containing the homology circle |z| = {rho:g}"
        )
    if wz.is_flat(members[0]):
        raise FlatInput("completeness step requires a nonflat family")

    base = _base_distances(members, rho, delta)
    walls = _walls(members, t_grid, core, base.required)
    checks = _checks(members, t_grid, rho, core, base, walls, delta)
    # N leads the report
    report = {"N": walls.N, **base.report, **walls.report, **checks.report}
    if not checks.passes["conclusion_iv"]:
        raise EstimateNotMet(
            f"checks stage: distance {report['min_distance_t']:.3g} does not "
            f"exceed tau - delta = {report['tau'] - delta:.3g}"
        )
    # base's coarse point set dies before the endpoint
    del base
    end = _endpoint(members, rho, walls, delta)
    report.update(end.report)
    report["passes"] = passes = {**checks.passes, **end.passes}
    if not passes["conclusion_v"]:
        raise EstimateNotMet(
            f"endpoint stage: final distance {report['final_distance']:.3g} "
            f"does not exceed 1/delta = {1.0 / delta:.3g}"
        )
    return CompleteStepResult(
        members=walls.members, ts=t_grid, labyrinths=walls.labyrinths,
        params=walls.params, N=walls.N, tau=report["tau"], delta=delta,
        distances=checks.distances, final_distance=report["final_distance"],
        report=report,
    )
