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
Dijkstra runs on polar metric graphs.  Their flat-metric calibration needs
no second run: on such a graph the flat distance from a node to a boundary
circle is exactly the radial gap, which is read off the radii.  The endpoint
distance uses a fine graph whose radii are spaced 1/(4N^3) apart in the
chart of each band: a quarter of the wall width and of the clearance
between walls, so no radial edge skips a wall.
"""

from __future__ import annotations

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
)

#: Deformation-time brackets over which band estimates are checked.
BRACKETS = ((0.5, 1.0),)

#: Safety margin applied to the resolution inequality that selects N.
EST_MARGIN = 0.25

#: Margin in the Gauss-map growth inequality.
LAMBDA_MARGIN = 0.25

#: Largest wall count a single step may request (2 N^2 walls per band).
N_MAX = 50

#: Fine-graph rings per 1/N^3 wall cell of a band.  Walls and the gaps
#: between them are each half a cell wide, so at 4 rings per cell every
#: wall holds at least two rings and every gap at least one.
FINE_PER_CELL = 4


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
        z = np.asarray(z, dtype=complex)
        return z if self.kind == "identity" else self.c / z

    def from_chart(self, w):
        w = np.asarray(w, dtype=complex)
        return w if self.kind == "identity" else self.c / w

    def dz_dw(self, w):
        w = np.asarray(w, dtype=complex)
        if self.kind == "identity":
            return np.ones_like(w)
        return -self.c / (w * w)

    def radius_in_chart(self, rz):
        """Chart modulus corresponding to physical modulus rz."""
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

    def chart_grid(self, n_r=48, n_th=96):
        radii = np.linspace(self.r, self.R, n_r)
        ang = np.exp(2j * np.pi * np.arange(n_th) / n_th)
        return (radii[:, None] * ang[None, :]).ravel()


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
        w = np.asarray(w, dtype=complex)
        N = self.N
        u = (self.band.R - np.abs(w)) * N**3
        cell = np.floor(u)
        frac = u - cell
        n = cell + 1.0
        ok = (frac >= 0.25) & (frac <= 0.75) & (n >= 1) & (n <= 2 * N**2)
        sign = np.where(np.mod(n, 2.0) == 1.0, -1.0, 1.0)
        ang = np.mod(np.angle(sign * w), 2.0 * np.pi)
        gap = 1.0 / N**2
        return ok & (ang >= gap) & (ang <= 2.0 * np.pi - gap)

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
    sets = []
    for n in range(1, 2 * N**2 + 1):
        sets.append(
            LabyrinthSet(
                n=n, rad_lo=s[n] + q, rad_hi=s[n - 1] - q, ang_gap=1.0 / N**2
            )
        )
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


def _sampled_min(fun, points, refine):
    """Min of |fun| over the points and a refined point set.

    Returns the smaller of the two sampled minima.  The refinement (twice
    the probe density) makes a zero between probe points less likely to
    be missed; it is not a lower bound between samples.
    """
    a = float(np.min(np.abs(fun(points))))
    b = float(np.min(np.abs(fun(refine))))
    return min(a, b)


def _window_zero_free(f3, band):
    """True when f3 has no zero in the closed band, by the argument principle.

    The zero count in the band annulus is the winding of f3 over the outer
    chart circle minus the winding over the inner one, each sampled at 256
    points; both circles must stay clear of zero for the sampled winding to
    be trustworthy.
    """
    from .riemann import winding_number

    x = np.exp(2j * np.pi * np.arange(256) / 256)
    counts = []
    for radius in (band.r, band.R):
        vals = f3(band.end.from_chart(radius * x))
        if float(np.min(np.abs(vals))) <= 0.0:
            return False
        counts.append(winding_number(vals, 0.0))
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

    f3_family: list over t_grid of callables z -> f3(z).  For each end and
    each bracket of BRACKETS, the band window with the largest sampled
    minimum of |f_t^3| is selected among 12 windows of the given width
    (default: half the end's span less 5 % padding at each side); windows
    across brackets of one end are disjoint.
    A window counts only when a sampled argument-principle count finds it
    free of zeros of every sampled member, so zeros between grid points
    are still caught when the boundary circles are resolved.  Raises
    NoBandFound when every candidate window fails.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    bands = []
    for end in ends:
        span = end.R - end.r
        pad = 0.05 * span
        w_band = width if width is not None else 0.5 * (span - 2 * pad)
        w_band = min(w_band, span - 2 * pad)
        used = []
        for k, (t_lo, t_hi) in enumerate(BRACKETS):
            idx = _bracket_samples(t_grid, (t_lo, t_hi))
            starts = np.linspace(end.r + pad, end.R - pad - w_band, 12)
            scores = np.full(starts.size, -1.0)
            for ci, a in enumerate(starts):
                if any(a < ub and a + w_band > ua for ua, ub in used):
                    continue
                cand = AnnulusBand(
                    end.hole, k, float(a), float(a + w_band), end, (t_lo, t_hi)
                )
                coarse = end.from_chart(cand.chart_grid(24, 48))
                fine = end.from_chart(cand.chart_grid(48, 96))
                m = np.inf
                for f3 in _distinct(f3_family[j] for j in idx):
                    if not _window_zero_free(f3, cand):
                        m = -1.0
                        break
                    m = min(m, _sampled_min(f3, coarse, fine))
                scores[ci] = m
            best = float(np.max(scores))
            if best <= 0.0:
                raise NoBandFound(
                    f"third component vanishes on every candidate band of "
                    f"end {end.hole} for t in [{t_lo}, {t_hi}]"
                )
            good = np.nonzero(scores >= best * (1.0 - 1e-9))[0]
            ci = int(good[len(good) // 2])  # middle of the tied best windows
            a = float(starts[ci])
            used.append((a, a + w_band))
            bands.append(
                AnnulusBand(end.hole, k, a, a + w_band, end, (t_lo, t_hi))
            )
    return bands


@dataclass(frozen=True)
class LopezRosParams:
    lam: float
    eps: float
    c0: float

    def __post_init__(self):
        if self.eps <= 0 or self.c0 <= 0 or self.lam < 0:
            raise EstimateNotMet("invalid Lopez-Ros parameters")


def _band_f3theta(f3t, band):
    """|f^3 theta| in chart units on a callable of physical points."""

    def fun(z):
        w = band.end.to_chart(z)
        return f3t(z) * band.end.dz_dw(w)

    return fun


def choose_params(f3t_family, g_family, bands, N, t_grid, margin=LAMBDA_MARGIN):
    """Lopez-Ros parameters for the given bands and wall count N.

    f3t_family: per-t callables z -> f3(z) * theta/dz; g_family: per-t
    callables z -> g(z).  epsilon is half the sampled band minimum of
    |f^3 theta / dw| in chart units; lambda is the smallest value whose
    growth inequality (1 + lambda t) c0 > 2 N^4 (1 + margin) holds from
    the earliest bracket start onward.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    eps_min = np.inf
    c0 = np.inf
    t0_min = np.inf
    for band in bands:
        coarse = band.end.from_chart(band.chart_grid(24, 48))
        fine = band.end.from_chart(band.chart_grid(48, 96))
        t0_min = min(t0_min, band.bracket[0])
        sel = _bracket_samples(t_grid, band.bracket)
        for f3t in _distinct(f3t_family[j] for j in sel):
            eps_min = min(
                eps_min, _sampled_min(_band_f3theta(f3t, band), coarse, fine)
            )
        for g in _distinct(g_family[j] for j in sel):
            c0 = min(c0, _sampled_min(g, coarse, fine))
    if not np.isfinite(c0) or c0 < 1e-10:
        raise GaussMapTooSmall(f"sampled min |g| {c0:.3g} on the bands, need >= 1e-10")
    eps = 0.5 * eps_min
    target = 2.0 * N**4 * (1.0 + margin)
    lam = max(0.0, (target / c0 - 1.0) / t0_min)
    params = LopezRosParams(lam=lam, eps=eps, c0=c0)
    # re-verify both inequalities on the fine grids; 1 + lambda t > 0 and
    # rounding is monotone, so (1 + lambda t) min|g| = min((1 + lambda t)|g|)
    for band in bands:
        fine = band.end.from_chart(band.chart_grid(48, 96))
        sel = _bracket_samples(t_grid, band.bracket)
        for f3t in _distinct(f3t_family[j] for j in sel):
            if float(np.min(np.abs(_band_f3theta(f3t, band)(fine)))) <= eps:
                raise EstimateNotMet(
                    "epsilon inequality fails on re-verification"
                )
        g_min = {
            id(g): float(np.min(np.abs(g(fine))))
            for g in _distinct(g_family[j] for j in sel)
        }
        for j in sel:
            grown = (1.0 + lam * float(t_grid[j])) * g_min[id(g_family[j])]
            if grown < 2.0 * N**4 * (1.0 - 1e-12):
                raise EstimateNotMet(
                    "lambda inequality fails on re-verification"
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
    t_grid = np.asarray(t_grid, dtype=float)
    out = []
    for data, t, factor in zip(data_t, t_grid, _factors(params, t_grid)):

        def g(z, base=data.g, fac=factor):
            z = np.asarray(z, dtype=complex)
            return _grown(base(z), _wall_mask(labyrinths, z), fac)

        out.append(
            wz.WeierstrassData(
                g,
                data.f3,
                theta=data.theta,
                r_inner=data.r_inner,
                r_outer=data.r_outer,
                name=f"lopez_ros(t={float(t):g})",
            )
        )
    return out


class _PointSet:
    """Base member values and the union wall mask on one fixed point set.

    Each distinct base member's g, f3 and theta/dz are evaluated once.  A
    transformed member, given by its base member and its factor, takes the
    base values with g grown on the walls, exactly as its lopez_ros
    callable computes them, so the results are the same bits.
    """

    def __init__(self, z, members):
        self.z = np.asarray(z, dtype=complex)
        self.base = {
            id(m): (m.g(self.z), m.f3(self.z), m.theta_over_dz(self.z))
            for m in _distinct(members)
        }
        self.mask = None

    def walls(self, labyrinths):
        """Evaluate the union wall mask; returns self."""
        self.mask = _wall_mask(labyrinths, self.z)
        return self

    def gf3(self, m, factor=None):
        """g and f3 of base member m, transformed by factor when one is given."""
        g, f3, _ = self.base[id(m)]
        return (g if factor is None else _grown(g, self.mask, factor)), f3

    def f(self, m, factor=None):
        return wz.null_triple(*self.gf3(m, factor))

    def f_theta(self, m, factor=None):
        return self.f(m, factor) * self.base[id(m)][2][..., None]

    def density(self, m, factor=None):
        return wz.density_from_f_theta(self.f_theta(m, factor))


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
    source: int
    boundary: np.ndarray
    resolution: float

    def node_distances(self, density_fn):
        """Graph distance from the source to every node, shape (n_r, n_th)."""
        rho = np.sqrt(np.abs(density_fn(self.nodes)))
        wts = 0.5 * (rho[self.rows] + rho[self.cols]) * self.lengths
        n = self.nodes.size
        m = csr_matrix((wts, self.cols, self.indptr), shape=(n, n))
        d = dijkstra(m, directed=False, indices=self.source)
        return d.reshape(-1, self.n_th)

    def boundary_distance(self, node_distances):
        """The least of the node distances on the boundary circles."""
        val = float(np.min(node_distances.ravel()[self.boundary]))
        if not np.isfinite(val):
            raise DisconnectedGraph("no path from the source to the boundary")
        return val

    def distance(self, density_fn):
        return self.boundary_distance(self.node_distances(density_fn))

    def flat_distance(self):
        """Graph distance from the source to the boundary in the flat metric.

        Closed form, no Dijkstra run: every graph path is at least as long
        as the Euclidean distance between its ends, which is at least the
        radial gap between their circles, and the radial path from the
        source attains that gap.
        """
        r_src = self.radii[self.source // self.n_th]
        r_bnd = self.radii[self.boundary // self.n_th]
        return float(np.min(np.abs(r_bnd - r_src)))


def build_metric_graph(r_in, r_out, x0, radii=None, n_r=64, n_th=256,
                       boundary="both"):
    """Polar graph on the annulus r_in < |z| < r_out, 8-connected.

    Node i n_th + j sits at radius radii[i] and angle 2 pi j / n_th.  It has
    one edge to its angular successor j + 1 and, below the outer circle,
    three to the next circle out, at angles j - 1, j and j + 1 (mod n_th).
    """
    if n_th < 3:
        raise ValueError("n_th must be at least 3")
    if radii is None:
        radii = np.linspace(r_in, r_out, n_r)
    radii = np.asarray(radii, dtype=float)
    n_r = radii.size
    ang = 2.0 * np.pi * np.arange(n_th) / n_th
    nodes = (radii[:, None] * np.exp(1j * ang)[None, :]).ravel()

    # columns of one node's row, relative to the start of its circle: the
    # angular successor, then the next circle's three neighbours, sorted
    j = np.arange(n_th)
    ahead = ((j + 1) % n_th)[:, None]
    out = n_th + np.sort(np.stack([(j - 1) % n_th, j, (j + 1) % n_th], 1), 1)
    start = (np.arange(n_r) * n_th)[:, None, None]
    cols = np.concatenate([
        (start[:-1] + np.concatenate([ahead, out], 1)).ravel(),
        (start[-1] + ahead).ravel(),
    ]).astype(np.int32)
    degree = np.full(n_r * n_th, 4, dtype=np.int32)
    degree[(n_r - 1) * n_th:] = 1
    indptr = np.concatenate(([0], np.cumsum(degree))).astype(np.int32)
    rows = np.repeat(np.arange(n_r * n_th, dtype=np.int32), degree)
    lengths = np.abs(nodes[rows] - nodes[cols])
    x0 = complex(x0)
    source = int(np.argmin(np.abs(nodes - x0)))
    b = []
    if boundary in ("both", "inner"):
        b.append(j)
    if boundary in ("both", "outer"):
        b.append((n_r - 1) * n_th + j)
    if not b:
        raise ValueError("boundary must be 'inner', 'outer' or 'both'")
    resolution = float(np.max(np.diff(radii)))
    return MetricGraph(
        nodes=nodes, radii=radii, n_th=n_th, rows=rows, cols=cols,
        indptr=indptr, lengths=lengths, source=source,
        boundary=np.concatenate(b), resolution=resolution,
    )


@dataclass(frozen=True)
class DistanceResult:
    value: float
    resolution: float
    calibration: float
    node_distances: np.ndarray = field(repr=False, compare=False)

    def __float__(self):
        return self.value


def intrinsic_distance(data, x0, boundary="both", n_r=64, n_th=256, graph=None):
    """Intrinsic distance from x0 to the boundary, by Dijkstra.

    The metric is density^(1/2) |dz|, on the given graph, or else on an
    n_r x n_th graph of the data's annulus with the given boundary.  The
    result keeps the graph distance from x0 to every node, shape (n_r,
    n_th).  The calibration factor is the graph's flat-metric distance
    divided by the exact flat distance from x0 to the graph's boundary
    circles (the least positive radial gap); it quantifies the graph's
    overestimation and is reported, not applied.  The graph's flat distance
    has a closed form (MetricGraph.flat_distance), so the factor measures
    only the move of x0 to its nearest node.
    """
    if graph is None:
        graph = build_metric_graph(
            data.r_inner, data.r_outer, x0, n_r=n_r, n_th=n_th,
            boundary=boundary,
        )
    dist = graph.node_distances(lambda z: wz.metric_density(data, z))
    val = graph.boundary_distance(dist)
    flat = graph.flat_distance()
    r0 = abs(complex(x0))
    # signed gap to each boundary circle, positive when x0 lies inside it
    circles = np.unique(graph.boundary // graph.n_th)
    r_bnd = graph.radii[circles]
    gaps = np.where(circles == 0, r0 - r_bnd, r_bnd - r0)
    flat_exact = np.min(gaps[gaps > 0]) if np.any(gaps > 0) else np.max(gaps)
    calib = float(flat / flat_exact) if flat_exact > 0 else 1.0
    return DistanceResult(value=val, resolution=graph.resolution,
                          calibration=calib, node_distances=dist)


def _crossing_bound(d, i_near, i_far):
    """Lower bound on every graph path from circle i_near to circle i_far.

    d: one Dijkstra run's distance field, shape (n_r, n_th).  It changes by
    at most an edge's length along the edge, and edges join only the same
    or adjacent circles, so every path across the circles between the two
    is at least d(b) - d(a) for some node a on i_near and b on i_far.
    """
    return float(np.min(d[i_far]) - np.max(d[i_near]))


def _fine_spacing(N):
    """Chart spacing of the fine radii inside a band of an N-labyrinth."""
    return 1.0 / (FINE_PER_CELL * N**3)


def _fine_radii(r_in, r_out, labyrinths, N):
    """Radial node set: 48 coarse radii, plus each band at _fine_spacing(N)."""
    pieces = [np.linspace(r_in, r_out, 48)]
    h = _fine_spacing(N)
    for lab in labyrinths:
        band = lab.band
        lo_c, hi_c = band.r, band.R
        count = int(np.ceil((hi_c - lo_c) / h)) + 1
        chart_r = np.linspace(lo_c, hi_c, count)
        pieces.append(np.sort(band.end.radius_in_chart(chart_r)))
    radii = np.unique(np.concatenate(pieces))
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
    distances: np.ndarray  # coarse per-t distances of the transformed family
    final_distance: float  # fine-grid distance at t = 1
    report: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(self.report.get("passes", {}).values())


def _as_members(family, ts=None):
    if hasattr(family, "members"):
        return list(family.members), np.asarray(family.ts, dtype=float)
    if isinstance(family, wz.WeierstrassData):
        ts = np.linspace(0.0, 1.0, 64) if ts is None else np.asarray(ts)
        return [family] * ts.size, ts
    members = list(family)
    if ts is None:
        ts = np.linspace(0.0, 1.0, len(members))
    return members, np.asarray(ts, dtype=float)


def complete_step(family, core, delta, ts=None, seed=23):
    """One completeness induction step with full estimate verification.

    family: per-t Weierstrass data (or a single datum for a constant
    family); core: (lo, hi) moduli of an annular core containing the
    homology circle; delta > 0 the step parameter.  Returns the
    transformed family and a verification report; raises EstimateNotMet
    when a measured distance violates its required bound.  Bands are
    checked over BRACKETS, N keeps the EST_MARGIN safety margin, and the
    endpoint graph has 128 angles.  The step is deterministic: seed is
    accepted for the perfbench workloads, which pass it, and is not read.
    """
    members, t_grid = _as_members(family, ts)
    data0 = members[0]
    r_in, r_out = data0.r_inner, data0.r_outer
    lo, hi = core
    rho = float(np.sqrt(r_in * r_out))
    if not (r_in < lo < rho < hi < r_out):
        raise InvalidCore(
            f"core ({lo:g}, {hi:g}) must be an annulus inside ({r_in:g}, "
            f"{r_out:g}) containing the homology circle |z| = {rho:g}"
        )
    x0 = complex(rho)

    for m in members[:1]:
        if wz.is_flat(m.f(m.grid()))[0]:
            raise FlatInput("completeness step requires a nonflat family")

    # distance of the input family; equal members share one evaluation
    distinct = _distinct(members)
    coarse = build_metric_graph(r_in, r_out, x0)
    on_coarse = _PointSet(coarse.nodes, distinct)
    tau = min(
        coarse.distance(lambda z, m=m: on_coarse.density(m)) for m in distinct
    )
    required = max(tau - delta, 1.0 / delta)

    ends = [
        AnnulusEnd(hole=0, r=r_in, R=lo, kind="inversion", c=r_in * lo),
        AnnulusEnd(hole=1, r=hi, R=r_out, kind="identity"),
    ]
    f3t_of = {
        id(m): (lambda z, m=m: m.f3(z) * m.theta_over_dz(z)) for m in distinct
    }
    f3t_family = [f3t_of[id(m)] for m in members]
    g_family = [m.g for m in members]

    # first pass: wide bands fix a provisional epsilon and wall count N;
    # then narrow bands sized to N keep the fine graph small, and the
    # crossing bound is re-verified with the final parameters.  A band
    # clipped by its end to at most 2/N cannot hold the walls, so N rises
    # until 2/N falls below the narrowest band.
    f3_family = [m.f3 for m in members]
    bands = find_bands(f3_family, ends, t_grid)
    params = choose_params(f3t_family, g_family, bands, 2, t_grid)
    N = 2
    for _ in range(4):
        r_const = min(min(0.5, b.r) for b in bands)
        needed = (1.0 + EST_MARGIN) * required / (r_const * params.eps)
        if N >= needed:
            w_min = min(b.R - b.r for b in bands)
            if 2.0 / N < w_min:
                break
            N_fit = int(2.0 / w_min) + 1
            if N_fit > N_MAX:
                raise EstimateNotMet(
                    f"band width {w_min:.3g} does not exceed 2/N = "
                    f"{2.0 / N:.3g}, and the wall count N = {N_fit} that "
                    f"fits exceeds the supported budget {N_MAX}"
                )
            N = N_fit
        else:
            N = max(int(np.ceil(needed)), 2)
            if N > N_MAX:
                raise EstimateNotMet(
                    f"required wall count N = {N} exceeds the supported "
                    f"budget {N_MAX}; the step cannot reach distance "
                    f"{required:.3g}"
                )
        bands = find_bands(f3_family, ends, t_grid, width=2.5 / N)
        params = choose_params(f3t_family, g_family, bands, N, t_grid)
    else:
        raise EstimateNotMet(
            "no wall count satisfies the crossing bound on the found bands"
        )
    labs = [build_labyrinth(b, N) for b in bands]
    transformed = lopez_ros(members, params, labs, t_grid)
    factors = _factors(params, t_grid)

    report = {"N": N, "tau": tau, "delta": delta, "required": required,
              "lam": params.lam, "eps": params.eps, "c0": params.c0}
    passes = {}

    # the checks below read each transformed member j, the base member
    # members[j] grown by factors[j] on the walls, off one evaluation of the
    # base members and the wall mask per point set
    pairs = list(zip(members, factors))

    # (I) anchoring at t = 0 and (II) third components, exactly
    probe = _PointSet(data0.grid(n_r=16, n_th=64), members).walls(labs)
    passes["anchoring"] = bool(
        np.array_equal(probe.f(data0, factors[0]), probe.f(data0))
    )
    # each returned member's own f3 against its base member's, once per
    # distinct pair of f3 callables
    f3_pairs = {
        (id(tr.f3), id(m.f3)): (tr.f3, m) for tr, m in zip(transformed, members)
    }
    third_dev = max(
        float(np.max(np.abs(f3(probe.z) - probe.gf3(m)[1])))
        for f3, m in f3_pairs.values()
    )
    report["third_component_deviation"] = third_dev
    passes["third_components"] = third_dev <= 1e-10

    # (III) flux over the core generator
    circle = wz.circle(rho, 512)
    on_circle = _PointSet(circle, members).walls(labs)

    def flux(m, fac=None):
        return wz.period_from_f_theta(on_circle.f_theta(m, fac), circle).imag

    flux_dev = max(
        float(np.max(np.abs(flux(m, fac) - flux(m)))) for m, fac in pairs
    )
    report["flux_deviation"] = flux_dev
    passes["flux_traces"] = flux_dev <= 1e-10

    # approximation on the core: the transform is the identity there
    core_pts = circle * np.linspace(lo / rho + 1e-9, hi / rho - 1e-9, 8)[:, None]
    on_core = _PointSet(core_pts, members).walls(labs)
    core_dev = max(
        float(np.max(np.abs(on_core.f(m, fac) - on_core.f(m))))
        for m, fac in pairs
    )
    report["core_deviation"] = core_dev
    passes["core_approximation"] = core_dev <= 1e-10

    # est1 / est2 pointwise on band grids at bracket start, middle and end
    slack = 1e-6
    est1_ok, est2_ok = True, True
    est1_min, est2_min = np.inf, np.inf
    for lab in labs:
        band = lab.band
        w_grid = band.chart_grid(96, 128)
        z_grid = band.end.from_chart(w_grid)
        inside = lab.contains_chart(w_grid)
        chart_scale = np.abs(band.end.dz_dw(w_grid)) ** 2
        t_lo, t_hi = band.bracket
        js = [
            int(np.argmin(np.abs(t_grid - t)))
            for t in (t_lo, 0.5 * (t_lo + t_hi), t_hi)
        ]
        on_band = _PointSet(z_grid, [members[j] for j in js]).walls(labs)
        for j in js:
            dens_chart = on_band.density(members[j], factors[j]) * chart_scale
            if np.any(inside):
                m1 = float(np.min(dens_chart[inside]))
                est1_min = min(est1_min, m1 / (N**8 * params.eps**2))
                est1_ok &= m1 > N**8 * params.eps**2 * (1.0 - slack)
            m2 = float(np.min(dens_chart))
            est2_min = min(est2_min, m2 / params.eps**2)
            est2_ok &= m2 > params.eps**2
    report["est1_ratio"] = est1_min
    report["est2_ratio"] = est2_min
    passes["est1"] = est1_ok
    passes["est2"] = est2_ok

    # (IV) per-t distances on the coarse graph
    on_coarse.walls(labs)
    dists = np.array(
        [
            coarse.distance(lambda z, m=m, fac=fac: on_coarse.density(m, fac))
            for m, fac in pairs
        ]
    )
    report["min_distance_t"] = float(dists.min())
    passes["conclusion_iv"] = bool(np.all(dists > tau - delta))

    # (V) endpoint distance on the labyrinth-resolving graph
    radii = _fine_radii(r_in, r_out, labs, N)
    fine = build_metric_graph(r_in, r_out, x0, radii=radii, n_th=128)
    end = intrinsic_distance(transformed[-1], x0, graph=fine)
    final = end.value
    report["final_distance"] = final
    report["calibration"] = end.calibration
    # radial spacing inside the bands: half the clearance between walls
    report["fine_resolution"] = _fine_spacing(N)
    passes["conclusion_v"] = final > 1.0 / delta

    # est3: every graph crossing of each band, bounded below off the
    # endpoint distance field; the core side is band.r in the chart, and
    # radius_in_chart, an involution, maps chart radii to physical ones
    est3_ok = True
    est3_min = np.inf
    for lab in labs:
        band = lab.band
        near, far = (
            int(np.searchsorted(radii, band.end.radius_in_chart(x)))
            for x in (band.r, band.R)
        )
        length = _crossing_bound(end.node_distances, near, far)
        bound = min(0.5, band.r) * params.eps * N
        est3_min = min(est3_min, length / bound)
        est3_ok = est3_ok and length > bound
    report["est3_ratio"] = est3_min
    passes["est3"] = est3_ok

    report["passes"] = passes
    result = CompleteStepResult(
        members=transformed, ts=t_grid, labyrinths=labs, params=params, N=N,
        tau=tau, delta=delta, distances=dists, final_distance=final,
        report=report,
    )
    if not passes["conclusion_iv"]:
        raise EstimateNotMet(
            f"distance {dists.min():.3g} does not exceed tau - delta = "
            f"{tau - delta:.3g}"
        )
    if not passes["conclusion_v"]:
        raise EstimateNotMet(
            f"final distance {final:.3g} does not exceed 1/delta = "
            f"{1.0 / delta:.3g}"
        )
    return result
