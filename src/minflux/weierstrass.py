"""Weierstrass representation on annuli.

A conformal minimal immersion u is recovered from a holomorphic triple
f = (f1, f2, f3) with f1^2 + f2^2 + f3^2 = 0 as u = Re of the path integral
of f theta.  The triple is assembled from a nonvanishing Gauss map g and a
third component f3; the imaginary loop periods of f theta are the flux.
This module provides the assembly, the induced metric density, flux and
immersion integrals, conformality and flatness checks, and a catalog of
standard examples on the annulus 1/2 < |z| < 2.

This module owns the annulus's point sets: the open-annulus grid
(annulus_grid, WeierstrassData.grid) and full circles (loop_period) are
PolarGrids.  On a PolarGrid, data that carry a spinor (a, b) are read from
its two blocks, other exact Laurent data (LaurentSeries, LaurentQuotient)
by one inverse FFT per radius, and any other callable on the grid's
points.  Plain points remain for scattered points (basepoints, waypoints,
curves given as arrays), where exact data run Horner's scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ApproximationBudgetExceeded,
    GaussMapVanishes,
    NonFiniteValues,
    RealPeriodNonzero,
    UnknownName,
)
from .loops import fourier_derivative

#: Tolerance on period integrals and vanishing real periods, shared by the
#: sprays and the flux drivers.
TOL_PERIOD = 1e-9

#: Default annulus radii for the example catalog.
R_INNER = 0.5
R_OUTER = 2.0

#: Default verification grid size (radial x angular).
GRID_RADIAL = 64
GRID_ANGULAR = 256

#: Relative singular-value gap below which f counts as flat.
FLAT_GAP = 1e-8

#: Samples per boundary circle from which primitive reads f theta/dz.
N_RIM = 512


# ---------------------------------------------------------------------------
# truncated Laurent series


@dataclass(frozen=True)
class LaurentSeries:
    """Finite Laurent series sum of coeffs[j] * z^(k_min + j).

    On an array of points, evaluation uses Horner's scheme on the
    polynomial part after factoring out z^k_min, which is stable on annuli
    bounded away from 0.  On a PolarGrid r_i e^(2 pi i j / n) the series is
    an inverse DFT in j of the coefficients c_k r_i^k folded modulo n, so
    each radius costs one FFT of length n and the values come back flat in
    the grid's point order.
    """

    coeffs: np.ndarray
    k_min: int = 0

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        object.__setattr__(self, "coeffs", c)

    @property
    def k_max(self):
        return self.k_min + self.coeffs.size - 1

    def __call__(self, z):
        if isinstance(z, PolarGrid):
            return self._on_polar_grid(z)
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for c in self.coeffs[::-1]:
            acc *= z
            acc += c
        if self.k_min != 0:
            acc = acc * z ** float(self.k_min)
        return acc

    def _on_polar_grid(self, grid):
        n = grid.n_th
        k = self.k_min + np.arange(self.coeffs.size)
        scaled = self.coeffs * grid.radii[:, None] ** k
        # z^k and z^(k + n) agree in angle on the grid: sum the coefficients
        # into residues modulo n, laid out as m rows of n
        start = self.k_min % n
        m = -(-(start + k.size) // n)
        folded = np.zeros((grid.radii.size, m * n), dtype=complex)
        folded[:, start : start + k.size] = scaled
        folded = folded.reshape(-1, m, n).sum(axis=1)
        return np.fft.ifft(folded, axis=1, norm="forward").ravel()

    def __mul__(self, other):
        if np.isscalar(other):
            return LaurentSeries(self.coeffs * other, self.k_min)
        return LaurentSeries(
            np.convolve(self.coeffs, other.coeffs), self.k_min + other.k_min
        )

    __rmul__ = __mul__

    def __add__(self, other):
        if np.isscalar(other):
            other = LaurentSeries([other], 0)
        lo = min(self.k_min, other.k_min)
        hi = max(self.k_max, other.k_max)
        c = np.zeros(hi - lo + 1, dtype=complex)
        c[self.k_min - lo : self.k_max - lo + 1] += self.coeffs
        c[other.k_min - lo : other.k_max - lo + 1] += other.coeffs
        return LaurentSeries(c, lo)

    @property
    def residue(self):
        """Coefficient of 1/z, equal to the loop integral over 2 pi i."""
        if self.k_min <= -1 <= self.k_max:
            return complex(self.coeffs[-1 - self.k_min])
        return 0.0j

    @staticmethod
    def exp_series():
        """Taylor series of e^z to degree 39, accurate to machine precision
        for |z| <= 2."""
        return LaurentSeries([1.0 / math.factorial(k) for k in range(40)], 0)


@dataclass(frozen=True)
class LaurentQuotient:
    """The quotient num/den of two Laurent series, e.g. a Gauss map b/a.

    Passes its argument, points or PolarGrid, to both series.
    """

    num: LaurentSeries
    den: LaurentSeries

    def __call__(self, z):
        return self.num(z) / self.den(z)


def _as_callable(fun):
    if callable(fun):
        return fun
    value = complex(fun)
    return lambda z: np.full(np.shape(z), value, dtype=complex)


# ---------------------------------------------------------------------------
# domains, grids and curves


class PolarGrid:
    """Polar product grid radii[i] * e^(2 pi i j / n_th) about 0.

    points holds the samples as a flat complex array, radius by radius,
    formed on first use.  Exact Laurent data evaluate on the grid itself
    and need no points; everything else evaluates on points.
    """

    def __init__(self, radii, n_th):
        self.radii = np.atleast_1d(np.asarray(radii, dtype=float))
        self.n_th = int(n_th)

    @cached_property
    def points(self):
        angles = np.arange(self.n_th) / self.n_th * 2.0 * np.pi
        return (self.radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def _open_radii(lo, hi, n):
    """n equispaced radii strictly between lo and hi."""
    return np.linspace(lo, hi, n + 2)[1:-1]


def annulus_grid(r_inner=R_INNER, r_outer=R_OUTER, n_r=GRID_RADIAL, n_th=GRID_ANGULAR):
    """The PolarGrid of n_r equispaced radii strictly inside the annulus
    r_inner < |z| < r_outer, with n_th angles each."""
    return PolarGrid(_open_radii(r_inner, r_outer, n_r), n_th)


def circle(radius=1.0, n=512):
    """The points of PolarGrid([radius], n): n equispaced samples of a
    circle about 0 from angle 0, traversed once counterclockwise."""
    return PolarGrid([radius], n).points


# ---------------------------------------------------------------------------
# Weierstrass data


@dataclass
class WeierstrassData:
    """Gauss map g, third component f3 and reference 1-form theta.

    theta is 'dz' or 'dz/z'.  g and f3 are callables on complex arrays;
    LaurentSeries and LaurentQuotient qualify, and also evaluate on a
    PolarGrid.  g may vanish in the annulus: a driver member's g is the
    quotient b/a of its spinor blocks, and only an evaluation that lands
    on a zero of g raises GaussMapVanishes.  A driver member carries those
    blocks as its spinor, the riemann.LaurentMap of its homology-circle
    loop; catalog, opaque and surrogate data have none.  On a PolarGrid,
    data with a spinor are read from its two blocks alone (f, f_theta,
    metric_density); on plain points, from g and f3.
    """

    g: object
    f3: object
    theta: str = "dz"
    r_inner: float = R_INNER
    r_outer: float = R_OUTER
    spinor: object = None

    def __post_init__(self):
        if self.theta not in ("dz", "dz/z"):
            raise ValueError("theta must be 'dz' or 'dz/z'")
        self.g = _as_callable(self.g)
        self.f3 = _as_callable(self.f3)

    def grid(self, n_r=GRID_RADIAL, n_th=GRID_ANGULAR):
        """The annulus_grid PolarGrid of the data's annulus."""
        return annulus_grid(self.r_inner, self.r_outer, n_r, n_th)

    def f(self, z):
        """Assembled holomorphic triple at points z, shape (..., 3).

        z may be a PolarGrid: a spinor evaluates on it by FFT of its two
        blocks, as f theta/d(zeta) with d(zeta) = dz / (2 pi i z), so f is
        the spinor map over 2 pi i z (over 2 pi i when theta is dz/z).
        Without a spinor, exact Laurent g and f3 evaluate on the grid by
        FFT, any other callable on its points.
        """
        if self._reads_spinor(z):
            if self.theta == "dz/z":
                return self.spinor(z) / (2j * np.pi)
            return self.f_theta(z)
        return null_triple(_evaluate(self.g, z), _evaluate(self.f3, z))

    def _reads_spinor(self, z):
        return self.spinor is not None and isinstance(z, PolarGrid)

    def theta_over_dz(self, z):
        """Values of theta/dz at points z, or at the points of a PolarGrid."""
        z = z.points if isinstance(z, PolarGrid) else np.asarray(z, dtype=complex)
        if self.theta == "dz":
            return np.ones_like(z)
        return 1.0 / z

    def f_theta(self, z):
        """Values of f * (theta/dz), the integrand against dz; z may be a
        PolarGrid, as in f."""
        if self._reads_spinor(z):
            return self.spinor(z) / (2j * np.pi * z.points)[:, None]
        return self.f(z) * self.theta_over_dz(z)[..., None]


def _evaluate(fun, z):
    if not isinstance(z, PolarGrid):
        return fun(np.asarray(z, dtype=complex))
    exact = isinstance(fun, (LaurentSeries, LaurentQuotient))
    return fun(z if exact else z.points)


def null_triple(gz, f3z):
    """The null triple ((1/g - g) f3 / 2, i (1/g + g) f3 / 2, f3), shape (..., 3).

    Takes values of g and f3 at the same points; raises GaussMapVanishes
    where g is zero.
    """
    if np.any(gz == 0):
        raise GaussMapVanishes("g vanishes at an evaluation point")
    inv = 1.0 / gz
    return np.stack(
        [
            0.5 * (inv - gz) * f3z,
            0.5j * (inv + gz) * f3z,
            f3z,
        ],
        axis=-1,
    )


def density(g, f3_theta):
    """Metric density 0.5 |f theta/dz|^2 from the values of g and of
    f3 theta/dz at the same points.

    The null triple of g and f3 has |f|^2 = |f3|^2 (|g| + 1/|g|)^2 / 2, so
    the density is 0.25 |f3 theta/dz|^2 (|g| + 1/|g|)^2, point by point.
    Raises GaussMapVanishes where g is zero.
    """
    a = np.abs(g)
    if np.any(a == 0.0):
        raise GaussMapVanishes("g vanishes at a density evaluation point")
    return 0.25 * np.abs(f3_theta) ** 2 * (a + 1.0 / a) ** 2


def metric_density(data, points):
    """Density of the induced metric against |dz|^2, equal to 0.5 |f theta/dz|^2.

    points may be a PolarGrid, as in WeierstrassData.f.  On a grid, the
    density of data with a spinor is its squared modulus
    (spinor.squared_modulus) over 2 (2 pi r)^2 on the ring of radius r,
    read from the two blocks alone; otherwise it is formed from g and f3
    alone, without the null triple.  The values come back flat.
    """
    if data._reads_spinor(points):
        ring = 0.5 / (2.0 * np.pi * points.radii) ** 2
        return (data.spinor.squared_modulus(points) * ring[:, None]).ravel()
    return density(
        _evaluate(data.g, points),
        _evaluate(data.f3, points) * data.theta_over_dz(points),
    )


def conformality_residual(f_values):
    """Max over samples of |f1^2 + f2^2 + f3^2| / |f|^2 (zero iff conformal)."""
    v = np.asarray(f_values, dtype=complex)
    num = np.abs(v[..., 0] ** 2 + v[..., 1] ** 2 + v[..., 2] ** 2)
    den = np.sum(np.abs(v) ** 2, axis=-1)
    return float(np.max(num / np.maximum(den, 1e-300)))


def loop_period(data, curve):
    """Complex loop period of f theta over a closed curve, by spectral
    quadrature.

    A radius stands for the circle PolarGrid([radius], 512), on which f
    theta is read as on any PolarGrid; a curve given as an array of
    points is read at those points.
    """
    if np.isscalar(curve):
        grid = PolarGrid([float(curve)], 512)
        return period_from_f_theta(data.f_theta(grid), grid.points)
    z = np.asarray(curve, dtype=complex)
    return period_from_f_theta(data.f_theta(z), z)


def period_from_f_theta(ft, z):
    """Loop period from values ft of f theta/dz at the samples z of a loop."""
    return (ft * fourier_derivative(z)[:, None]).mean(axis=0)


def flux(data, curve):
    """Flux vector over a homology generator: Im of the loop period of f theta."""
    return loop_period(data, curve).imag


def real_period(data, curve):
    return loop_period(data, curve).real


def homology_radius(data):
    """Radius of the reference generator circle of the annulus."""
    return math.sqrt(data.r_inner * data.r_outer)


def rim_read(values, radii, keep=()):
    """Laurent coefficients of functions holomorphic on the closed annulus
    radii[0] <= |z| <= radii[1], read from their samples on its two
    boundary circles, the rings of PolarGrid(radii, n).

    values has shape (B, 2, n, c): B independent reads, each of c functions
    on the inner and then the outer circle.  Coefficient k is read by DFT
    on the circle where its term z^k is largest, the outer one for k >= 0
    and the inner one for k < 0, so no term grows off the circle it was
    read on.  Per read, a term whose size on its circle is at most 1e-15 of
    the largest of the c functions' terms is dropped (set to 0), except the
    powers in keep.  The gap of a read is the largest difference between
    its kept series and its samples on both circles: sampled, and at
    rounding level when the samples resolve the functions.

    Returns (k, coeffs, kept, gap): the powers k = -n/2 .. n/2 - 1 in
    order, coeffs of shape (B, n, c), the mask kept of shape (B, n) and
    gap of shape (B,).
    """
    n = values.shape[2]
    k = np.arange(n) - n // 2
    outer = (k >= 0).astype(int)
    spec = np.fft.fftshift(np.fft.fft(values, axis=2, norm="forward"), axes=2)
    terms = spec[:, outer, np.arange(n)]
    size = np.abs(terms).max(axis=2)
    kept = (size > 1e-15 * size.max(axis=1, keepdims=True)) | np.isin(k, keep)
    terms = np.where(kept[..., None], terms, 0.0)
    # each kept term moved from its own circle to both
    moved = terms[:, None] * ((radii[:, None] / radii[outer]) ** k)[..., None]
    fitted = np.fft.ifft(np.fft.ifftshift(moved, axes=2), axis=2, norm="forward")
    gap = np.abs(fitted - values).max(axis=(1, 2, 3))
    coeffs = terms * (radii[outer] ** -k.astype(float))[:, None]
    return k, coeffs, kept, gap


def kept_span(kept):
    """The slice from the first to the last True entry of a kept mask."""
    idx = np.flatnonzero(kept)
    return slice(idx[0], idx[-1] + 1)


def primitive(data):
    """(P, c) with u(z) - u(z0) = Re[P(z) - P(z0) + c log(z/z0)].

    c holds the z^(-1) coefficients of f theta/dz, and P, which evaluates on
    points or by FFT on a PolarGrid, the termwise antiderivative of its
    other terms.  The coefficients are read by rim_read from N_RIM samples
    of each boundary circle, c whatever its size.  Its sampled gap check
    raises ApproximationBudgetExceeded for a gap above TOL_PERIOD, which f
    theta leaves when the samples do not resolve it or it is not
    holomorphic; NonFiniteValues for a value that is not finite.
    """
    radii = np.array([data.r_inner, data.r_outer])
    rims = PolarGrid(radii, N_RIM)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = data.f_theta(rims)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValues("f theta is not finite on the boundary circles")
    k, coeffs, kept, gap = rim_read(vals.reshape(1, 2, N_RIM, 3), radii,
                                    keep=(-1,))
    if gap[0] > TOL_PERIOD:
        raise ApproximationBudgetExceeded(
            f"the Laurent series miss f theta by {gap[0]:.3g} on the "
            "boundary circles (sampled)"
        )
    span = kept_span(kept[0])
    k_min, coeffs = int(k[span.start]), coeffs[0, span]
    powers = k_min + 1.0 + np.arange(len(coeffs))
    c = coeffs[powers == 0][0]
    anti = coeffs / np.where(powers == 0, np.inf, powers)[:, None]
    prims = [LaurentSeries(a, k_min + 1) for a in anti.T]

    def P(z):
        return np.stack([p(z) for p in prims], axis=-1)

    return P, c


def integrate_immersion(data, basepoint, value, targetpoint, path=None):
    """value plus the integral of Re(f theta) from basepoint to targetpoint,
    a point, an array of points or a PolarGrid (flat); shape (..., 3).

    Exact on the primitive: Re[P(z) - P(z0) + c log(z/z0)], the argument of
    z/z0 accumulated along the straight legs basepoint -> path waypoints ->
    targetpoint.  Raises RealPeriodNonzero when the generator's real period
    Re(2 pi i c), by which the branch of log can move u, is above
    TOL_PERIOD.
    """
    P, c = primitive(data)
    real = float(np.linalg.norm(2.0 * np.pi * c.imag))
    if real > TOL_PERIOD:
        raise RealPeriodNonzero(f"|Re period| = {real:.3g} on the generator")
    z0 = complex(basepoint)
    grid = isinstance(targetpoint, PolarGrid)
    z = targetpoint.points if grid else np.asarray(targetpoint, dtype=complex)
    legs = np.array([z0, *(() if path is None else path)], dtype=complex)
    turn = np.angle(legs[1:] / legs[:-1]).sum() + np.angle(z / legs[-1])
    log = np.log(np.abs(z) / abs(z0)) + 1j * turn
    u = P(targetpoint) - P(np.array(z0)) + log[..., None] * c
    return np.asarray(value, dtype=float) + u.real


def is_flat(data):
    """Flatness test of Weierstrass data, as a bool.

    A minimal surface is planar exactly when its Gauss map is constant
    (Osserman), and then f = f3 null_triple(c, 1) spans a single complex
    ray.  For exact Laurent g, num/den (a LaurentSeries counts as num over
    1) is constant exactly when the 2 x K coefficient matrix [num; den] has
    rank one, tested as a singular-value gap below FLAT_GAP; no sample is
    taken.  Only an opaque callable g is sampled: f on the data's grid (a
    PolarGrid) is flat when its centered sample matrix has that gap.
    """
    g = data.g
    if isinstance(g, LaurentSeries):
        g = LaurentQuotient(g, LaurentSeries([1.0]))
    if isinstance(g, LaurentQuotient):
        num, den = g.num, g.den
        lo = min(num.k_min, den.k_min)
        rows = np.zeros((2, max(num.k_max, den.k_max) - lo + 1), dtype=complex)
        rows[0, num.k_min - lo : num.k_max - lo + 1] = num.coeffs
        rows[1, den.k_min - lo : den.k_max - lo + 1] = den.coeffs
        s = np.linalg.svd(rows, compute_uv=False)
        return not (s.size > 1 and s[1] > FLAT_GAP * s[0])
    v = data.f(data.grid())
    s = np.linalg.svd(v - v.mean(axis=0), compute_uv=False)
    return not (s[0] > 0 and s[1] > FLAT_GAP * s[0])


def admission(data, grid, real_period, where):
    """(min metric density on grid, |real_period|), the measures that admit
    a member when positive and at most TOL_PERIOD.

    NonFiniteValues, naming where, unless the density's max and the period
    are finite: a NaN fails every comparison, and min() passes an inf.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        den = metric_density(data, grid)
    lo, hi = float(den.min()), float(den.max())
    real = float(np.linalg.norm(real_period))
    if not (math.isfinite(hi) and math.isfinite(real)):
        raise NonFiniteValues(f"{where} is not finite on its grid or loop")
    return lo, real


@dataclass
class MinimalImmersion:
    """Weierstrass data with verified periods.

    Stores the flux over the annulus generator; construction fails if the
    real period does not vanish or the metric degenerates on the grid.
    Both are read as verify reads a member: the period on the generator
    circle and the density on the data's grid, both PolarGrids, so data
    with a spinor are read from its two blocks.
    """

    data: WeierstrassData
    flux: np.ndarray = field(init=False)

    def __post_init__(self):
        data = self.data
        # admission tests the period and the density for finiteness
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            period = loop_period(data, homology_radius(data))
        den_min, real = admission(data, data.grid(), period.real, "the data")
        if real > TOL_PERIOD:
            raise RealPeriodNonzero(f"|Re period| = {real:.3g} on the generator")
        if den_min <= 0.0:
            raise GaussMapVanishes("metric density vanishes on the grid")
        self.flux = period.imag


def catalog(name):
    """Standard Weierstrass data on the annulus 1/2 < |z| < 2."""
    z_series = LaurentSeries([1.0], 1)
    one = LaurentSeries([1.0], 0)
    if name == "catenoid":
        return WeierstrassData(z_series, one, theta="dz/z")
    if name == "enneper_annulus":
        return WeierstrassData(z_series, z_series, theta="dz")
    if name == "flat_exponential":
        return WeierstrassData(one, LaurentSeries.exp_series(), theta="dz")
    if name == "vertical_plane":
        return WeierstrassData(one, one, theta="dz")
    raise UnknownName(f"no catalog entry named {name!r}")
