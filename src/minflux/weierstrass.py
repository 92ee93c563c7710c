"""Weierstrass representation on circular planar domains.

A conformal minimal immersion u is recovered from a holomorphic triple
f = (f1, f2, f3) with f1^2 + f2^2 + f3^2 = 0 as u = Re of the path integral
of f theta.  The triple is assembled from a nonvanishing Gauss map g and a
third component f3; the imaginary loop periods of f theta are the flux.
This module provides the assembly, the induced metric density, flux and
immersion integrals, conformality and flatness checks, and a catalog of
standard examples on the annulus 1/2 < |z| < 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GaussMapVanishes,
    NonFiniteValues,
    RealPeriodNonzero,
    UnknownName,
)

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


# ---------------------------------------------------------------------------
# truncated Laurent series


@dataclass(frozen=True)
class LaurentSeries:
    """Finite Laurent series sum of coeffs[j] * z^(k_min + j).

    Evaluation uses Horner's scheme on the polynomial part after factoring
    out z^k_min, which is stable on annuli bounded away from 0.
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
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        if self.k_min != 0:
            acc = acc * z ** float(self.k_min)
        return acc

    def derivative(self):
        k = self.k_min + np.arange(self.coeffs.size)
        return LaurentSeries(self.coeffs * k, self.k_min - 1)

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

    def coefficient(self, k):
        if self.k_min <= k <= self.k_max:
            return complex(self.coeffs[k - self.k_min])
        return 0.0j

    @property
    def residue(self):
        """Coefficient of 1/z, equal to the loop integral over 2 pi i."""
        return self.coefficient(-1)

    @staticmethod
    def exp_series():
        """Taylor series of e^z to degree 39, accurate to machine precision
        for |z| <= 2."""
        return LaurentSeries([1.0 / math.factorial(k) for k in range(40)], 0)


def _as_callable(fun):
    if callable(fun):
        return fun
    value = complex(fun)
    return lambda z: np.full(np.shape(z), value, dtype=complex)


# ---------------------------------------------------------------------------
# domains, grids and curves


def annulus_grid(r_inner=R_INNER, r_outer=R_OUTER, n_r=GRID_RADIAL, n_th=GRID_ANGULAR):
    """Polar product grid on the open annulus, as a flat complex array."""
    radii = np.linspace(r_inner, r_outer, n_r + 2)[1:-1]
    angles = np.arange(n_th) / n_th * 2.0 * np.pi
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def circle(radius=1.0, n=512):
    """Equispaced samples of a circle about 0, traversed once counterclockwise."""
    x = np.arange(n) / n
    return radius * np.exp(2j * np.pi * x)


def _curve_samples(curve):
    if np.isscalar(curve):
        return circle(float(curve))
    return np.asarray(curve, dtype=complex)


def _loop_derivative(z):
    n = z.size
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    return np.fft.ifft(np.fft.fft(z) * 2j * np.pi * k)


# ---------------------------------------------------------------------------
# Weierstrass data


@dataclass
class WeierstrassData:
    """Gauss map g, third component f3 and reference 1-form theta.

    theta is 'dz' or 'dz/z'; g must be nonvanishing on the domain closure.
    g and f3 are callables on complex arrays (LaurentSeries qualifies).
    """

    g: object
    f3: object
    theta: str = "dz"
    r_inner: float = R_INNER
    r_outer: float = R_OUTER
    name: str = ""

    def __post_init__(self):
        if self.theta not in ("dz", "dz/z"):
            raise ValueError("theta must be 'dz' or 'dz/z'")
        self.g = _as_callable(self.g)
        self.f3 = _as_callable(self.f3)

    def grid(self, n_r=GRID_RADIAL, n_th=GRID_ANGULAR):
        return annulus_grid(self.r_inner, self.r_outer, n_r, n_th)

    def f(self, z):
        """Assembled holomorphic triple at points z, shape (..., 3)."""
        z = np.asarray(z, dtype=complex)
        return null_triple(self.g(z), self.f3(z))

    def theta_over_dz(self, z):
        z = np.asarray(z, dtype=complex)
        if self.theta == "dz":
            return np.ones_like(z)
        return 1.0 / z

    def f_theta(self, z):
        """Values of f * (theta/dz), the integrand against dz."""
        return self.f(z) * self.theta_over_dz(z)[..., None]


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


def density_from_f_theta(ft):
    """Metric density 0.5 |f theta/dz|^2 from values of f theta/dz."""
    return 0.5 * np.sum(np.abs(ft) ** 2, axis=-1)


def metric_density(data, points):
    """Density of the induced metric against |dz|^2, equal to 0.5 |f theta/dz|^2."""
    z = np.asarray(points, dtype=complex)
    return density_from_f_theta(data.f_theta(z))


def conformality_residual(f_values):
    """Max over samples of |f1^2 + f2^2 + f3^2| / |f|^2 (zero iff conformal)."""
    v = np.asarray(f_values, dtype=complex)
    num = np.abs(v[..., 0] ** 2 + v[..., 1] ** 2 + v[..., 2] ** 2)
    den = np.sum(np.abs(v) ** 2, axis=-1)
    return float(np.max(num / np.maximum(den, 1e-300)))


def loop_period(data, curve):
    """Complex loop period of f theta over a closed curve, by spectral quadrature."""
    z = _curve_samples(curve)
    return period_from_f_theta(data.f_theta(z), z)


def period_from_f_theta(ft, z):
    """Loop period from values ft of f theta/dz at the samples z of a loop."""
    return (ft * _loop_derivative(z)[:, None]).mean(axis=0)


def flux(data, curve):
    """Flux vector over a homology generator: Im of the loop period of f theta."""
    return loop_period(data, curve).imag


def real_period(data, curve):
    return loop_period(data, curve).real


def homology_radius(data):
    """Radius of the reference generator circle of the annulus."""
    return math.sqrt(data.r_inner * data.r_outer)


def _segment_integral(data, a, b, tol):
    """Adaptive Gauss-Legendre integral of Re(f theta) over a straight segment."""
    nodes, weights = np.polynomial.legendre.leggauss(24)

    def quad(lo, hi):
        # integrate the holomorphic form; Re is taken once at the end
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        zs = mid + half * nodes
        vals = data.f_theta(zs)
        return half * np.tensordot(weights, vals, axes=(0, 0))

    def refine(lo, hi, whole, depth):
        # a NaN never meets the tolerance, and would split every interval
        # down to the depth limit: 2^24 quadratures
        if not np.all(np.isfinite(whole)):
            raise NonFiniteValues("f theta is not finite on the integration path")
        mid = 0.5 * (lo + hi)
        left, right = quad(lo, mid), quad(mid, hi)
        if depth >= 24 or np.max(np.abs(left + right - whole)) < 0.25 * tol:
            return left + right
        return refine(lo, mid, left, depth + 1) + refine(mid, hi, right, depth + 1)

    first = quad(a, b)
    return refine(a, b, first, 0).real


def integrate_immersion(data, basepoint, value, targetpoint, path=None):
    """Value of the immersion at targetpoint, integrating Re(f theta).

    path: optional sequence of complex waypoints from basepoint to
    targetpoint (piecewise straight); defaults to the direct segment.
    Raises RealPeriodNonzero when the annulus generator carries a real
    period above TOL_PERIOD, which would make the result path-dependent;
    each segment is integrated to TOL_PERIOD.
    """
    rp = real_period(data, homology_radius(data))
    if np.linalg.norm(rp) > TOL_PERIOD:
        raise RealPeriodNonzero(
            f"|Re period| = {np.linalg.norm(rp):.3g} on the generator"
        )
    a = complex(basepoint)
    b = complex(targetpoint)
    out = np.asarray(value, dtype=float).copy()
    if a == b and path is None:
        return out
    pts = [a] + [complex(p) for p in (path if path is not None else [])] + [b]
    for lo, hi in zip(pts[:-1], pts[1:]):
        if lo != hi:
            out = out + _segment_integral(data, lo, hi, TOL_PERIOD)
    return out


def is_flat(f_values):
    """Flatness test on sampled f values; returns (flag, ray or None).

    Flat means the samples span a single complex ray; tested through the
    singular values of the centered sample matrix, with the ray read from
    the dominant right singular vector of the uncentered matrix.
    """
    v = np.asarray(f_values, dtype=complex).reshape(-1, 3)
    centered = v - v.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    if s[0] > 0 and s[1] > FLAT_GAP * s[0]:
        return False, None
    _, _, vh = np.linalg.svd(v, full_matrices=False)
    ray = vh[0]
    # normalize the phase so the largest entry is positive real
    k = int(np.argmax(np.abs(ray)))
    ray = ray * (abs(ray[k]) / ray[k])
    return True, ray


@dataclass
class MinimalImmersion:
    """Weierstrass data with verified periods.

    Stores the flux over the annulus generator; construction fails if the
    real period does not vanish or the metric degenerates on the grid.
    """

    data: WeierstrassData
    flux: np.ndarray = field(init=False)

    def __post_init__(self):
        rp = real_period(self.data, homology_radius(self.data))
        if np.linalg.norm(rp) > TOL_PERIOD:
            raise RealPeriodNonzero(
                f"|Re period| = {np.linalg.norm(rp):.3g} on the generator"
            )
        dens = metric_density(self.data, self.data.grid())
        if float(dens.min()) <= 0.0:
            raise GaussMapVanishes("metric density vanishes on the grid")
        self.flux = flux(self.data, homology_radius(self.data))


def catalog(name):
    """Standard Weierstrass data on the annulus 1/2 < |z| < 2."""
    z_series = LaurentSeries([1.0], 1)
    one = LaurentSeries([1.0], 0)
    if name == "catenoid":
        return WeierstrassData(z_series, one, theta="dz/z", name=name)
    if name == "enneper_annulus":
        return WeierstrassData(z_series, z_series, theta="dz", name=name)
    if name == "flat_exponential":
        return WeierstrassData(one, LaurentSeries.exp_series(), theta="dz", name=name)
    if name == "vertical_plane":
        return WeierstrassData(one, one, theta="dz", name=name)
    raise UnknownName(f"no catalog entry named {name!r}")
