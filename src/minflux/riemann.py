"""The annulus, its homology generator and holomorphic extension.

The domain is the centred annulus r_inner < |z| < r_outer; its first
homology is generated by the circle |z| = sqrt(r_inner r_outer).
The extension stage reconstructs a holomorphic map into the punctured null
quadric from its restriction to that circle: the loop is lifted to
spinor coordinates, sign-continued, periodized (with a half-integer twist
when the homotopy class is odd), truncated to a Laurent polynomial by FFT,
and squared back to the quadric.  Squaring after truncation keeps the
result exactly null; the price is a parity tag, which is the complete
obstruction on the annulus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nullquadric as nq
from .errors import ApproximationBudgetExceeded, VanishingOnDomain
from .loops import PeriodicPath, resample
from .nullquadric import _lift_loop
from .weierstrass import LaurentSeries, PolarGrid, annulus_grid, homology_radius

#: Sup-norm tolerance of the extension on the generator circle.
TOL_RUNGE = 1e-6

#: Truncation degrees tried per spinor block.
DEGREE_START = 16
DEGREE_MAX = 512


# ---------------------------------------------------------------------------
# the domain


@dataclass(frozen=True)
class Annulus:
    """The annulus r_inner < |z| < r_outer about 0."""

    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not 0 < self.r_inner < self.r_outer:
            raise ValueError("annulus needs 0 < r_inner < r_outer")


def annulus(r_inner=0.5, r_outer=2.0):
    """The annulus r_inner < |z| < r_outer."""
    return Annulus(r_inner, r_outer)


@dataclass(frozen=True)
class CurveChart:
    """The circle |z| = radius with its uniformizing coordinate.

    The chart coordinate zeta satisfies z = radius*e^(2 pi i zeta), so
    d(zeta) = dz / (2 pi i z); loops restricted through the chart
    (isotopy.restrict_data) are sampled against d(zeta), at n equispaced
    values of zeta from 0: the circle PolarGrid([radius], n).
    """

    radius: float


def homology_basis(domain):
    """The generator circle of the annulus, at the conformal midpoint."""
    return [CurveChart(homology_radius(domain))]


def winding_number(curve_points):
    """Winding of a sampled closed curve around 0, by argument summation."""
    w = np.asarray(curve_points, dtype=complex)
    ang = np.angle(np.roll(w, -1) / w)
    return int(round(ang.sum() / (2.0 * np.pi)))


# ---------------------------------------------------------------------------
# spinor-lift Runge extension


@dataclass
class LaurentMap:
    """A holomorphic map to the null quadric, as exact squares of spinors.

    a and b are Laurent polynomials in z; parity 1 means both spinor blocks
    carry an extra factor (z/scale)^(1/2), whose square is integer and
    keeps the assembled triple single-valued.
    """

    a: LaurentSeries
    b: LaurentSeries
    parity: int = 0
    scale: float = 1.0
    meta: dict = field(default_factory=dict)

    def __call__(self, z):
        """The triple at points z, or flat on a PolarGrid."""
        if isinstance(z, PolarGrid):
            w = z.points
        else:
            z = w = np.asarray(z, dtype=complex)
        out = nq.spinor_to_null(self.a(z), self.b(z))
        if self.parity:
            out = out * (w / self.scale)[..., None]
        return out

    def squared_modulus(self, grid):
        """|f|^2 on a PolarGrid, shape (radii, angles), from the blocks alone:
        2 (|a|^2 + |b|^2)^2, times (r / scale)^2 on the ring of radius r when
        the parity is 1."""
        mods = 2.0 * (np.abs(self.a(grid)) ** 2 + np.abs(self.b(grid)) ** 2) ** 2
        mods = mods.reshape(grid.radii.size, -1)
        if self.parity:
            mods = mods * ((grid.radii / self.scale) ** 2)[:, None]
        return mods


def _fit_block(samples, radius, degree):
    """Laurent coefficients (degree -d..d) from equispaced curve samples."""
    n = samples.size
    spec = np.fft.fft(samples) / n
    k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    keep = np.abs(k) <= degree
    coeffs = np.zeros(2 * degree + 1, dtype=complex)
    coeffs[k[keep] + degree] = spec[keep] * radius ** (-k[keep].astype(float))
    return LaurentSeries(coeffs, -degree)


def runge_extend(loop, domain, tol=TOL_RUNGE):
    """Holomorphic null extension of a loop given on the homology circle.

    loop: PeriodicPath of quadric values sampled on the generator circle of
    the annulus domain.  The truncation degree doubles from DEGREE_START
    until the sup error on the curve is at most tol, up to DEGREE_MAX.
    Returns a LaurentMap whose restriction to the curve is sup-close to the
    input within the reported bound.  The extension is checked not to
    vanish on the domain's default annulus_grid; the squared modulus there
    (min_grid_mod) is read from the spinor blocks by
    LaurentMap.squared_modulus.
    """
    chart = homology_basis(domain)[0]
    v0 = loop.values if isinstance(loop, PeriodicPath) else np.asarray(loop)
    n0 = v0.shape[0]
    grid = annulus_grid(domain.r_inner, domain.r_outer)
    degree = DEGREE_START
    while degree <= DEGREE_MAX:
        # the loop is band-limited by convention, but its spinor lift is
        # not; oversample beyond the trial degree so the truncation error
        # of the lift is measured, not aliased away
        n = max(n0, 4 * degree)
        v = resample(v0, n) if n != n0 else v0
        x = np.arange(n) / n
        a, b, parity = _lift_loop(v)
        if parity:
            twist = np.exp(-1j * np.pi * x)
            a, b = a * twist, b * twist
        sa = _fit_block(a, chart.radius, degree)
        sb = _fit_block(b, chart.radius, degree)
        ext = LaurentMap(sa, sb, parity=parity, scale=chart.radius)
        sup_err = float(np.max(np.abs(ext(PolarGrid([chart.radius], n)) - v)))
        if sup_err <= tol:
            min_mod = float(np.min(ext.squared_modulus(grid)))
            curve_scale = max(1.0, float(np.max(np.abs(v)) ** 2))
            if min_mod <= 1e-20 * curve_scale:
                raise VanishingOnDomain(
                    "extension vanishes on the verification grid"
                )
            ext.meta.update(
                sup_error=sup_err, degree=degree, min_grid_mod=min_mod
            )
            return ext
        degree *= 2
    raise ApproximationBudgetExceeded(
        f"sup error {sup_err:.3g} above {tol:g} at degree {DEGREE_MAX}"
    )
