"""Circular planar domains, homology bases and holomorphic extension.

A circular domain is a round disk minus finitely many disjoint closed round
subdisks; its first homology is generated by one circle around each hole.
The extension stage reconstructs a holomorphic map into the punctured null
quadric from its restriction to a homology circle: the loop is lifted to
spinor coordinates, sign-continued, periodized (with a half-integer twist
when the homotopy class is odd), truncated to a Laurent polynomial by FFT,
and squared back to the quadric.  Squaring after truncation keeps the
result exactly null; the price is a parity tag per generator, which is the
complete obstruction on these domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nullquadric as nq
from .errors import ApproximationBudgetExceeded, NoClearance, VanishingOnDomain
from .loops import PeriodicPath, resample
from .nullquadric import _lift_loop
from .weierstrass import LaurentSeries

#: Sup-norm tolerance of the extension on the generator curves.
TOL_RUNGE = 1e-6

#: Truncation degrees tried per spinor block.
DEGREE_START = 16
DEGREE_MAX = 512


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("disk radius must be positive")
        object.__setattr__(self, "center", complex(self.center))


@dataclass(frozen=True)
class CircularDomain:
    """A round disk minus pairwise disjoint closed round subdisks."""

    outer: Disk
    holes: tuple = ()

    def __post_init__(self):
        holes = tuple(self.holes)
        for h in holes:
            gap = self.outer.radius - abs(h.center - self.outer.center) - h.radius
            if gap <= 0:
                raise ValueError("hole not contained in the outer disk")
        for i in range(len(holes)):
            for j in range(i + 1, len(holes)):
                d = abs(holes[i].center - holes[j].center)
                if d <= holes[i].radius + holes[j].radius:
                    raise ValueError("holes overlap")
        object.__setattr__(self, "holes", holes)

    @property
    def rank(self):
        """Rank of the first homology (number of holes)."""
        return len(self.holes)

    def contains(self, z):
        z = np.asarray(z, dtype=complex)
        ok = np.abs(z - self.outer.center) < self.outer.radius
        for h in self.holes:
            ok &= np.abs(z - h.center) > h.radius
        return ok

    def grid(self, n_r=64, n_th=256):
        """Points of a polar grid around each hole, clipped to the domain."""
        pts = []
        for h in self.holes:
            reach = self.outer.radius - abs(h.center - self.outer.center)
            radii = np.linspace(h.radius, reach, n_r + 2)[1:-1]
            ang = np.exp(2j * np.pi * np.arange(n_th) / n_th)
            pts.append((h.center + radii[:, None] * ang[None, :]).ravel())
        if not self.holes:
            radii = np.linspace(0, self.outer.radius, n_r + 2)[1:-1]
            ang = np.exp(2j * np.pi * np.arange(n_th) / n_th)
            pts.append((self.outer.center + radii[:, None] * ang[None, :]).ravel())
        z = np.concatenate(pts)
        return z[self.contains(z)]


def annulus(r_inner=0.5, r_outer=2.0):
    """The standard annulus r_inner < |z| < r_outer as a CircularDomain."""
    return CircularDomain(Disk(0.0, r_outer), (Disk(0.0, r_inner),))


@dataclass(frozen=True)
class CurveChart:
    """A positively oriented analytic circle with a uniformizing coordinate.

    The chart coordinate zeta satisfies z = center + radius*e^(2 pi i zeta),
    so d(zeta) = dz / (2 pi i (z - center)); loops restricted through the
    chart are sampled against d(zeta).  tube_inner/tube_outer bound the
    annulus of analyticity around the curve.
    """

    center: complex
    radius: float
    tube_inner: float
    tube_outer: float

    def points(self, n=256):
        x = np.arange(n) / n
        return self.center + self.radius * np.exp(2j * np.pi * x)

    def dz_dzeta(self, z):
        return 2j * np.pi * (np.asarray(z, dtype=complex) - self.center)


def homology_basis(domain):
    """One disjoint circle around each hole, at the conformal midpoint.

    The radius around each hole is the geometric mean of the hole radius
    and the largest clearance radius; the curves must come out pairwise
    disjoint and disjoint from all holes, else NoClearance.
    """
    charts = []
    for i, h in enumerate(domain.holes):
        reach = domain.outer.radius - abs(h.center - domain.outer.center)
        for j, o in enumerate(domain.holes):
            if j != i:
                reach = min(reach, abs(h.center - o.center) - o.radius)
        if reach <= h.radius:
            raise NoClearance(f"no room for a circle around hole {i}")
        r = float(np.sqrt(h.radius * reach))
        charts.append(CurveChart(h.center, r, h.radius, reach))
    for i in range(len(charts)):
        for j in range(i + 1, len(charts)):
            a, b = charts[i], charts[j]
            if abs(a.center - b.center) <= a.radius + b.radius:
                raise NoClearance(f"basis circles around holes {i} and {j} meet")
        for j, h in enumerate(domain.holes):
            a = charts[i]
            if j != i and abs(a.center - h.center) <= a.radius + h.radius:
                raise NoClearance(f"circle around hole {i} crosses hole {j}")
    return charts


def winding_number(curve_points, z0):
    """Winding of a sampled closed curve around z0, by argument summation."""
    w = np.asarray(curve_points, dtype=complex) - z0
    ang = np.angle(np.roll(w, -1) / w)
    return int(round(ang.sum() / (2.0 * np.pi)))


def restrict_to_curve(F, chart, theta="dz", n=256):
    """Sample a holomorphic triple along a basis curve, against the chart form.

    Returns the PeriodicPath x -> F(z(x)) * theta/d(zeta); its period equals
    the contour integral of F theta over the curve.
    """
    z = chart.points(n)
    vals = F(z) if callable(F) else np.asarray(F, dtype=complex)
    fac = chart.dz_dzeta(z)
    if theta == "dz/z":
        fac = fac / z
    elif theta != "dz":
        raise ValueError("theta must be 'dz' or 'dz/z'")
    return PeriodicPath(vals * fac[:, None])


# ---------------------------------------------------------------------------
# spinor-lift Runge extension


@dataclass
class LaurentMap:
    """A holomorphic map to the null quadric, as exact squares of spinors.

    a and b are Laurent polynomials in z - center; parity 1 means both
    spinor blocks carry an extra factor ((z - center)/scale)^(1/2), whose
    square is integer and keeps the assembled triple single-valued.
    """

    a: LaurentSeries
    b: LaurentSeries
    center: complex = 0.0
    parity: int = 0
    scale: float = 1.0
    meta: dict = field(default_factory=dict)

    def __call__(self, z):
        w = np.asarray(z, dtype=complex) - self.center
        av, bv = self.a(w), self.b(w)
        a2, b2 = av * av, bv * bv
        ab = av * bv
        if self.parity:
            a2, b2, ab = a2 * w / self.scale, b2 * w / self.scale, ab * w / self.scale
        return np.stack([a2 - b2, 1j * (a2 + b2), 2.0 * ab], axis=-1)

    def components(self):
        """The triple as integer Laurent series in z - center."""
        a2 = self.a * self.a
        b2 = self.b * self.b
        ab = self.a * self.b
        if self.parity:
            shift = LaurentSeries([1.0 / self.scale], 1)
            a2, b2, ab = a2 * shift, b2 * shift, ab * shift
        return (a2 + (-1.0) * b2, 1j * (a2 + b2), 2.0 * ab)

    def period(self):
        """Exact contour integral of the triple (dz) over a circle |z-c|=r."""
        return 2j * np.pi * np.array([c.residue for c in self.components()])


def _fit_block(samples, radius, degree):
    """Laurent coefficients (degree -d..d) from equispaced curve samples."""
    n = samples.size
    spec = np.fft.fft(samples) / n
    k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    keep = np.abs(k) <= degree
    coeffs = np.zeros(2 * degree + 1, dtype=complex)
    coeffs[k[keep] + degree] = spec[keep] * radius ** (-k[keep].astype(float))
    return LaurentSeries(coeffs, -degree)


def runge_extend(loop, domain, pclass=None, tol=TOL_RUNGE, grid=None):
    """Holomorphic null extension of a loop given on the homology circle.

    loop: PeriodicPath of quadric values sampled on the basis curve of an
    annulus-like domain (one hole).  pclass optionally asserts the expected
    homotopy class.  The truncation degree doubles from DEGREE_START until
    the sup error on the curve is at most tol, up to DEGREE_MAX.  Returns a
    LaurentMap whose restriction to the curve is sup-close to the input
    within the reported bound.
    """
    if domain.rank != 1:
        raise ValueError("extension implemented for domains with one hole")
    chart = homology_basis(domain)[0]
    v0 = loop.values if isinstance(loop, PeriodicPath) else np.asarray(loop)
    n0 = v0.shape[0]
    if grid is None:
        grid = domain.grid()
    degree = DEGREE_START
    while degree <= DEGREE_MAX:
        # the loop is band-limited by convention, but its spinor lift is
        # not; oversample beyond the trial degree so the truncation error
        # of the lift is measured, not aliased away
        n = max(n0, 4 * degree)
        v = resample(v0, n) if n != n0 else v0
        x = np.arange(n) / n
        a, b, parity = _lift_loop(v)
        if pclass is not None and parity != pclass % 2:
            raise ValueError(
                f"loop class {parity} does not match requested {pclass}"
            )
        if parity:
            twist = np.exp(-1j * np.pi * x)
            a, b = a * twist, b * twist
        sa = _fit_block(a, chart.radius, degree)
        sb = _fit_block(b, chart.radius, degree)
        ext = LaurentMap(
            sa, sb, center=chart.center, parity=parity, scale=chart.radius
        )
        w_curve = chart.points(n) - chart.center
        av, bv = sa(w_curve), sb(w_curve)
        if parity:
            tw = np.exp(1j * np.pi * x)
            av, bv = av * tw, bv * tw
        fa = nq.spinor_to_null(av, bv)
        sup_err = float(np.max(np.abs(fa - v)))
        if sup_err <= tol:
            gv = ext(grid)
            mods = np.sum(np.abs(gv) ** 2, axis=-1)
            min_mod = float(np.min(mods))
            curve_scale = max(1.0, float(np.max(np.abs(v)) ** 2))
            if min_mod <= 1e-20 * curve_scale:
                raise VanishingOnDomain(
                    "extension vanishes on the verification grid"
                )
            ext.meta.update(
                sup_error=sup_err,
                degree=degree,
                min_grid_mod=min_mod,
                max_null_residual=float(np.max(nq.null_residual(gv))),
            )
            return ext
        degree *= 2
    raise ApproximationBudgetExceeded(
        f"sup error {sup_err:.3g} above {tol:g} at degree {DEGREE_MAX}"
    )
