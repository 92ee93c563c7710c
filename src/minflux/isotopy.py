"""End-to-end drivers: isotopies steering the flux, and their verification.

The drivers deform a conformal minimal immersion of an annulus through
conformal minimal immersions until its flux vector reaches a prescribed
value (zero by default).  The deformation happens at the level of the
boundary loop of the derivative data: the loop period is steered along a
linear ramp (period_schedule) by quadric-preserving flows, and each
intermediate loop is extended holomorphically to the annulus with sup
error at most min(TOL_RUNGE, tol_period / 10) on the homology circle.
The exact coefficient period of an extension is the mean of its samples
there, so it lies within that sup error plus 1e-12 of the ramp.  At the
zero endpoint the full complex periods vanish and a holomorphic null
curve with u1 = Re F is emitted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import loops as lp
from . import nullquadric as nq
from . import riemann as rm
from . import weierstrass as wz
from .errors import EstimateNotMet, FlatInput, NonFiniteValues, NotOnQuadric
from .loops import N_T_DEFAULT, PeriodicPath
from .nullquadric import TOL_NULL
from .riemann import TOL_RUNGE
from .weierstrass import (
    TOL_PERIOD,
    LaurentQuotient,
    LaurentSeries,
    MinimalImmersion,
    PolarGrid,
    WeierstrassData,
)

#: Default flux tolerance of the drivers.
TOL_FLUX = 1e-8

#: Loop sample count used on the homology circle.
N_S_DEFAULT = 512

#: Bound on verify's continuity measure: the largest member step
#: max|f(t_k+1) - f(t_k)| / max|f(t_k)|, times n_t - 1, with both sups
#: taken on the two boundary circles (maximum modulus principle).
CONTINUITY_BOUND = 20.0


# ---------------------------------------------------------------------------
# family and report containers


@dataclass
class ImmersionFamily:
    """A one-parameter family of conformal minimal immersions.

    members[k] is the Weierstrass data at ts[k]; members[0] is the input
    object itself (exact coefficients).  A driven member carries the
    Laurent extension it was built from as its spinor.  periods[k] is the
    complex period of f theta over the homology generator.  ts, members
    and periods have one length n, and periods the shape (n, 3); every
    member lies on one annulus (ValueError otherwise), whose homology
    generator circle is the family's chart and whose point on the positive
    real axis is its basepoint.
    """

    ts: np.ndarray
    members: list
    periods: np.ndarray
    notice: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.members)
        shape = np.shape(self.periods)
        if len(self.ts) != n or shape != (n, 3):
            raise ValueError(
                f"family has {len(self.ts)} ts and {n} members, and periods "
                f"of shape {shape}; need n ts, n members and periods (n, 3)"
            )
        annuli = list({(m.r_inner, m.r_outer): 0 for m in self.members})
        if len(annuli) > 1:
            raise ValueError(
                f"family members lie on two annuli, {annuli[0]} and {annuli[1]}"
            )

    @property
    def chart(self):
        """The homology generator circle of the members' annulus."""
        m = self.members[0]
        return rm.homology_basis(rm.annulus(m.r_inner, m.r_outer))[0]

    @property
    def basepoint(self):
        """The generator circle's point on the positive real axis."""
        return complex(self.chart.radius)

    def __len__(self):
        return len(self.members)

    @property
    def flux_trace(self):
        """Flux vector per t over the homology generator, shape (n_t, 3)."""
        return self.periods.imag

    def null_curve(self):
        """Holomorphic null curve F with u1 = Re F, from the last member.

        Requires the full complex period at t = 1 to be small: F is the
        member's primitive P - P(basepoint) without its log terms, whose
        coefficients' norm is returned as the closure defect of Im F.
        """
        P, c = wz.primitive(self.members[-1])
        offs = P(np.array(self.basepoint))

        def F(z):
            return P(np.asarray(z, dtype=complex)) - offs

        return F, float(np.linalg.norm(c))


@dataclass
class VerificationReport:
    """Recomputed residuals of a family, with thresholds and verdicts."""

    ts: np.ndarray
    max_conformality: float
    max_real_period: float
    flux_table: np.ndarray
    min_density: float
    continuity: float
    flat_flags: list
    pi1_classes: list
    thresholds: dict
    passes: dict
    flux_end_residual: float = None  # |flux at t = 1 - target|, if checked
    meta: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(self.passes.values())


# ---------------------------------------------------------------------------
# Laurent plumbing


def _spinor_member(ext, theta, r_inner, r_outer):
    """The member carrying the loop extension ext as its spinor, and the
    exact complex period of its f theta over the generator.

    The extension represents the loop f * theta/d(zeta) sampled through the
    chart z = r e^(2 pi i zeta), so f theta/dz is the extension divided by
    2 pi i z, and its residues times 2 pi i are the period.  The Gauss map
    is the ratio b/a of the spinor blocks (the half-integer twists cancel)
    and f3 an exact Laurent series, so the Weierstrass formula reproduces
    the extension in exact arithmetic.  A block a that is zero leaves g
    infinite everywhere: NonFiniteValues.
    """
    if not np.any(ext.a.coeffs):
        raise NonFiniteValues("spinor block a is zero, so g = b/a is infinite")
    shift = LaurentSeries([1.0 / (2j * np.pi)], -1)
    comps = [c * shift for c in ext.components()]
    f3 = comps[2]
    if theta == "dz/z":
        f3 = f3 * LaurentSeries([1.0], 1)
    member = WeierstrassData(
        LaurentQuotient(ext.b, ext.a), f3, theta=theta, r_inner=r_inner,
        r_outer=r_outer, spinor=ext,
    )
    return member, np.array([2j * np.pi * c.residue for c in comps])


def restrict_data(data, chart, n=N_S_DEFAULT):
    """The boundary loop of f theta on the homology circle of the data,
    sampled against the chart form d(zeta) = dz / (2 pi i z).

    The loop of data with a spinor is the spinor map itself, read by FFT
    of its blocks on PolarGrid([chart.radius], n).  Other data are read
    from f at that grid's points, wz.circle(chart.radius, n), by Horner's
    scheme for exact Laurent data, not by FFT: the flux drivers' t = 1
    solve is singular, so their endpoint is not a continuous function of
    the input loop, and a change of rounding there would move it.
    NonFiniteValues unless every sample is finite.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if data.spinor is not None:
            values = data.spinor(PolarGrid([chart.radius], n))
        else:
            z = wz.circle(chart.radius, n)
            fac = 2j * np.pi * z
            if data.theta == "dz/z":
                fac = fac / z
            values = data.f(z) * fac[:, None]
    if not np.all(np.isfinite(values)):
        raise NonFiniteValues("f theta is not finite on the homology circle")
    return PeriodicPath(values)


# ---------------------------------------------------------------------------
# the member extension


def _pin_extension(values, domain, theta, target, tol):
    """Extend a deformed loop to sup error min(TOL_RUNGE, tol) on the curve.

    The exact period of the extension (from the z^0 coefficients of its
    components) is the mean of its samples on the curve, so it misses the
    loop period by at most the sup error that runge_extend reports, and
    the continuation has put the loop period within 1e-12 of target.
    Returns (member, exact period), the member carrying the extension as
    its spinor; raises EstimateNotMet if the period misses target by more
    than the sup error plus 1e-12.
    """
    ext = rm.runge_extend(PeriodicPath(values), domain, tol=min(TOL_RUNGE, tol))
    member, period = _spinor_member(ext, theta, domain.r_inner, domain.r_outer)
    miss = float(np.max(np.abs(period - target)))
    bound = ext.meta["sup_error"] + 1e-12
    if miss > bound:
        raise EstimateNotMet(
            f"member extension period misses the ramp by {miss:.3g}, above "
            f"the bound {bound:.3g} (sup error + 1e-12)"
        )
    return member, period


# ---------------------------------------------------------------------------
# drivers


def _as_immersion(u0):
    return u0 if isinstance(u0, MinimalImmersion) else MinimalImmersion(u0)


def _constant_family(data, n_t, period0, notice=""):
    ts = np.linspace(0.0, 1.0, n_t)
    periods = np.tile(np.asarray(period0, dtype=complex), (n_t, 1))
    return ImmersionFamily(
        ts=ts, members=[data] * n_t, periods=periods, notice=notice
    )


def period_schedule(ts, period0, target):
    """The periods the drivers steer along: (1 - t) period0 + t i target at
    each t of ts, shape (len(ts), 3).  Its imaginary part is the flux
    schedule from the flux of period0 to target."""
    ts = np.asarray(ts, dtype=float)
    return (
        (1.0 - ts)[:, None] * period0[None, :]
        + ts[:, None] * (1j * np.asarray(target, dtype=float))[None, :]
    )


def _driver_controls(n):
    """Quadric flows with low-degree trigonometric profiles.

    The profiles are restrictions of entire functions, so the deformed
    loops stay analytic on the whole annulus and their holomorphic
    extensions remain moderately bounded off the curve; compactly
    supported bump profiles would force the extension to blow up
    geometrically toward the domain boundary.
    """
    x = np.arange(n) / n
    profs = [
        np.ones(n),
        np.cos(2.0 * np.pi * x),
        np.sin(2.0 * np.pi * x),
    ]
    return [(k, p) for p in profs for k in nq.FLOW_KINDS]


def _drive(
    u0,
    target,
    n_t=N_T_DEFAULT,
    tol_flux=TOL_FLUX,
    tol_period=TOL_PERIOD,
):
    if not (isinstance(n_t, numbers.Integral) and n_t >= 2):
        raise ValueError(f"n_t must be an integer of at least 2, got {n_t!r}")
    target = np.asarray(target, dtype=float)
    if target.shape != (3,) or not np.all(np.isfinite(target)):
        raise ValueError(f"target must be three finite numbers, got {target!r}")
    u0 = _as_immersion(u0)
    data = u0.data
    domain = rm.annulus(data.r_inner, data.r_outer)
    chart = rm.homology_basis(domain)[0]

    loop0 = restrict_data(data, chart, n=N_S_DEFAULT)
    period0 = lp.period(loop0)
    flux0 = period0.imag

    met = float(np.linalg.norm(flux0 - target)) <= tol_flux
    if wz.is_flat(data):
        if not met:
            raise FlatInput(
                "flat input can only carry its own flux; target differs by "
                f"{np.linalg.norm(flux0 - target):.3g}"
            )
        return _constant_family(
            data, n_t, period0,
            notice="flat input: already the real part of a null curve; "
            "constant family emitted",
        )
    if met:
        return _constant_family(
            data, n_t, period0, notice="target flux already met at t = 0"
        )

    ts = np.linspace(0.0, 1.0, n_t)
    ramp = period_schedule(ts, period0, target)
    controls = _driver_controls(loop0.values.shape[0])
    deformed = lp._period_continuation(loop0.values, ramp, controls)

    members = [data]
    periods = [period0]
    for k in range(1, n_t):
        member, period = _pin_extension(
            deformed[k], domain, data.theta, ramp[k], tol=0.1 * tol_period
        )
        members.append(member)
        periods.append(period)

    return ImmersionFamily(
        ts=ts,
        members=members,
        periods=np.array(periods),
        meta={"tol_flux": tol_flux, "tol_period": tol_period},
    )


def flux_to_zero(u0, n_t=N_T_DEFAULT, tol_flux=TOL_FLUX, tol_period=TOL_PERIOD):
    """Isotopy from u0 to an immersion with vanishing flux.

    At t = 1 the full complex periods of f theta vanish, so the endpoint is
    the real part of a holomorphic null curve, available from the family's
    null_curve method.
    """
    fam = _drive(u0, np.zeros(3), n_t=n_t, tol_flux=tol_flux,
                 tol_period=tol_period)
    fam.meta["driver"] = "flux_to_zero"
    return fam


def prescribe_flux(u0, p, n_t=N_T_DEFAULT, tol_flux=TOL_FLUX,
                   tol_period=TOL_PERIOD):
    """Isotopy from u0 to an immersion with flux vector p over the generator."""
    fam = _drive(u0, p, n_t=n_t, tol_flux=tol_flux, tol_period=tol_period)
    fam.meta["driver"] = "prescribe_flux"
    return fam


# ---------------------------------------------------------------------------
# verification


def _loop_class(data, loop):
    """The pi1 class of a member's boundary loop: the parity of its spinor,
    exact since the loop is spinor_to_null(a, b) (z/scale)^parity with
    single-valued a and b, else sampled from the loop; None off the
    quadric."""
    if data.spinor is not None:
        return data.spinor.parity
    try:
        return nq.pi1_class(loop.values)
    except NotOnQuadric:
        # corrupted data: leave the class undefined; the conformality
        # residual check flags the member
        return None


def verify(family, resolution=2, tol_flux=TOL_FLUX, tol_period=TOL_PERIOD,
           target_flux=None):
    """Recompute all residuals of a family from scratch.

    resolution, a positive integer (ValueError otherwise), scales the
    verification grid (32 x 128 radii by angles per unit) and the loop
    sampling (N_S_DEFAULT per unit) relative to the construction defaults
    (2 doubles them).  The grid, the two boundary circles and the homology
    circle (family.chart) are built once, on the annulus every member
    shares.  The metric density is measured on that grid, whose radii lie
    strictly inside the annulus; the periods on the loop over the homology
    circle (restrict_data); conformality (against TOL_NULL, and null by
    construction) on the boundary circles.  A member with a spinor is read
    from its two blocks alone, by FFT on those grids: no Gauss map
    quotient, no f3, no Horner's scheme; any other member from g and f3.
    Every member's boundary loop must have the pi1 class of member 0's
    (spin_class), which is the parity of a member's spinor and is sampled
    from the loop of a member without one.  The largest member step
    max|f(t_k+1) - f(t_k)| / max|f(t_k)|, scaled by n_t - 1, must stay
    below CONTINUITY_BOUND (continuity); it is infinite after a member
    that is 0 on the boundary circles.  Both sups are taken on the two
    boundary circles, where the maximum modulus principle puts them, since
    every component of a member and of a step is holomorphic on the closed
    annulus; only the angles are sampled, as many as the loop's.  No member
    may be flat unless every member is members[0], the constant family of
    a flat input (nonflat); is_flat reads flatness from the coefficients of
    exact data.  When target_flux is given, the recomputed flux of the last
    member must lie within tol_flux of it.  An empty family raises
    ValueError, a member that is not finite on the grid or its boundary
    circles NonFiniteValues.  The report is deterministic in the family.
    """
    if not (isinstance(resolution, numbers.Integral)
            and not isinstance(resolution, bool) and resolution > 0):
        raise ValueError(
            f"resolution must be a positive integer, got {resolution!r}"
        )
    if len(family) == 0:
        raise ValueError("cannot verify an empty family")
    n_r, n_th = 32 * resolution, 128 * resolution
    n_loop = N_S_DEFAULT * resolution
    # the boundary circles carry n_loop angles, as the homology circle
    # does, since a sampled max misses the sup by O(1/angles^2)
    first, chart = family.members[0], family.chart
    grid = wz.annulus_grid(first.r_inner, first.r_outer, n_r, n_th)
    rims = PolarGrid([first.r_inner, first.r_outer], n_loop)
    max_conf = 0.0
    max_real = 0.0
    min_den = np.inf
    max_step = 0.0
    prev = prev_sup = None
    flux_table = []
    flat_flags = []
    pi1_classes = []
    for t, data in zip(family.ts, family.members):
        # a huge coefficient overflows to inf, a NaN value makes every
        # reduction NaN and an inf one the residual's inf/inf: the
        # reductions are tested instead of every value
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            fb = data.f(rims)
            conf = wz.conformality_residual(fb)
            sup = float(np.max(np.abs(fb)))
        member = f"member at t = {float(t):g}"
        if not (math.isfinite(conf) and math.isfinite(sup)):
            raise NonFiniteValues(f"{member} is not finite on the rims")
        loop = restrict_data(data, chart, n=n_loop)
        per = lp.period(loop)
        den_min, real = wz.admission(data, grid, per.real, member)
        max_conf = max(max_conf, conf)
        min_den = min(min_den, den_min)
        max_real = max(max_real, real)
        flat_flags.append(wz.is_flat(data))
        if prev is not None:
            with np.errstate(over="ignore"):
                change = float(np.max(np.abs(fb - prev)))
            # a member that is 0 on both circles is 0 everywhere
            step = change / prev_sup if prev_sup > 0.0 else math.inf
            max_step = max(max_step, step)
        prev, prev_sup = fb, sup
        flux_table.append(per.imag)
        pi1_classes.append(_loop_class(data, loop))
    flux_table = np.array(flux_table)
    continuity = max_step * (len(family) - 1)
    thresholds = {
        "conformality": TOL_NULL,
        "real_period": tol_period,
        "metric_density": 0.0,
        "continuity": CONTINUITY_BOUND,
    }
    passes = {
        "conformality": max_conf <= TOL_NULL,
        "real_period": max_real <= tol_period,
        "metric_density": min_den > 0.0,
        # an isotopy keeps the homotopy class of the boundary loop
        "spin_class": pi1_classes[0] is not None
        and all(c == pi1_classes[0] for c in pi1_classes),
        "continuity": continuity <= CONTINUITY_BOUND,
        "nonflat": not any(flat_flags)
        or all(m is family.members[0] for m in family.members),
    }
    flux_end = None
    if target_flux is not None:
        target = np.asarray(target_flux, dtype=float)
        flux_end = float(np.linalg.norm(flux_table[-1] - target))
        thresholds["flux_target"] = tol_flux
        passes["flux_target"] = flux_end <= tol_flux
    return VerificationReport(
        ts=np.asarray(family.ts),
        max_conformality=float(max_conf),
        max_real_period=float(max_real),
        flux_table=flux_table,
        min_density=float(min_den),
        continuity=continuity,
        flat_flags=flat_flags,
        pi1_classes=pi1_classes,
        thresholds=thresholds,
        passes=passes,
        flux_end_residual=flux_end,
        meta={"resolution": resolution},
    )
