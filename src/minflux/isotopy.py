"""End-to-end drivers: isotopies steering the flux, and their verification.

The drivers deform a conformal minimal immersion of an annulus through
conformal minimal immersions until its flux vector reaches a prescribed
value (zero by default).  The deformation happens at the level of the
boundary loop of the derivative data: the loop period is steered along a
linear ramp (period_schedule) by quadric-preserving flows whose profiles
are Laurent polynomials in z.  The flows act on the spinor lift (a, b)
of the loop by SL(2, C) (nullquadric.SPINOR_GENERATORS), so each driven
member is the closed form M(z) (a0, b0) of the input's spinor, holomorphic
on the whole annulus; its Laurent coefficients are read on the two
boundary circles (weierstrass.rim_read).  Each member meets the
continuation's loop to min(TOL_RUNGE, tol_period / 10) on the homology
circle, and its exact coefficient period, the mean of its samples there,
lies within that sup error plus 1e-12 of the ramp.  At the zero endpoint
the full complex periods vanish and a holomorphic null curve with
u1 = Re F is emitted.
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
from .errors import (
    ApproximationBudgetExceeded,
    EstimateNotMet,
    FlatInput,
    NonFiniteValues,
    NotOnQuadric,
    VanishingOnDomain,
)
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

#: Members the driven-member builder reads per block.
MEMBER_BLOCK = 16

#: Samples per boundary circle of the first read of the driven members.
RIM_SAMPLES = 64

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
    object itself (exact coefficients).  A driven member carries its
    spinor, the closed form M(z) (a0, b0) of the input's spinor read as
    Laurent series, from which it was built.  periods[k] is the
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


def _product_coefficient(x, y, k):
    """The z^k coefficient of the product of Laurent series x and y: one
    dot product of their overlapping coefficients, the entry that
    np.convolve of the two would compute."""
    lo, hi = max(x.k_min, k - y.k_max), min(x.k_max, k - y.k_min)
    if lo > hi:
        return 0j
    xs = x.coeffs[lo - x.k_min : hi - x.k_min + 1]
    ys = y.coeffs[k - hi - y.k_min : k - lo - y.k_min + 1]
    return complex(np.convolve(xs, ys, "valid")[0])


def _spinor_member(ext, theta, r_inner, r_outer):
    """The member carrying the loop extension ext as its spinor, and the
    exact complex period of its f theta over the generator.

    The extension represents the loop f * theta/d(zeta) sampled through the
    chart z = r e^(2 pi i zeta), so f theta/dz is the extension divided by
    2 pi i z, and the period is the z^0 coefficient of each component of
    the extension, the mean of its samples on the curve.  The components
    are a^2 - b^2, i (a^2 + b^2) and 2ab, times z / scale for parity 1, so
    a^2 and b^2 give their coefficient by one dot product each, and only
    ab, whose series f3 keeps, is convolved.  The Gauss map is the ratio
    b/a of the spinor blocks (the half-integer twists cancel) and f3 an
    exact Laurent series, so the Weierstrass formula reproduces the
    extension in exact arithmetic.  A block a that is zero leaves g
    infinite everywhere: NonFiniteValues.
    """
    a, b = ext.a, ext.b
    if not np.any(a.coeffs):
        raise NonFiniteValues("spinor block a is zero, so g = b/a is infinite")
    k = -ext.parity
    aa, bb = _product_coefficient(a, a, k), _product_coefficient(b, b, k)
    ab = a * b
    if ext.parity:
        aa, bb = aa * (1.0 / ext.scale), bb * (1.0 / ext.scale)
        ab = ab * LaurentSeries([1.0 / ext.scale], 1)
    ab0 = complex(ab.coeffs[-ab.k_min]) if ab.k_min <= 0 <= ab.k_max else 0j
    f3 = (2.0 * ab) * LaurentSeries([1.0 / (2j * np.pi)], -1)
    if theta == "dz/z":
        f3 = f3 * LaurentSeries([1.0], 1)
    member = WeierstrassData(
        LaurentQuotient(b, a), f3, theta=theta, r_inner=r_inner,
        r_outer=r_outer, spinor=ext,
    )
    return member, np.array([aa - bb, 1j * (aa + bb), 2.0 * ab0])


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
# the driven members


#: The drivers' control profiles 1, cos 2 pi x and sin 2 pi x, as Laurent
#: polynomials in u = z / r with r the generator radius, so that
#: u = e^(2 pi i x) on the generator circle.
DRIVER_PROFILES = (
    LaurentSeries([1.0]),
    LaurentSeries([0.5, 0.0, 0.5], -1),
    LaurentSeries([0.5j, 0.0, -0.5j], -1),
)


def _driver_controls(grid):
    """The drivers' controls read on a PolarGrid of u = z / r: each flow of
    nq.FLOW_KINDS with each of DRIVER_PROFILES, flat on the grid, the
    constant profile as the scalar 1, whose flow factors are scalars.

    The profiles are entire in u and 1/u, so the deformed loops stay
    analytic on the whole annulus and their members remain moderately
    bounded off the curve; compactly supported bump profiles would force
    the members to blow up geometrically toward the domain boundary.
    """
    return [
        lp.control(kind, p(grid) if p.coeffs.size > 1 else 1.0)
        for p in DRIVER_PROFILES
        for kind in nq.FLOW_KINDS
    ]


def _pin_extension(spinor, ws, loops, domain, theta, targets, tol):
    """The driven members of the control vectors ws, rows of shape (m,).

    A member is (a, b) = M(z) (a0, b0), with (a0, b0) the blocks of the
    input spinor and M(z) = prod_j exp(w_j p_j(z / r) X_j) in control order
    (_driver_controls, nq.SPINOR_GENERATORS): the closed form of the
    continuation's flows.  Members are built in blocks of MEMBER_BLOCK.
    M (a0, b0) is evaluated on the two boundary circles, RIM_SAMPLES per
    circle at first, doubled up to the loops' sample count while a read's
    gap exceeds tol, and read into Laurent series by weierstrass.rim_read
    (ApproximationBudgetExceeded beyond).  Each member then passes the
    checks of an extension:
    - its sup error against the continuation's loop on the generator
      circle (loops[k]) is at most tol (ApproximationBudgetExceeded), and
      is recorded as spinor.meta["sup_error"];
    - it does not vanish on the domain's default annulus_grid
      (VanishingOnDomain).  |M(z) s| >= |s| exp(-(1/2) sum_j |w_j p_j(u)|),
      since |X_j| = 1/2, and the max of |p_j| on the closed annulus is on
      its rims, so min_grid |(a0, b0)| times that factor, less the read's
      gap, bounds the member's blocks below; only where the bound cannot
      certify the member is its squared modulus evaluated on the grid;
    - its exact period (from the z^0 coefficients of its components, the
      mean of its samples on the curve) misses targets[k] by at most the
      sup error plus 1e-12 (EstimateNotMet), the continuation having put
      the loop period within 1e-12 of the target.
    Returns (members, periods), each member carrying its spinor.
    """
    r = wz.homology_radius(domain)
    radii = np.array([domain.r_inner, domain.r_outer])
    n_loop = loops[0].shape[0]
    circle = PolarGrid([r], n_loop)
    twist = (circle.points / spinor.scale) ** spinor.parity
    # the non-vanishing bound's parts that hold for every member: the
    # input blocks on the grid and each profile's max on the rims
    grid = wz.annulus_grid(domain.r_inner, domain.r_outer)
    s0_min = float(np.sqrt(np.min(
        np.abs(spinor.a(grid)) ** 2 + np.abs(spinor.b(grid)) ** 2)))
    ring_min = float(np.min((grid.radii / spinor.scale) ** (2 * spinor.parity)))
    rim_max = np.array([
        np.max((radii[:, None] / r) ** (p.k_min + np.arange(p.coeffs.size))
               @ np.abs(p.coeffs))
        for p in DRIVER_PROFILES for _ in nq.FLOW_KINDS
    ])

    def read(block, n):
        # rim_read of M (a0, b0) for each row of block, n samples a circle
        rims = PolarGrid(radii, n)
        a, b = spinor.a(rims), spinor.b(rims)
        controls = _driver_controls(PolarGrid(radii / r, n))
        for (kind, prof, _), wj in zip(controls, block.T):
            factors = nq.flow_factors(kind, 0.5 * wj[:, None] * prof)
            a, b = nq.spinor_action(a, b, kind, factors)
        vals = np.stack([a, b], axis=-1).reshape(len(block), 2, n, 2)
        return wz.rim_read(vals, radii)

    n = RIM_SAMPLES
    members, periods = [], []
    for start in range(0, len(ws), MEMBER_BLOCK):
        block = ws[start : start + MEMBER_BLOCK]
        k, coeffs, kept, gap = read(block, n)
        while not gap.max() <= tol and n < n_loop:
            n *= 2
            k, coeffs, kept, gap = read(block, n)
        # the members on the generator circle, from their coefficients
        spec = np.zeros((len(block), n_loop, 2), dtype=complex)
        spec[:, k % n_loop] = coeffs * (r ** k.astype(float))[:, None]
        on_circle = np.fft.ifft(spec, axis=1, norm="forward")
        on_circle = nq.spinor_to_null(on_circle[..., 0], on_circle[..., 1])
        on_circle = on_circle * twist[:, None]
        factor = np.exp(-0.5 * np.abs(block) @ rim_max)
        for j in range(len(block)):
            at = f"member {start + j + 1}"
            if not gap[j] <= tol:
                raise ApproximationBudgetExceeded(
                    f"{at}: the rim read misses the closed form by "
                    f"{gap[j]:.3g}, above {tol:g} at {n} samples per circle"
                )
            loop = loops[start + j]
            sup_err = float(np.max(np.abs(on_circle[j] - loop)))
            if not sup_err <= tol:
                raise ApproximationBudgetExceeded(
                    f"{at}: sup error {sup_err:.3g} above {tol:g} on the "
                    "generator circle"
                )
            span = wz.kept_span(kept[j])
            ext = rm.LaurentMap(
                LaurentSeries(coeffs[j, span, 0], int(k[span.start])),
                LaurentSeries(coeffs[j, span, 1], int(k[span.start])),
                parity=spinor.parity, scale=spinor.scale,
                meta={"sup_error": sup_err},
            )
            floor = 1e-20 * max(1.0, float(np.max(np.abs(loop))) ** 2)
            low = max(0.0, s0_min * factor[j] - np.sqrt(2.0) * gap[j])
            if (2.0 * ring_min * low**4 <= floor
                    and np.min(ext.squared_modulus(grid)) <= floor):
                raise VanishingOnDomain(
                    f"{at}: extension vanishes on the verification grid"
                )
            member, period = _spinor_member(ext, theta, domain.r_inner,
                                            domain.r_outer)
            miss = float(np.max(np.abs(period - targets[start + j])))
            bound = sup_err + 1e-12
            if miss > bound:
                raise EstimateNotMet(
                    f"member extension period misses the ramp by {miss:.3g}, "
                    f"above the bound {bound:.3g} (sup error + 1e-12)"
                )
            members.append(member)
            periods.append(period)
    return members, periods


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
    tol = min(TOL_RUNGE, 0.1 * tol_period)
    spinor = data.spinor
    if spinor is None:
        spinor = rm.runge_extend(loop0, domain, tol=tol)
    controls = _driver_controls(PolarGrid([1.0], loop0.values.shape[0]))
    path, deformed = lp._period_continuation(loop0.values, ramp, controls)
    members, periods = _pin_extension(
        spinor, path[1:], deformed[1:], domain, data.theta, ramp[1:], tol
    )
    return ImmersionFamily(
        ts=ts,
        members=[data, *members],
        periods=np.array([period0, *periods]),
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
