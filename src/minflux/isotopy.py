"""End-to-end drivers: isotopies steering the flux, and their verification.

The drivers deform a conformal minimal immersion of an annulus through
conformal minimal immersions until its flux vector reaches a prescribed
value (zero by default).  The deformation happens at the level of the
boundary loop of the derivative data: the loop period is steered along a
linear ramp by quadric-preserving flows, each intermediate loop is
extended holomorphically to the annulus, and a small flow correction pins
the exact coefficient period of the extension to the ramp.  At the zero
endpoint the full complex periods vanish and a holomorphic null curve
with u1 = Re F is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import loops as lp
from . import nullquadric as nq
from . import riemann as rm
from . import weierstrass as wz
from .errors import FlatInput, NonFiniteValues, NotOnQuadric, RootNotFound
from .loops import N_T_DEFAULT, PeriodicPath
from .nullquadric import TOL_NULL
from .riemann import LaurentMap
from .weierstrass import (
    TOL_PERIOD,
    LaurentSeries,
    MinimalImmersion,
    WeierstrassData,
)

#: Default flux tolerance of the drivers.
TOL_FLUX = 1e-8

#: Loop sample count used on the homology circle.
N_S_DEFAULT = 512


# ---------------------------------------------------------------------------
# family and report containers


@dataclass
class ImmersionFamily:
    """A one-parameter family of conformal minimal immersions.

    members[k] is the Weierstrass data at ts[k]; members[0] is the input
    object itself (exact coefficients).  lmaps[k] is the Laurent extension
    backing member k (None where the member is the anchored input), and
    periods[k] the complex period of f theta over the homology generator.
    """

    ts: np.ndarray
    members: list
    lmaps: list
    periods: np.ndarray
    basepoint: complex
    chart: object = None
    notice: str = ""
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.members)

    @property
    def flux_trace(self):
        """Flux vector per t over the homology generator, shape (n_t, 3)."""
        return self.periods.imag

    def null_curve(self):
        """Holomorphic null curve F with u1 = Re F, from the last member.

        Requires the full complex period at t = 1 to be small; the exact
        z^(-1) coefficient of f theta / dz is dropped and its magnitude is
        returned as the closure defect of Im F.
        """
        ext = self.lmaps[-1]
        data = self.members[-1]
        if ext is None:
            loop = restrict_data(data, self.chart, n=N_S_DEFAULT)
            dom = rm.annulus(data.r_inner, data.r_outer)
            ext = rm.runge_extend(loop, dom)
        comps = _f_theta_series(ext, data.theta)
        defect = float(np.linalg.norm([c.residue for c in comps]))
        prims = [_antiderivative_series(c) for c in comps]
        z0 = self.basepoint
        offs = np.array([p(np.array([z0]))[0] for p in prims])

        def F(z):
            z = np.asarray(z, dtype=complex)
            vals = np.stack([p(z) for p in prims], axis=-1)
            return vals - offs

        return F, defect


@dataclass
class VerificationReport:
    """Recomputed residuals of a family, with thresholds and verdicts."""

    ts: np.ndarray
    max_conformality: float
    max_real_period: float
    flux_table: np.ndarray
    min_density: float
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


def _f_theta_series(ext, theta):
    """Components of f * theta/dz as Laurent series, from a loop extension.

    The extension represents the loop f * theta/d(zeta) sampled through the
    chart z = c + r e^(2 pi i zeta), so f theta/dz is the extension divided
    by 2 pi i (z - c); charts here are centered at 0.
    """
    if abs(ext.center) > 0:
        raise ValueError("extensions are expected on centered charts")
    shift = LaurentSeries([1.0 / (2j * np.pi)], -1)
    return tuple(c * shift for c in ext.components())


def _antiderivative_series(series):
    """Termwise antiderivative, dropping the z^(-1) term, plus log handling.

    The residue term integrates to a logarithm and is dropped; callers must
    account for it (drivers only use this when the residue is below
    tolerance).
    """
    ks = np.arange(series.k_min, series.k_min + len(series.coeffs))
    coeffs = np.zeros(len(series.coeffs), dtype=complex)
    keep = ks != -1
    coeffs[keep] = series.coeffs[keep] / (ks[keep] + 1.0)
    return LaurentSeries(coeffs, series.k_min + 1)


def _member_from_extension(ext, theta, r_inner, r_outer):
    """WeierstrassData whose assembled f theta/dz matches the extension.

    The Gauss map is the ratio of the spinor blocks (the half-integer
    twists cancel), and f3 is an exact Laurent series; reassembly through
    the Weierstrass formula reproduces the extension in exact arithmetic.
    """
    comps = _f_theta_series(ext, theta)
    f3 = comps[2]
    if theta == "dz/z":
        f3 = f3 * LaurentSeries([1.0], 1)

    def g(z):
        w = np.asarray(z, dtype=complex) - ext.center
        return ext.b(w) / ext.a(w)

    return WeierstrassData(g, f3, theta=theta, r_inner=r_inner, r_outer=r_outer)


def restrict_data(data, chart, n=N_S_DEFAULT):
    """The boundary loop of f theta on the homology circle of the data."""
    loop = rm.restrict_to_curve(data.f, chart, theta=data.theta, n=n)
    if not np.all(np.isfinite(loop.values)):
        raise NonFiniteValues("f theta is not finite on the homology circle")
    return loop


def _extension_period(ext, theta):
    """Exact complex period of f theta over the generator, from coefficients."""
    return np.array([2j * np.pi * c.residue for c in _f_theta_series(ext, theta)])


# ---------------------------------------------------------------------------
# the exact-period correction


def _shift_series(series, index, delta):
    """Copy of a Laurent series with delta added to the coefficient of z^index."""
    coeffs = series.coeffs.copy()
    coeffs[index - series.k_min] += delta
    return LaurentSeries(coeffs, series.k_min)


_PIN_INDICES = (-1, 0, 1)


def _pin_jacobian(ext):
    """Exact (3, 6) Jacobian of the extension period in the pinned coefficients.

    With n = -parity the period is (A - B, i (A + B), 2 C) for the z^n
    coefficients A, B, C of a^2, b^2 and a b, divided by scale^parity.
    Columns are the a coefficients at _PIN_INDICES, then the b ones; the
    derivative in the z^idx coefficient reads the z^(n - idx) ones.
    """
    n = -ext.parity
    fac = 2.0 / ext.scale**ext.parity
    J = np.empty((3, 2 * len(_PIN_INDICES)), dtype=complex)
    for col, idx in enumerate(_PIN_INDICES):
        a = ext.a.coefficient(n - idx)
        b = ext.b.coefficient(n - idx)
        J[:, col] = fac * np.array([a, 1j * a, b])
        J[:, col + len(_PIN_INDICES)] = fac * np.array([-b, 1j * b, a])
    return J


def _pin_extension(values, domain, theta, target, tol):
    """Extend the loop and pin its exact coefficient period to the target.

    The truncated extension's period misses the loop period by the
    truncation tail; a least-norm Newton on a few low-order spinor
    coefficients removes the mismatch exactly.  The period is a quadratic
    polynomial in those coefficients, with the exact Jacobian of
    _pin_jacobian, so two iterations suffice (eight are allowed).  Returns
    (extension, coefficient adjustment size).
    """
    base = rm.runge_extend(PeriodicPath(values), domain)

    def build(delta):
        a, b = base.a, base.b
        for i, idx in enumerate(_PIN_INDICES):
            a = _shift_series(a, idx, delta[i])
            b = _shift_series(b, idx, delta[i + len(_PIN_INDICES)])
        return LaurentMap(a, b, center=base.center, parity=base.parity,
                          scale=base.scale, meta=dict(base.meta))

    def residual(delta):
        return _extension_period(build(delta), theta) - target

    zero = np.zeros(2 * len(_PIN_INDICES), dtype=complex)
    delta = lp._newton(residual, lambda d: _pin_jacobian(build(d)), zero, tol, 8)
    if delta is None:
        r0 = float(np.linalg.norm(residual(zero)))
        raise RootNotFound(f"period correction stalled from residual {r0:.3g}")
    ext = build(delta)
    size = float(np.max(np.abs(delta)))
    ext.meta["pin_adjustment"] = size
    ext.meta["sup_error"] = ext.meta.get("sup_error", 0.0) + 4.0 * size
    return ext, size


# ---------------------------------------------------------------------------
# drivers


def _as_immersion(u0):
    return u0 if isinstance(u0, MinimalImmersion) else MinimalImmersion(u0)


def _constant_family(data, chart, n_t, period0, notice=""):
    ts = np.linspace(0.0, 1.0, n_t)
    periods = np.tile(np.asarray(period0, dtype=complex), (n_t, 1))
    return ImmersionFamily(
        ts=ts,
        members=[data] * n_t,
        lmaps=[None] * n_t,
        periods=periods,
        basepoint=complex(chart.center + chart.radius),
        chart=chart,
        notice=notice,
    )


def _driver_controls(n, seed=7, jitter=0.0):
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
    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        profs = [
            p + jitter * rng.uniform(-1, 1) * np.cos(4.0 * np.pi * x + rng.uniform(0, 2 * np.pi))
            for p in profs
        ]
    return [(k, p) for p in profs for k in nq.FLOW_KINDS]


def _drive(
    u0,
    target,
    n_t=N_T_DEFAULT,
    tol_flux=TOL_FLUX,
    tol_period=TOL_PERIOD,
    seed=7,
):
    u0 = _as_immersion(u0)
    data = u0.data
    target = np.asarray(target, dtype=float)
    domain = rm.annulus(data.r_inner, data.r_outer)
    chart = rm.homology_basis(domain)[0]
    z0 = complex(chart.center + chart.radius)

    loop0 = restrict_data(data, chart, n=N_S_DEFAULT)
    period0 = lp.period(loop0)
    flux0 = period0.imag

    flat, _ray = wz.is_flat(data.f(data.grid()))
    met = float(np.linalg.norm(flux0 - target)) <= tol_flux
    if flat:
        if not met:
            raise FlatInput(
                "flat input can only carry its own flux; target differs by "
                f"{np.linalg.norm(flux0 - target):.3g}"
            )
        return _constant_family(
            data, chart, n_t, period0,
            notice="flat input: already the real part of a null curve; "
            "constant family emitted",
        )
    if met:
        return _constant_family(
            data, chart, n_t, period0, notice="target flux already met at t = 0"
        )

    ts = np.linspace(0.0, 1.0, n_t)
    ramp = (
        (1.0 - ts)[:, None] * period0[None, :]
        + ts[:, None] * (1j * target)[None, :]
    )
    n = loop0.values.shape[0]
    last = None
    for retry in range(4):
        controls = _driver_controls(n, seed=seed + retry, jitter=0.1 * retry)
        try:
            deformed = lp._period_continuation(
                loop0.values, ramp, controls, tol=1e-12
            )
            break
        except RootNotFound as exc:
            last = exc
    else:
        raise last

    members = [data]
    lmaps = [None]
    periods = [period0]
    corr = 0.0
    for k in range(1, n_t):
        vals = deformed[k]
        ext, size = _pin_extension(
            vals, domain, data.theta, ramp[k], tol=0.1 * tol_period
        )
        corr = max(corr, size)
        members.append(
            _member_from_extension(ext, data.theta, data.r_inner, data.r_outer)
        )
        lmaps.append(ext)
        periods.append(_extension_period(ext, data.theta))

    fam = ImmersionFamily(
        ts=ts,
        members=members,
        lmaps=lmaps,
        periods=np.array(periods),
        basepoint=z0,
        chart=chart,
        meta={
            "max_correction": corr,
            "tol_flux": tol_flux,
            "tol_period": tol_period,
        },
    )
    return fam


def flux_to_zero(u0, n_t=N_T_DEFAULT, tol_flux=TOL_FLUX, tol_period=TOL_PERIOD, **kw):
    """Isotopy from u0 to an immersion with vanishing flux.

    At t = 1 the full complex periods of f theta vanish, so the endpoint is
    the real part of a holomorphic null curve, available from the family's
    null_curve method.
    """
    fam = _drive(u0, np.zeros(3), n_t=n_t, tol_flux=tol_flux,
                 tol_period=tol_period, **kw)
    fam.meta["driver"] = "flux_to_zero"
    return fam


def prescribe_flux(u0, p, n_t=N_T_DEFAULT, tol_flux=TOL_FLUX,
                   tol_period=TOL_PERIOD, **kw):
    """Isotopy from u0 to an immersion with flux vector p over the generator."""
    fam = _drive(u0, p, n_t=n_t, tol_flux=tol_flux, tol_period=tol_period, **kw)
    fam.meta["driver"] = "prescribe_flux"
    return fam


# ---------------------------------------------------------------------------
# verification


def verify(family, resolution=2, tol_flux=TOL_FLUX, tol_period=TOL_PERIOD,
           target_flux=None):
    """Recompute all residuals of a family from scratch.

    resolution scales the verification grid and loop sampling relative to
    the construction defaults (2 doubles them).  Conformality is checked
    against TOL_NULL.  When target_flux is given, the recomputed flux of the
    last member must lie within tol_flux of it.  The report is deterministic
    in the family.
    """
    if len(family) == 0:
        return VerificationReport(
            ts=np.array([]), max_conformality=0.0, max_real_period=0.0,
            flux_table=np.zeros((0, 3)), min_density=np.inf, flat_flags=[],
            pi1_classes=[], thresholds={}, passes={},
        )
    n_r, n_th = 32 * resolution, 128 * resolution
    n_loop = N_S_DEFAULT * resolution
    max_conf = 0.0
    max_real = 0.0
    min_den = np.inf
    flux_table = []
    flat_flags = []
    pi1_classes = []
    for t, data in zip(family.ts, family.members):
        grid = data.grid(n_r=n_r, n_th=n_th)
        fv = data.f(grid)
        # NaN would slip through the min/max reductions below unnoticed
        if not np.all(np.isfinite(fv)):
            raise NonFiniteValues(
                f"member at t = {float(t):g} is not finite on the "
                "verification grid"
            )
        max_conf = max(max_conf, wz.conformality_residual(fv))
        ft = fv * data.theta_over_dz(grid)[..., None]
        min_den = min(min_den, float(wz.density_from_f_theta(ft).min()))
        flat_flags.append(bool(wz.is_flat(fv)[0]))
        loop = restrict_data(data, family.chart, n=n_loop)
        per = lp.period(loop)
        max_real = max(max_real, float(np.linalg.norm(per.real)))
        flux_table.append(per.imag)
        try:
            pi1_classes.append(nq.pi1_class(loop.values))
        except NotOnQuadric:
            # corrupted data: leave the class undefined; the conformality
            # residual check flags the member
            pi1_classes.append(None)
    flux_table = np.array(flux_table)
    thresholds = {
        "conformality": TOL_NULL,
        "real_period": tol_period,
        "metric_density": 0.0,
    }
    passes = {
        "conformality": max_conf <= TOL_NULL,
        "real_period": max_real <= tol_period,
        "metric_density": min_den > 0.0,
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
        flat_flags=flat_flags,
        pi1_classes=pi1_classes,
        thresholds=thresholds,
        passes=passes,
        flux_end_residual=flux_end,
        meta={"resolution": resolution},
    )
