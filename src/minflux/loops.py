"""Smooth 1-periodic paths, period integrals and conformal circle pairs.

A conformal pair is a pair (g, h) of 1-periodic maps into R^3 with
g.h' = 0 and |g| = |h'| > 0 everywhere; the combination h' + i*g is then a
loop in the punctured null quadric with vanishing real period.  This module
constructs an exact zero-period pair near any immersed circle (built from
an explicit three-parameter family plus a degree-one root search), the
one continuation of flow coefficients along a ramp of linear loop readouts
that the flux drivers and the sprays use (_continue), and supporting
utilities (spectral quadrature, trigonometric resampling, nondegeneracy
tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import nullquadric as nq
from .errors import (
    ContinuationStalled,
    EmptySegment,
    InvalidPair,
    LeftDomain,
    NonFiniteValues,
    NotImmersion,
    RootNotFound,
)

#: Default number of deformation-time samples.
N_T_DEFAULT = 64

#: Relative tolerance for the pointwise conformal-pair invariants.
TOL_CONF = 1e-10

#: Samples per period of a zero-period pair.
PAIR_SAMPLES = 4096

#: Width parameter delta of a zero-period pair: h' is made constant on
#: [0, 3 delta].  The narrowest window _ZeroPeriodBuilder indexes is the
#: support of the compensating bump, (17 delta/12, 23 delta/12); wider than
#: the grid spacing 1/PAIR_SAMPLES, it holds a sample wherever it sits.
#: The flattened window [-delta/2, 3.5 delta] stays off the support
#: (0.35, 0.75) of the drift bump, so h' is constant on the core.
PAIR_DELTA = 0.05

#: Initial size eps of the pair's three-parameter perturbation, halved on
#: each failed attempt.
PAIR_EPS = 0.1

#: Samples of the coarse level of the flux drivers' period continuation,
#: the smallest PeriodicPath.
COARSE_SAMPLES = 64


# ---------------------------------------------------------------------------
# periodic paths


@dataclass(frozen=True)
class PeriodicPath:
    """Equispaced samples of a smooth 1-periodic map into C^3.

    values[k] is the sample at x = k / N with N = len(values); N must be a
    power of two, at least 64.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        n = v.shape[0]
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("values must have shape (N, 3)")
        if n < 64 or (n & (n - 1)) != 0:
            raise ValueError("sample count must be a power of two >= 64")
        object.__setattr__(self, "values", v)


def period(path):
    """Integral over one period by the trapezoid rule.

    For equispaced samples of a periodic function this is the sample mean,
    which is spectrally accurate for smooth integrands.  Samples run along
    the second-to-last axis, so stacked loops give stacked periods.
    """
    v = path.values if isinstance(path, PeriodicPath) else np.asarray(path)
    return v.mean(axis=-2)


def resample(values, m):
    """Trigonometric resampling of periodic samples to m points per period."""
    v = np.asarray(values)
    n = v.shape[0]
    if m == n:
        return v.copy()
    if m < n and n % m == 0:
        return v[:: n // m].copy()
    spec = np.fft.fft(v, axis=0)
    out = np.zeros((m,) + v.shape[1:], dtype=complex)
    if m > n:
        h = n // 2
        out[:h] = spec[:h]
        out[m - (n - h) + 1 :] = spec[h + 1 :]
        out[h] += 0.5 * spec[h]
        out[m - (n - h)] += 0.5 * spec[h]
    else:
        h = m // 2
        out[:h] = spec[:h]
        out[-h:] = spec[-h:]
    res = np.fft.ifft(out, axis=0) * (m / n)
    if np.isrealobj(v):
        return res.real
    return res


def fourier_derivative(values):
    """Spectral derivative d/dx of equispaced periodic samples."""
    v = np.asarray(values)
    n = v.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0  # drop the unmatched Nyquist mode
    shape = (n,) + (1,) * (v.ndim - 1)
    dv = np.fft.ifft(np.fft.fft(v, axis=0) * (2j * np.pi * k).reshape(shape), axis=0)
    if np.isrealobj(v):
        return dv.real
    return dv


def antiderivative(values):
    """Periodic primitive of zero-mean periodic samples, vanishing at x=0.

    The mean of the input is ignored (treated as zero); callers are expected
    to have removed secular growth already.
    """
    v = np.asarray(values)
    n = v.shape[0]
    spec = np.fft.fft(v, axis=0)
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[0] = 1.0
    k[n // 2] = 1.0
    shape = (n,) + (1,) * (v.ndim - 1)
    fac = (1.0 / (2j * np.pi * k)).reshape(shape)
    spec = spec * fac
    spec[0] = 0.0
    spec[n // 2] = 0.0
    out = np.fft.ifft(spec, axis=0)
    if np.isrealobj(v):
        out = out.real
    return out - out[0]


# ---------------------------------------------------------------------------
# segments of the circle


@dataclass(frozen=True)
class Segment:
    """A closed arc [alpha, beta] of the circle R/Z, with beta < alpha + 1."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if not self.alpha < self.beta < self.alpha + 1.0:
            raise ValueError("need alpha < beta < alpha + 1")

    @property
    def length(self):
        return self.beta - self.alpha

    def contains(self, x):
        """Membership of points x (array ok), computed modulo 1."""
        u = np.mod(np.asarray(x) - self.alpha, 1.0)
        return u <= self.length + 1e-15


# ---------------------------------------------------------------------------
# smooth profiles


def smooth_step(u):
    """C-infinity monotone step: 0 for u <= 0, 1 for u >= 1."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def smooth_bump(x, center, halfwidth):
    """C-infinity bump supported on (center-halfwidth, center+halfwidth) mod 1."""
    u = np.mod(np.asarray(x, dtype=float) - center + 0.5, 1.0) - 0.5
    s = u / halfwidth
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
    return out


def raised_cosine(x, center, halfwidth):
    """Raised-cosine bump of unit height supported on an arc of the circle."""
    u = np.mod(np.asarray(x, dtype=float) - center + 0.5, 1.0) - 0.5
    out = np.zeros_like(u)
    inside = np.abs(u) < halfwidth
    out[inside] = 0.5 * (1.0 + np.cos(np.pi * u[inside] / halfwidth))
    return out


# ---------------------------------------------------------------------------
# conformal pairs


@dataclass
class ConformalPair:
    """Sampled pair (g, h) with g.h' = 0 and |g| = |h'| > 0 pointwise.

    h and g are real arrays of shape (N, 3); hprime stores the derivative of
    h at the same samples (kept explicitly so the pointwise invariants do not
    depend on differentiation error).
    """

    h: np.ndarray
    g: np.ndarray
    hprime: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        self.hprime = np.asarray(self.hprime, dtype=float)
        if not self.h.shape == self.g.shape == self.hprime.shape:
            raise ValueError("h, g, hprime must share one shape (N, 3)")

    def residuals(self):
        """Pointwise relative residuals (orthogonality, norm match)."""
        ng = np.linalg.norm(self.g, axis=1)
        nh = np.linalg.norm(self.hprime, axis=1)
        dot = np.abs(np.sum(self.g * self.hprime, axis=1))
        scale = np.maximum(ng * nh, 1e-300)
        return dot / scale, np.abs(ng - nh) / np.maximum(nh, 1e-300)

    def validate(self):
        orth, norm = self.residuals()
        if np.min(np.linalg.norm(self.hprime, axis=1)) <= 0:
            raise InvalidPair("h is not an immersion")
        if np.max(orth) > TOL_CONF or np.max(norm) > TOL_CONF:
            raise InvalidPair(
                f"pair residuals ({np.max(orth):.3g}, {np.max(norm):.3g}) "
                f"exceed {TOL_CONF:g}"
            )
        return self


def nondegenerate_on(sigma, seg):
    """True when the loop is not contained in a single complex ray over seg.

    Tested through the singular values of the sample matrix restricted to
    the segment: rank at least two with relative gap above 1e-8.
    """
    v = sigma.values if isinstance(sigma, PeriodicPath) else np.asarray(sigma)
    n = v.shape[0]
    x = np.arange(n) / n
    rows = v[seg.contains(x)]
    if rows.shape[0] == 0:
        raise EmptySegment("segment contains no sample points")
    s = np.linalg.svd(rows, compute_uv=False)
    return bool(s.size >= 2 and s[1] > 1e-8 * s[0])


# ---------------------------------------------------------------------------
# damped Newton


def _newton(residual, jac, x0, tol, max_iter, cap=np.inf):
    """Damped Newton for residual(x) = 0, real or complex x; None on failure.

    Each step solves jac(x) step = -residual(x) in the least-norm sense, is
    shortened to length cap, and is halved up to 30 times until the
    residual norm drops.  An inf residual marks a point outside the domain.
    On success, the last residual call was at the returned x.
    """
    x = np.array(x0)
    f = residual(x)
    for _ in range(max_iter):
        r = float(np.linalg.norm(f))
        if r < tol:
            return x
        step = np.linalg.lstsq(jac(x), -f, rcond=None)[0]
        ns = float(np.linalg.norm(step))
        if ns > cap:
            step *= cap / ns
        lam = 1.0
        for _ in range(30):
            cand = x + lam * step
            fc = residual(cand)
            if np.linalg.norm(fc) < r:
                x, f = cand, fc
                break
            lam *= 0.5
        else:
            return None
    return x if float(np.linalg.norm(f)) < tol else None


def _substep(solve, a, b, x, depth=6):
    """solve(b, x), where x solves target a, via midpoint targets on stalls.

    solve(target, x) returns a solution or None; each stall halves the jump,
    down to depth levels.
    """
    y = solve(b, x)
    if y is not None or depth == 0:
        return y
    mid = 0.5 * (a + b)
    y = _substep(solve, a, mid, x, depth - 1)
    return None if y is None else _substep(solve, mid, b, y, depth - 1)


# ---------------------------------------------------------------------------
# zero-period pairs


def _rotation_to_e1(v):
    """Orthogonal matrix R with R v/|v| = e1, deterministic."""
    u = v / np.linalg.norm(v)
    e1 = np.array([1.0, 0.0, 0.0])
    c = float(u @ e1)
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        return np.diag([-1.0, -1.0, 1.0])
    axis = np.cross(u, e1)
    s = np.linalg.norm(axis)
    axis = axis / s
    K = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + s * K + (1.0 - c) * (K @ K)


_A_MAT = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _transport_frame(unit_tangents, n1_start, tangent=None):
    """Propagate an orthonormal frame of the planes normal to a unit field.

    unit_tangents: (m, 3); n1_start: vector orthogonal to the first tangent.
    Returns n1, n2 arrays of shape (m, 3) with n2 = tangent x n1.

    The transport is n1[0] proportional to P_0 n1_start and n1[k] to
    P_k n1[k-1], with P_k = I - u_k u_k^T the projection normal to tangent
    k, so n1[k] is M_k n1_start normalised once, M_k = P_k ... P_0.  The
    prefix products are formed by ceil(log2 m) batched doubling steps
    (a prefix scan; Blelloch, CMU-CS-90-190, 1990).  On smooth fields,
    consecutive tangents a few degrees apart as the zero-period builder
    passes, this agrees with the sequential recurrence to rounding; on
    rough fields the products are nearly rank one and rounding grows.

    tangent = (du, dstart), of shapes (k, m, 3) and (k, 3), carries k
    directional derivatives of the inputs: the scan then carries (M, dM)
    by the product rule, and dn1, dn2 of shape (k, m, 3) are returned
    after n1 and n2.
    """
    u = unit_tangents
    m = u.shape[0]
    M = np.eye(3) - u[:, :, None] * u[:, None, :]
    if tangent is not None:
        du, dstart = tangent
        dM = -(du[..., :, None] * u[:, None, :] + u[:, :, None] * du[..., None, :])
    step = 1
    while step < m:
        if tangent is not None:
            dM[:, step:] = dM[:, step:] @ M[:-step] + M[step:] @ dM[:, :-step]
        M[step:] = M[step:] @ M[:-step]
        step *= 2
    y = M @ n1_start
    # P_k is a projection, so applying it once more changes nothing but
    # the rounding left by the nearly rank-one products of rough fields
    y -= np.sum(y * u, axis=1)[:, None] * u
    r = np.sqrt(np.sum(y * y, axis=1))[:, None]
    n1 = y / r
    n2 = np.cross(u, n1)
    if tangent is None:
        return n1, n2
    dy = dM @ n1_start + (M @ dstart[:, None, :, None])[..., 0]
    dn1 = (dy - n1 * np.sum(n1 * dy, axis=-1)[..., None]) / r
    dn2 = np.cross(du, n1) + np.cross(u, dn1)
    return n1, n2, dn1, dn2


def _angle_tangent(a, b, da, db):
    """Derivative of arctan2(b, a) along (da, db); the branch is fixed."""
    return (a * db - b * da) / (a * a + b * b)


@dataclass(frozen=True)
class _PPart:
    """The part of g that depends on p alone (see _ZeroPeriodBuilder).

    Arrays along the long extension leave out its wrap point x = 1.  The
    p-tangents hold one row per component of p.
    """

    g: np.ndarray  # g off the long extension, (N, 3)
    g_off: np.ndarray  # sum of g off the long extension, (3,)
    alpha0: np.ndarray  # extension spin angle before the corrections
    amp: np.ndarray  # |h'| along the extension
    n1: np.ndarray  # transported frame along the extension
    n2: np.ndarray
    dg_off: np.ndarray  # (3, 3)
    dspin: np.ndarray  # (3,), alpha0 = spin * ss_ext
    damp: np.ndarray  # (3, T) on the p-dependent tail of the extension
    dn1: np.ndarray  # (3, T, 3) on the tail
    dn2: np.ndarray


class _ZeroPeriodBuilder:
    """Assembles the explicit zero-period family around a flattened circle.

    g depends on the three-parameter p and on the angle-correction
    coefficients c.  Everything that needs p alone (h', the two frame
    transports, their branch-fixed end angles, g outside the long extension
    and its base spin angle), together with its p-tangents, is the p-part;
    g_field adds the c-dependent corrections to it, and period and jacobian
    reduce them in closed form without assembling g.  The root search
    varies c far more often than p (the whole seed grid sits at p = 0), so
    the p-part of the most recent (p, net_winding) is memoised.  One entry
    keeps memory flat; the winding is part of the key because the
    spin-class search evaluates p = 0 under both windings.  The arctan2
    branch references are fixed at p = 0 on construction, so the memo,
    g_field, period and jacobian are pure functions of their arguments.
    """

    def __init__(self, w_tilde, eps):
        self.n = PAIR_SAMPLES
        self.x = np.arange(self.n) / self.n
        self.delta = PAIR_DELTA
        self.eps = eps
        self.w = w_tilde  # flattened, rotated derivative field, (PAIR_SAMPLES, 3)
        d = self.delta
        x = self.x
        # smooth ramp of the p-perturbation of h': 1 on [0, delta] and on
        # [1 - delta/4, 1), decaying inside [delta, 2 delta] and rising on
        # [1 - delta/2, 1 - delta/4].
        beta = np.zeros(self.n)
        beta += 1.0 - smooth_step((x - d) / (d / 3.0))
        rise = smooth_step((x - (1.0 - d / 2.0)) / (d / 4.0))
        beta = np.maximum(beta, rise)
        # compensating bump keeping h periodic, supported in (4d/3, 2d)
        gam = smooth_bump(x, 5.0 * d / 3.0, d / 4.0)
        # h' = w + eps * kappa p is affine in p, and kappa has mean zero
        self.kappa = beta - gam * (beta.mean() / gam.mean())
        # region masks
        self.m_core = (x >= 0.0) & (x < d)
        self.m_trans = (x >= d) & (x < 2.0 * d)
        self.m_anti = (x >= 2.0 * d) & (x < 3.0 * d)
        self.m_ext = x >= 3.0 * d
        self.spins = (8, 32)
        # the transition frame runs one sample past each end of [d, 2d)
        idx = np.where(self.m_trans)[0]
        self.idx_trans = np.concatenate([[idx[0] - 1], idx, [idx[-1] + 1]])
        self.ss_trans = smooth_step((x[self.idx_trans] - d) / d)
        # the tangent field is p-independent on [3 delta, 1 - delta/2), so
        # the transported frame over that prefix is computed once
        idx_ext = np.where(self.m_ext)[0]
        self.idx_ext = idx_ext
        self.cut = int(np.searchsorted(x[idx_ext], 1.0 - d / 2.0))
        pre = idx_ext[: self.cut]
        upre = self.w[pre] / np.linalg.norm(self.w[pre], axis=1)[:, None]
        self.n1_pre, self.n2_pre = _transport_frame(
            upre, np.array([0.0, -1.0, 0.0])
        )
        # the p-dependent tail, from the last prefix sample to the wrap x = 1
        self.tail = np.concatenate([idx_ext[self.cut - 1 :], [0]])
        # extension parameter and its spin and correction profiles,
        # p-independent; the wrap point x = 1 is dropped after profiling
        xs = np.concatenate([x[idx_ext], [1.0]])
        self.u_ext = (xs - 3.0 * d) / (1.0 - 3.0 * d)
        self.ss_ext = smooth_step(self.u_ext)[:-1]
        self.bumps = self._correction_bumps(self.u_ext)[:-1]
        # columns: the spin profile, then the correction bumps
        self.profiles = np.column_stack([self.ss_ext, self.bumps])
        # the seed grid moves the first and last corrections only; the first
        # vanishes from grid_split[0] on, the last before grid_split[1]
        lo = int(np.flatnonzero(self.bumps[:, 0])[-1]) + 1
        hi = int(np.flatnonzero(self.bumps[:, -1])[0])
        if lo > hi:
            raise ValueError("the first and last correction bumps overlap")
        self.grid_split = (lo, hi)
        # the first p-part, at p = 0, fixes the arctan2 branch references
        self._angle_ref = {}
        self._memo = None
        self._p_part(np.zeros(3))

    def hprime(self, p):
        return self.w + self.eps * self.kappa[:, None] * p[None, :]

    def _core_g(self, p):
        """Unit-interval value of g on [0, delta] (constant there), and its
        Jacobian in p."""
        eps = self.eps
        den = 1.0 + eps * p[0]
        corr = eps * eps * p[2] ** 2 / den
        gt = np.array([0.0, 1.0, 0.0]) + eps * (_A_MAT @ p)
        gt[0] -= corr
        e1p = np.array([1.0 + eps * p[0], eps * p[1], eps * p[2]])
        a, b = np.linalg.norm(e1p), np.linalg.norm(gt)
        dgt = eps * _A_MAT
        dgt[0] -= [-eps * corr / den, 0.0, 2.0 * eps * eps * p[2] / den]
        ds = eps * e1p / (a * b) - (a / b**3) * (gt @ dgt)
        return (a / b) * gt, np.outer(gt, ds) + (a / b) * dgt

    #: number of angle-correction bumps in the long extension
    N_CORR = 4

    net_winding = 0

    def _stable_angle(self, key, raw):
        """Branch of an angle kept coherent across nearby parameters.

        arctan2 jumps by 2 pi across its cut; without a fixed reference the
        jump would make the family discontinuous in p, and the exact
        Jacobian, which takes the branch offset as locally constant, would
        not be its derivative.  The reference is the raw angle at p = 0,
        recorded by the constructor's first call.
        """
        base = self._angle_ref.setdefault(key, raw)
        return base + (raw - base + np.pi) % (2.0 * np.pi) - np.pi

    @staticmethod
    def _correction_bumps(u):
        """Profiles of the four angle corrections, as columns.

        Two plateau bumps sit on the slow endpoint stretches of the spin
        profile, where they steer the stalled part of the integral
        coherently; two shifted copies cover the adjacent stretches.  All
        vanish to all orders at u = 0 and u = 1.
        """
        b_s = smooth_step(u / 0.12) * smooth_step((0.35 - u) / 0.15)
        b_s2 = smooth_step((u - 0.06) / 0.12) * smooth_step((0.55 - u) / 0.2)
        return np.stack([b_s, b_s2, b_s2[::-1], b_s[::-1]], axis=1)

    def _h_tangents(self, hp, idx):
        """|h'| and unit h' at samples idx, with their p-tangents."""
        h = hp[idx]
        nh = np.linalg.norm(h, axis=1)
        unit = h / nh[:, None]
        k = self.eps * self.kappa[idx]
        dnh = k * unit.T
        dunit = (k / nh)[None, :, None] * (
            np.eye(3)[:, None, :] - unit.T[:, :, None] * unit[None, :, :]
        )
        return nh, unit, dnh, dunit

    def _p_part(self, p):
        """The memoised p-dependent part of g_field, with its p-tangents."""
        key = (p.tobytes(), self.net_winding)
        if self._memo is not None and self._memo[0] == key:
            return self._memo[1]
        hp = self.hprime(p)
        g = np.empty((self.n, 3))
        g_core, dg_core = self._core_g(p)
        g[self.m_core] = g_core
        g[self.m_anti] = np.array([0.0, -1.0, 0.0])
        m_spin_1, m_spin_2 = self.spins

        # transition [delta, 2 delta]: spin from the core value to -e2
        idx = self.idx_trans
        nh, unit, dnh, dunit = self._h_tangents(hp, idx)
        n1, n2, dn1, dn2 = _transport_frame(unit, g_core, (dunit, dg_core.T))
        # the target -e2 in the end frame; at p = 0 it lies on the arctan2
        # cut, and the dot products fix the sign of its zero component
        target = np.array([0.0, -1.0, 0.0])
        a, b = target @ n1[-1], target @ n2[-1]
        th = self._stable_angle("trans", np.arctan2(b, a))
        dth = _angle_tangent(a, b, dn1[:, -1] @ target, dn2[:, -1] @ target)
        alpha = (th + 2.0 * np.pi * m_spin_1) * self.ss_trans
        ca, sa = np.cos(alpha)[:, None], np.sin(alpha)[:, None]
        frame = ca * n1 + sa * n2
        vals = nh[:, None] * frame
        g[idx[1:-1]] = vals[1:-1]
        # p-tangent of the transition samples, summed over [delta, 2 delta)
        dvals = (
            dnh[:, :, None] * frame
            + (dth[:, None] * self.ss_trans * nh)[:, :, None] * (ca * n2 - sa * n1)
            + nh[:, None] * (ca * dn1 + sa * dn2)
        )
        dg_off = self.m_core.sum() * dg_core.T + dvals[:, 1:-1].sum(axis=1)

        # long extension [3 delta, 1): spin from -e2 back to the core value
        amp_t, unit_t, damp, dunit_t = self._h_tangents(hp, self.tail)
        t1, t2, dt1, dt2 = _transport_frame(
            unit_t, self.n1_pre[self.cut - 1], (dunit_t, np.zeros((3, 3)))
        )
        a, b = g_core @ t1[-1], g_core @ t2[-1]
        th = self._stable_angle("ext", np.arctan2(b, a))
        dth = _angle_tangent(a, b, dg_core.T @ t1[-1] + dt1[:, -1] @ g_core,
                             dg_core.T @ t2[-1] + dt2[:, -1] @ g_core)
        spin = th + 2.0 * np.pi * (m_spin_2 + self.net_winding)
        head = self.cut - 1
        part = _PPart(
            g=g,
            g_off=g[~self.m_ext].sum(axis=0),
            alpha0=spin * self.ss_ext,
            amp=np.concatenate([np.linalg.norm(hp[self.idx_ext[:head]], axis=1),
                                amp_t[:-1]]),
            n1=np.concatenate([self.n1_pre[:head], t1[:-1]], axis=0),
            n2=np.concatenate([self.n2_pre[:head], t2[:-1]], axis=0),
            dg_off=dg_off,
            dspin=dth,
            damp=damp[:, :-1],
            dn1=dt1[:, :-1],
            dn2=dt2[:, :-1],
        )
        self._memo = (key, part)
        return part

    def g_field(self, p, c=None):
        """The full periodic g for parameter p, smooth in p.

        c holds optional angle-correction coefficients for smooth bumps in
        the long extension; they are used to drive the complement integral
        to zero, which the degree argument needs (endpoint stalls of any
        smooth spin profile decay too slowly with the spin count alone).
        """
        if c is None:
            c = np.zeros(self.N_CORR)
        part = self._p_part(p)
        alpha = part.alpha0 + self.bumps @ c
        vals = part.amp[:, None] * (
            np.cos(alpha)[:, None] * part.n1 + np.sin(alpha)[:, None] * part.n2
        )
        g = part.g.copy()
        g[self.idx_ext] = vals
        return g

    def period(self, p, c):
        """Mean of g_field(p, c) over the period, without assembling g."""
        part = self._p_part(p)
        alpha = part.alpha0 + self.bumps @ c
        ext = (part.amp * np.cos(alpha)) @ part.n1
        ext += (part.amp * np.sin(alpha)) @ part.n2
        return (part.g_off + ext) / self.n

    def seed_grid(self, angles):
        """period(0, (a1, 0, 0, a4)) for a1, a4 over angles, shape (k, k, 3).

        The two moving corrections have disjoint supports, so each angle
        costs one partial sum over each support, and the rest of the
        extension one sum at the base angle.
        """
        part = self._p_part(np.zeros(3))
        lo, hi = self.grid_split

        def ext_sum(s, shift=0.0):
            alpha, amp = part.alpha0[s] + shift, part.amp[s]
            return ((amp * np.cos(alpha)) @ part.n1[s]
                    + (amp * np.sin(alpha)) @ part.n2[s])

        rows = ext_sum(slice(None, lo), np.outer(angles, self.bumps[:lo, 0]))
        cols = ext_sum(slice(hi, None), np.outer(angles, self.bumps[hi:, -1]))
        rest = ext_sum(slice(lo, hi))
        return (part.g_off + rest + rows[:, None] + cols[None, :]) / self.n

    def jacobian(self, p, c):
        """Exact Jacobian (3, 3 + N_CORR) of period(p, c) in (p, c)."""
        part = self._p_part(p)
        alpha = part.alpha0 + self.bumps @ c
        ca, sa = np.cos(alpha), np.sin(alpha)
        # derivative of the extension sum along each angle profile
        q = (part.n2.T * (part.amp * ca) - part.n1.T * (part.amp * sa)) @ self.profiles
        t = slice(self.cut - 1, None)
        ct, st = ca[t], sa[t]
        jp = (
            part.dg_off
            + np.outer(part.dspin, q[:, 0])
            + (part.damp * ct) @ part.n1[t]
            + (part.damp * st) @ part.n2[t]
            + (part.amp[t] * ct) @ part.dn1
            + (part.amp[t] * st) @ part.dn2
        )
        return np.hstack([jp.T, q[:, 1:]]) / self.n


def make_zero_period_pair(h0, spin_class=0):
    """Conformal pair (g, h) with h near the given immersed circle and
    vanishing period of g, in the requested homotopy class of sections.

    h0: real array (N, 3) sampling a smooth immersed circle (or a
    PeriodicPath with real values), resampled to 4096 points; a nonzero
    imaginary part raises ValueError.  The derivative of the output h is
    made constant on [0, 3 PAIR_DELTA]; g is assembled from an explicit
    three-parameter family there and a fast-spinning fiber extension
    elsewhere, and the parameter is found by damped Newton iteration with a
    grid fallback (a degree-one argument guarantees a root for small eps,
    which starts at PAIR_EPS and halves on each failed attempt).
    """
    if not (isinstance(spin_class, (int, np.integer)) and spin_class in (0, 1)):
        raise ValueError(f"spin_class must be 0 or 1, got {spin_class!r}")
    v0 = np.asarray(h0.values if isinstance(h0, PeriodicPath) else h0, complex)
    if v0.ndim != 2 or v0.shape[1] != 3:
        raise ValueError(f"h0 must have shape (N, 3), got {v0.shape}")
    if not np.all(np.isfinite(v0)):
        raise NonFiniteValues("h0 has non-finite samples")
    if np.any(v0.imag != 0):
        raise ValueError(
            "h0 must be real, got imaginary parts up to "
            f"{float(np.max(np.abs(v0.imag))):.3g}"
        )
    v0 = v0.real
    n_samples = PAIR_SAMPLES
    v0 = resample(v0, n_samples) if v0.shape[0] != n_samples else v0.copy()
    x = np.arange(n_samples) / n_samples
    hp0 = fourier_derivative(v0)
    speeds = np.linalg.norm(hp0, axis=1)
    min_speed = float(np.min(speeds))
    if min_speed <= 1e-6 * float(np.max(speeds)):
        raise NotImmersion("the input circle has a vanishing derivative")

    d = PAIR_DELTA
    # flatten the derivative on [-delta/2, 3 delta + delta/2]
    phi = smooth_step((x + d / 2.0) / (d / 2.0)) * smooth_step(
        (3.0 * d + d / 2.0 - x) / (d / 2.0)
    )
    phi = np.maximum(phi, smooth_step((x - (1.0 - d / 2.0)) / (d / 4.0)))
    mid = hp0[int(round(1.5 * d * n_samples)) % n_samples]
    w = (1.0 - phi)[:, None] * hp0 + phi[:, None] * mid[None, :]
    if np.min(np.linalg.norm(w, axis=1)) <= 0.25 * min_speed:
        raise NotImmersion("flattening destroyed the immersion; shrink delta")
    # restore periodicity of the primitive with a bump away from the window
    drift = w.mean(axis=0)
    psi = smooth_bump(x, 0.55, 0.2)
    w = w - (psi / psi.mean())[:, None] * drift[None, :]

    scale = 1.0 / np.linalg.norm(mid)
    R = _rotation_to_e1(mid)
    wt = (scale * w) @ R.T

    last_err = "no attempt"
    for attempt in range(4):
        cur_eps = PAIR_EPS / (2.0**attempt)
        builder = _ZeroPeriodBuilder(wt, cur_eps)
        # pick the extension winding realizing the requested class; the
        # class depends neither on p nor on the correction coefficients
        for extra in (0, 1):
            builder.net_winding = extra
            z0 = builder.hprime(np.zeros(3)) + 1j * builder.g_field(np.zeros(3))
            if nq.pi1_class(z0) == spin_class:
                break
        else:
            last_err = f"neither winding realizes the class at eps={cur_eps:g}"
            continue

        # seed the two stall-bump angles by a grid search at p = 0, refined
        # when Newton fails from the coarse seed
        best, best_val = np.zeros(3 + builder.N_CORR), np.inf
        for size in (13, 49):
            angles = np.linspace(-np.pi, np.pi, size)[:-1]
            r = np.linalg.norm(builder.seed_grid(angles), axis=-1)
            i, j = np.unravel_index(np.argmin(r), r.shape)
            if r[i, j] < best_val:
                best, best_val = np.zeros(3 + builder.N_CORR), r[i, j]
                best[3], best[-1] = angles[i], angles[j]
            q = _newton_root_ln(builder, best)
            if q is not None:
                break
        if q is None:
            last_err = f"no interior root at eps={cur_eps:g}"
            continue
        p, coeffs = q[:3], q[3:]

        # assemble and rotate/scale back; rotations and dilations do not
        # change the homotopy class fixed above
        g_rot = builder.g_field(p, coeffs)
        hp_rot = builder.hprime(p)
        cls = nq.pi1_class(hp_rot + 1j * g_rot)

        hp_out = (hp_rot @ R) / scale
        g_out = (g_rot @ R) / scale
        h_out = antiderivative(hp_out - hp_out.mean(axis=0)) + v0[0]
        pair = ConformalPair(h=h_out, g=g_out, hprime=hp_out)
        pair.meta = dict(
            delta=PAIR_DELTA,
            eps=cur_eps,
            p_root=p,
            angle_coeffs=coeffs,
            period_residual=float(np.linalg.norm(g_out.mean(axis=0))),
            sup_distance=float(np.max(np.linalg.norm(h_out - v0, axis=1))),
            spin_class=cls,
            spins=builder.spins,
        )
        return pair.validate()
    raise RootNotFound(last_err)


def _newton_root_ln(builder, q0):
    """Damped least-norm Newton for builder.period(p, c) = 0, q = (p, c).

    The root problem is underdetermined (3 equations, 3 + N_CORR unknowns);
    p is constrained to the ball of radius 0.98.  The Jacobian is the
    builder's exact one.  Newton stops at residual norm 1e-13, or returns
    None when 80 steps do not reach it.
    """

    def residual(q):
        if np.linalg.norm(q[:3]) >= 0.98:
            return np.full(3, np.inf)
        return builder.period(q[:3], q[3:])

    return _newton(
        residual,
        lambda q: builder.jacobian(q[:3], q[3:]),
        np.asarray(q0, dtype=float), 1e-13, 80,
    )


# ---------------------------------------------------------------------------
# flow-driven period continuation


def period_weights(n):
    """Weights (3, n, 3) of the period as a readout of n loop samples."""
    return np.repeat(np.eye(3, dtype=complex)[:, None, :] / n, n, axis=1)


def read_out(weights, samples):
    """The readout sum_x weights[:, x] . samples[..., x, :], shape (..., r).

    weights: array (r, N, 3); every linear functional of N loop samples is
    one, the period being period_weights(N).
    """
    s = np.asarray(samples)
    return s.reshape(s.shape[:-2] + (-1,)) @ weights.reshape(len(weights), -1).T


def _flow_deform(values, controls, w):
    """Apply bump-profiled quadric flows pointwise to loop samples.

    controls: list of (kind, profile array); w: complex coefficients, one
    per control.  The flows act in list order and preserve the quadric
    exactly, so deformed loops never leave it.  Returns the deformed loop
    and the tape of the sweep: per control, (kind, profile, flow factors,
    loop after the control), which _flow_jacobian reads.
    """
    out = np.array(values, dtype=complex)
    tape = []
    for (kind, prof), wj in zip(controls, w):
        factors = nq.flow_factors(kind, wj * prof)
        out = nq.flow_action(out, kind, factors)
        tape.append((kind, prof, factors, out))
    return out, tape


def _flow_jacobian(tape, weights):
    """Exact complex Jacobian (r, m) in w of read_out(weights, loop).

    tape is the sweep's from _flow_deform, weights (r, N, 3).  One backward
    pass (reverse mode): the adjoint lam starts at weights; at control k,
    from the last to the first, column k is sum_x prof_k lam . (G_k P_k),
    with P_k the loop after control k and G_k the plane rotation generator
    or the identity (scaling), and then lam <- F_k^T lam, the flow's
    transpose read from its taped factors: the rotation with (c, -s), or
    the same e^t.  Cost O(m r N), with no trigonometry.
    """
    lam = np.asarray(weights, dtype=complex)
    cols = []
    for kind, prof, factors, p in reversed(tape):
        if kind == "scaling":
            cols.append(np.tensordot(lam, prof[:, None] * p, 2))
        else:
            i, j = int(kind[-2]) - 1, int(kind[-1]) - 1
            cols.append(lam[..., j] @ (prof * p[:, i])
                        - lam[..., i] @ (prof * p[:, j]))
            factors = (factors[0], -factors[1])
        lam = nq.flow_action(lam, kind, factors)
    return np.stack(cols[::-1], axis=1)


def _level(controls, weights, tol, max_iter, radius):
    """The sweep and the Newton solve of a continuation at one resolution.

    sweep(v, x) is _flow_deform(v, controls, x), cached for the latest
    (loop, x); solve(v, goal, wv) is the damped Newton for
    read_out(weights, sweep(v, w)[0]) = goal from wv, or None.
    """
    last = {}

    def sweep(v, x):
        # _newton's last residual call is at the solution it returns, which
        # is the loop emitted and, for a shared loop, the next solve's first
        # point: keeping the latest sweep saves flow sweeps
        key = (id(v), x.tobytes())
        if last.get("key") != key:
            last["key"], last["sweep"] = key, _flow_deform(v, controls, x)
        return last["sweep"]

    def solve(v, goal, wv):
        return _newton(
            lambda x: read_out(weights, sweep(v, x)[0]) - goal,
            lambda x: _flow_jacobian(sweep(v, x)[1], weights),
            wv, tol, max_iter, radius / 4,
        )

    return sweep, solve


def _continue(loops, controls, weights, goals, tol, max_iter, radius=np.inf,
              coarse=None):
    """Natural-parameter continuation of flow coefficients along goals.

    Step k solves read_out(weights, _flow_deform(loops[k], controls, w))
    = goals[k], with weights (r, N, 3) and w = 0 meeting goals[0].  The
    readout is holomorphic in w, so each solve is a damped complex
    least-norm Newton on the exact Jacobian, from the previous step's w, at
    most max_iter steps of length at most radius / 4, down to a residual
    of tol; stalls sub-step through blended goals.  Each Newton point costs
    one flow sweep: _newton asks for the Jacobian at its last residual
    point, so the adjoint _flow_jacobian reads the tape of that sweep.

    With coarse = m < N, a step first solves on every (N/m)-th sample of
    the loops and profiles, with weights[:, ::N/m] * (N/m), and then runs
    the full solve from that point, which decides the step.  Where m
    samples already resolve the readout (a trapezoid rule of an analytic
    periodic integrand), the full solve ends at its first point: one
    sweep and no Jacobian.  If the coarse solve stalls, or the full solve
    fails from its point, the step falls back to the full solve from the
    previous w.  The two resolutions keep separate sweep caches.

    Returns the path w, shape (n, len(controls)), and the deformed loops
    at full resolution, the first being loops[0].  Raises LeftDomain when
    max |w| exceeds radius, ContinuationStalled when sub-stepping fails.
    """
    n = len(goals)
    loops = list(loops)  # one object per loop, whose id keys the caches
    sweep, solve = _level(controls, weights, tol, max_iter, radius)
    s = loops[0].shape[0] // coarse if coarse else 1
    if s > 1:
        sub = {}
        few = [sub.setdefault(id(v), v[::s]) for v in loops]
        solve_few = _level([(kind, prof[::s]) for kind, prof in controls],
                           weights[:, ::s] * s, tol, max_iter, radius)[1]

    def step(k, w):
        a, b = goals[k - 1], goals[k]
        if s > 1:
            y = _substep(partial(solve_few, few[k]), a, b, w)
            y = None if y is None else solve(loops[k], b, y)
            if y is not None:
                return y
        return _substep(partial(solve, loops[k]), a, b, w)

    w = np.zeros(len(controls), dtype=complex)
    path, out = [w], [np.array(loops[0], dtype=complex)]
    for k in range(1, n):
        w = step(k, w)
        if w is None:
            raise ContinuationStalled(f"continuation stalled at step {k} of {n}")
        if float(np.max(np.abs(w))) > radius:
            raise LeftDomain(
                f"|w| = {np.max(np.abs(w)):.3g} exceeds {radius} at step {k}"
            )
        path.append(w)
        out.append(sweep(loops[k], w)[0])
    return np.array(path), out


def _period_continuation(sigma0, targets, controls):
    """Solve for flow coefficients tracking a ramp of loop periods.

    targets: (n_t, 3) complex required periods, with targets[0] equal to the
    period of sigma0.  Two normalisation rows pin the e^(2 pi i x)-weighted
    means of loop components 1 and 2 at their t = 0 values; they remove the
    scaling direction, along which a least-norm path would shrink the loop
    toward a point and leave the branch before t = 1.  _continue tracks the
    ramp with at most 40 Newton steps per solve, down to a residual of
    1e-12, solving each step on COARSE_SAMPLES samples first: the flux
    drivers' profiles are trigonometric of degree 1 and their loops
    extend at low degree, so 64 samples read these trapezoid rules to
    rounding, and the full-resolution solve confirms the coarse point
    with one sweep.  Returns the list of deformed sample arrays.
    """
    v0 = np.asarray(sigma0, dtype=complex)
    n = v0.shape[0]
    e = np.exp(2j * np.pi * np.arange(n) / n)
    # the period, then the two pinned weighted means
    weights = period_weights(n)
    weights = np.concatenate([weights, e[None, :, None] * weights[:2]])
    goals = np.hstack([targets, np.tile(read_out(weights, v0)[3:],
                                        (len(targets), 1))])
    return _continue([v0] * len(goals), controls, weights, goals, 1e-12, 40,
                     coarse=COARSE_SAMPLES)[1]
