"""Smooth 1-periodic paths, period integrals and conformal circle pairs.

A conformal pair is a pair (g, h) of 1-periodic maps into R^3 with
g.h' = 0 and |g| = |h'| > 0 everywhere; the combination h' + i*g is then a
loop in the punctured null quadric with vanishing real period.  This module
constructs an exact zero-period pair near any immersed circle (built from
an explicit three-parameter family plus a degree-one root search), the
continuation of flow coefficients along a ramp of loop periods that the
flux drivers use, and supporting utilities (spectral quadrature,
trigonometric resampling, nondegeneracy tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nullquadric as nq
from .errors import (
    EmptySegment,
    InvalidPair,
    NonFiniteValues,
    NotImmersion,
    RootNotFound,
)

#: Default number of deformation-time samples.
N_T_DEFAULT = 64

#: Relative tolerance for the pointwise conformal-pair invariants.
TOL_CONF = 1e-10


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

    @property
    def n_samples(self):
        return self.values.shape[0]

    @property
    def x(self):
        n = self.n_samples
        return np.arange(n) / n


def period(path):
    """Integral over one period by the trapezoid rule.

    For equispaced samples of a periodic function this is the sample mean,
    which is spectrally accurate for smooth integrands.
    """
    v = path.values if isinstance(path, PeriodicPath) else np.asarray(path)
    return v.mean(axis=0)


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


def _require_nonempty(seg):
    if seg.length <= 0:
        raise EmptySegment("segment has zero length")


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

    @property
    def n_samples(self):
        return self.h.shape[0]

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
    _require_nonempty(seg)
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


def _transport_frame(unit_tangents, n1_start):
    """Propagate an orthonormal frame of the planes normal to a unit field.

    unit_tangents: (m, 3); n1_start: vector orthogonal to the first tangent.
    Returns n1, n2 arrays of shape (m, 3) with n2 = tangent x n1.
    """
    # math.sqrt(v @ v) is what np.linalg.norm computes for a real 1-D
    # vector, bit for bit, without its dispatch cost
    m = unit_tangents.shape[0]
    n1 = np.empty((m, 3))
    v = n1_start - (n1_start @ unit_tangents[0]) * unit_tangents[0]
    n1[0] = v / math.sqrt(v @ v)
    for k in range(1, m):
        u = unit_tangents[k]
        v = n1[k - 1] - (n1[k - 1] @ u) * u
        n1[k] = v / math.sqrt(v @ v)
    n2 = np.cross(unit_tangents, n1)
    return n1, n2


@dataclass(frozen=True)
class _PPart:
    """The part of g that depends on p alone (see _ZeroPeriodBuilder)."""

    g: np.ndarray  # g off the long extension, (N, 3)
    alpha0: np.ndarray  # extension spin angle before the corrections
    amp: np.ndarray  # |h'| along the extension
    n1: np.ndarray  # transported frame along the extension
    n2: np.ndarray


class _ZeroPeriodBuilder:
    """Assembles the explicit zero-period family around a flattened circle.

    g depends on the three-parameter p and on the angle-correction
    coefficients c.  Everything that needs p alone (h', the two frame
    transports, their branch-fixed end angles, g outside the long extension
    and its base spin angle) is the p-part; g_field adds the c-dependent
    corrections to it.  The root search varies c far more often than p (the
    whole seed grid sits at p = 0, and four of the seven Jacobian columns
    move c only), so the p-part of the most recent (p, net_winding) is
    memoised.  One entry keeps memory flat; the winding is part of the key
    because the spin-class search evaluates p = 0 under both windings.  The
    arctan2 branch references are fixed at p = 0 on construction, so the
    memo, and g_field, are pure functions of their arguments.
    """

    def __init__(self, w_tilde, delta, eps, n_samples):
        self.n = n_samples
        self.x = np.arange(self.n) / self.n
        self.delta = delta
        self.eps = eps
        self.w = w_tilde  # flattened, rotated derivative field, (N, 3)
        d = delta
        x = self.x
        # smooth ramp of the p-perturbation of h': 1 on [0, delta] and on
        # [1 - delta/4, 1), decaying inside [delta, 2 delta] and rising on
        # [1 - delta/2, 1 - delta/4].
        beta = np.zeros(self.n)
        beta += 1.0 - smooth_step((x - d) / (d / 3.0))
        rise = smooth_step((x - (1.0 - d / 2.0)) / (d / 4.0))
        beta = np.maximum(beta, rise)
        self.beta = beta
        # compensating bump keeping h periodic, supported in (4d/3, 2d)
        gam = smooth_bump(x, 5.0 * d / 3.0, d / 4.0)
        self.gamma = gam
        self.int_beta = beta.mean()
        self.int_gamma = gam.mean()
        # region masks
        self.m_core = (x >= 0.0) & (x < d)
        self.m_trans = (x >= d) & (x < 2.0 * d)
        self.m_anti = (x >= 2.0 * d) & (x < 3.0 * d)
        self.m_ext = x >= 3.0 * d
        self.spins = (8, 32)
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
        # extension parameter and its correction profiles, p-independent
        xs = np.concatenate([x[idx_ext], [1.0]])
        self.u_ext = (xs - 3.0 * d) / (1.0 - 3.0 * d)
        self.bumps = self._correction_bumps(self.u_ext)
        # the first p-part, at p = 0, fixes the arctan2 branch references
        self._angle_ref = {}
        self._memo = None
        self._p_part(np.zeros(3))

    def hprime(self, p):
        q = -p * (self.int_beta / self.int_gamma)
        pert = self.eps * (
            self.beta[:, None] * p[None, :] + self.gamma[:, None] * q[None, :]
        )
        return self.w + pert

    def _core_g(self, p):
        """Unit-interval value of g on [0, delta] (constant there)."""
        eps = self.eps
        corr = eps * eps * p[2] ** 2 / (1.0 + eps * p[0])
        gt = np.array([0.0, 1.0, 0.0]) + eps * (_A_MAT @ p)
        gt[0] -= corr
        e1p = np.array([1.0 + eps * p[0], eps * p[1], eps * p[2]])
        return (np.linalg.norm(e1p) / np.linalg.norm(gt)) * gt

    #: number of angle-correction bumps in the long extension
    N_CORR = 4

    net_winding = 0

    def _stable_angle(self, key, raw):
        """Branch of an angle kept coherent across nearby parameters.

        arctan2 jumps by 2 pi across its cut; without a fixed reference the
        jump would make the family discontinuous in p and poison the
        finite-difference Jacobians.  The reference is the raw angle at
        p = 0, recorded by the constructor's first call.
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

    def _p_part(self, p):
        """The memoised p-dependent part of g_field."""
        key = (p.tobytes(), self.net_winding)
        if self._memo is not None and self._memo[0] == key:
            return self._memo[1]
        n, d, x = self.n, self.delta, self.x
        hp = self.hprime(p)
        nh = np.linalg.norm(hp, axis=1)
        unit = hp / nh[:, None]
        g = np.empty((n, 3))
        g_core = self._core_g(p)
        g[self.m_core] = g_core
        g[self.m_anti] = np.array([0.0, -1.0, 0.0])
        m_spin_1, m_spin_2 = self.spins

        # transition [delta, 2 delta]: spin from the core value to -e2
        idx = np.where(self.m_trans)[0]
        idx = np.concatenate([[idx[0] - 1], idx, [idx[-1] + 1]])
        n1, n2 = _transport_frame(unit[idx], g_core)
        target = np.array([0.0, -1.0, 0.0])
        th = self._stable_angle(
            "trans", np.arctan2(target @ n2[-1], target @ n1[-1])
        )
        u = (x[idx] - d) / d
        alpha = (th + 2.0 * np.pi * m_spin_1) * smooth_step(u)
        vals = nh[idx, None] * (
            np.cos(alpha)[:, None] * n1 + np.sin(alpha)[:, None] * n2
        )
        g[idx[1:-1]] = vals[1:-1]

        # long extension [3 delta, 1): spin from -e2 back to the core value
        idx2 = np.concatenate([self.idx_ext, [0]])  # wrap to x = 1
        tail = idx2[self.cut - 1 :] % n
        t1, t2 = _transport_frame(unit[tail], self.n1_pre[self.cut - 1])
        n1 = np.concatenate([self.n1_pre[: self.cut - 1], t1], axis=0)
        n2 = np.concatenate([self.n2_pre[: self.cut - 1], t2], axis=0)
        th = self._stable_angle(
            "ext", np.arctan2(g_core @ n2[-1], g_core @ n1[-1])
        )
        spin = th + 2.0 * np.pi * (m_spin_2 + self.net_winding)
        part = _PPart(
            g=g,
            alpha0=spin * smooth_step(self.u_ext),
            amp=np.linalg.norm(hp[idx2 % n], axis=1),
            n1=n1,
            n2=n2,
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
        g[self.idx_ext] = vals[:-1]
        return g

    def period(self, p, c=None):
        return self.g_field(p, c).mean(axis=0)


def make_zero_period_pair(h0, spin_class=0, delta=0.05, eps=0.1):
    """Conformal pair (g, h) with h near the given immersed circle and
    vanishing period of g, in the requested homotopy class of sections.

    h0: real array (N, 3) sampling a smooth immersed circle (or a
    PeriodicPath with real values), resampled to 4096 points.  The
    derivative of the output h is made constant on [0, 3*delta]; g is
    assembled from an explicit three-parameter family there and a
    fast-spinning fiber extension elsewhere, and the parameter is found by
    damped Newton iteration with a grid fallback (a degree-one argument
    guarantees a root for small eps).
    """
    for name, value in (("delta", delta), ("eps", eps)):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    if 3.0 * delta >= 1.0:
        raise ValueError("need 3*delta < 1")
    v0 = h0.values.real if isinstance(h0, PeriodicPath) else np.asarray(h0, float)
    if v0.ndim != 2 or v0.shape[1] != 3:
        raise ValueError(f"h0 must have shape (N, 3), got {v0.shape}")
    if not np.all(np.isfinite(v0)):
        raise NonFiniteValues("h0 has non-finite samples")
    n_samples = 4096
    v0 = resample(v0, n_samples) if v0.shape[0] != n_samples else v0.copy()
    x = np.arange(n_samples) / n_samples
    hp0 = fourier_derivative(v0)
    speeds = np.linalg.norm(hp0, axis=1)
    min_speed = float(np.min(speeds))
    if min_speed <= 1e-6 * float(np.max(speeds)):
        raise NotImmersion("the input circle has a vanishing derivative")

    d = delta
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
        cur_eps = eps / (2.0**attempt)
        builder = _ZeroPeriodBuilder(wt, delta, cur_eps, n_samples)
        # pick the extension winding realizing the requested class; the
        # class depends neither on p nor on the correction coefficients
        for extra in (0, 1):
            builder.net_winding = extra
            z0 = builder.hprime(np.zeros(3)) + 1j * builder.g_field(np.zeros(3))
            if nq.pi1_class(z0) == spin_class % 2:
                break
        else:
            last_err = f"neither winding realizes the class at eps={cur_eps:g}"
            continue

        nc = builder.N_CORR

        def residual(q):
            return builder.period(q[:3], q[3:])

        # seed the two stall-bump angles by a grid search, refined when
        # Newton fails from the coarse seed
        best, best_val = np.zeros(3 + nc), np.inf
        for size in (13, 49):
            angles = np.linspace(-np.pi, np.pi, size)[:-1]
            for a1 in angles:
                for a2 in angles:
                    q0 = np.zeros(3 + nc)
                    q0[3], q0[3 + nc - 1] = a1, a2
                    r = float(np.linalg.norm(residual(q0)))
                    if r < best_val:
                        best, best_val = q0, r
            q = _newton_root_ln(residual, best)
            if q is not None:
                break
        if q is None or np.linalg.norm(q[:3]) >= 1.0:
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
            delta=delta,
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


def _newton_root_ln(fun, q0):
    """Damped least-norm Newton for an underdetermined root problem.

    fun maps R^m to R^3; the first three entries of the argument are
    constrained to the ball of radius 0.98.  The Jacobian is taken by
    central differences of step 1e-7.  Newton stops at residual norm 1e-13,
    or returns None when 80 steps do not reach it.
    """

    def residual(q):
        return fun(q) if np.linalg.norm(q[:3]) < 0.98 else np.full(3, np.inf)

    def jac(q):
        cols = [fun(q + dq) - fun(q - dq) for dq in 1e-7 * np.eye(q.size)]
        return np.stack(cols, axis=1) / (2.0 * 1e-7)

    return _newton(residual, jac, np.asarray(q0, dtype=float), 1e-13, 80)


# ---------------------------------------------------------------------------
# flow-driven period continuation


def _flow_deform(values, controls, w):
    """Apply bump-profiled quadric flows pointwise to loop samples.

    controls: list of (kind, profile array); w: complex coefficients, one
    per control.  The flows act in list order and preserve the quadric
    exactly, so deformed loops never leave it.
    """
    out = np.array(values, dtype=complex)
    for (kind, prof), wj in zip(controls, w):
        out = nq.flow(out, kind, wj * prof)
    return out


def _flow_jacobian(values, controls, w):
    """Exact complex Jacobian (3, m) of the period of _flow_deform in w.

    One sweep composes the flows and carries one tangent per control: at
    control k the new tangent is prof_k * G_k * out_k, with G_k the plane
    rotation generator or the identity (scaling), and every later control
    acts on the earlier tangents as it acts on the loop.  The sample means
    of the tangents are the columns.
    """
    v = np.asarray(values, dtype=complex)
    # state[0] is the deformed loop, state[k + 1] tangent k
    state = np.zeros((len(controls) + 1,) + v.shape, dtype=complex)
    state[0] = v
    for k, ((kind, prof), wk) in enumerate(zip(controls, w)):
        state[: k + 1] = nq.flow(state[: k + 1], kind, wk * prof)
        loop = state[0]
        if kind == "scaling":
            state[k + 1] = prof[:, None] * loop
        else:
            i, j = int(kind[-2]) - 1, int(kind[-1]) - 1
            state[k + 1, :, i] = -prof * loop[:, j]
            state[k + 1, :, j] = prof * loop[:, i]
    # C order: callers' products with this matrix round as for a fresh array
    return np.ascontiguousarray(state[1:].mean(axis=1).T)


def _period_continuation(sigma0, targets, controls, tol=1e-12):
    """Solve for flow coefficients tracking a ramp of loop periods.

    targets: (n_t, 3) complex required periods, with targets[0] equal to the
    period of sigma0.  Newton steps use the exact period Jacobian of
    _flow_jacobian, at most 40 per solve.  Returns the list of deformed
    sample arrays.  Raises RootNotFound when Newton stalls even after
    sub-stepping.
    """
    v0 = np.asarray(sigma0, dtype=complex)
    n_t = targets.shape[0]
    w = np.zeros(len(controls), dtype=complex)
    out = [v0.copy()]

    def per(wv):
        return _flow_deform(v0, controls, wv).mean(axis=0)

    def jac(wv):
        return _flow_jacobian(v0, controls, wv)

    def solve(target, wv):
        # the period is holomorphic in the flow coefficients, so a
        # complex least-norm Newton step is legitimate
        return _newton(lambda x: per(x) - target, jac, wv, tol, 40)

    def recenter(wv, target, rounds=6):
        # pull the coefficients toward the minimal-norm solution of
        # per(w) = target; without this the continuation drifts onto a
        # runaway branch where the coefficients blow up
        for _ in range(rounds):
            J = jac(wv)
            coef, *_ = np.linalg.lstsq(J.conj().T, wv, rcond=None)
            d = wv - J.conj().T @ coef  # null-space component of w
            nd = float(np.linalg.norm(d))
            if nd < 1e-10 or nd < 0.05 * float(np.linalg.norm(wv)):
                return wv
            for j in range(1, 10):  # pull-back fractions 1/2 down to 1/512
                cand = solve(target, wv - 0.5**j * d)
                if cand is not None and np.linalg.norm(cand) < np.linalg.norm(wv):
                    wv = cand
                    break
            else:
                return wv
        return wv

    for k in range(1, n_t):
        w = _substep(solve, targets[k - 1], targets[k], w)
        if w is None:
            raise RootNotFound(f"period continuation stalled at step {k}")
        w = recenter(w, targets[k])
        out.append(_flow_deform(v0, controls, w))
    return out
