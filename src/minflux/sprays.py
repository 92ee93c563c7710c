"""Period-dominating sprays of loops and the control continuation.

A spray deforms a family of quadric loops through compositions of
quadric-preserving flows, each switched on by a smooth bump on the circle,
so that the derivative of the loop periods with respect to the control
coefficients is surjective.  The continuation stage then follows a smooth
ramp of period targets, solving for the controls by damped Newton steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    ContinuationStalled,
    DegenerateLoop,
    DominationFailed,
    LeftDomain,
    ThirdComponentVanishes,
)
from .loops import (
    PeriodicPath,
    Segment,
    _flow_deform,
    _flow_jacobian,
    _newton,
    _substep,
    nondegenerate_on,
    raised_cosine,
)
from .weierstrass import TOL_PERIOD

#: Trust radius of the control ball.
RADIUS_W = 0.5

#: Width of the raised-cosine bump profiles on the circle.
BUMP_WIDTH = 0.05

#: Smallest acceptable singular value of the period Jacobian.
SIGMA_MIN = 1e-4


def _as_family(sigma_t):
    """Normalize input to a list (curves) of lists (t) of (N, 3) arrays."""
    if isinstance(sigma_t, (PeriodicPath, np.ndarray)):
        sigma_t = [sigma_t]
    first = sigma_t[0]
    if isinstance(first, (PeriodicPath, np.ndarray)):
        sigma_t = [sigma_t]  # single curve

    def arr(p):
        return np.asarray(p.values if isinstance(p, PeriodicPath) else p, complex)

    return [[arr(p) for p in curve] for curve in sigma_t]


@dataclass
class LoopSpray:
    """Flow-composition spray over a sampled loop family.

    base[j][k] is the loop on curve j at time sample k.  controls[j] is a
    list of (flow kind, profile array) pairs acting on curve j only; the
    identity at w = 0 and the locality outside the bump supports are exact.
    """

    base: list
    controls: list
    fixed_third: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def n_curves(self):
        return len(self.base)

    @property
    def n_t(self):
        return len(self.base[0])

    @property
    def dim_w(self):
        return sum(len(c) for c in self.controls)

    def _split(self, w):
        w = np.asarray(w, dtype=complex)
        out, pos = [], 0
        for c in self.controls:
            out.append(w[pos : pos + len(c)])
            pos += len(c)
        return out

    def deform(self, t_index, w):
        """Deformed loops at time sample t_index; exact identity at w = 0."""
        return [
            _flow_deform(curve[t_index], ctrls, wj)
            for curve, ctrls, wj in zip(self.base, self.controls, self._split(w))
        ]

    def periods(self, t_index, w):
        """Loop periods per curve, stacked to shape (n_curves, 3)."""
        return np.stack([v.mean(axis=0) for v in self.deform(t_index, w)])


def period_jacobian(spray, t_index, w=0):
    """Exact Jacobian of the periods at the controls w.

    Each curve's periods depend on its own controls only, so the matrix is
    block diagonal with one _flow_jacobian block per curve.  Rows are the
    period components per curve (all three, or the first two for
    fixed-third sprays); columns are the complex controls.
    """
    rows = 2 if spray.fixed_third else 3
    w = np.broadcast_to(np.asarray(w, dtype=complex), (spray.dim_w,))
    J = np.zeros((rows * spray.n_curves, spray.dim_w), dtype=complex)
    col = 0
    for j, (curve, ctrls, wj) in enumerate(
        zip(spray.base, spray.controls, spray._split(w))
    ):
        m = len(ctrls)
        J[rows * j : rows * (j + 1), col : col + m] = _flow_jacobian(
            curve[t_index], ctrls, wj
        )[:rows]
        col += m
    return J


def _certify(spray):
    """Smallest singular value of the period Jacobian over the t samples.

    Stops at the first sample below SIGMA_MIN.  The value (stored as
    meta["sigma_min"]) holds at the t samples only; it is not a bound on
    the Jacobian between them.
    """
    worst = np.inf
    for k in range(spray.n_t):
        s = np.linalg.svd(period_jacobian(spray, k), compute_uv=False)
        worst = min(worst, float(s[-1]))
        if worst < SIGMA_MIN:
            return worst
    return worst


def _make_controls(segments, n, rng, kinds):
    controls = []
    for seg in segments:
        ctrls = []
        span = max(seg.length - 2 * BUMP_WIDTH, 1e-6)
        for i, kind in enumerate(kinds):
            frac = (i + 0.5) / len(kinds) + 0.2 * rng.uniform(-1, 1) / len(kinds)
            center = (seg.alpha + BUMP_WIDTH + span * frac) % 1.0
            prof = raised_cosine(np.arange(n) / n, center, BUMP_WIDTH / 2.0)
            ctrls.append((kind, prof))
        controls.append(ctrls)
    return controls


def _build(sigma_t, segments, kinds, fixed_third, seed):
    base = _as_family(sigma_t)
    if isinstance(segments, Segment):
        segments = [segments]
    if len(segments) != len(base):
        raise ValueError("need one segment per curve")
    for curve, seg in zip(base, segments):
        for vals in curve:
            if not nondegenerate_on(PeriodicPath(vals), seg):
                raise DegenerateLoop("loop family is degenerate on its segment")
            if fixed_third:
                x = np.arange(vals.shape[0]) / vals.shape[0]
                third = np.abs(vals[seg.contains(x), 2])
                if third.size == 0 or float(third.min()) < 1e-10:
                    raise ThirdComponentVanishes(
                        "third component vanishes on a control segment"
                    )
    n = base[0][0].shape[0]
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(5):
        controls = _make_controls(segments, n, rng, kinds)
        spray = LoopSpray(base, controls, fixed_third=fixed_third)
        sv = _certify(spray)
        if sv >= SIGMA_MIN:
            spray.meta["sigma_min"] = sv
            return spray
        worst = max(worst, sv)
    raise DominationFailed(
        f"period Jacobian sigma_min {worst:.3g} below {SIGMA_MIN:g} after retries"
    )


def build_spray(sigma_t, segments):
    """Period-dominating spray with three flow controls per curve."""
    return _build(
        sigma_t, segments, ("rotation_12", "rotation_13", "rotation_23"),
        fixed_third=False, seed=17,
    )


def build_spray_fixed_third(sigma_t, segments):
    """Spray deforming only the first two components, third kept exactly.

    Controls are rotations in the 1-2 plane: they scale z1 -+ i z2 by
    e^(-+i t), so they multiply the Gauss map by an exponential factor and
    never write the third component.  Two controls per curve dominate the
    two free period components.
    """
    return _build(
        sigma_t, segments, ("rotation_12", "rotation_12"), fixed_third=True,
        seed=19,
    )


@dataclass(frozen=True)
class PeriodTargets:
    """Per-curve period targets on the t-grid, shape (n_t, n_curves, 3)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 2:
            v = v[:, None, :]
        object.__setattr__(self, "values", v)


def solve_w(spray, targets):
    """Continuation for the control path w(t) tracking the period targets.

    Starts from w(0) = 0 (targets must already be met there) and tracks the
    ramp with damped least-norm Newton steps to residual TOL_PERIOD, at
    most 30 per solve and each at most a quarter of the trust radius
    RADIUS_W, sub-stepping on stalls.
    The rows of the period system follow period_jacobian.  Raises LeftDomain
    when |w| exceeds the trust radius, ContinuationStalled when sub-stepping
    fails.
    """
    tv = targets.values if isinstance(targets, PeriodTargets) else targets
    tv = PeriodTargets(tv).values
    rows = 2 if spray.fixed_third else 3
    n_t = spray.n_t
    if tv.shape[0] != n_t or tv.shape[1] != spray.n_curves:
        raise ValueError("targets shape does not match the spray")

    def residual(k, target, w):
        return (spray.periods(k, w)[:, :rows] - target[:, :rows]).ravel()

    def solve(k, target, w):
        return _newton(
            lambda v: residual(k, target, v),
            lambda v: period_jacobian(spray, k, v),
            w, TOL_PERIOD, 30, cap=0.25 * RADIUS_W,
        )

    w = np.zeros(spray.dim_w, dtype=complex)
    r0 = float(np.linalg.norm(residual(0, tv[0], w)))
    if r0 > TOL_PERIOD:
        raise ValueError(f"targets not met at t = 0 with w = 0 (residual {r0:.3g})")
    path = [w.copy()]
    for k in range(1, n_t):
        nxt = _substep(partial(solve, k), tv[k - 1], tv[k], w)
        if nxt is None:
            raise ContinuationStalled(f"continuation stalled at step {k} of {n_t}")
        if float(np.max(np.abs(nxt))) > RADIUS_W:
            raise LeftDomain(
                f"|w| = {np.max(np.abs(nxt)):.3g} exceeds {RADIUS_W} at step {k}"
            )
        w = nxt
        path.append(w.copy())
    return np.array(path)
