"""Period-dominating sprays of loops and the control continuation.

A spray deforms a loop family, one loop in the null quadric per time
sample, through compositions of quadric-preserving flows, each switched on
by a smooth bump on the circle, so that the derivative of the loop period
with respect to the control coefficients is surjective.  The domain is an
annulus with one homology generator, so a spray has one curve; periods and
their targets keep an axis of length one for it, shape (n_t, 1, 3).  The
continuation stage follows a smooth ramp of period targets with
loops._continue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import loops
from .errors import DegenerateLoop, DominationFailed, ThirdComponentVanishes
from .loops import (
    PeriodicPath,
    Segment,
    nondegenerate_on,
    period,
    period_weights,
    raised_cosine,
)
from .weierstrass import TOL_PERIOD

#: Trust radius of the control ball.
RADIUS_W = 0.5

#: Width of the raised-cosine bump profiles on the circle.
BUMP_WIDTH = 0.05

#: Smallest acceptable singular value of the period Jacobian.
SIGMA_MIN = 1e-4


@dataclass
class LoopSpray:
    """Flow-composition spray over a sampled loop family.

    base[k] is the loop at time sample k, an (N, 3) complex array.
    controls is a list of (flow kind, profile array) pairs; the identity at
    w = 0 and the locality outside the bump supports are exact.
    """

    base: list
    controls: list
    fixed_third: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def n_t(self):
        return len(self.base)

    @property
    def dim_w(self):
        return len(self.controls)

    def deform(self, t_index, w):
        """Deformed loop at time sample t_index, shape (1, N, 3)."""
        return loops._flow_deform(self.base[t_index], self.controls, w)[0][None]

    def periods(self, t_index, w):
        """Loop period at time sample t_index, shape (1, 3)."""
        return period(self.deform(t_index, w))


def period_jacobian(spray, t_index):
    """Exact Jacobian of the period at w = 0, by _flow_jacobian.

    Rows are the period components (all three, or the first two for
    fixed-third sprays), read by the period weights; columns are the
    complex controls.  The Jacobian is one backward pass over the tape of
    the identity sweep at w = 0.
    """
    rows = 2 if spray.fixed_third else 3
    base = spray.base[t_index]
    w = np.zeros(spray.dim_w, dtype=complex)
    tape = loops._flow_deform(base, spray.controls, w)[1]
    return loops._flow_jacobian(tape, period_weights(base.shape[0])[:rows])


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


def _make_controls(seg, n, rng, kinds):
    controls = []
    span = max(seg.length - 2 * BUMP_WIDTH, 1e-6)
    for i, kind in enumerate(kinds):
        frac = (i + 0.5) / len(kinds) + 0.2 * rng.uniform(-1, 1) / len(kinds)
        center = (seg.alpha + BUMP_WIDTH + span * frac) % 1.0
        prof = raised_cosine(np.arange(n) / n, center, BUMP_WIDTH / 2.0)
        controls.append((kind, prof))
    return controls


def _build(sigma_t, seg, kinds, fixed_third, seed):
    if not isinstance(seg, Segment):
        raise ValueError("need one Segment: a spray has one curve")
    base = [
        np.asarray(p.values if isinstance(p, PeriodicPath) else p, complex)
        for p in sigma_t
    ]
    for vals in base:
        if vals.ndim != 2 or vals.shape[1] != 3:
            raise ValueError(f"need one (N, 3) loop per t, got {vals.shape}")
        if not nondegenerate_on(PeriodicPath(vals), seg):
            raise DegenerateLoop("loop family is degenerate on its segment")
        if fixed_third:
            x = np.arange(vals.shape[0]) / vals.shape[0]
            third = np.abs(vals[seg.contains(x), 2])
            if third.size == 0 or float(third.min()) < 1e-10:
                raise ThirdComponentVanishes(
                    "third component vanishes on a control segment"
                )
    n = base[0].shape[0]
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(5):
        spray = LoopSpray(base, _make_controls(seg, n, rng, kinds), fixed_third)
        sv = _certify(spray)
        if sv >= SIGMA_MIN:
            spray.meta["sigma_min"] = sv
            return spray
        worst = max(worst, sv)
    raise DominationFailed(
        f"period Jacobian sigma_min {worst:.3g} below {SIGMA_MIN:g} after retries"
    )


def build_spray(sigma_t, seg):
    """Period-dominating spray with three flow controls."""
    return _build(
        sigma_t, seg, ("rotation_12", "rotation_13", "rotation_23"),
        fixed_third=False, seed=17,
    )


def build_spray_fixed_third(sigma_t, seg):
    """Spray deforming only the first two components, third kept exactly.

    Controls are rotations in the 1-2 plane: they scale z1 -+ i z2 by
    e^(-+i t), so they multiply the Gauss map by an exponential factor and
    never write the third component.  Two controls dominate the two free
    period components.
    """
    return _build(
        sigma_t, seg, ("rotation_12", "rotation_12"), fixed_third=True,
        seed=19,
    )


@dataclass(frozen=True)
class PeriodTargets:
    """Period targets on the t-grid, shape (n_t, 1, 3); an (n_t, 3) array
    gains the middle axis."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 2:
            v = v[:, None, :]
        object.__setattr__(self, "values", v)


def solve_w(spray, targets):
    """Continuation for the control path w(t) tracking the period targets.

    Starts from w(0) = 0, where the targets must already be met
    (ValueError otherwise), and tracks the ramp by loops._continue on the
    period weights of period_jacobian's rows, to residual TOL_PERIOD with
    at most 30 Newton steps per solve in the trust radius RADIUS_W.  A
    fixed-third spray never moves the third period, so a third target that
    misses the base loop's by more than TOL_PERIOD at any step is
    unreachable (ValueError).  Raises LeftDomain when |w| exceeds the
    trust radius, ContinuationStalled when sub-stepping fails.
    """
    tv = PeriodTargets(getattr(targets, "values", targets)).values
    if tv.shape[:2] != (spray.n_t, 1):
        raise ValueError("targets shape does not match the spray")
    rows = 2 if spray.fixed_third else 3
    goals = tv[:, 0, :rows]
    # the flows are the exact identity at w = 0
    r0 = float(np.linalg.norm(period(spray.base[0])[:rows] - goals[0]))
    if r0 > TOL_PERIOD:
        raise ValueError(f"targets not met at t = 0 with w = 0 (residual {r0:.3g})")
    if spray.fixed_third:
        miss = np.abs(tv[:, 0, 2] - [period(b)[2] for b in spray.base])
        k = int(np.argmin(miss <= TOL_PERIOD))  # the first step missed
        if not miss[k] <= TOL_PERIOD:
            raise ValueError(f"third target at step {k} misses the fixed "
                             f"third period by {miss[k]:.3g}")
    weights = period_weights(spray.base[0].shape[0])[:rows]
    return loops._continue(
        spray.base, spray.controls, weights, goals, TOL_PERIOD, 30, RADIUS_W,
    )[0]
