"""Geometry of the null quadric in C^3.

The quadric is the set of complex triples with z1^2 + z2^2 + z3^2 = 0; the
punctured quadric excludes the origin.  This module provides the standard
spinor double cover, closed-form tangential flows, and the Z2 classifier of
free homotopy classes of loops in the punctured quadric, computed as the
sign holonomy of the spinor lift.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    NonFiniteValues,
    NotOnQuadric,
    UndersampledLoop,
    ZeroPoint,
)

#: Relative tolerance for membership in the quadric.
TOL_NULL = 1e-10

#: Names of the closed-form flows preserving the quadric.
FLOW_KINDS = ("rotation_12", "rotation_13", "rotation_23", "scaling")


def null_residual(z):
    """Absolute value of z1^2 + z2^2 + z3^2.

    Accepts a single triple or an array of shape (..., 3); returns a scalar
    or an array of the leading shape.
    """
    z = np.asarray(z, dtype=complex)
    s = np.abs(z[..., 0] ** 2 + z[..., 1] ** 2 + z[..., 2] ** 2)
    if s.ndim == 0:
        return float(s)
    return s


def spinor_to_null(a, b):
    """Map spinor coordinates (a, b) to (a^2-b^2, i(a^2+b^2), 2ab).

    Accepts a pair of scalars or broadcastable arrays.  The image satisfies
    the quadric equation exactly up to rounding.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    a2, b2 = a * a, b * b
    out = np.stack([a2 - b2, 1j * (a2 + b2), 2.0 * a * b], axis=-1)
    return out


def _pointwise_spinor(z):
    """One spinor preimage per point, with no continuity across points.

    z: array (..., 3) on the quadric.  Returns (a, b) arrays.  The branch
    is the raw principal square root; callers fix signs afterwards.
    """
    z = np.asarray(z, dtype=complex)
    A = 0.5 * (z[..., 0] - 1j * z[..., 1])
    B = 0.5 * (-z[..., 0] - 1j * z[..., 1])
    a = np.sqrt(A)
    b = np.sqrt(B)
    # Where |A| dominates, derive b from 2ab = z3 for consistency; else derive a.
    use_a = np.abs(A) >= np.abs(B)
    safe_a = np.where(use_a & (np.abs(a) > 0), a, 1.0)
    safe_b = np.where(~use_a & (np.abs(b) > 0), b, 1.0)
    b = np.where(use_a & (np.abs(a) > 0), z[..., 2] / (2.0 * safe_a), b)
    a = np.where(~use_a & (np.abs(b) > 0), z[..., 2] / (2.0 * safe_b), a)
    return a, b


def flow_factors(field, t):
    """The factors of the flow of field at times t: (cos t, sin t) for a
    rotation, (e^t,) for scaling.  t may be complex and of any shape."""
    if field == "scaling":
        return (np.exp(t),)
    if field not in FLOW_KINDS:
        raise ValueError(f"unknown flow kind {field!r}")
    return np.cos(t), np.sin(t)


def flow_action(z, field, factors):
    """Act on triples z, shape (..., 3), by the flow with the given factors.

    factors broadcast against z[..., 0].  A rotation acts by the matrix
    ((c, -s), (s, c)) in its coordinate plane, so the factors (c, -s) act
    by its transpose; scaling multiplies by its factor.
    """
    if field == "scaling":
        return factors[0][..., None] * z
    i, j = int(field[-2]) - 1, int(field[-1]) - 1
    c, s = factors
    out = z.copy()
    out[..., i] = c * z[..., i] - s * z[..., j]
    out[..., j] = s * z[..., i] + c * z[..., j]
    return out


def flow(z, field, t):
    """Closed-form flow of a quadric-preserving vector field.

    field is one of FLOW_KINDS; t may be complex and broadcasts against
    z[..., 0], so each sample can carry its own time.  Rotations act by the
    complexified rotation matrix in the named coordinate plane, scaling by
    the factor e^t.  Both preserve the quadric exactly and vectorize over
    arrays of shape (..., 3).
    """
    z = np.asarray(z, dtype=complex)
    return flow_action(z, field, flow_factors(field, t))


def _lift_signs(a, b):
    """Cumulative sign continuation of a sampled spinor lift.

    Returns the array of signs and the inner-product margins used to detect
    ambiguous steps.  Step k compares sample k with sample k-1.
    """
    ip = (a[1:] * np.conj(a[:-1]) + b[1:] * np.conj(b[:-1])).real
    norms = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    scale = norms[1:] * norms[:-1]
    margin = np.abs(ip) / np.where(scale > 0, scale, 1.0)
    steps = np.where(ip >= 0, 1.0, -1.0)
    signs = np.concatenate([[1.0], np.cumprod(steps)])
    return signs, margin


#: Minimal relative inner product between consecutive lifted samples.
LIFT_SAFETY = 0.2


def _lift_loop(z):
    """Sign-continued spinor lift of closed-loop samples.

    z: array (N, 3) on the quadric, sampled at k/N with the closing step
    from sample N-1 back to sample 0 included.  Returns (a, b, parity):
    the continued spinor samples and 0 when the lift closes up, 1 when it
    returns with the opposite sign.  Raises UndersampledLoop when the
    continuation is ambiguous.
    """
    a, b = _pointwise_spinor(z)
    closed_a = np.concatenate([a, a[:1]])
    closed_b = np.concatenate([b, b[:1]])
    signs, margin = _lift_signs(closed_a, closed_b)
    if np.min(margin) < LIFT_SAFETY:
        raise UndersampledLoop(
            f"sign continuation margin {np.min(margin):.3g} below {LIFT_SAFETY}"
        )
    parity = 0 if signs[-1] > 0 else 1
    return a * signs[:-1], b * signs[:-1], parity


def pi1_class(loop):
    """Z2 class of a closed loop in the punctured quadric.

    loop: array (N, 3) of samples at equispaced parameters k/N; the closing
    step from sample N-1 back to sample 0 is included.  Returns the parity
    of the spinor lift: 0 when it closes up, 1 when it returns with the
    opposite sign.  Raises NonFiniteValues for inf/NaN samples, or samples
    whose squares overflow, and UndersampledLoop when the continuation is
    ambiguous.
    """
    z = np.asarray(loop, dtype=complex)
    if z.ndim != 2 or z.shape[1] != 3:
        raise ValueError("loop must have shape (N, 3)")
    # NaN would pass both the quadric and the margin comparisons below
    if not np.all(np.isfinite(z)):
        raise NonFiniteValues("loop holds non-finite samples")
    with np.errstate(over="ignore", invalid="ignore"):
        nz2 = np.sum(np.abs(z) ** 2, axis=1)
        res = null_residual(z)
    # a huge finite sample squares to inf, and the quadric test's inf / inf
    # would pass as NaN
    if not (np.isfinite(nz2.max()) and np.isfinite(res.max())):
        raise NonFiniteValues("loop samples square beyond the float range")
    if np.any(nz2 == 0.0):
        raise ZeroPoint("loop passes through the origin")
    if np.max(res / np.maximum(1.0, nz2)) > TOL_NULL:
        raise NotOnQuadric("loop leaves the quadric beyond tolerance")
    return _lift_loop(z)[2]
