"""Exception types shared across the library."""


class MinfluxError(Exception):
    """Base class for all library errors."""


class NotOnQuadric(MinfluxError):
    """A point claimed to lie on the null quadric does not, beyond tolerance."""


class ZeroPoint(MinfluxError):
    """The origin was passed where a point of the punctured quadric is required."""


class ZeroBase(MinfluxError):
    """Fiber construction requested over the zero vector."""


class UndersampledLoop(MinfluxError):
    """Sign continuation of a spinor lift is ambiguous at the given sampling."""


class InvalidPair(MinfluxError):
    """A conformal pair violates its pointwise invariants beyond tolerance."""


class NotImmersion(MinfluxError):
    """A closed path whose derivative vanishes somewhere."""


class RootNotFound(MinfluxError):
    """The zero-period solver failed even after the fallback grid search."""


class SegmentOverlap(MinfluxError):
    """Two circle segments required to be disjoint overlap."""


class NonflatViolated(MinfluxError):
    """A deformation failed to keep the required path nonflat after retries."""


class PerturbationFailed(MinfluxError):
    """Retried generic perturbations did not restore an immersion family."""


class EmptySegment(MinfluxError):
    """A circle segment of zero length was supplied."""


class DegenerateLoop(MinfluxError):
    """A loop is contained in a single complex ray on the control segment."""


class DominationFailed(MinfluxError):
    """The period Jacobian of a spray stayed rank deficient after retries."""


class ThirdComponentVanishes(MinfluxError):
    """The third loop component vanishes on a control segment."""


class ContinuationStalled(MinfluxError):
    """Parameter continuation could not advance below the minimal step."""


class LeftDomain(MinfluxError):
    """Control parameters left the trust ball during continuation."""


class GaussMapVanishes(MinfluxError):
    """The Gauss map is too small somewhere on the evaluation grid."""


class DegenerateDenominator(MinfluxError):
    """Gauss map extraction hit a near-vanishing denominator on the grid."""


class RealPeriodNonzero(MinfluxError):
    """Integration requested while some generator carries a real period."""


class UnknownName(MinfluxError):
    """No catalog entry under the requested name."""


class NoClearance(MinfluxError):
    """Excluded disks are too crowded for disjoint homology circles."""


class ApproximationBudgetExceeded(MinfluxError):
    """Holomorphic approximation could not reach tolerance at max degree."""


class VanishingOnDomain(MinfluxError):
    """A holomorphic extension acquired a zero on the evaluation grid."""


class FlatInput(MinfluxError):
    """A driver that needs a nonflat immersion received a flat one."""


class NoBandFound(MinfluxError):
    """No annulus band avoiding the zeros of the third component was found."""


class BandTooThin(MinfluxError):
    """The labyrinth resolution does not fit into the band width."""


class GaussMapTooSmall(MinfluxError):
    """No positive lower bound for the Gauss map modulus on the bands."""


class DisconnectedGraph(MinfluxError):
    """The metric graph does not connect the source to the boundary."""


class EstimateNotMet(MinfluxError):
    """A measured distance or density violates a required inequality."""


class NonFiniteValues(MinfluxError):
    """Data evaluated to inf or NaN where a check needs finite values."""


class ConfigError(MinfluxError):
    """A run configuration failed validation."""


class InvalidCore(ConfigError, ValueError):
    """The core of a completeness step is not an annulus around the homology
    circle inside the domain."""
