"""Exception types shared across the package.

Every error raised on a domain violation derives from GeometryError so
callers can catch the whole family with one handler while still
distinguishing the individual conditions.

A stack form, which evaluates a map at many points at once, raises
nothing; it flags the points where the map raises (see ktrig).
"""


class GeometryError(Exception):
    """Base class for all domain errors raised by this package."""


class PoleError(GeometryError):
    """Generalized tangent evaluated at a pole of the cosine factor."""


class OffCurveError(GeometryError):
    """Cosine/sine pair does not lie on the unit curve of its curvature."""


class BadSpeedError(GeometryError):
    """Kinematical speed parameter c with no finite -1/c**2, such as c = 0, has no associated geometry."""


class UndefinedDualityError(GeometryError):
    """Duality applied to a curvature pair outside its validity domain."""


class ChartDomainError(GeometryError):
    """Point falls outside the domain of the requested coordinate chart."""


class OffSurfaceError(GeometryError):
    """Ambient triple does not satisfy the quadric constraint."""


class DeformationDomainError(GeometryError):
    """Deformation parameter outside the range where the deformed structure exists."""


class ConvergenceError(GeometryError):
    """Iterative routine exhausted its term budget before converging."""


class DegenerateMetricError(GeometryError):
    """Operation requires an invertible metric but the metric is degenerate."""


class ProjectionError(GeometryError):
    """Residual off the target subspace exceeded tolerance in a projection."""


class ConfigError(GeometryError):
    """Invalid configuration value passed to a report or sweep entry point."""
