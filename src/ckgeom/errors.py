"""Exception types shared across the package.

Every error raised on a domain violation derives from GeometryError so
callers can catch the whole family with one handler while still
distinguishing the individual conditions.

A stack form, which evaluates a map at N points at once, raises nothing:
it returns its RowErrors, the GeometryError its scalar form raises at each
flagged row, built by the helpers below.
"""

from collections.abc import Callable, Iterator, Mapping

import numpy as np


class GeometryError(Exception):
    """Base class for all domain errors raised by this package."""


class PoleError(GeometryError):
    """Generalized tangent evaluated at a pole of the cosine factor."""


class OffCurveError(GeometryError):
    """Cosine/sine pair does not lie on the unit curve of its curvature."""


class BadSpeedError(GeometryError):
    """Kinematical speed parameter c = 0 has no associated geometry."""


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


class RowErrors(Mapping[int, GeometryError]):
    """The row errors of a stack form: the GeometryError of each flagged row,
    keyed by the row's index.  An error is built when it is looked up, from
    arrays the stack form holds on to, so a caller that only counts or masks
    the flagged rows formats no message."""

    def __init__(self, builders: dict[int, Callable[[int], GeometryError]]):
        self.builders = builders  # row -> the function of the row that builds its error

    def __getitem__(self, i: int) -> GeometryError:
        return self.builders[i](i)

    def __contains__(self, i: object) -> bool:
        return i in self.builders

    def __iter__(self) -> Iterator[int]:
        return iter(self.builders)

    def __len__(self) -> int:
        return len(self.builders)


def row_errors(mask, error: Callable[[int], GeometryError]) -> RowErrors:
    """error(i) at each flat index i where the boolean array mask is True."""
    return RowErrors(dict.fromkeys(np.asarray(mask).reshape(-1).nonzero()[0].tolist(), error))


def first_errors(*stages: RowErrors) -> RowErrors:
    """The row errors of stages in the order the scalar form runs them: at
    each row, the error of the first stage that flags it."""
    builders: dict[int, Callable[[int], GeometryError]] = {}
    for stage in reversed(stages):
        builders.update(stage.builders)
    return RowErrors(builders)


def point_errors(errors: RowErrors, n: int) -> RowErrors:
    """The row errors of a stack of blocks of n points each, per point: at
    each point, the error of its first flagged row."""
    return RowErrors({row % n: lambda _, row=row: errors[row] for row in sorted(errors, reverse=True)})
