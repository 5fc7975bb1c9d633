"""Curvature-labelled trigonometry.

The cosine/sine pair of a real "curvature" label kappa interpolates the
circular (kappa > 0), parabolic (kappa = 0) and hyperbolic (kappa < 0)
families in a single smooth parametrization:

    ck(kappa, x) = cos(sqrt(kappa) x)   | 1 | cosh(sqrt(-kappa) x)
    sk(kappa, x) = sin(sqrt(kappa) x) / sqrt(kappa) | x | sinh(sqrt(-kappa) x) / sqrt(-kappa)

Both are entire functions of kappa * x**2 (times x for sk), which is what
makes the contraction kappa -> 0 non-singular.  ck_array, sk_array and
kinv_array evaluate them over arrays for one scalar label: where a
hyperbolic value overflows a double the element is infinite, at an infinite
circular angle it is nan, and kinv_array returns beside its values the mask
of the elements off the curve or on the far branch.  ck, sk and kinv are
those array forms at one point plus a raise where the element fails:
ChartDomainError for ck and sk, OffCurveError for kinv.

A map that other modules evaluate at many points at once is written once,
over steps: ck, sk, tk, vk, kinv, each(form, rows) for k inputs per point, and
fails(mask) for a domain test, which reads `if steps.fails(mask): raise`.
This module is the raising set of steps, for one point: the first step
that fails raises, from its own raise site, and a message formats numpy
scalars as floats.  A _Flag is the flagging set, for a stack of points: it
runs the array forms and ORs into its mask `bad` the points where a step
would raise; its fails() returns False, so it raises and formats nothing.
A map called with a _Flag is its stack form.

The graded contractions put labels where stacked arithmetic overflows:
there a value is inf or nan, which a step flags or a defect fails, and
numpy warns of nothing.  quiet() is that floating-point policy, stated
once: numpy's overflow, invalid-value and divide-by-zero warnings off.
Only the entry points hold it: the array forms and one-point steps here,
each public function of the package whose transcription can warn,
checks._reduce and cli.main.  A transcription over steps states none, so
a caller that calls one directly holds quiet() around it.

Bit identity with libm decides which function an array form calls.
Elementwise arithmetic, np.sqrt, np.cos and np.sin round like Python
floats, math.sqrt, math.cos and math.sin, so the array forms use them
directly.  np.cosh, np.sinh, np.arcsinh and np.arctan2 differ from libm in
the last place on a share of inputs, so the array forms map math.cosh,
math.sinh, math.asinh and math.atan2 over the elements instead.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .errors import ChartDomainError, OffCurveError, PoleError

# Below this |kappa| the sqrt-based closed forms are replaced by a 4-term
# Taylor expansion in kappa; at the cutoff the truncation error is
# ~ (kappa x^2)^4 / 8! which is far below double precision for |x| <~ 10.
TAYLOR_CUTOFF = 1e-12

DEFAULT_POLE_TOL = 1e-12
DEFAULT_CURVE_TOL = 1e-8


def _cosh_or_inf(v: float) -> float:
    try:
        return math.cosh(v)
    except OverflowError:
        return math.inf


def _sinh_or_inf(v: float) -> float:
    try:
        return math.sinh(v)
    except OverflowError:
        return math.copysign(math.inf, v)


# math functions mapped over arrays; see the module docstring
_cosh = np.frompyfunc(_cosh_or_inf, 1, 1)
_sinh = np.frompyfunc(_sinh_or_inf, 1, 1)
_atan2 = np.frompyfunc(math.atan2, 2, 1)
_asinh = np.frompyfunc(math.asinh, 1, 1)


def _fails(kappa: float, x, values: np.ndarray) -> np.ndarray | bool:
    """The mask of the elements where ck or sk raises, from x and the array
    form's values at x; False for a label of the Taylor branch."""
    if kappa <= -TAYLOR_CUTOFF:  # a hyperbolic value overflows
        return np.isinf(values)
    if kappa >= TAYLOR_CUTOFF:  # a circular angle is infinite
        return np.isinf(math.sqrt(kappa) * x)
    return False


def quiet() -> np.errstate:
    """The package's floating-point policy, a fresh np.errstate each call
    (numpy enters one instance once): overflow, invalid-value and
    divide-by-zero warnings off.  See the module docstring."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _at_point(name: str, form: Callable, kappa: float, x) -> float:
    """form(kappa, x) at one point, raising where _fails flags it."""
    with quiet():
        value = form(kappa, x)
        if _fails(kappa, x, value):
            why = "has an infinite angle" if kappa > 0.0 else "overflows a double"
            raise ChartDomainError(f"{name}({kappa!r}, {float(x)!r}) {why}")
    return float(value)


def ck(kappa: float, x: float) -> float:
    """Generalized cosine of x at curvature kappa."""
    return _at_point("ck", ck_array, kappa, x)


def sk(kappa: float, x: float) -> float:
    """Generalized sine of x at curvature kappa (odd in x, sk ~ x near 0)."""
    return _at_point("sk", sk_array, kappa, x)


@quiet()
def ck_array(kappa: float, x) -> np.ndarray:
    """ck(kappa, x) for every element of the array x."""
    x = np.asarray(x, dtype=float)
    if abs(kappa) < TAYLOR_CUTOFF:
        x2 = x * x
        return 1.0 + kappa * x2 * (-0.5 + kappa * x2 * (1.0 / 24.0 - kappa * x2 / 720.0))
    if kappa > 0.0:
        return np.cos(math.sqrt(kappa) * x)
    return np.asarray(_cosh(math.sqrt(-kappa) * x), dtype=float)


@quiet()
def sk_array(kappa: float, x) -> np.ndarray:
    """sk(kappa, x) for every element of the array x."""
    x = np.asarray(x, dtype=float)
    if abs(kappa) < TAYLOR_CUTOFF:
        x2 = x * x
        return x * (1.0 + kappa * x2 * (-1.0 / 6.0 + kappa * x2 * (1.0 / 120.0 - kappa * x2 / 5040.0)))
    if kappa > 0.0:
        rk = math.sqrt(kappa)
        return np.sin(rk * x) / rk
    rk = math.sqrt(-kappa)
    # the quotient can overflow where sinh does not, when -kappa < 1
    return np.asarray(_sinh(rk * x), dtype=float) / rk


def tk(kappa: float, x: float) -> float:
    """Generalized tangent sk/ck.  Raises PoleError within DEFAULT_POLE_TOL of a pole."""
    return _tk(kappa, x, sys.modules[__name__])


def _tk(kappa: float, x, steps):
    """tk through steps: the tk step of both sets."""
    c = steps.ck(kappa, x)
    if steps.fails(abs(c) < DEFAULT_POLE_TOL):
        raise PoleError(
            f"tk({kappa!r}, {float(x)!r}): cosine factor {c!r} is inside the pole tolerance {DEFAULT_POLE_TOL!r}"
        )
    return steps.sk(kappa, x) / c


def vk(kappa: float, x: float) -> float:
    """Generalized versine (1 - ck(kappa, x)) / kappa, equal to x**2/2 at kappa = 0.

    Evaluated through the half-argument identity 1 - ck(x) = 2 kappa sk(x/2)**2,
    which has no cancellation for small kappa * x**2.
    """
    return _vk(kappa, x, sys.modules[__name__])


def _vk(kappa: float, x, steps):
    """vk through steps: the vk step of both sets."""
    h = steps.sk(kappa, 0.5 * x)
    return 2.0 * h * h


def half_period(kappa: float) -> float:
    """Half-width pi/sqrt(kappa) of the principal domain; inf when kappa <= 0."""
    if kappa > TAYLOR_CUTOFF:
        return math.pi / math.sqrt(kappa)
    return math.inf


def span_bound(kappa: float, span: float) -> float:
    """Half-width of a coordinate window along a direction of label kappa:
    span is a fraction of the half period of a compact direction and of 2
    units of an unbounded one."""
    return span * half_period(kappa) if kappa > TAYLOR_CUTOFF else 2.0 * span


def kinv(kappa: float, s: float, c: float) -> float:
    """Inverse of the pair x -> (sk, ck): the unique x with sk(kappa, x) = s
    and ck(kappa, x) = c in the principal domain.

    The pair must lie on the curve c**2 + kappa * s**2 = 1 within DEFAULT_CURVE_TOL,
    and on the connected branch through (c, s) = (1, 0); otherwise
    OffCurveError.  Principal domain is (-pi/sqrt(kappa), pi/sqrt(kappa)]
    for kappa > 0 (ties at c = -1 resolve to +pi/sqrt(kappa)) and all of
    the reals otherwise.
    """
    x, bad = kinv_array(kappa, s, c)
    if bad:
        deviation = abs(c * c + kappa * s * s - 1.0)
        if deviation > DEFAULT_CURVE_TOL:
            raise OffCurveError(
                f"kinv({kappa!r}): pair (c={float(c)!r}, s={float(s)!r}) misses the unit curve by {deviation:.3e}"
            )
        raise OffCurveError(f"kinv({kappa!r}): c={float(c)!r} lies on the branch not connected to the identity")
    return float(x)


@quiet()
def kinv_array(kappa: float, s, c) -> tuple[np.ndarray, np.ndarray]:
    """kinv(kappa, s, c) for every element of the arrays s and c, of one
    shape, and the mask of the elements where kinv raises."""
    s = np.asarray(s, dtype=float)
    c = np.asarray(c, dtype=float)
    bad = np.abs(c * c + kappa * s * s - 1.0) > DEFAULT_CURVE_TOL
    if kappa > TAYLOR_CUTOFF:
        rk = math.sqrt(kappa)
        x = np.asarray(_atan2(rk * s, c), dtype=float) / rk
        # atan2 would give -pi for s = -0.0: pin the antipode to +pi, for s = +0.0 and -0.0 alike
        return np.where(s == 0.0, np.where(c < 0.0, math.pi / rk, 0.0), x), bad
    bad |= c < 0.0
    if abs(kappa) <= TAYLOR_CUTOFF:
        return s.copy(), bad
    rk = math.sqrt(-kappa)
    return np.asarray(_asinh(rk * s), dtype=float) / rk, bad


class _Flag:
    """The steps of a stack form over arrays: each ORs into bad, an array of
    the stack's shape, the rows where the raising step raises."""

    def __init__(self, shape: tuple[int, ...]):
        self.bad = np.zeros(shape, dtype=bool)

    def fails(self, mask) -> bool:
        self.bad |= mask
        return False

    def ck(self, kappa: float, x) -> np.ndarray:
        values = ck_array(kappa, x)
        self.bad |= _fails(kappa, x, values)
        return values

    def sk(self, kappa: float, x) -> np.ndarray:
        values = sk_array(kappa, x)
        self.bad |= _fails(kappa, x, values)
        return values

    def kinv(self, kappa: float, s, c) -> np.ndarray:
        x, bad = kinv_array(kappa, s, c)
        self.bad |= bad
        return x

    def tk(self, kappa: float, x) -> np.ndarray:
        return _tk(kappa, np.asarray(x, dtype=float), self)

    def vk(self, kappa: float, x) -> np.ndarray:
        return _vk(kappa, np.asarray(x, dtype=float), self)

    def each(self, form: Callable, rows: np.ndarray) -> np.ndarray:
        """form(rows, steps) for a stack rows of k inputs per point, shape
        (k, *bad.shape, ...): a point is flagged where any of its k is."""
        each = _Flag(rows.shape[: self.bad.ndim + 1])
        values = form(rows, each)
        self.bad |= each.bad.any(axis=0)
        return values


def fails(mask):
    """A domain test at one point, through the raising steps: the caller
    raises where mask is true."""
    return mask


def each(form: Callable, rows: np.ndarray) -> np.ndarray:
    """form(row, steps) for each row of rows in turn, through this module's
    raising steps, stacked."""
    return np.stack([form(row, sys.modules[__name__]) for row in rows])
