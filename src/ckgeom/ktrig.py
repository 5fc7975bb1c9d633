"""Curvature-labelled trigonometry.

The cosine/sine pair of a real "curvature" label kappa interpolates the
circular (kappa > 0), parabolic (kappa = 0) and hyperbolic (kappa < 0)
families in a single smooth parametrization:

    ck(kappa, x) = cos(sqrt(kappa) x)   | 1 | cosh(sqrt(-kappa) x)
    sk(kappa, x) = sin(sqrt(kappa) x) / sqrt(kappa) | x | sinh(sqrt(-kappa) x) / sqrt(-kappa)

Both are entire functions of kappa * x**2 (times x for sk), which is what
makes the contraction kappa -> 0 non-singular.  The functions here take
scalars; ck_array and sk_array evaluate the pair over an array of x for one
scalar label and agree with ck and sk bit for bit element by element.
Where a hyperbolic value overflows a double, ck and sk raise
ChartDomainError and the array forms give an infinite element.
"""

from __future__ import annotations

import math

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


# np.cos and np.sin round like math.cos and math.sin, but np.cosh and
# np.sinh differ from libm in the last place on about a quarter of inputs,
# so the hyperbolic branch maps the math functions over the elements.
_cosh = np.frompyfunc(_cosh_or_inf, 1, 1)
_sinh = np.frompyfunc(_sinh_or_inf, 1, 1)


def ck(kappa: float, x: float) -> float:
    """Generalized cosine of x at curvature kappa."""
    if abs(kappa) < TAYLOR_CUTOFF:
        # plain arithmetic, so ck_array passes arrays through this branch
        x2 = x * x
        return 1.0 + kappa * x2 * (-0.5 + kappa * x2 * (1.0 / 24.0 - kappa * x2 / 720.0))
    if kappa > 0.0:
        return math.cos(math.sqrt(kappa) * x)
    v = _cosh_or_inf(math.sqrt(-kappa) * x)
    if math.isinf(v):
        raise ChartDomainError(f"ck({kappa!r}, {x!r}) overflows a double")
    return v


def sk(kappa: float, x: float) -> float:
    """Generalized sine of x at curvature kappa (odd in x, sk ~ x near 0)."""
    if abs(kappa) < TAYLOR_CUTOFF:
        # plain arithmetic, so sk_array passes arrays through this branch
        x2 = x * x
        return x * (1.0 + kappa * x2 * (-1.0 / 6.0 + kappa * x2 * (1.0 / 120.0 - kappa * x2 / 5040.0)))
    if kappa > 0.0:
        rk = math.sqrt(kappa)
        return math.sin(rk * x) / rk
    rk = math.sqrt(-kappa)
    # the quotient can overflow where sinh does not, when -kappa < 1
    v = _sinh_or_inf(rk * x) / rk
    if math.isinf(v):
        raise ChartDomainError(f"sk({kappa!r}, {x!r}) overflows a double")
    return v


def ck_array(kappa: float, x) -> np.ndarray:
    """ck(kappa, x) for every element of the array x."""
    x = np.asarray(x, dtype=float)
    if abs(kappa) < TAYLOR_CUTOFF:
        return ck(kappa, x)
    if kappa > 0.0:
        return np.cos(math.sqrt(kappa) * x)
    with np.errstate(over="ignore"):  # an overflowing element is inf, as documented
        return np.asarray(_cosh(math.sqrt(-kappa) * x), dtype=float)


def sk_array(kappa: float, x) -> np.ndarray:
    """sk(kappa, x) for every element of the array x."""
    x = np.asarray(x, dtype=float)
    if abs(kappa) < TAYLOR_CUTOFF:
        return sk(kappa, x)
    if kappa > 0.0:
        rk = math.sqrt(kappa)
        return np.sin(rk * x) / rk
    rk = math.sqrt(-kappa)
    with np.errstate(over="ignore"):  # an overflowing element is inf, as documented
        return np.asarray(_sinh(rk * x), dtype=float) / rk


def tk(kappa: float, x: float) -> float:
    """Generalized tangent sk/ck.  Raises PoleError within DEFAULT_POLE_TOL of a pole."""
    c = ck(kappa, x)
    if abs(c) < DEFAULT_POLE_TOL:
        raise PoleError(
            f"tk({kappa!r}, {x!r}): cosine factor {c!r} is inside the pole tolerance {DEFAULT_POLE_TOL!r}"
        )
    return sk(kappa, x) / c


def vk(kappa: float, x: float) -> float:
    """Generalized versine (1 - ck(kappa, x)) / kappa, equal to x**2/2 at kappa = 0.

    Evaluated through the half-argument identity 1 - ck(x) = 2 kappa sk(x/2)**2,
    which has no cancellation for small kappa * x**2.
    """
    h = sk(kappa, 0.5 * x)
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
    deviation = abs(c * c + kappa * s * s - 1.0)
    if deviation > DEFAULT_CURVE_TOL:
        raise OffCurveError(
            f"kinv({kappa!r}): pair (c={c!r}, s={s!r}) misses the unit curve by {deviation:.3e}"
        )
    if kappa > TAYLOR_CUTOFF:
        if s == 0.0:
            # atan2 would return -pi for s = -0.0; pin the antipode to +pi.
            return math.pi / math.sqrt(kappa) if c < 0.0 else 0.0
        return math.atan2(math.sqrt(kappa) * s, c) / math.sqrt(kappa)
    if c < 0.0:
        raise OffCurveError(
            f"kinv({kappa!r}): c={c!r} lies on the branch not connected to the identity"
        )
    if abs(kappa) <= TAYLOR_CUTOFF:
        return s
    rk = math.sqrt(-kappa)
    return math.asinh(rk * s) / rk
