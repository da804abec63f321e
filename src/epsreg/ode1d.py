"""Closed-form 1D example: d/dx on an interval with datum at the left end.

The original problem ``u' = f on (a, b), u(a) = u0`` is well posed, with
solution ``u(x) = u0 + int_a^x f``.  Its perturbed mixed problem is

    u_eps'' - eps u_eps = f',   u_eps(a) = u0,   u_eps'(b) = f(b),

whose unique solution (k = sqrt(eps)) is

    u_eps(x) = u0 * cosh(k(b-x))/cosh(k(b-a))
             + int_a^x f(y) cosh(k(b-x)) cosh(k(y-a)) / cosh(k(b-a)) dy
             - int_x^b f(y) sinh(k(x-a)) sinh(k(b-y)) / cosh(k(b-a)) dy.

Both boundary conditions hold exactly by construction and u_eps converges
to u in C^1[a, b] as eps -> 0+ for continuous f.  All hyperbolic ratios
are evaluated in exponentially scaled form so large k(b-a) cannot
overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_simpson, quad

from .core import validate_schedule
from .errors import InputError

__all__ = [
    "Ode1dProblem",
    "ConvergenceRow",
    "exact_solution",
    "perturbed_solution",
    "convergence_report",
]

# Above this value of k*(b-a) the direct cosh/sinh quotients are replaced
# by exponentially scaled expressions.
_SCALED_SWITCH = 30.0


def _cdc(t, s):
    """cosh(t)/cosh(s) for |t| <= s, overflow-safe."""
    t = np.asarray(t, dtype=float)
    if s <= _SCALED_SWITCH:
        return np.cosh(t) / math.cosh(s)
    a = np.abs(t)
    return np.exp(a - s) * (1.0 + np.exp(-2.0 * a)) / (1.0 + math.exp(-2.0 * s))


def _sdc(t, s):
    """sinh(t)/cosh(s) for |t| <= s, overflow-safe."""
    t = np.asarray(t, dtype=float)
    if s <= _SCALED_SWITCH:
        return np.sinh(t) / math.cosh(s)
    a = np.abs(t)
    return np.sign(t) * np.exp(a - s) * (1.0 - np.exp(-2.0 * a)) / (1.0 + math.exp(-2.0 * s))


@dataclass(frozen=True)
class Ode1dProblem:
    """Interval (a, b), Cauchy datum u0 at a, right-hand side f.

    ``epsilon`` may be left None for operations that sweep a schedule.
    """

    a: float
    b: float
    u0: float
    f: Callable[[float], float]
    epsilon: Optional[float] = None

    def __post_init__(self):
        if not (self.b - self.a > 0.0):
            raise InputError(f"interval requires a < b, got ({self.a}, {self.b})")
        samples = np.linspace(self.a, self.b, 7)
        vals = np.array([self.f(float(x)) for x in samples], dtype=float)
        if not np.all(np.isfinite(vals)):
            raise InputError("right-hand side f is not finite on the interval")
        if self.epsilon is not None and not self.epsilon > 0.0:
            raise InputError(f"epsilon must be positive, got {self.epsilon}")

    def _require_inside(self, x: float) -> float:
        if not (self.a - 1e-12 <= x <= self.b + 1e-12):
            raise InputError(f"x = {x} outside [{self.a}, {self.b}]")
        return float(min(max(x, self.a), self.b))


def exact_solution(p: Ode1dProblem, x: float) -> float:
    """u(x) = u0 + int_a^x f(y) dy by adaptive quadrature (abs err <= 1e-12)."""
    x = p._require_inside(x)
    integral, _ = quad(p.f, p.a, x, epsabs=1e-13, epsrel=1e-13, limit=200)
    return p.u0 + integral


def perturbed_solution(p: Ode1dProblem, x: float):
    """Value and derivative of the perturbed mixed-problem solution.

    Returns
    -------
    (value, derivative) : tuple of float
        ``u_eps(x)`` and ``u_eps'(x)``; the derivative comes from
        differentiating under the integral sign, so ``u_eps'(b) = f(b)``
        holds structurally.
    """
    if p.epsilon is None or not p.epsilon > 0.0:
        raise InputError("perturbed_solution requires a positive epsilon on the problem")
    x = p._require_inside(x)
    k = math.sqrt(p.epsilon)
    s = k * (p.b - p.a)

    def w1(y):
        # cosh(k(b-x)) cosh(k(y-a)) / cosh(s), y in [a, x]
        pp, qq = k * (p.b - x), k * (y - p.a)
        return 0.5 * (_cdc(pp + qq, s) + _cdc(pp - qq, s)) * p.f(y)

    def w2(y):
        # sinh(k(x-a)) sinh(k(b-y)) / cosh(s), y in [x, b]
        pp, qq = k * (x - p.a), k * (p.b - y)
        return 0.5 * (_cdc(pp + qq, s) - _cdc(pp - qq, s)) * p.f(y)

    def v1(y):
        # sinh(k(b-x)) cosh(k(y-a)) / cosh(s)
        pp, qq = k * (p.b - x), k * (y - p.a)
        return 0.5 * (_sdc(pp + qq, s) + _sdc(pp - qq, s)) * p.f(y)

    def v2(y):
        # cosh(k(x-a)) sinh(k(b-y)) / cosh(s)
        pp, qq = k * (x - p.a), k * (p.b - y)
        return 0.5 * (_sdc(pp + qq, s) - _sdc(pp - qq, s)) * p.f(y)

    opts = dict(epsabs=1e-12, epsrel=1e-12, limit=200)
    a1 = quad(w1, p.a, x, **opts)[0]
    a2 = quad(w2, x, p.b, **opts)[0]
    b1 = quad(v1, p.a, x, **opts)[0]
    b2 = quad(v2, x, p.b, **opts)[0]

    value = p.u0 * float(_cdc(k * (p.b - x), s)) + a1 - a2
    deriv = p.f(x) - k * (b1 + b2) - p.u0 * k * float(_sdc(k * (p.b - x), s))
    return value, deriv


@dataclass(frozen=True)
class ConvergenceRow:
    epsilon: float
    c0_error: float
    c1_error: float


def _grid_solution(p: Ode1dProblem, epsilon: float, grid: np.ndarray, oversample: int = 8):
    """Vectorized u_eps and u_eps' on a uniform grid via cumulative Simpson.

    Used only when k(b-a) <= _SCALED_SWITCH, where the unscaled kernels
    cosh(k(y-a)) and sinh(k(b-y)) cannot overflow.
    """
    k = math.sqrt(epsilon)
    s = k * (p.b - p.a)
    fine = np.linspace(p.a, p.b, oversample * (grid.size - 1) + 1)
    fvals = np.array([p.f(float(t)) for t in fine])
    cosh_part = cumulative_simpson(fvals * np.cosh(k * (fine - p.a)), x=fine, initial=0.0)
    sinh_part = cumulative_simpson(fvals * np.sinh(k * (p.b - fine)), x=fine, initial=0.0)
    c_grid = cosh_part[::oversample]
    d_grid = sinh_part[-1] - sinh_part[::oversample]

    cdc_bx = _cdc(k * (p.b - grid), s)
    sdc_bx = _sdc(k * (p.b - grid), s)
    value = p.u0 * cdc_bx + cdc_bx * c_grid - _sdc(k * (grid - p.a), s) * d_grid
    fx = np.array([p.f(float(t)) for t in grid])
    deriv = fx - k * (sdc_bx * (p.u0 + c_grid) + _cdc(k * (grid - p.a), s) * d_grid)
    return value, deriv


def convergence_report(p: Ode1dProblem, schedule, grid_points: int = 1001):
    """Sup-norm C^0 and C^1 errors of u_eps against u along an eps schedule.

    Errors are measured on a uniform grid.  The exact derivative is f
    itself, so no differentiation of the exact solution is needed.
    """
    sched = validate_schedule(schedule)

    grid = np.linspace(p.a, p.b, grid_points)
    exact_vals = np.array([exact_solution(p, float(x)) for x in grid])
    exact_derivs = np.array([p.f(float(x)) for x in grid])

    rows = []
    for eps in sched:
        if math.sqrt(eps) * (p.b - p.a) <= _SCALED_SWITCH:
            vals, derivs = _grid_solution(p, float(eps), grid)
        else:
            pe = Ode1dProblem(p.a, p.b, p.u0, p.f, float(eps))
            pairs = [perturbed_solution(pe, float(x)) for x in grid]
            vals = np.array([v for v, _ in pairs])
            derivs = np.array([d for _, d in pairs])
        rows.append(
            ConvergenceRow(
                epsilon=float(eps),
                c0_error=float(np.max(np.abs(vals - exact_vals))),
                c1_error=float(np.max(np.abs(derivs - exact_derivs))),
            )
        )
    return rows
