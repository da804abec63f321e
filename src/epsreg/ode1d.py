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
are evaluated in exponentially scaled form, so no factor exceeds 1.
``perturbed_solution`` evaluates u_eps pointwise by adaptive quadrature
and is the reference; ``convergence_report`` evaluates it on a grid with
an exponentially fitted Simpson rule (Ixaru and Vanden Berghe, 2004).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .core import validate_schedule
from .errors import InputError

__all__ = [
    "Ode1dProblem",
    "ConvergenceRow",
    "exact_solution",
    "perturbed_solution",
    "convergence_report",
]

# Fine-grid panels per report-grid interval; even, so that every report
# point is the boundary of a Simpson pair.
_OVERSAMPLE = 8


def _cdc(t, s):
    """cosh(t)/cosh(s) for |t| <= s, overflow-safe."""
    a = np.abs(np.asarray(t, dtype=float))
    return np.exp(a - s) * (1.0 + np.exp(-2.0 * a)) / (1.0 + math.exp(-2.0 * s))


def _sdc(t, s):
    """sinh(t)/cosh(s) for |t| <= s, overflow-safe."""
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    return np.sign(t) * np.exp(a - s) * -np.expm1(-2.0 * a) / (1.0 + math.exp(-2.0 * s))


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


def _pair_weights(z):
    """(w0, w1, w2): int_0^2 g(v) e^{-zv} dv = w0 g(0) + w1 g(1) + w2 g(2) for quadratic g.

    From the moments J_n = int_0^2 v^n e^{-zv} dv: power series below
    z = 1/2, where the closed forms cancel.  Simpson's weights at z = 0.
    """
    if z < 0.5:
        terms = [(-2.0 * z) ** m / math.factorial(m) for m in range(20)]
        j0, j1, j2 = (2.0 ** (n + 1) * sum(c / (n + m + 1) for m, c in enumerate(terms))
                      for n in range(3))
    else:
        t, e = 1.0 / z, math.exp(-2.0 * z)
        j0 = t * (1.0 - e)
        j1 = t * (t - e * (t + 2.0))
        j2 = t * (2.0 * t * t - e * (2.0 * t * t + 4.0 * t + 4.0))
    return 0.5 * (j2 - 3.0 * j1 + 2.0 * j0), 2.0 * j1 - j2, 0.5 * (j2 - j1)


def _grid_solution(p: Ode1dProblem, epsilon: float, x: np.ndarray):
    """u_eps and u_eps' on the uniform grid ``x``, from a grid _OVERSAMPLE times finer.

    With F = int_a^x f e^{-k(x-y)}, G = int_x^b f e^{-k(y-x)}, P = int_a^x f e^{-k(y-a)},
    Q = int_a^x f e^{-k(b-y)}, N = 2 (1 + e^{-2s}), A = e^{-k(x-a)} (P(b) - e^{-s}(Q(b) - Q))
    and B = e^{-k(b-x)} (Q(b) + e^{-s} P), in which no factor exceeds 1:
      u_eps  = u0 cdc(k(b-x), s) + (F - G + A + B) / N
      u_eps' = f - k (F + G + A - B) / N - u0 k sdc(k(b-x), s)
    Per Simpson pair of the fine grid, ``fwd`` integrates f e^{-k(right-y)} and
    ``bwd`` f e^{-k(y-left)}; F and G are decaying recursions over them.
    """
    k = math.sqrt(epsilon)
    s = k * (p.b - p.a)
    fine = np.linspace(p.a, p.b, _OVERSAMPLE * (x.size - 1) + 1)
    fvals = np.array([p.f(float(t)) for t in fine], dtype=float)
    h = (p.b - p.a) / (fine.size - 1)
    w0, w1, w2 = _pair_weights(k * h)
    f0, f1, f2 = fvals[:-2:2], fvals[1::2], fvals[2::2]
    fwd = h * (w2 * f0 + w1 * f1 + w0 * f2)
    bwd = h * (w0 * f0 + w1 * f1 + w2 * f2)
    decay = math.exp(-2.0 * k * h)
    step, recur = _OVERSAMPLE // 2, (lambda acc, t: decay * acc + t)
    F = np.array(list(accumulate(fwd.tolist(), recur, initial=0.0)))[::step]
    G = np.array(list(accumulate(bwd[::-1].tolist(), recur, initial=0.0)))[::-1][::step]
    P = np.concatenate(([0.0], np.cumsum(np.exp(-k * (fine[:-2:2] - p.a)) * bwd)))[::step]
    Q = np.concatenate(([0.0], np.cumsum(np.exp(-k * (p.b - fine[2::2])) * fwd)))[::step]

    es, norm = math.exp(-s), 2.0 * (1.0 + math.exp(-2.0 * s))
    A = np.exp(-k * (x - p.a)) * (P[-1] - es * (Q[-1] - Q))
    B = np.exp(-k * (p.b - x)) * (Q[-1] + es * P)
    value = p.u0 * _cdc(k * (p.b - x), s) + (F - G + A + B) / norm
    deriv = fvals[::_OVERSAMPLE] - k * (F + G + A - B) / norm - p.u0 * k * _sdc(k * (p.b - x), s)
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
        vals, derivs = _grid_solution(p, float(eps), grid)
        c0, c1 = np.max(np.abs(vals - exact_vals)), np.max(np.abs(derivs - exact_derivs))
        rows.append(ConvergenceRow(float(eps), float(c0), float(c1)))
    return rows
