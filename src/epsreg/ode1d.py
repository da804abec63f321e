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
The report samples f once, on a grid ``_OVERSAMPLE`` times finer, for
every eps of the schedule; the decaying sums of the fitted rule come from
one doubling scan per direction, and the exact values ``u0 + int_a^x f``
from one cumulative Simpson rule over the same samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import check_epsilon, validate_schedule
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
    """Interval (a, b), Cauchy datum u0 at a, right-hand side f; eps is an argument.

    Owns the rules a < b (key 'b') and f finite on [a, b] (key 'f')."""

    a: float
    b: float
    u0: float
    f: Callable[[float], float]

    def __post_init__(self):
        if not (self.b - self.a > 0.0):
            raise InputError(f"interval requires a < b, got ({self.a}, {self.b})", key="b")
        samples = np.linspace(self.a, self.b, 7)
        # An f that overflows is refused below, not warned about.
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.fromiter(map(self.f, samples.tolist()), float, count=samples.size)
        if not np.all(np.isfinite(vals)):
            raise InputError("right-hand side f is not finite on the interval", key="f")

    def _require_inside(self, x: float) -> float:
        if not (self.a - 1e-12 <= x <= self.b + 1e-12):
            raise InputError(f"x = {x} outside [{self.a}, {self.b}]")
        return float(min(max(x, self.a), self.b))


def exact_solution(p: Ode1dProblem, x: float) -> float:
    """u(x) = u0 + int_a^x f(y) dy by adaptive quadrature (abs err <= 1e-12)."""
    from scipy.integrate import quad  # on first use: no disk or matrix run needs it

    x = p._require_inside(x)
    integral, _ = quad(p.f, p.a, x, epsabs=1e-13, epsrel=1e-13, limit=200)
    return p.u0 + integral


def perturbed_solution(p: Ode1dProblem, x: float, epsilon: float):
    """Value and derivative of the perturbed mixed-problem solution at eps.

    Returns
    -------
    (value, derivative) : tuple of float
        ``u_eps(x)`` and ``u_eps'(x)``; the derivative comes from
        differentiating under the integral sign, so ``u_eps'(b) = f(b)``
        holds structurally.  Both kernels integrate ``f(y) - f(x)``, and
        ``f(x)`` times their closed-form masses (``sdc(k(x-a), s) / k`` for
        the value, ``1 - cdc(k(x-a), s)`` for the derivative) is added, so
        no O(1/k) terms cancel to an O(1/eps) result.

    At large eps the derivative is less accurate than the value.  Away
    from b its ``-k (b1 + b2)`` is an O(1/k^3) sum of two O(1/k^2)
    integrals, each carrying the rounding of ``f(y) - f(x)``, about
    eps_mach |f(x)|, over a kernel of width 1/k; its relative error grows
    like eps_mach * eps.  With f = cos on (0, 1.5) the derivative is up to
    3.4e-6 off at eps 1e10 and 2.1e-4 at eps 1e12, while the value stays
    within 6.1e-11.  Pairing the two integrals at ``x -+ t`` does not help:
    the limit is the rounding of the differences, not the quadrature.
    """
    from scipy.integrate import quad

    k = math.sqrt(check_epsilon(epsilon))
    x = p._require_inside(x)
    s = k * (p.b - p.a)
    fx = p.f(x)

    def w1(y):
        # cosh(k(b-x)) cosh(k(y-a)) / cosh(s), y in [a, x]
        pp, qq = k * (p.b - x), k * (y - p.a)
        return 0.5 * (_cdc(pp + qq, s) + _cdc(pp - qq, s)) * (p.f(y) - fx)

    def w2(y):
        # sinh(k(x-a)) sinh(k(b-y)) / cosh(s), y in [x, b]
        pp, qq = k * (x - p.a), k * (p.b - y)
        return 0.5 * (_cdc(pp + qq, s) - _cdc(pp - qq, s)) * (p.f(y) - fx)

    def v1(y):
        # sinh(k(b-x)) cosh(k(y-a)) / cosh(s)
        pp, qq = k * (p.b - x), k * (y - p.a)
        return 0.5 * (_sdc(pp + qq, s) + _sdc(pp - qq, s)) * (p.f(y) - fx)

    def v2(y):
        # cosh(k(x-a)) sinh(k(b-y)) / cosh(s)
        pp, qq = k * (x - p.a), k * (p.b - y)
        return 0.5 * (_sdc(pp + qq, s) - _sdc(pp - qq, s)) * (p.f(y) - fx)

    # Breakpoints at x -+ 30/k keep kernels of width 1/k from falling
    # between quad's nodes; beyond them the kernels are below e^{-30}.
    opts = dict(epsabs=1e-12, epsrel=1e-12, limit=200)
    left = dict(opts, points=[x - 30.0 / k] if p.a < x - 30.0 / k else None)
    right = dict(opts, points=[x + 30.0 / k] if x + 30.0 / k < p.b else None)
    a1 = quad(w1, p.a, x, **left)[0]
    a2 = quad(w2, x, p.b, **right)[0]
    b1 = quad(v1, p.a, x, **left)[0]
    b2 = quad(v2, x, p.b, **right)[0]

    value = p.u0 * float(_cdc(k * (p.b - x), s)) + fx * float(_sdc(k * (x - p.a), s)) / k
    value += a1 - a2
    deriv = fx * float(_cdc(k * (x - p.a), s)) - k * (b1 + b2)
    deriv -= p.u0 * k * float(_sdc(k * (p.b - x), s))
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


def _fine_samples(p: Ode1dProblem, x: np.ndarray) -> np.ndarray:
    """f on the uniform grid _OVERSAMPLE times finer than ``x``."""
    fine = np.linspace(p.a, p.b, _OVERSAMPLE * (x.size - 1) + 1)
    return np.fromiter(map(p.f, fine.tolist()), float, count=fine.size)


def _decaying_sums(terms: np.ndarray, rate: float) -> np.ndarray:
    """S_0 = 0, S_m = e^{-rate} S_(m-1) + terms[m-1], as one array of m + 1 sums.

    A doubling scan (Blelloch, CMU-CS-90-190): after the step with shift d,
    ``s[i]`` holds the last 2d terms of S_i, so about log2(m) array steps
    replace m scalar ones.  ``rate >= 0``, so no factor exceeds 1 and none
    can overflow; each factor ``e^{-rate d}`` is taken directly, since
    squaring e^{-rate} eleven times for 4000 terms compounds its rounding.
    """
    s = np.concatenate(([0.0], terms))
    shift = 1
    while shift < s.size:
        s[shift:] = s[shift:] + math.exp(-rate * shift) * s[:-shift]
        shift *= 2
    return s


def _grid_solution(p: Ode1dProblem, epsilon: float, x: np.ndarray, fvals: np.ndarray):
    """u_eps and u_eps' on the uniform grid ``x``, from f sampled by ``_fine_samples``.

    With F = int_a^x f e^{-k(x-y)}, G = int_x^b f e^{-k(y-x)}, P = int_a^x f e^{-k(y-a)},
    Q = int_a^x f e^{-k(b-y)}, N = 2 (1 + e^{-2s}), A = e^{-k(x-a)} (P(b) - e^{-s}(Q(b) - Q))
    and B = e^{-k(b-x)} (Q(b) + e^{-s} P), in which no factor exceeds 1:
      u_eps  = u0 cdc(k(b-x), s) + (F - G + A + B) / N
      u_eps' = f - k (F + G + A - B) / N - u0 k sdc(k(b-x), s)
    Per Simpson pair of the fine grid, ``fwd`` integrates f e^{-k(right-y)} and
    ``bwd`` f e^{-k(y-left)}; F and G are decaying sums over them (``_decaying_sums``).
    """
    k = math.sqrt(epsilon)
    s = k * (p.b - p.a)
    fine = np.linspace(p.a, p.b, fvals.size)
    h = (p.b - p.a) / (fine.size - 1)
    w0, w1, w2 = _pair_weights(k * h)
    f0, f1, f2 = fvals[:-2:2], fvals[1::2], fvals[2::2]
    fwd = h * (w2 * f0 + w1 * f1 + w0 * f2)
    bwd = h * (w0 * f0 + w1 * f1 + w2 * f2)
    rate, step = 2.0 * k * h, _OVERSAMPLE // 2
    F = _decaying_sums(fwd, rate)[::step]
    G = _decaying_sums(bwd[::-1], rate)[::-1][::step]
    P = np.concatenate(([0.0], np.cumsum(np.exp(-k * (fine[:-2:2] - p.a)) * bwd)))[::step]
    Q = np.concatenate(([0.0], np.cumsum(np.exp(-k * (p.b - fine[2::2])) * fwd)))[::step]

    es, norm = math.exp(-s), 2.0 * (1.0 + math.exp(-2.0 * s))
    A = np.exp(-k * (x - p.a)) * (P[-1] - es * (Q[-1] - Q))
    B = np.exp(-k * (p.b - x)) * (Q[-1] + es * P)
    value = p.u0 * _cdc(k * (p.b - x), s) + (F - G + A + B) / norm
    deriv = fvals[::_OVERSAMPLE] - k * (F + G + A - B) / norm - p.u0 * k * _sdc(k * (p.b - x), s)
    return value, deriv


def _exact_on_grid(p: Ode1dProblem, fvals: np.ndarray) -> np.ndarray:
    """u = u0 + int_a^x f at the report grid, from f sampled by ``_fine_samples``.

    One cumulative composite Simpson rule over the fine samples; each
    report point closes ``_OVERSAMPLE // 2`` Simpson pairs.
    """
    h = (p.b - p.a) / (fvals.size - 1)
    pairs = (h / 3.0) * (fvals[:-2:2] + 4.0 * fvals[1::2] + fvals[2::2])
    return p.u0 + np.concatenate(([0.0], np.cumsum(pairs)))[:: _OVERSAMPLE // 2]


def convergence_report(p: Ode1dProblem, schedule, grid_points: int = 1001):
    """Sup-norm C^0 and C^1 errors of u_eps against u along an eps schedule.

    Errors are measured on a uniform grid of ``grid_points`` >= 2 points.
    ``f`` is sampled once, on the grid ``_OVERSAMPLE`` times finer, and
    every eps reuses the samples.  The exact derivative is f itself, read
    off the fine samples at the grid points (the same abscissae bit for
    bit), and the exact values ``u0 + int_a^x f`` are one cumulative
    composite Simpson rule over the same samples.
    """
    sched = validate_schedule(schedule)
    if not isinstance(grid_points, (int, np.integer)) or grid_points < 2:
        raise InputError(f"grid_points must be an integer >= 2, got {grid_points!r}")

    grid = np.linspace(p.a, p.b, grid_points)
    fvals = _fine_samples(p, grid)
    exact_vals, exact_derivs = _exact_on_grid(p, fvals), fvals[::_OVERSAMPLE]

    rows = []
    for eps in sched:
        vals, derivs = _grid_solution(p, float(eps), grid, fvals)
        c0, c1 = np.max(np.abs(vals - exact_vals)), np.max(np.abs(derivs - exact_derivs))
        rows.append(ConvergenceRow(float(eps), float(c0), float(c1)))
    return rows
