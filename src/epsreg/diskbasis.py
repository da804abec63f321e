"""Explicit solution basis on the unit disk for first-order Dirac operators.

For the two planar operators implemented here (the gradient and the
Cauchy-Riemann operator, both with ``A*A = -Laplace``), the functions

    b_i^(j)(r, phi) = I_i(sqrt(eps) r) * H_i^(j)(phi)

solve ``(-Laplace + eps) b = 0`` on the whole disk.  The angular factors
``H_i^(j)`` are orthogonal on the circle, with unit norm except the
Cauchy-Riemann factors ``e^{+-i i phi} / sqrt(pi)`` with ``i >= 1``, whose
squared norm is 2.  They are eigenfunctions of the boundary operator
``n o A`` with eigenvalue ``lambda_i^(j)``; the normal trace of ``A b``
therefore has the closed form

    n(A b_i^(j)) = (r g_i' + (lambda_i^(j) - i) g_i) * H_i^(j)

which at ``r = 1`` reads ``sqrt(eps) I_i'(sqrt(eps)) + (lambda - i)
I_i(sqrt(eps))`` times the angular factor.  That combination is strictly
positive for every ``eps > 0`` (otherwise b would vanish identically).

A ``BasisFunction`` is one mode ``(op, i, j, eps)``.  The solvers read the
modes as tables, one column per mode (``basis_table``, ``angular_table``,
``boundary_amplitudes``), each with the bits of its mode's ``BasisFunction``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_i, bessel_i_prime, check_disk_epsilon, check_order
from .core import check_epsilon
from .errors import InputError

__all__ = [
    "DiracOperatorKind",
    "BasisFunction",
    "enumerate_modes",
    "Field",
    "apply_operator",
    "check_helmholtz",
    "basis_table",
    "boundary_amplitudes",
    "check_mode",
    "nonvanishing_check",
    "symbol_defect",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)
_FD_STEP = 1e-5
_LAPLACE_STEPS = (1e-3, 5e-4)


class DiracOperatorKind(enum.Enum):
    """First-order constant-coefficient operator with sigma* sigma = |xi|^2 Id.

    GRADIENT maps real scalars to 2-component real fields (adjoint -div);
    CAUCHY_RIEMANN is d1 + i d2 on complex scalars (adjoint -d1 + i d2).
    """

    GRADIENT = "gradient"
    CAUCHY_RIEMANN = "cauchy_riemann"

    @property
    def is_complex(self) -> bool:
        return self is DiracOperatorKind.CAUCHY_RIEMANN

    def symbol(self, xi) -> np.ndarray:
        """Principal symbol sigma(A)(xi) as an (l x k) matrix."""
        x1, x2 = float(xi[0]), float(xi[1])
        if self is DiracOperatorKind.GRADIENT:
            return np.array([[x1], [x2]])
        return np.array([[complex(x1, x2)]])

    def apply_gradient(self, ux, uy):
        """A u from the Cartesian gradient components of u."""
        if self is DiracOperatorKind.GRADIENT:
            return np.stack([ux, uy])
        return ux + 1j * uy

    def eigenvalues(self, modes) -> np.ndarray:
        """Eigenvalues lambda_i^(j) of n o A on r^i H_i^(j), one per mode (i, j)."""
        orders, second = _mode_arrays(modes)
        return np.where(second, 2.0 * orders, 0.0) if self.is_complex else orders.astype(float)

    def angular_table(self, modes, phi):
        """H_i^(j)(phi) of every mode (i, j), shape phi.shape + (len(modes),).

        The factors are orthogonal over the modes on the circle.  H_0 =
        1 / sqrt(2 pi); the gradient factors cos(i phi) / sqrt(pi) (branch 1)
        and sin(i phi) / sqrt(pi) (branch 2) have unit norm, the
        Cauchy-Riemann factors e^{+-i i phi} / sqrt(pi) with i >= 1 squared
        norm 2.
        """
        orders, second = _mode_arrays(modes)
        phi = np.asarray(phi, dtype=float)[..., None]
        if self is DiracOperatorKind.GRADIENT:
            arg = orders * phi
            out = np.where(second, np.sin(arg), np.cos(arg))
            out /= _SQRT_PI
        else:
            out = np.exp(1j * np.where(second, -1.0, 1.0) * orders * phi) / _SQRT_PI
        out[..., orders == 0] = 1.0 / _SQRT_2PI
        return out

    def angular_derivative_table(self, modes, phi):
        """d/dphi of every angular factor, laid out as ``angular_table``."""
        orders, second = _mode_arrays(modes)
        phi = np.asarray(phi, dtype=float)[..., None]
        if self is DiracOperatorKind.GRADIENT:
            arg = orders * phi
            out = orders * np.where(second, np.cos(arg), -np.sin(arg))
            out /= _SQRT_PI
        else:
            factor = 1j * np.where(second, -1.0, 1.0) * orders
            out = factor * np.exp(factor * phi) / _SQRT_PI
        out[..., orders == 0] = 0.0
        return out


def check_mode(i: int, branch: int) -> None:
    """The mode rule, or InputError: i >= 0, branch 1 or 2, and mode 0 on branch 1 only."""
    if i < 0:
        raise InputError(f"mode index must be nonnegative, got {i}")
    if i == 0 and branch != 1:
        raise InputError("mode 0 carries a single angular branch")
    if branch not in (1, 2):
        raise InputError(f"angular branch must be 1 or 2, got {branch}")


def _mode_arrays(modes):
    """Orders and second-branch mask of a mode list, every mode validated."""
    for i, branch in modes:
        check_mode(i, branch)
    orders = np.array([i for i, _ in modes], dtype=int)
    return orders, np.array([branch == 2 for _, branch in modes], dtype=bool)


def enumerate_modes(i_max: int):
    """Mode list [(0,1), (1,1), (1,2), ...] up to index i_max.

    The counts per index are the planar ones: one function for i = 0 and
    two for every i >= 1.  i_max is a Bessel order, held to
    ``bessel.check_order``.
    """
    modes = [(0, 1)]
    for i in range(1, int(check_order(i_max)) + 1):
        modes.extend([(i, 1), (i, 2)])
    return modes


@dataclass(frozen=True)
class BasisFunction:
    """One mode (op, i, j, eps): b_i^(j)(r, phi) = I_i(sqrt(eps) r) * H_i^(j)(phi)."""

    operator: DiracOperatorKind
    index: int
    branch: int
    epsilon: float

    def __post_init__(self):
        check_order(self.index)
        check_disk_epsilon(self.epsilon)
        check_mode(self.index, self.branch)

    def value_polar(self, r, phi):
        radial = bessel_i(self.index, math.sqrt(self.epsilon) * np.asarray(r, dtype=float))
        return radial * self.operator.angular_table([(self.index, self.branch)], phi)[..., 0]

    def value_xy(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return self.value_polar(np.hypot(x, y), np.arctan2(y, x))

    def gradient_xy(self, x, y):
        """Cartesian gradient from the exact radial/angular derivatives."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        phi = np.arctan2(y, x)
        i, mode, root = self.index, [(self.index, self.branch)], math.sqrt(self.epsilon)
        g_prime = root * bessel_i_prime(i, root * r)
        h = self.operator.angular_table(mode, phi)[..., 0]
        h_prime = self.operator.angular_derivative_table(mode, phi)[..., 0]

        # g(r)/r with its limit at the origin: only i = 1 contributes there.
        safe_r = np.where(r > 1e-12, r, 1.0)
        ratio = np.where(r > 1e-12, bessel_i(i, root * r) / safe_r, 0.5 * root if i == 1 else 0.0)

        cos_p, sin_p = np.cos(phi), np.sin(phi)
        ux = cos_p * g_prime * h - sin_p * ratio * h_prime
        uy = sin_p * g_prime * h + cos_p * ratio * h_prime
        return ux, uy

    def normal_trace_values(self, phi):
        """n(A b) on the unit circle: closed form, no differentiation."""
        _, conormal = boundary_amplitudes(self.operator, [(self.index, self.branch)], self.epsilon)
        return conormal[0] * self.operator.angular_table([(self.index, self.branch)], phi)[..., 0]


class Field:
    """Scalar field on the disk: a vectorized value closure and, when
    available, an exact Cartesian gradient closure (else centered
    differences with step 1e-5).  ``wrap`` adapts any field argument."""

    def __init__(self, value, gradient=None):
        self._value = value
        self._gradient = gradient

    def value_xy(self, x, y):
        return self._value(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def gradient_xy(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self._gradient is not None:
            return self._gradient(x, y)
        h, value = _FD_STEP, self._value
        ux = (value(x + h, y) - value(x - h, y)) / (2.0 * h)
        uy = (value(x, y + h) - value(x, y - h)) / (2.0 * h)
        return ux, uy

    @staticmethod
    def wrap(obj) -> "Field":
        """The one field adapter: a Field as is, an object exposing value_xy
        (and optionally gradient_xy, e.g. a BasisFunction) or a plain
        vectorized callable of (x, y) as a Field."""
        if isinstance(obj, Field):
            return obj
        if hasattr(obj, "value_xy"):
            return Field(obj.value_xy, getattr(obj, "gradient_xy", None))
        if callable(obj):
            return Field(obj)
        raise InputError(f"cannot interpret {type(obj).__name__} as a field")


def apply_operator(op: DiracOperatorKind, u):
    """A u as an evaluable field of Cartesian coordinates.

    ``u`` may be a BasisFunction, any object exposing ``value_xy`` (and
    optionally ``gradient_xy``), or a plain vectorized callable of (x, y);
    closures without an exact gradient are differentiated by centered
    differences with step 1e-5 (see ``Field``).
    """
    grad = Field.wrap(u).gradient_xy

    def field(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(x * x + y * y > (1.0 + 1e-9) ** 2):
            raise InputError("operator field queried outside the closed unit disk")
        return op.apply_gradient(*grad(x, y))

    return field


def basis_table(op: DiracOperatorKind, modes, epsilon: float, x, y):
    """Values of every b_i^(j) at the Cartesian points (x, y), one column per mode.

    One Bessel table of the distinct orders on the radii times one angular
    table; column k holds the bits of the mode's ``BasisFunction.value_xy``.
    ``epsilon`` is held to ``bessel.check_disk_epsilon`` at every point.
    """
    check_disk_epsilon(epsilon)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    orders, inverse = np.unique(np.array([i for i, _ in modes], dtype=int), return_inverse=True)
    radial = bessel_i(orders, math.sqrt(epsilon) * np.hypot(x, y)[..., None])
    return radial[..., inverse] * op.angular_table(modes, np.arctan2(y, x))


def boundary_amplitudes(op: DiracOperatorKind, modes, epsilon: float):
    """Amplitudes of t(b) and n(A b) per mode (i, j), from one Bessel table at sqrt(eps).

    Arrays ``I_i(sqrt(eps))`` and ``sqrt(eps) I_i'(sqrt(eps)) + (lambda - i) I_i(sqrt(eps))``.
    """
    check_disk_epsilon(epsilon)
    orders = np.array([i for i, _ in modes], dtype=int)
    lam = op.eigenvalues(modes)
    root = math.sqrt(epsilon)
    x = np.full(orders.shape, root)
    trace = bessel_i(orders, x)
    return trace, root * bessel_i_prime(orders, x) + (lam - orders) * trace


def nonvanishing_check(op: DiracOperatorKind, i: int, branch: int, epsilon: float) -> float:
    """n(A b) amplitude of one mode at r = 1 (see boundary_amplitudes); positive for eps > 0."""
    return float(boundary_amplitudes(op, [(i, branch)], epsilon)[1][0])


def check_helmholtz(u, epsilon: float, sample_points) -> float | np.ndarray:
    """Max |(-Laplace + eps) u| over sample points by Richardson differences.

    The Laplacian is ``(4 L_{5e-4} - L_{1e-3}) / 3`` with ``L_h`` the
    5-point stencil of step h, which cancels the ``h^2 eps^2 / 12``
    truncation term of one stencil.  ``epsilon`` is 0 (the Laplacian
    alone) or passes ``core.check_epsilon``.  Points must lie in the annulus
    1e-3 <= r < 1.  ``u`` is anything ``Field.wrap`` adapts (a
    BasisFunction, a vectorized callable of Cartesian coordinates), called
    once on all stencil points; anything else raises InputError.  Its
    analytic formula is evaluated directly, so stencil arms may cross r = 1.  The
    result is one max per field: a numpy scalar for a single field, an
    array when the callable returns a trailing axis of several fields
    (``basis_table`` gives one column per mode).
    """
    if epsilon != 0.0:
        check_epsilon(epsilon)
    pts = np.asarray(sample_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InputError("sample_points must have shape (n, 2)")
    x, y = pts[:, 0], pts[:, 1]
    r = np.hypot(x, y)
    if np.any(r < 1e-3) or np.any(r >= 1.0):
        raise InputError("sample points must satisfy 1e-3 <= r < 1")
    value = Field.wrap(u).value_xy
    # Offsets dx + i dy: the center, then the four arms of each step.
    arms = np.array([0.0] + [h * d for h in _LAPLACE_STEPS for d in (1, -1, 1j, -1j)])
    vals = value(np.add.outer(arms.real, x).ravel(), np.add.outer(arms.imag, y).ravel())
    vals = vals.reshape(arms.size, x.size, *vals.shape[1:])
    coarse, fine = (
        (vals[1 + 4 * k : 5 + 4 * k].sum(axis=0) - 4.0 * vals[0]) / (h * h)
        for k, h in enumerate(_LAPLACE_STEPS)
    )
    return np.max(np.abs(-(4.0 * fine - coarse) / 3.0 + epsilon * vals[0]), axis=0)


def symbol_defect(op: DiracOperatorKind, xis) -> float:
    """Max entrywise defect of sigma(A)(xi)* sigma(A)(xi) - |xi|^2 Id."""
    worst = 0.0
    for xi in np.asarray(xis, dtype=float):
        sym = op.symbol(xi)
        defect = sym.conj().T @ sym - (xi[0] ** 2 + xi[1] ** 2) * np.eye(sym.shape[1])
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst
