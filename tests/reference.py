"""The paper's closure definitions, kept as the tests' reference.

Every run solves on node-value tables (``SeedSystem.tables``,
``diskbasis.basis_table``, ``FourierHarmonicField.at_nodes``) and one SVD.
This module keeps the definitions those tables are checked against, in the
form the paper states them: fields as closures with a linear structure,
the eps-inner product (A u, A v) + eps (u, v), the boundary form h,
Gram-Schmidt, the defining function delta of the data arc and the seeds
delta * P, the exact mixed data of a K_0 source outside the disk, the exact
norm of the Cauchy-Riemann pole datum 1/(z - z0) and, for the abstract
engine, the minimal-norm solution, the kernel orthogonality of u_eps and a
50-digit solve of the normal equations.
Only the tests import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from epsreg.core import DiscreteOperator, PerturbedSolution, _as_vector
from epsreg.diskbasis import DiracOperatorKind
from epsreg.errors import InputError, NumericError
from epsreg.variational import (
    ArcSpec,
    DiskQuadrature,
    Field,
    LinearCombination,
    _sigma,
    conormal_values,
)

# ---------------------------------------------------------------------------
# Field algebra
# ---------------------------------------------------------------------------


class _Algebra:
    """Linear structure; combinations flatten into a single ``Combination``."""

    def _atoms(self):
        return [(1.0, self)]

    def __add__(self, other):
        return Combination.from_atoms(self._atoms() + other._atoms())

    def __sub__(self, other):
        return Combination.from_atoms(self._atoms() + [(-c, a) for c, a in other._atoms()])

    def __mul__(self, scalar):
        return Combination.from_atoms([(scalar * c, a) for c, a in self._atoms()])

    __rmul__ = __mul__


class AlgebraField(_Algebra, Field):
    """A ``Field`` that can be added, subtracted and scaled."""


class Combination(_Algebra, LinearCombination):
    """A ``LinearCombination`` that can be added, subtracted and scaled."""

    @classmethod
    def from_atoms(cls, pairs):
        return cls([c for c, _ in pairs], [a for _, a in pairs])

    def _atoms(self):
        return [(c, a) for c, a in zip(self.coeffs, self.atoms)]


def wrap(obj) -> Field:
    """``Field.wrap`` with the linear structure (e.g. of a BasisFunction)."""
    field = Field.wrap(obj)
    if isinstance(field, _Algebra):
        return field
    return AlgebraField(field.value_xy, field.gradient_xy)


def constant(c) -> AlgebraField:
    def value(x, y):
        return np.full(np.broadcast(x, y).shape, c)

    def gradient(x, y):
        zero = np.zeros(np.broadcast(x, y).shape)
        return zero, zero

    return AlgebraField(value, gradient)


def monomial(px: int, py: int) -> AlgebraField:
    def value(x, y):
        return x**px * y**py

    def gradient(x, y):
        shape = np.broadcast(x, y).shape
        ux = px * x ** (px - 1) * y**py if px > 0 else np.zeros(shape)
        uy = py * x**px * y ** (py - 1) if py > 0 else np.zeros(shape)
        return ux, uy

    return AlgebraField(value, gradient)


# ---------------------------------------------------------------------------
# Inner products and boundary forms
# ---------------------------------------------------------------------------


def pair_outputs(op: DiracOperatorKind, g1, g2):
    """Pointwise fiber inner product (g1, g2)_F, conjugating g2."""
    if op is DiracOperatorKind.GRADIENT:
        return np.sum(g1 * np.conj(g2), axis=0)
    return g1 * np.conj(g2)


def inner_l2(u, v, quad: DiskQuadrature):
    """(u, v)_{L^2(D)}, conjugating the second argument."""
    uu = Field.wrap(u).value_xy(quad.x, quad.y)
    vv = Field.wrap(v).value_xy(quad.x, quad.y)
    return quad.integrate(uu * np.conj(vv))


def inner_energy(u, v, op: DiracOperatorKind, quad: DiskQuadrature):
    """(A u, A v)_{L^2(D)}."""
    au = op.apply_gradient(*Field.wrap(u).gradient_xy(quad.x, quad.y))
    av = op.apply_gradient(*Field.wrap(v).gradient_xy(quad.x, quad.y))
    return quad.integrate(pair_outputs(op, au, av))


def inner_eps(u, v, op: DiracOperatorKind, epsilon: float, quad: DiskQuadrature):
    """(u, v)_eps = (A u, A v) + eps (u, v)."""
    if not epsilon > 0.0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    value = inner_energy(u, v, op, quad) + epsilon * inner_l2(u, v, quad)
    if not np.isfinite(complex(value)):
        raise NumericError("non-finite field values in inner product")
    return value


def trace_values(u, phi):
    """Boundary trace t(u) at angles phi on the unit circle."""
    phi = np.asarray(phi, dtype=float)
    return Field.wrap(u).value_xy(np.cos(phi), np.sin(phi))


def boundary_form_h(u, v, op: DiracOperatorKind, arc: ArcSpec, n_phi: int = 256):
    """Boundary Hermitian form h(u, v) in arc-L^2 realization.

    h(u, v) = (t(u), t(v))_{Gamma} + (n(Au), n(Av))_{complement}, both
    terms plain arc-L^2 products computed by trapezoid quadrature.
    """
    total = 0.0 + 0.0j if op.is_complex else 0.0
    g_phi, g_w = arc.quadrature(n_phi)
    if g_phi.size:
        total = total + np.sum(g_w * trace_values(u, g_phi) * np.conj(trace_values(v, g_phi)))
    c_phi, c_w = arc.complement_quadrature(n_phi)
    if c_phi.size:
        nu = conormal_values(op, u, c_phi)
        nv = conormal_values(op, v, c_phi)
        total = total + np.sum(c_w * nu * np.conj(nv))
    return total


# ---------------------------------------------------------------------------
# Gram-Schmidt
# ---------------------------------------------------------------------------


@dataclass
class GramSchmidtResult:
    """Orthonormal system plus the triangular expansion of the inputs.

    ``coefficients[j, k]`` is the component of input k on output j, so
    input_k = sum_j coefficients[j, k] * basis_j up to dropped directions.
    """

    basis: list
    coefficients: np.ndarray
    dropped: list


def gram_schmidt(vectors: Sequence, inner: Callable, drop_tol: float = 1e-10) -> GramSchmidtResult:
    """Modified Gram-Schmidt with one reorthogonalization pass.

    Works on anything with +, - and scalar multiplication (numpy arrays,
    ``wrap``-ped fields).  ``inner(u, v)`` must be a sesquilinear product
    conjugating its second argument.  Inputs whose norm collapses below
    ``drop_tol`` times their original norm are dropped and reported.
    """
    items = list(vectors)
    basis: list = []
    dropped: list = []
    coeff_cols = []
    for k, item in enumerate(items):
        work = item
        norm0 = math.sqrt(max(float(np.real(inner(work, work))), 0.0))
        column = np.zeros(len(items), dtype=complex)
        for _ in range(2):
            for j, e in enumerate(basis):
                proj = inner(work, e)
                work = work - proj * e
                column[j] += proj
        norm = math.sqrt(max(float(np.real(inner(work, work))), 0.0))
        if norm0 == 0.0 or norm <= drop_tol * norm0:
            dropped.append(k)
            coeff_cols.append(column)
            continue
        basis.append((1.0 / norm) * work)
        column[len(basis) - 1] = norm
        coeff_cols.append(column)
    coefficients = np.array(coeff_cols).T[: len(basis), :] if items else np.zeros((0, 0))
    if not any(np.iscomplexobj(np.asarray(c)) and np.any(np.abs(np.imag(c)) > 0) for c in coeff_cols):
        coefficients = coefficients.real
    return GramSchmidtResult(basis=basis, coefficients=coefficients, dropped=dropped)


# ---------------------------------------------------------------------------
# Seeds as closures
# ---------------------------------------------------------------------------


def _delta_nodes(arc: ArcSpec, x, y):
    """delta = 1 - r^2 + r^2 sigma(phi) and its Cartesian gradient at (x, y)."""
    s, ds = _sigma(arc, np.arctan2(y, x))
    r2 = x * x + y * y
    value = 1.0 - r2 + r2 * s
    gx = -2.0 * x + 2.0 * x * s - y * ds
    gy = -2.0 * y + 2.0 * y * s + x * ds
    return value, gx, gy


def defining_function(arc: ArcSpec) -> AlgebraField:
    """Smooth nonnegative field vanishing exactly on Gamma.

    delta = 1 - r^2 + r^2 sigma(phi) (see ``_delta_nodes``): zero on Gamma,
    positive elsewhere on the boundary and throughout the open disk.
    """
    return AlgebraField(
        lambda x, y: _delta_nodes(arc, x, y)[0],
        lambda x, y: _delta_nodes(arc, x, y)[1:],
    )


def _product_field(a: Field, b: Field) -> AlgebraField:
    """a * b with the product-rule gradient."""
    def value(x, y):
        return a.value_xy(x, y) * b.value_xy(x, y)

    def gradient(x, y):
        av, bv = a.value_xy(x, y), b.value_xy(x, y)
        ax, ay = a.gradient_xy(x, y)
        bx, by = b.gradient_xy(x, y)
        return ax * bv + av * bx, ay * bv + av * by

    return AlgebraField(value, gradient)


def seed_fields(seeds) -> list:
    """The seeds of a ``SeedSystem`` as closures: the reference for its ``tables``."""
    delta = defining_function(seeds.arc)
    return [_product_field(delta, monomial(px, py)) for px, py in seeds.exponents]


# ---------------------------------------------------------------------------
# Exact mixed data
# ---------------------------------------------------------------------------


def k0_source(epsilon: float, x0) -> AlgebraField:
    """u = K_0(sqrt(eps) |x - x0|) with its gradient -sqrt(eps) K_1(sqrt(eps) rho) (x - x0) / rho.

    For |x0| > 1 the source lies outside the closed disk, so u solves
    (-Laplace + eps) u = 0 there for every eps, with full angular content on
    the circle: the mixed problem with u's own data (``k0_mixed_data``) has
    the solution u.
    """
    import scipy.special

    root = math.sqrt(epsilon)
    ax, ay = x0
    if not math.hypot(ax, ay) > 1.0:
        raise InputError(f"the source must lie outside the closed unit disk, got x0 = {x0}")

    def value(x, y):
        return scipy.special.k0(root * np.hypot(x - ax, y - ay))

    def gradient(x, y):
        dx, dy = x - ax, y - ay
        rho = np.hypot(dx, dy)
        slope = -root * scipy.special.k1(root * rho) / rho
        return slope * dx, slope * dy

    return AlgebraField(value, gradient)


def k0_mixed_data(op: DiracOperatorKind, epsilon: float, x0):
    """(u0, u1) of ``k0_source``: its trace t(u) and its conormal trace n(A u) on the circle."""
    u = k0_source(epsilon, x0)
    return (lambda phi: trace_values(u, phi)), (lambda phi: conormal_values(op, u, phi))


# ---------------------------------------------------------------------------
# Abstract engine
# ---------------------------------------------------------------------------


def cr_pole_norm(z0: complex) -> float:
    """L^2 norm over the unit disk of 1/(z - z0) for |z0| > 1: sqrt(-pi ln(1 - |z0|^-2)).

    Outside the closed disk a pole leaves 1/(z - z0) holomorphic on it, so
    the Cauchy problem for d1 + i d2 with that trace on any arc is solvable,
    and its solution has this norm: 1/(z - z0) = -sum_n z^n / z0^(n+1), and
    the z^n are orthogonal with ||z^n||^2 = pi / (n + 1).
    """
    ratio = abs(z0) ** -2
    if not ratio < 1.0:
        raise InputError(f"the pole must lie outside the closed unit disk, got |z0| = {abs(z0):g}")
    return math.sqrt(-math.pi * math.log1p(-ratio))


def minimal_norm_solution(T: DiscreteOperator, f, rank_tol: float = 1e-12, range_tol: float = 1e-9):
    """Minimal-norm least-squares solution of T u = f via SVD, or None.

    Singular values below ``rank_tol * sigma_max`` are treated as zero.
    Returns None when the projection of ``f`` outside the numerical range
    of T is larger than ``range_tol * (1 + ||f||)``, i.e. the equation has
    no solution.
    """
    fv = _as_vector(f, T.cod_dim, "f")
    u_svd, sigma, vh = np.linalg.svd(T.matrix, full_matrices=False)
    cutoff = rank_tol * sigma[0]
    inv = np.zeros_like(sigma)
    keep = sigma > cutoff
    inv[keep] = 1.0 / sigma[keep]
    solution = vh.conj().T @ (inv * (u_svd.conj().T @ fv))
    defect = float(np.linalg.norm(T.matrix @ solution - fv))
    if defect > range_tol * (1.0 + float(np.linalg.norm(fv))):
        return None
    return solution


def graded_operator(rng, rows: int, cols: int, decades: float) -> np.ndarray:
    """Q1[:, :k] diag(logspace(0, -decades, k)) Q2[:, :k]^T with random orthogonal Q1, Q2."""
    k = min(rows, cols)
    q1, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    q2, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    return q1[:, :k] @ np.diag(np.logspace(0, -decades, k)) @ q2[:, :k].T


def perturbed_solution_mp(matrix, f, h, epsilon: float, dps: int = 50) -> np.ndarray:
    """u of (T*T + eps I) u = T* f + eps h by an LU solve in ``dps``-digit arithmetic.

    The double entries convert exactly, so the reference errs by about
    10**-dps ||T||^2 / eps relative: 50 digits serve every eps down to 1e-30
    for ||T|| near 1, and a smaller eps needs more digits.
    """
    import mpmath

    with mpmath.workdps(dps):
        _, _, u = _normal_equation_mp(matrix, f, h, epsilon)
        return np.array([complex(x) for x in u])


def limit_residual_mp(matrix, f, h, epsilon: float, dps: int = 50) -> float:
    """||T u - f|| for the u of ``perturbed_solution_mp``, formed in ``dps``-digit arithmetic."""
    import mpmath

    with mpmath.workdps(dps):
        T, f_mp, u = _normal_equation_mp(matrix, f, h, epsilon)
        return float(mpmath.norm(T * u - f_mp))


def _normal_equation_mp(matrix, f, h, epsilon: float):
    """(T, f, u) as mpmath matrices, u solving (T*T + eps I) u = T* f + eps h at the working dps."""
    import mpmath

    T = mpmath.matrix(np.asarray(matrix).tolist())
    f_mp = mpmath.matrix(np.asarray(f).tolist())
    eps = mpmath.mpf(float(epsilon))
    system = T.H * T + eps * mpmath.eye(T.cols)
    rhs = T.H * f_mp + eps * mpmath.matrix(np.asarray(h).tolist())
    return T, f_mp, mpmath.lu_solve(system, rhs)


def kernel_orthogonality_check(
    T: DiscreteOperator, sol: PerturbedSolution, kernel_basis
) -> float:
    """Max |(u_eps, v)| over a kernel basis of T.

    Each candidate kernel vector must satisfy ||T v|| <= 1e-10 ||v||.  The
    orthogonality statement holds only for solves with h = 0; enforcing
    that is the caller's convention.
    """
    worst = 0.0
    for k, v in enumerate(kernel_basis):
        vec = _as_vector(v, T.dom_dim, f"kernel vector {k}")
        vnorm = float(np.linalg.norm(vec))
        if vnorm == 0.0:
            continue
        if float(np.linalg.norm(T.matrix @ vec)) > 1e-10 * vnorm:
            raise InputError(f"vector {k} is not in the kernel of T")
        worst = max(worst, abs(complex(np.vdot(vec, sol.u))))
    return worst
