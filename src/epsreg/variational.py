"""Variational machinery for the perturbed mixed problem on the unit disk.

Everything here realizes the weak formulation

    (A u, A v) + eps (u, v) = (f, A v) + eps (h, v)   for all v with
                                                      vanishing trace on Gamma

by quadrature: tensor Gauss-Legendre x trapezoid nodes on the disk, arc
trapezoid nodes on the boundary, trial spaces seeded by ``delta * P`` with
``delta`` a smooth function vanishing exactly on Gamma and ``P`` graded
monomials, and the explicit Fourier-coefficient solution formulas.  Each
seed and each component of its gradient is a sum of two radial x angular
products, so the seed Grams are sums of Hadamard products of radial Grams
on the n_r radii and angular Grams on the n_phi angles.  The seeds are held
only as these tables: projections of node data and node values of seed
combinations are contractions with them, never node matrices.  One generalized
eigenbasis of the energy and L^2 Grams, K^T w = lam M^T w, is orthonormal
under every eps-inner product at once after the scaling w / sqrt(lam + eps)
(``trial_space_for_epsilon``).  A whole eps schedule costs one factorization
and a diagonal scaling per eps (``SeedSystem.project``, ``.gains``; the same
solves as seed-coefficient columns are ``solve_perturbed_galerkin``, for
``--verify`` and the tests), and the residuals and L^2 distances of the whole
schedule come from one node-value column at its smallest eps plus exact
terms in eigen-coordinates (see ``SeedSystem``).  The harmonic lift of the
Cauchy datum takes its node values on the tensor grid from one inverse FFT
per radius (``FourierHarmonicField.at_nodes``) and its values at arbitrary
points from Horner's rule.  A separate series solver
fits mixed boundary data over the Helmholtz modes by least squares, from one
SVD of their weighted boundary matrix.  The closure forms of the paper's
definitions (the eps-inner product, the boundary form h, Gram-Schmidt, the
seeds as closures) are the tests' reference, in ``tests/reference.py``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import core, diskbasis
from .bessel import bessel_i, bessel_i_prime, check_disk_epsilon
from .diskbasis import BasisFunction, DiracOperatorKind, Field
from .errors import InputError, NumericError

__all__ = [
    "DiskQuadrature",
    "ArcSpec",
    "Field",
    "LinearCombination",
    "FourierHarmonicField",
    "conormal_values",
    "basis_grams",
    "max_offdiag_relative",
    "N_R_MAX",
    "N_PHI_MAX",
    "check_quadrature_size",
    "TRIAL_MAX",
    "seed_quadrature_needs",
    "SeedSystem",
    "build_seed_system",
    "trial_space_for_epsilon",
    "solve_perturbed_galerkin",
    "SeriesSolution",
    "solve_mixed_boundary_series",
    "lift_cauchy_datum",
    "l_curve_corner",
    "CauchyProblemSpec",
    "PipelineRecord",
    "PipelineResult",
    "cauchy_pipeline",
]

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


# Largest quadrature sizes.  numpy's leggauss, which solves an n x n
# eigenproblem, builds the Gauss-Legendre rule of n_r = 1024 in 0.14-0.15 s
# on one 2-core Xeon thread, paid once per process and size (the memo of
# ``DiskQuadrature.build``); far larger sizes would stall the build.
N_R_MAX = 1024
N_PHI_MAX = 4096


def check_quadrature_size(n_r=None, n_phi=None) -> None:
    """n_r in [2, N_R_MAX] and n_phi in [4, N_PHI_MAX] (None: not checked),
    or InputError keyed by the size at fault."""
    for key, size, low, high in (("n_r", n_r, 2, N_R_MAX), ("n_phi", n_phi, 4, N_PHI_MAX)):
        if size is not None and not low <= size <= high:
            raise InputError(f"{key!r} must lie in [{low}, {high}], got {size}", key=key)


@dataclass(frozen=True)
class DiskQuadrature:
    """Tensor quadrature on the unit disk in polar form.

    Radial nodes are Gauss-Legendre on [0, 1] with the polar Jacobian r
    folded into the weights; angular nodes are the uniform periodic
    trapezoid rule on [0, 2 pi).  ``build`` returns one shared instance per
    size whose arrays are read-only.
    """

    n_r: int
    n_phi: int
    r: np.ndarray
    wr: np.ndarray
    phi: np.ndarray
    wphi: float
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray

    @classmethod
    def build(cls, n_r: int = 64, n_phi: int = 256) -> "DiskQuadrature":
        check_quadrature_size(n_r, n_phi)
        return _disk_quadrature(n_r, n_phi)

    def integrate(self, values) -> complex:
        return np.sum(self.w * np.asarray(values))


# leggauss(64) costs about 1 ms, so each size is built once per process.
# Four entries, because the verify_basis runs of one process alternate
# sizes, for example (64, 256) and (16, 64).
@functools.lru_cache(maxsize=4)
def _disk_quadrature(n_r: int, n_phi: int) -> DiskQuadrature:
    nodes, weights = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (nodes + 1.0)
    wr = 0.5 * weights * r
    phi = _TWO_PI * np.arange(n_phi) / n_phi
    wphi = _TWO_PI / n_phi
    x = np.outer(r, np.cos(phi)).ravel()
    y = np.outer(r, np.sin(phi)).ravel()
    w = (np.repeat(wr, n_phi) * wphi).ravel()
    for a in (r, wr, phi, x, y, w):
        a.flags.writeable = False
    return DiskQuadrature(n_r=n_r, n_phi=n_phi, r=r, wr=wr, phi=phi, wphi=wphi, x=x, y=y, w=w)


@dataclass(frozen=True)
class ArcSpec:
    """Closed boundary arc Gamma = {e^{i phi} : phi in [start, end]}.

    ``gamma_start`` lies in [0, 2 pi) and ``gamma_end`` in
    (gamma_start, gamma_start + 2 pi]; the full circle is representable.
    The complement arc is derived.  A refusal's ``InputError.key`` names
    the endpoint at fault; a NaN ``gamma_end`` fails "must exceed".
    """

    gamma_start: float
    gamma_end: float

    def __post_init__(self):
        if not (0.0 <= self.gamma_start < _TWO_PI):
            raise InputError("'gamma_start' must lie in [0, 2 pi)", key="gamma_start")
        if not self.gamma_end > self.gamma_start:
            raise InputError(
                "'gamma_end' must exceed 'gamma_start' "
                "(equal endpoints do not define a nonempty arc)",
                key="gamma_end",
            )
        if self.gamma_end - self.gamma_start > _TWO_PI + 1e-12:
            raise InputError("arc length exceeds 2 pi", key="gamma_end")

    @property
    def length(self) -> float:
        return self.gamma_end - self.gamma_start

    @property
    def is_full(self) -> bool:
        return self.length >= _TWO_PI - 1e-12

    @property
    def complement_length(self) -> float:
        return _TWO_PI - self.length

    def complement_position(self, phi) -> np.ndarray:
        """Arclength position inside the complement, measured from gamma_end.

        Values outside (0, complement length) mean the angle lies on Gamma.
        """
        return np.mod(np.asarray(phi, dtype=float) - self.gamma_end, _TWO_PI)

    def distance_to_arc(self, phi) -> np.ndarray:
        """Angular distance to Gamma (zero on the arc)."""
        t = self.complement_position(phi)
        lc = self.complement_length
        inside = (t > 0.0) & (t < lc)
        return np.where(inside, np.minimum(t, lc - t), 0.0)

    def _arc_quadrature(self, start: float, length: float, n_phi: int):
        if length >= _TWO_PI - 1e-12:
            phi = start + _TWO_PI * np.arange(n_phi) / n_phi
            return phi, np.full(n_phi, _TWO_PI / n_phi)
        n = max(2, int(round(n_phi * length / _TWO_PI)) + 1)
        phi = np.linspace(start, start + length, n)
        w = np.full(n, length / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        return phi, w

    def quadrature(self, n_phi: int = 256):
        """Trapezoid nodes and weights on Gamma."""
        return self._arc_quadrature(self.gamma_start, self.length, n_phi)

    def complement_quadrature(self, n_phi: int = 256):
        """Trapezoid nodes and weights on the complement arc."""
        if self.is_full:
            return np.empty(0), np.empty(0)
        return self._arc_quadrature(self.gamma_end, self.complement_length, n_phi)


# ---------------------------------------------------------------------------
# Fields (``Field`` and its adapter ``Field.wrap`` live in ``diskbasis``)
# ---------------------------------------------------------------------------


class LinearCombination(Field):
    """Flattened linear combination of atomic fields."""

    def __init__(self, coeffs, atoms):
        self.coeffs = np.asarray(coeffs)
        self.atoms = list(atoms)
        if self.coeffs.shape != (len(self.atoms),):
            raise InputError("one coefficient per atom required")

    def value_xy(self, x, y):
        total = 0.0
        for c, a in zip(self.coeffs, self.atoms):
            total = total + c * a.value_xy(x, y)
        return total

    def gradient_xy(self, x, y):
        tx, ty = 0.0, 0.0
        for c, a in zip(self.coeffs, self.atoms):
            gx, gy = a.gradient_xy(x, y)
            tx = tx + c * gx
            ty = ty + c * gy
        return tx, ty


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] z^k by Horner's rule (zero for no coefficients)."""
    total = np.zeros(z.shape, dtype=complex)
    for c in coeffs[::-1]:
        total = total * z + c
    return total


class FourierHarmonicField(Field):
    """Harmonic field sum_n c_n r^{|n|} e^{i n phi} from boundary Fourier data.

    The field is P(z) + Q(conj z) with P and Q the polynomials of the
    nonnegative and negative orders.  At arbitrary points (``value_xy``,
    ``gradient_xy``) both are evaluated by Horner's rule; on the nodes of a
    ``DiskQuadrature`` (``at_nodes``) each quantity is one inverse FFT per
    radius.
    """

    def __init__(self, orders, coeffs, real_output: bool):
        self.orders = np.asarray(orders, dtype=int)
        self.fourier = np.asarray(coeffs, dtype=complex)
        self.real_output = real_output
        degree = int(np.max(np.abs(self.orders))) if self.orders.size else 0
        # holo[k] multiplies z^k, anti[k] multiplies conj(z)^k (anti[0] = 0).
        self._holo = np.zeros(degree + 1, dtype=complex)
        self._anti = np.zeros(degree + 1, dtype=complex)
        pos = self.orders >= 0
        np.add.at(self._holo, self.orders[pos], self.fourier[pos])
        np.add.at(self._anti, -self.orders[~pos], self.fourier[~pos])
        powers = np.arange(1, degree + 1)
        self._holo_prime = self._holo[1:] * powers
        self._anti_prime = self._anti[1:] * powers

    def _cast(self, values):
        return values.real if self.real_output else values

    @staticmethod
    def _z(x, y):
        return np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)

    def value_xy(self, x, y):
        z = self._z(x, y)
        return self._cast(_horner(self._holo, z) + _horner(self._anti, np.conj(z)))

    def gradient_xy(self, x, y):
        z = self._z(x, y)
        dp = _horner(self._holo_prime, z)
        dq = _horner(self._anti_prime, np.conj(z))
        return self._cast(dp + dq), self._cast(1j * (dp - dq))

    def at_nodes(self, quad: DiskQuadrature) -> tuple:
        """Node values of u, du/dx and du/dy, flat in ``DiskQuadrature`` order.

        On the tensor grid r^|n| e^{i n phi} separates, and on the uniform
        angles e^{i n phi_j} = e^{i (n mod n_phi) phi_j} exactly, so each
        quantity is an inverse FFT over phi of the (n_r, n_phi) table with
        c_n r^|n| added at column n mod n_phi, for any degree.  The
        gradient tables hold P' + Q' and i (P' - Q'), whose order-m terms
        are m-th powers of z and conj z.
        """
        m = np.arange(self._holo_prime.size)
        grad_orders = np.concatenate([m, -m])
        quantities = (
            (self.orders, self.fourier),
            (grad_orders, np.concatenate([self._holo_prime, self._anti_prime])),
            (grad_orders, 1j * np.concatenate([self._holo_prime, -self._anti_prime])),
        )
        n_r, n_phi = quad.n_r, quad.n_phi
        rows = n_phi * np.arange(n_r)[:, None]
        table = np.zeros((3, n_r * n_phi), dtype=complex)
        for part, (orders, coeffs) in zip(table, quantities):
            terms = quad.r[:, None] ** np.abs(orders) * coeffs
            # Flat indices: 1-D np.add.at is several times faster than a 2-D one.
            np.add.at(part, (rows + orders % n_phi).ravel(), terms.ravel())
        grid = np.fft.ifft(table.reshape(3, n_r, n_phi), axis=-1, norm="forward")
        return tuple(self._cast(values.ravel()) for values in grid)


# ---------------------------------------------------------------------------
# Conormal trace and basis Grams
# ---------------------------------------------------------------------------


def conormal_values(op: DiracOperatorKind, u, phi):
    """Conormal trace n(A u) at boundary angles.

    n(A u) = sigma(A)(x)* (A u) with x the outward unit normal; this is
    r d/dr for the gradient operator and r d/dr + i d/dphi for
    Cauchy-Riemann, both realized through the Cartesian gradient.
    """
    phi = np.asarray(phi, dtype=float)
    x, y = np.cos(phi), np.sin(phi)
    ux, uy = Field.wrap(u).gradient_xy(x, y)
    if op is DiracOperatorKind.GRADIENT:
        return x * ux + y * uy
    return (x - 1j * y) * (ux + 1j * uy)


def _radial_table(i_max: int, epsilon: float, r: np.ndarray):
    """Columns I_i(sqrt(eps) r) and sqrt(eps) I_i'(sqrt(eps) r), i = 0..i_max."""
    root = math.sqrt(epsilon)
    orders = np.arange(i_max + 1)
    x = np.broadcast_to(root * np.asarray(r, dtype=float)[:, None], (len(r), orders.size))
    return bessel_i(orders, x), root * bessel_i_prime(orders, x)


def basis_grams(operator: DiracOperatorKind, i_max: int, epsilon: float, quad: DiskQuadrature):
    """Disk L^2 and energy Gram matrices of the basis functions b_i^(j).

    Every b = g(r) H(phi) is separable on the tensor quadrature, so each
    Gram is a Hadamard product of a radial Gram on ``quad.r`` and an
    angular Gram on ``quad.phi``.  Returns (modes, l2_gram, energy_gram);
    both Grams are Hermitian and diagonal up to quadrature error.
    """
    check_disk_epsilon(epsilon)
    modes = diskbasis.enumerate_modes(i_max)
    orders = [i for i, _ in modes]
    values, slopes = _radial_table(i_max, epsilon, quad.r)
    g, g_prime = values[:, orders], slopes[:, orders]
    ratio = g / quad.r[:, None]
    h = operator.angular_table(modes, quad.phi)

    def gram(radial, angular):
        return ((quad.wr[:, None] * radial).T @ radial) * (
            quad.wphi * (angular.T @ np.conj(angular))
        )

    if operator.is_complex:
        # conj(z) A b = (r g' + (lambda - i) g) H at every radius (the closed
        # form of n(A b) in diskbasis), so |A b| = |g' + (lambda - i) g / r| |H|.
        shift = np.array([operator.eigenvalue(i, j) - i for i, j in modes])
        energy_gram = gram(g_prime + shift * ratio, h)
    else:
        # |grad b|^2 = |g' H|^2 + |(g / r) H'|^2 in the polar frame.
        h_prime = operator.angular_derivative_table(modes, quad.phi)
        energy_gram = gram(g_prime, h) + gram(ratio, h_prime)
    return modes, gram(g, h), energy_gram


def max_offdiag_relative(gram: np.ndarray) -> float:
    """Largest off-diagonal Gram entry relative to the diagonal scale."""
    diag = np.sqrt(np.abs(np.real(np.diag(gram))))
    scale = np.outer(diag, diag)
    off = np.abs(gram - np.diag(np.diag(gram)))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(scale > 0.0, off / scale, 0.0)
    return float(np.max(ratio)) if ratio.size else 0.0


# ---------------------------------------------------------------------------
# Trial spaces
# ---------------------------------------------------------------------------


# Largest trial space: every monomial through degree 20.  On the default
# 64 x 256 quadrature and the upper half circle none of these 231 seeds is
# dropped; degree 21 (253 seeds) drops one and 300 seeds drop six.
TRIAL_MAX = 231


def seed_quadrature_needs(size: int) -> dict:
    """Smallest n_r and n_phi on which the Grams of ``size`` seeds are exact.

    With d the top seed degree, a product of two seeds (or of their
    gradients, taken in the polar frame) times the Jacobian r has radial
    degree at most 2 d + 5, which n_r Gauss-Legendre nodes integrate exactly
    for n_r >= d + 3, and the polynomial part of its angular factor has
    trigonometric degree at most 2 d, which the n_phi-point trapezoid rule
    integrates exactly for n_phi >= 2 d + 1.
    """
    degree = math.ceil((math.sqrt(8 * size + 1) - 3) / 2)  # (d + 1)(d + 2) / 2 >= size
    return dict(n_r=degree + 3, n_phi=2 * degree + 1)


def _monomial_exponents(count: int):
    """Graded ordering (0,0); (1,0),(0,1); (2,0),(1,1),(0,2); ..."""
    out = []
    degree = 0
    while len(out) < count:
        for px in range(degree, -1, -1):
            out.append((px, degree - px))
            if len(out) == count:
                break
        degree += 1
    return out


def _sigma(arc: ArcSpec, phi):
    """sigma(phi) and sigma'(phi), with sigma = sin^4 of the scaled position
    along the complement arc: zero on Gamma's closed angular interval,
    positive elsewhere on the boundary."""
    lc = arc.complement_length
    if lc <= 0.0:
        return np.zeros(np.shape(phi)), np.zeros(np.shape(phi))
    t = arc.complement_position(phi)
    inside = (t > 0.0) & (t < lc)
    arg = math.pi * t / lc
    s = np.where(inside, np.sin(arg) ** 4, 0.0)
    ds = np.where(inside, 4.0 * (math.pi / lc) * np.sin(arg) ** 3 * np.cos(arg), 0.0)
    return s, ds


def _seed_tables(arc: ArcSpec, exponents, r, phi):
    """Radial and angular tables of the seeds delta * x^px y^py on a polar grid.

    With d = px + py, Theta = cos^px sin^py, r^(d-1) (mx, my) the gradient
    of the monomial and r (ex, ey) = r (2 cos (sigma - 1) - sin sigma',
    2 sin (sigma - 1) + cos sigma') that of delta = 1 - r^2 + r^2 sigma,
    the product rule regrouped by powers of r gives a sum of two radial x
    angular terms for every seed quantity:

        s     = (1 - r^2) r^d Theta  + r^(d+2) sigma Theta
        ds/dx = (1 - r^2) r^(d-1) mx + r^(d+1) (sigma mx + ex Theta)
        ds/dy = (1 - r^2) r^(d-1) my + r^(d+1) (sigma my + ey Theta)

    Returns (value_radial, slope_radial, angular): radial tables of shape
    (len(r), 2, size) for s and for its gradient, and angular tables of
    shape (len(phi), 2, size) for s, ds/dx and ds/dy.
    """
    px, py = np.array(exponents, dtype=int).T
    d, r = px + py, r[:, None]
    ring = 1.0 - r * r
    value_radial = np.stack([ring * r**d, r ** (d + 2.0)], axis=1)
    slope_radial = np.stack([ring * r ** (d - 1.0), r ** (d + 1.0)], axis=1)

    # cos^k and sin^k for k <= d, indexed per seed.
    powers = np.arange(d.max() + 1.0)
    c, s = np.cos(phi)[:, None], np.sin(phi)[:, None]
    cos_k, sin_k = c**powers, s**powers
    theta = cos_k[:, px] * sin_k[:, py]
    mx = px * cos_k[:, np.maximum(px - 1, 0)] * sin_k[:, py]
    my = py * cos_k[:, px] * sin_k[:, np.maximum(py - 1, 0)]
    sigma, dsigma = (v[:, None] for v in _sigma(arc, phi))
    angular = [
        np.stack([theta, sigma * theta], axis=1),
        np.stack([mx, sigma * mx + (2.0 * c * (sigma - 1.0) - s * dsigma) * theta], axis=1),
        np.stack([my, sigma * my + (2.0 * s * (sigma - 1.0) + c * dsigma) * theta], axis=1),
    ]
    return value_radial, slope_radial, angular


def _tensor_combination(radial: np.ndarray, angular: np.ndarray, coeffs) -> np.ndarray:
    """Node values of sum_k coeffs[k, ...] sum_t radial[:, t, k] x angular[:, t, k].

    Rows run over (radius, angle) pairs in the order of ``DiskQuadrature``;
    the trailing axes are those of ``coeffs``.
    """
    coeffs = np.asarray(coeffs)
    cols = coeffs.reshape(coeffs.shape[0], -1)
    n_r, n_phi, m = radial.shape[0], angular.shape[0], cols.shape[1]
    scaled = (radial[..., None] * cols).transpose(0, 3, 1, 2).reshape(n_r * m, -1)
    nodes = (scaled @ angular.reshape(n_phi, -1).T).reshape(n_r, m, n_phi)
    return nodes.transpose(0, 2, 1).reshape((n_r * n_phi,) + coeffs.shape[1:])


def _quad_forms(gram: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """d^H G^T d for every column d of ``coeffs``, clipped at 0."""
    return np.maximum(np.real(np.sum(np.conj(coeffs) * (gram.T @ coeffs), axis=0)), 0.0)


def _seed_spectrum(energy_gram: np.ndarray, l2_gram: np.ndarray, drop_tol: float):
    """Generalized eigenpairs K^T w = lam M^T w over the independent seeds.

    Both Grams are rescaled to unit L^2 diagonal.  A pivoted Cholesky
    factorization of the scaled M drops every seed whose L^2 distance to the
    span of the kept ones is at most ``drop_tol`` times its own norm (or at
    most sqrt(n eps_mach), the rounding level of the pivots, when that is
    larger); the eigendecomposition runs on the kept seeds.  Returns
    (lam, W, dropped) with W^H M^T W = I and W^H K^T W = diag(lam); W has
    zero rows at the dropped seeds.
    """
    n = l2_gram.shape[0]
    scale = np.sqrt(np.real(np.diag(l2_gram)))
    outer = np.outer(scale, scale)
    m_scaled = l2_gram / outer
    import scipy.linalg  # on first use: only the seed system of disk_cauchy needs it

    pstrf = scipy.linalg.get_lapack_funcs("pstrf", (m_scaled,))
    tol = max(drop_tol**2, n * np.finfo(float).eps)
    _, piv, rank, _ = pstrf(m_scaled, tol=tol)
    # LAPACK keeps a positive first pivot whatever the tolerance.
    if rank == 0 or np.real(m_scaled[piv[0] - 1, piv[0] - 1]) <= tol:
        raise NumericError("trial space collapsed: all seeds dropped")
    kept = np.sort(piv[:rank] - 1)
    dropped = sorted(int(k) for k in piv[rank:] - 1)
    sub = np.ix_(kept, kept)
    lam, w_kept = scipy.linalg.eigh((energy_gram / outer)[sub].T, m_scaled[sub].T)
    eigvecs = np.zeros((n, rank), dtype=w_kept.dtype)
    eigvecs[kept] = w_kept / scale[kept, None]
    # K is positive semidefinite: negative eigenvalues are rounding.
    return np.maximum(lam, 0.0), eigvecs, dropped


@dataclass
class SeedSystem:
    """Trial seeds delta * P as radial x angular tables, with Grams and spectrum.

    ``tables`` holds, for each seed quantity q_k (s_k, ds_k/dx, ds_k/dy), a
    radial table on the quadrature radii and an angular table on its angles
    with q_k = sum_t radial[:, t, k] x angular[:, t, k] (``_seed_tables``,
    normalized to unit graph norm); projections of node data onto the seeds
    and node values of seed combinations (``at_nodes``) are contractions with
    them, so no node matrix is formed.
    ``l2_gram`` (M) and ``energy_gram`` (K) are the L^2 and (A., A.) Gram
    matrices, taken from the same tables, so the eps-Gram is K + eps M.
    ``lam`` and ``eigvecs`` solve K^T w = lam M^T w on the seeds not in
    ``dropped``, so two identities hold, exactly up to rounding because the
    tensor quadrature integrates the Grams exactly:

        s W is L^2-orthonormal:  W^H M^T W = I,
        A s W is orthogonal:     W^H K^T W = diag(lam).

    In that basis the Galerkin system of every eps is diagonal: with
    p = W^H b the data in eigen-coordinates (``project``), (K + eps M)^T d = b
    gives d = W g(eps), g(eps) = p / (lam + eps) (``gains``).  The
    misfits of a whole schedule (``residuals``, ``l2_distances``) follow
    from one node-value column at the smallest eps plus exact
    coefficient-space terms.
    """

    operator: DiracOperatorKind
    arc: ArcSpec
    quad: DiskQuadrature
    exponents: list
    norms: np.ndarray
    tables: tuple
    l2_gram: np.ndarray
    energy_gram: np.ndarray
    lam: np.ndarray
    eigvecs: np.ndarray
    dropped: list

    @property
    def size(self) -> int:
        return self.norms.size

    def _weighted_sum(self, part: int, data) -> np.ndarray:
        """sum_n w_n data_n q_k(x_n) for seed quantity ``part`` (0 value, 1 d/dx, 2 d/dy).

        The weighted node data, reshaped to (n_r, n_phi), meet the angular
        table first and the radial table second; the two terms are summed.
        """
        q = self.quad
        radial, angular = self.tables[part]
        grid = (q.w * np.asarray(data)).reshape(q.n_r, q.n_phi)
        per_radius = (grid @ angular.reshape(q.n_phi, -1)).reshape(radial.shape)
        return np.sum(radial * per_radius, axis=(0, 1))

    def rhs_vector(self, f_values) -> np.ndarray:
        """b_k = (f, A s_k) for f given by node values."""
        if self.operator is DiracOperatorKind.GRADIENT:
            fx, fy = f_values
            return self._weighted_sum(1, fx) + self._weighted_sum(2, fy)
        return self._weighted_sum(1, f_values) - 1j * self._weighted_sum(2, f_values)

    def l2_vector(self, h_values) -> np.ndarray:
        """b_k = (h, s_k) for h given by node values."""
        return self._weighted_sum(0, h_values)

    def at_nodes(self, coeffs) -> tuple:
        """Node values of u = sum_k coeffs[k, ...] s_k and of du/dx, du/dy.

        Each array has one row per quadrature node and the trailing axes of
        ``coeffs``.
        """
        return tuple(_tensor_combination(r, a, coeffs) for r, a in self.tables)

    def project(self, f_values) -> np.ndarray:
        """p = W^H (f, A s): data f, given by node values, in eigen-coordinates."""
        return self.eigvecs.conj().T @ self.rhs_vector(f_values)

    def gains(self, proj: np.ndarray, epsilons) -> np.ndarray:
        """g(eps) = proj / (lam + eps), one eigen-coordinate column per eps.

        ``proj`` is one vector or one column per eps; the Galerkin solution
        of each eps has the seed coefficients W g(eps).
        """
        eps = np.asarray(epsilons, dtype=float)
        proj = proj[:, None] if proj.ndim == 1 else proj
        return proj / (self.lam[:, None] + eps[None, :])

    def residuals(self, proj: np.ndarray, epsilons, f_values) -> np.ndarray:
        """||A u_eps - f||_{L^2} for the Galerkin solutions u_eps = W g(eps).

        ``proj`` is ``project(f_values)`` and g(eps) = proj / (lam + eps).
        With e0 the smallest eps, g(eps) = g(e0) (1 - t) for
        t_k = (eps - e0) / (lam_k + eps), and because A W is orthogonal with
        (A W g(e0) - f, A w_k) = -e0 g_k(e0),

            res(eps)^2 = res(e0)^2 + sum_k |g_k(e0)|^2 t_k (lam_k t_k + 2 e0),

        which is sum_k |p_k|^2 (eps - e0)(lam_k (eps + e0) + 2 eps e0)
        / ((lam_k + eps)^2 (lam_k + e0)^2) in terms of p.  Every added term is
        nonnegative and none divides by lam.  res(e0) is taken from the node
        values of one column, never from the Gram expansion
        ||A u||^2 - 2 Re (A u, f) + ||f||^2, which cancels to sqrt(eps_mach)
        ||f|| when the residual is small.
        """
        eps = np.asarray(epsilons, dtype=float)
        first = int(np.argmin(eps))
        g0 = self.gains(proj, eps[first:first + 1])[:, 0]
        coeffs = self.eigvecs @ g0
        ax, ay = (_tensor_combination(r, a, coeffs) for r, a in self.tables[1:])
        image = np.atleast_2d(self.operator.apply_gradient(ax, ay))
        targets = np.atleast_2d(f_values)
        base = sum(self.quad.w @ np.abs(a - f) ** 2 for a, f in zip(image, targets))
        lam = self.lam[:, None]
        t = (eps - eps[first]) / (lam + eps)
        return np.sqrt(base + np.abs(g0) ** 2 @ (t * (lam * t + 2.0 * eps[first])))

    def l2_distances(self, proj: np.ndarray, epsilons, target) -> np.ndarray:
        """||u_eps - target||_{L^2} for the Galerkin solutions u_eps = W g(eps).

        With c = W^H (target, s) the eigen-coordinates of the target's L^2
        projection and e0 the smallest eps, L^2-orthonormality of s W gives

            dist(eps)^2 = dist(e0)^2 + ||g(eps) - c||^2 - ||g(e0) - c||^2,

        with dist(e0) from the node values of one column.  The difference is
        taken in coefficient space, where its rounding is eps_mach
        ||g - c||^2 <= eps_mach dist^2.
        """
        gains = self.gains(proj, epsilons)
        first = int(np.argmin(epsilons))
        c = self.eigvecs.conj().T @ self.l2_vector(target)
        column = _tensor_combination(*self.tables[0], self.eigvecs @ gains[:, first])
        base = self.quad.w @ np.abs(column - target) ** 2
        spread = np.sum(np.abs(gains - c[:, None]) ** 2, axis=0)
        return np.sqrt(np.maximum(base + (spread - spread[first]), 0.0))


_SEED_DROP_TOL = 1e-10


def build_seed_system(
    arc: ArcSpec,
    operator: DiracOperatorKind,
    size: int,
    quad: DiskQuadrature,
) -> SeedSystem:
    """Construct ``size`` trial seeds vanishing on Gamma and factor their Grams.

    Seeds are delta * monomial in graded order, normalized to unit graph
    norm, and kept as the radial x angular tables their Grams are summed
    from.  Their traces on Gamma vanish exactly by construction: at r = 1
    both terms of ``_seed_tables`` carry a factor that is zero there,
    1 - r^2 or sigma.  One generalized
    eigendecomposition of the seed Grams (see ``_seed_spectrum``) serves
    every eps of a sweep.
    """
    if size < 1:
        raise InputError(f"trial-space size must be >= 1, got {size}")
    exponents = _monomial_exponents(size)
    tables = _seed_tables(arc, exponents, quad.r, quad.phi)
    value_radial, slope_radial, (value_ang, gx_ang, gy_ang) = tables

    def gram(radial, ang_a, ang_b):
        # Per pair of terms, a radial Gram on quad.r times an angular Gram on quad.phi.
        rad = radial.reshape(quad.n_r, -1)
        ang = quad.wphi * (ang_a.reshape(quad.n_phi, -1).T @ ang_b.reshape(quad.n_phi, -1))
        return (((quad.wr[:, None] * rad).T @ rad) * ang).reshape(2, size, 2, size).sum(axis=(0, 2))

    m_gram = gram(value_radial, value_ang, value_ang)
    k_gram = gram(slope_radial, gx_ang, gx_ang) + gram(slope_radial, gy_ang, gy_ang)
    # Unit graph norm: D(s)^2 = ||s||^2 + ||A s||^2.
    norms = np.sqrt(np.diag(m_gram) + np.diag(k_gram))
    if not np.all(norms > 0.0):
        raise NumericError("degenerate trial seed with zero or non-finite graph norm")
    outer = np.outer(norms, norms)
    m_gram, k_gram = m_gram / outer, k_gram / outer
    if operator is DiracOperatorKind.CAUCHY_RIEMANN:
        # (d/dx + i d/dy) Gram from real products: no complex node matrices.
        cross = gram(slope_radial, gx_ang, gy_ang) / outer
        k_gram = k_gram + 1j * (cross.T - cross)
    value_radial, slope_radial = value_radial / norms, slope_radial / norms

    lam, eigvecs, dropped = _seed_spectrum(k_gram, m_gram, _SEED_DROP_TOL)
    return SeedSystem(
        operator=operator, arc=arc, quad=quad, exponents=exponents, norms=norms,
        tables=((value_radial, value_ang), (slope_radial, gx_ang), (slope_radial, gy_ang)),
        l2_gram=m_gram, energy_gram=k_gram,
        lam=lam, eigvecs=eigvecs, dropped=dropped,
    )


def trial_space_for_epsilon(seeds: SeedSystem, epsilon: float) -> np.ndarray:
    """The eps-orthonormal basis w_i / sqrt(lam_i + eps) as seed-coefficient columns."""
    return seeds.eigvecs / np.sqrt(seeds.lam + core.check_epsilon(epsilon))


def solve_perturbed_galerkin(seeds: SeedSystem, epsilons, f=None, h=None) -> np.ndarray:
    """Seed coefficients of the Galerkin solution, one column per eps.

    Each column solves (K + eps M)^T d = (f, A s) + eps (h, s) over the
    seeds, with ``f`` and ``h`` given by node values; in the seed
    eigenbasis this is d = W diag(1 / (lam + eps)) W^H rhs, the Tikhonov
    filter factors of the whole schedule from one factorization.
    """
    eps = np.asarray(epsilons, dtype=float)
    for e in eps.ravel().tolist():
        core.check_epsilon(e)
    proj = seeds.project(f) if f is not None else np.zeros(seeds.lam.size)
    proj = proj[:, None]
    if h is not None:
        proj = proj + eps[None, :] * (seeds.eigvecs.conj().T @ seeds.l2_vector(h))[:, None]
    return seeds.eigvecs @ seeds.gains(proj, eps)


# ---------------------------------------------------------------------------
# Series solver for the mixed problem with boundary data
# ---------------------------------------------------------------------------


@dataclass
class SeriesSolution:
    """Expansion u = sum_i k_i B_i over an h-orthonormal basis of the disk modes.

    The columns of ``coeff`` are the B_i in raw-mode coefficients and ``k``
    holds the h-projections (data, B_i)_h of the boundary data; ``raw_coeffs``
    = coeff @ k express the solution over the unnormalized products
    g_i H_i^(j).  For very small epsilon the boundary magnitude of deep
    modes is tiny, so their raw coefficients can be numerically large
    while contributing nothing: evaluation pairs each coefficient with the
    correspondingly tiny basis values, and the reconstruction stays at
    machine accuracy.  ``trace_scale`` / ``conormal_scale`` hold each mode's
    t(b) = I_i(sqrt(eps)) and n(A b) amplitudes on the unit circle.
    """

    operator: DiracOperatorKind
    arc: ArcSpec
    epsilon: float
    modes: list
    coeff: np.ndarray
    k: np.ndarray
    raw_coeffs: np.ndarray
    trace_scale: np.ndarray
    conormal_scale: np.ndarray

    @property
    def field(self) -> LinearCombination:
        """u as a combination of the modes g_i H_i^(j), built per access."""
        basis = [BasisFunction(self.operator, i, j, self.epsilon) for i, j in self.modes]
        return LinearCombination(self.raw_coeffs, basis)

    def trace_on(self, phi) -> np.ndarray:
        return _mode_columns(self.operator, self.modes, self.trace_scale, phi) @ self.raw_coeffs

    def conormal_on(self, phi) -> np.ndarray:
        return _mode_columns(self.operator, self.modes, self.conormal_scale, phi) @ self.raw_coeffs


def _mode_columns(operator, modes, scales, phi):
    """One column per mode: its boundary amplitude times H_i^(j)(phi)."""
    return scales * operator.angular_table(modes, phi)


# Singular values of the weighted boundary matrix below this fraction of the
# largest are dropped: their directions are near-dependent mode combinations,
# on which the solve would amplify the rounding of the data by over 1e12.
_SERIES_RCOND = 1e-12


def solve_mixed_boundary_series(
    operator: DiracOperatorKind,
    arc: ArcSpec,
    u0: Optional[Callable],
    u1: Optional[Callable],
    epsilon: float,
    n_modes: int = 16,
    n_phi: int = 256,
) -> SeriesSolution:
    """Series solution of the mixed problem with boundary data only.

    The solution of (-Laplace + eps) u = 0 with t(u) = u0 on Gamma and
    n(Au) = u1 on the complement is the least-squares fit of the data in
    the boundary form h over the modes through index ``n_modes``.  Each mode
    column is divided by its trace amplitude I_i(sqrt(eps)), so the trace
    columns are H_i and the conormal columns (n_i / t_i) H_i, and the
    weighted boundary matrix A = [sqrt(w_g) T; sqrt(w_c) N] is factored by
    one SVD, A = U S V^H, never squared into a Gram (Golub and Van Loan,
    Matrix Computations, 5.3).  The singular values above ``_SERIES_RCOND``
    times the largest give the h-orthonormal basis V S^-1 / I_i(sqrt(eps))
    and the projections k = U^H b of the weighted data b.  A trace
    amplitude below the smallest normal float (deep modes at small eps),
    or a coefficient beyond the largest, raises NumericError.
    """
    check_disk_epsilon(epsilon)
    modes = diskbasis.enumerate_modes(n_modes)
    check_quadrature_size(n_phi=n_phi)
    g_phi, g_w = arc.quadrature(n_phi)
    c_phi, c_w = arc.complement_quadrature(n_phi)

    trace_scale, conormal_scale = diskbasis.boundary_amplitudes(operator, modes, epsilon)
    low = np.flatnonzero(trace_scale < np.finfo(float).tiny)
    if low.size:
        raise NumericError(f"boundary values of mode {modes[low[0]]} underflow at eps={epsilon:g}")

    root_g, root_c = np.sqrt(g_w), np.sqrt(c_w)
    matrix = np.vstack([
        root_g[:, None] * _mode_columns(operator, modes, np.ones(len(modes)), g_phi),
        root_c[:, None] * _mode_columns(operator, modes, conormal_scale / trace_scale, c_phi),
    ])

    def weighted(data, phi, root):
        return root * np.asarray(data(phi)) if data is not None and phi.size else np.zeros(phi.size)

    rhs = np.concatenate([weighted(u0, g_phi, root_g), weighted(u1, c_phi, root_c)])
    left, sing, right_h = np.linalg.svd(matrix, full_matrices=False)
    kept = sing > _SERIES_RCOND * sing[0]
    k = left[:, kept].conj().T @ rhs
    with np.errstate(over="ignore", invalid="ignore"):
        coeff = right_h[kept].conj().T / sing[kept] / trace_scale[:, None]
        raw = coeff @ k
    # 1 / (s I_i(sqrt(eps))) can exceed the largest float a little above the
    # trace underflow.
    high = np.flatnonzero(~(np.isfinite(coeff).all(axis=1) & np.isfinite(raw)))
    if high.size:
        raise NumericError(f"coefficients of mode {modes[high[0]]} overflow at eps={epsilon:g}")
    return SeriesSolution(
        operator=operator,
        arc=arc,
        epsilon=float(epsilon),
        modes=modes,
        coeff=coeff,
        k=k,
        raw_coeffs=raw,
        trace_scale=trace_scale,
        conormal_scale=conormal_scale,
    )


# ---------------------------------------------------------------------------
# Cauchy pipeline
# ---------------------------------------------------------------------------


def lift_cauchy_datum(
    u0: Callable,
    arc: ArcSpec,
    n_phi: int = 256,
    complex_output: bool = False,
) -> FourierHarmonicField:
    """Lift a Cauchy datum on Gamma to a harmonic field on the disk.

    The datum is multiplied by a C^1 cosine-taper window (1 on Gamma,
    decaying to 0 at the far side of the complement), expanded in a
    truncated Fourier series (orders |n| <= n_phi / 4) and extended
    harmonically mode by mode.
    """
    phis = _TWO_PI * np.arange(n_phi) / n_phi
    lc = arc.complement_length
    if lc <= 0.0:
        window = np.ones(n_phi)
    else:
        window = np.cos(math.pi * arc.distance_to_arc(phis) / lc) ** 2
    values = np.asarray(u0(phis)) * window

    cutoff = n_phi // 4
    spectrum = np.fft.fft(values) / n_phi
    orders = np.arange(-cutoff, cutoff + 1)
    coeffs = spectrum[orders % n_phi]
    return FourierHarmonicField(orders, coeffs, real_output=not complex_output)


# Smallest step, in log10 units, between L-curve points that a curvature
# triple may use.  A converged tail moves by 1e-10 to 1e-7 per step; the
# Menger curvature of that rounding noise would outrank the real corner.
_LCURVE_MIN_STEP = 1e-6


def l_curve_corner(norms, residuals) -> int:
    """Index of the maximal-curvature point of the discrete L-curve.

    Points are (log residual, log norm); curvature is the Menger
    curvature of consecutive triples.  Triples with a step shorter than
    ``_LCURVE_MIN_STEP`` are skipped.  Fewer than three points, or a
    degenerate (straight) curve, select the last entry.
    """
    x = np.log10(np.maximum(np.asarray(residuals, dtype=float), 1e-300))
    y = np.log10(np.maximum(np.asarray(norms, dtype=float), 1e-300))
    n = x.size
    if n < 3:
        return n - 1
    best_idx, best_curv = n - 1, 0.0
    for i in range(1, n - 1):
        ax, ay = x[i] - x[i - 1], y[i] - y[i - 1]
        bx, by = x[i + 1] - x[i], y[i + 1] - y[i]
        area2 = ax * by - ay * bx
        d01 = math.hypot(ax, ay)
        d12 = math.hypot(bx, by)
        d02 = math.hypot(x[i + 1] - x[i - 1], y[i + 1] - y[i - 1])
        if min(d01, d12) < _LCURVE_MIN_STEP or d02 == 0.0:
            continue
        curv = abs(2.0 * area2 / (d01 * d12 * d02))
        if curv > best_curv + 1e-15:
            best_idx, best_curv = i, curv
    return best_idx


@dataclass
class CauchyProblemSpec:
    """Cauchy problem: operator kind, arc, rhs f, datum u0, discretization.

    Owns the rules trial_size in [1, TRIAL_MAX] and ``seed_quadrature_needs``,
    after ``check_quadrature_size``; a refusal's ``InputError.key`` names the
    parameter at fault.
    """

    operator: DiracOperatorKind
    arc: ArcSpec
    f: Optional[Callable]
    u0: Optional[Callable]
    schedule: Sequence[float]
    trial_size: int = 24
    n_r: int = 64
    n_phi: int = 256
    reference: Optional[Field] = None

    def __post_init__(self):
        core.validate_schedule(self.schedule)
        check_quadrature_size(self.n_r, self.n_phi)
        if not 1 <= self.trial_size <= TRIAL_MAX:
            raise InputError(f"'trial_size' must lie in [1, {TRIAL_MAX}]", key="trial_size")
        for key, need in seed_quadrature_needs(self.trial_size).items():
            if getattr(self, key) < need:
                exactly = f"to integrate the Grams of trial_size {self.trial_size} exactly"
                raise InputError(f"{key!r} must be >= {need} {exactly}", key=key)


@dataclass(frozen=True)
class PipelineRecord:
    epsilon: float
    l2_norm: float
    residual: float
    rel_error: float


@dataclass
class PipelineResult:
    """Epsilon sweep of the full Cauchy pipeline with diagnostics."""

    records: list
    verdict: core.Verdict
    growth_slope: float
    best_epsilon: float
    lift: FourierHarmonicField
    rel_error_at_best: float


def cauchy_pipeline(spec: CauchyProblemSpec) -> PipelineResult:
    """Run the full Cauchy-problem pipeline.

    Steps: lift the datum u0 to a harmonic U0 (its node values and gradient
    from ``FourierHarmonicField.at_nodes``), reduce to homogeneous
    Cauchy data via f~ = f - A U0, solve the perturbed problem with
    (f~, h = 0) for the whole schedule at once in the seed eigenbasis,
    classify the path by the slope rule, and select the reported epsilon
    by the L-curve corner.  The result keeps U0; u_eps, given below, is
    never built as a closure.

    The data enter once, as p = W^H (f~, A s); every u_eps is W p / (lam +
    eps).  Because s W is L^2-orthonormal (W^H M^T W = I) and A s W is
    orthogonal (W^H K^T W = diag(lam)), the residuals and ``rel_error`` of
    the whole schedule come from one node-value column each, at the
    smallest eps, plus exact coefficient-space terms
    (``SeedSystem.residuals``, ``SeedSystem.l2_distances``).
    """
    if spec.u0 is None:
        raise InputError("cauchy_pipeline requires an evaluable Cauchy datum u0")
    quad = DiskQuadrature.build(spec.n_r, spec.n_phi)
    lift = lift_cauchy_datum(
        spec.u0, spec.arc, spec.n_phi, complex_output=spec.operator.is_complex
    )
    seeds = build_seed_system(spec.arc, spec.operator, spec.trial_size, quad)

    lift_u, lift_gx, lift_gy = lift.at_nodes(quad)
    a_lift = spec.operator.apply_gradient(lift_gx, lift_gy)
    if spec.f is not None:
        f_raw = spec.f(quad.x, quad.y)
    else:
        f_raw = np.zeros_like(a_lift)
    f_tilde = np.asarray(f_raw) - a_lift

    epsilons = np.asarray(spec.schedule, dtype=float)
    proj = seeds.project(f_tilde)
    coeffs = seeds.eigvecs @ seeds.gains(proj, epsilons)
    norms = np.sqrt(_quad_forms(seeds.l2_gram, coeffs))
    residuals = seeds.residuals(proj, epsilons, f_tilde)
    rel = np.full(epsilons.size, np.nan)
    if spec.reference is not None:
        ref_vals = Field.wrap(spec.reference).value_xy(quad.x, quad.y)
        ref_norm = math.sqrt(max(float(np.real(quad.integrate(np.abs(ref_vals) ** 2))), 0.0))
        if ref_norm > 0.0:
            misfit = ref_vals - lift_u
            rel = seeds.l2_distances(proj, epsilons, misfit) / ref_norm
    records = [
        PipelineRecord(epsilon=float(e), l2_norm=float(n), residual=float(r), rel_error=float(q))
        for e, n, r, q in zip(epsilons, norms, residuals, rel)
    ]

    slope, verdict = core.path_verdict(epsilons, norms)

    best = l_curve_corner(norms, residuals)
    return PipelineResult(
        records=records,
        verdict=verdict,
        growth_slope=slope,
        best_epsilon=records[best].epsilon,
        lift=lift,
        rel_error_at_best=records[best].rel_error,
    )
