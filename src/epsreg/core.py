"""Finite-dimensional (T*T + eps I) regularization engine.

Given a dense operator ``T`` between finite-dimensional inner-product
spaces, the perturbed normal equation ``(T*T + eps I) u = T* f + eps h``
is uniquely solvable for every ``eps > 0`` because the left-hand side is
Hermitian positive definite.  Sweeping ``eps`` downward produces a family
``{u_eps}`` whose boundedness decides solvability of ``T u = f`` when
``f`` lies in the closure of the range: the family then stays bounded
exactly when a solution exists, and converges to the solution orthogonal
to ``ker T``.  When the range is closed (the disk gradient with data on
an arc), the family is bounded for any ``f``, and a missing solution shows
up as a positive limit residual ``||T u_eps - f||``.  A matrix has a closed
range too, but its bound ``||f|| / sigma_min`` can lie far beyond the end
of the schedule, which is all the slope proxy below reads.

The engine works in two stages, in the thin SVD ``T = U diag(s) V*`` of
the operator, formed once at its first projection.
``DiscreteOperator.project`` takes the data of a path to the singular
coordinates ``U* f`` and ``V* h`` once and splits off ``h_perp``, the part
of h outside the row space of T, which no eps changes; ``solve_perturbed``
then solves each eps as a diagonal filter on them, ``u_eps = h_perp +
V c(eps)``: this is Tikhonov regularization with an a-priori guess (Engl,
Hanke and Neubauer, Regularization of Inverse Problems, 1996, ch. 5).

The boundedness criterion is asymptotic; as a finite-sample proxy this
module fits the slope of ``log ||u_eps||`` against ``log(1/eps)`` over the
final decade of the sweep and compares it with the fixed thresholds
``BOUNDED_SLOPE`` and ``UNBOUNDED_SLOPE``.  A path of fewer than two eps is
Inconclusive: one eps is no evidence of boundedness.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from operator import length_hint

import numpy as np

from .errors import InputError, NumericError

__all__ = [
    "DiscreteOperator",
    "PerturbedSolution",
    "ProjectedData",
    "RegularizationPath",
    "Verdict",
    "solve_perturbed",
    "check_epsilon",
    "run_path",
    "fit_growth_slope",
    "path_verdict",
    "parse_matrix_text",
    "load_matrix",
    "read_text",
    "BOUNDED_SLOPE",
    "UNBOUNDED_SLOPE",
]

# Slope thresholds for the path verdict.  A path is Bounded when the fitted
# tail slope is below BOUNDED_SLOPE and Unbounded above UNBOUNDED_SLOPE.
# UNBOUNDED_SLOPE = 0.2 corresponds to growth by a factor 10**0.4 ~ 2.5 per
# two decades of eps, below the 3x-per-two-decades growth of the canonical
# slowly-decaying diagonal instance (slope 1/4).
BOUNDED_SLOPE = 0.1
UNBOUNDED_SLOPE = 0.2

_TINY_NORM = 1e-300
_EPS_MIN = float(np.finfo(float).tiny)


class Verdict(enum.Enum):
    """Solvability classification of a regularization path."""

    BOUNDED = "Bounded"
    UNBOUNDED = "Unbounded"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class DiscreteOperator:
    """Dense matrix representation of an operator T : H -> H~.

    ``matrix`` has shape (cod_dim, dom_dim); real or complex entries, all
    finite.  The conjugate transpose represents the adjoint T*.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = _checked_matrix(self.matrix)
        # An own read-only copy: neither the caller's array nor a later load
        # that shares this operator can change it under its cached SVD.
        object.__setattr__(self, "matrix", _read_only(mat.astype(np.result_type(mat, float))))

    @classmethod
    def _adopt(cls, mat: np.ndarray) -> DiscreteOperator:
        """Operator over a fresh float or complex array that nothing else holds.

        The array is checked and made read-only in place, not copied.
        """
        operator = cls.__new__(cls)
        object.__setattr__(operator, "matrix", _read_only(_checked_matrix(mat)))
        return operator

    @property
    def dom_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def cod_dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def svd(self):
        """(U, s, Vh), the thin SVD T = U diag(s) Vh; one per operator, at its first projection."""
        import scipy.linalg  # on first use: of the runs, only matrix_path needs it

        factors = scipy.linalg.svd(self.matrix, full_matrices=False, check_finite=False)
        return tuple(_read_only(factor) for factor in factors)

    def project(self, f, h) -> ProjectedData:
        """f and h in the singular coordinates of T, for ``solve_perturbed``.

        ``f`` (length ``cod_dim``) and ``h`` (length ``dom_dim``) are checked
        here, each an InputError keyed on its name.  ``U* f`` and
        ``||f - U U* f||`` are two matrix passes, and ``V* h`` and
        ``h_perp`` two more; when h = 0 both are zero arrays, made with no
        pass.  Every array is fresh and read-only, so a later write to the
        caller's f or h does not reach a solve from it.
        """
        fv = _as_vector(f, self.cod_dim, "f")
        hv = _as_vector(h, self.dom_dim, "h")
        left, s, right = self.svd
        # Data near the float range can overflow; the solve reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            left_f = _adjoint_times(left, fv)
            if hv.any():
                right_h = right @ hv
                h_perp = hv - _adjoint_times(right, right_h)
            else:
                right_h, h_perp = np.zeros(s.size), np.zeros_like(hv)
            norms = _norm(fv - left @ left_f), _norm(h_perp)
        return ProjectedData(self, *map(_read_only, (left_f, right_h, h_perp)), *norms)


def _checked_matrix(matrix) -> np.ndarray:
    mat = np.asarray(matrix)
    if mat.ndim != 2 or mat.size == 0:
        raise InputError(f"operator matrix must be 2-d and nonempty, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise InputError("operator matrix contains non-finite entries")
    return mat


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ProjectedData:
    """The data of a path in the singular coordinates of T (``DiscreteOperator.project``).

    ``left_f`` is ``U* f``, ``right_h`` is ``V* h`` and ``h_perp`` is
    ``h - V V* h``, the part of h outside the row space of T; all three are
    read-only.  ``norm_f_perp`` is ``||f - U U* f||`` and ``norm_h_perp``
    is ``||h_perp||``.  Every solve of the path reads these and makes no
    matrix pass.
    """

    operator: DiscreteOperator = field(repr=False)
    left_f: np.ndarray
    right_h: np.ndarray
    h_perp: np.ndarray
    norm_f_perp: float
    norm_h_perp: float


@dataclass(frozen=True)
class PerturbedSolution:
    """One solve of (T*T + eps I) u = T* f + eps h.

    ``norm_h`` is the Euclidean norm of u, ``norm_eps`` the perturbed norm
    sqrt(||Tu||^2 + eps ||u||^2) and ``residual`` the limit residual
    ||Tu - f|| (``solve_perturbed``).
    The solution vector ``u = h_perp + V c`` is a cached read-only property,
    formed from the parts the solve keeps at its first read, one matrix
    pass, so a sweep that reads only the norms never forms it.
    """

    epsilon: float
    norm_h: float
    norm_eps: float
    residual: float
    _parts: tuple = field(repr=False, compare=False)  # (h_perp, V*, c)

    @cached_property
    def u(self) -> np.ndarray:
        h_perp, right, coeffs = self._parts
        return _read_only(h_perp + _adjoint_times(right, coeffs))


@dataclass(frozen=True)
class RegularizationPath:
    """Ordered eps-sweep with a solvability verdict.

    ``growth_slope`` is the fitted slope of log||u_eps|| versus log(1/eps)
    over the final decade of the schedule.  ``run_path`` builds it from a
    schedule that ``validate_schedule`` has passed.
    """

    entries: tuple
    verdict: Verdict
    growth_slope: float


def _as_vector(v, length: int, name: str) -> np.ndarray:
    arr = np.asarray(v)
    if arr.ndim != 1 or arr.shape[0] != length:
        raise InputError(
            f"{name} must be a vector of length {length}, got shape {arr.shape}", key=name
        )
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries", key=name)
    return arr


def _adjoint_times(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """mat* v as (v^H mat)^H: for a complex mat, mat.conj().T would copy the matrix."""
    return (v.conj() @ mat).conj()


def solve_perturbed(projected: ProjectedData, epsilon: float) -> PerturbedSolution:
    """Solve (T*T + eps I) u = T* f + eps h from the projected data of f and h.

    ``projected`` is ``T.project(f, h)``, which holds ``U* f``, ``V* h`` and
    ``h_perp = h - V V* h`` in the thin SVD ``T.svd`` = (U, s, V*).  In that
    basis the equation is diagonal, and each eps is a filter on those
    coordinates: ``c = (s U* f + eps V* h) / (s^2 + eps)`` and
    ``u = h_perp + V c``.  No product with T*T is formed, so the forward
    error does not grow like ``eps_mach ||T*T|| / eps`` (Hansen,
    Rank-Deficient and Discrete Ill-Posed Problems, 1998, ch. 4-5).  The
    norms come from these coordinates alone, ``||u||^2 = ||h_perp||^2 +
    ||c||^2`` since V has orthonormal columns orthogonal to h_perp, and
    ``||T u|| = ||s c||``, so the solve makes no matrix pass and ``u`` costs
    one pass at its first read.  ``residual`` is ``||T u - f||``, which is
    ``hypot(||eps (s V* h - U* f) / (s^2 + eps)||, ||f - U U* f||)`` as
    ``T h_perp = 0``; unlike the product ``T u - f``, it does not cancel when
    small (Engl, Hanke and Neubauer 1996, sec. 4.3).  A non-finite
    entry or an overflowing norm raises NumericError here, never at the
    read of ``u``: each entry of ``u`` is at most ``||h_perp|| + ||c||`` in
    modulus, since the rows of V have norm at most 1.

    Parameters
    ----------
    projected : ProjectedData
        The data of the solve, from ``DiscreteOperator.project``.
    epsilon : float
        Perturbation parameter, held to ``check_epsilon``.
    """
    epsilon = check_epsilon(epsilon)
    _, s, right = projected.operator.svd
    # Data or singular values near the float range can overflow; that shows
    # up as an infinite norm, reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        denom = s * s + epsilon
        rhs = s * projected.left_f + epsilon * projected.right_h
        c = rhs / denom
        misfit = _norm(epsilon * (s * projected.right_h - projected.left_f) / denom)
        residual = math.hypot(misfit, projected.norm_f_perp)
        norm_perp, norm_c = projected.norm_h_perp, _norm(c)
        norm_h = math.hypot(norm_perp, norm_c)
        norm_eps = math.hypot(_norm(s * c), math.sqrt(epsilon) * norm_h)
    # A non-finite entry of h_perp or c makes its norm, and so the sum, non-finite too.
    if not math.isfinite(norm_perp + norm_c + norm_eps):
        raise NumericError(f"solution or its norm overflows at eps={epsilon:g}")
    return PerturbedSolution(epsilon, norm_h, norm_eps, residual, (projected.h_perp, right, c))


def _norm(v: np.ndarray) -> float:
    """||v||, rescaled by max |v_k| only when the plain sum of squares overflows."""
    norm = float(np.linalg.norm(v))
    if math.isfinite(norm) or not np.all(np.isfinite(v)):
        return norm
    scale = float(np.max(np.abs(v)))
    return scale * float(np.linalg.norm(v / scale))


def check_epsilon(epsilon) -> float:
    """eps as a float, or InputError: the one rule for every eps of the package.

    eps must be finite and at least the smallest normal double, so NaN, inf,
    zero, negative and subnormal values fail here rather than as NaN or
    all-zero output later.  ``diskbasis.check_helmholtz`` also takes eps = 0.
    """
    eps = float(epsilon)
    if not _EPS_MIN <= eps < math.inf:
        raise InputError(f"epsilon must be finite and at least {_EPS_MIN:.3e}, got {eps}")
    return eps


def validate_schedule(schedule) -> np.ndarray:
    """The eps schedule as a float array, or InputError.

    A schedule is a nonempty 1-d sequence of strictly decreasing values,
    each passing ``check_epsilon``.
    """
    sched = np.asarray(schedule, dtype=float)
    if sched.ndim != 1 or sched.size == 0:
        raise InputError("schedule must be a nonempty 1-d sequence")
    for eps in sched.tolist():
        check_epsilon(eps)
    if np.any(np.diff(sched) >= 0.0):
        raise InputError("schedule must be strictly decreasing")
    return sched


def fit_growth_slope(epsilons, norms) -> float:
    """Least-squares slope of log10||u|| vs log10(1/eps) over the final decade.

    Entries with numerically zero norm are treated as flat (they cannot
    witness growth).  If the final decade holds a single point the last two
    schedule entries are used instead; a one-entry schedule fits as flat (0.0).
    """
    eps = np.asarray(epsilons, dtype=float)
    nrm = np.asarray(norms, dtype=float)
    tail = eps <= 10.0 * eps[-1] * (1.0 + 1e-12)
    if np.count_nonzero(tail) < 2:
        tail = np.zeros_like(tail)
        tail[-2:] = True
    e_t, n_t = eps[tail], nrm[tail]
    if np.all(n_t <= _TINY_NORM):
        return 0.0
    x = np.log10(1.0 / e_t)
    y = np.log10(np.maximum(n_t, _TINY_NORM))
    x = x - x.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return 0.0
    return float(np.dot(x, y - y.mean()) / denom)


def path_verdict(epsilons, norms) -> tuple[float, Verdict]:
    """(growth slope, verdict) of a path's norms along its eps schedule.

    The path is Bounded when the slope is below BOUNDED_SLOPE and Unbounded
    above UNBOUNDED_SLOPE.  One eps is no evidence of boundedness, so a path
    of fewer than two entries is Inconclusive whatever its slope.
    """
    slope = fit_growth_slope(epsilons, norms)
    if len(epsilons) < 2:
        return slope, Verdict.INCONCLUSIVE
    if slope < BOUNDED_SLOPE:
        return slope, Verdict.BOUNDED
    if slope > UNBOUNDED_SLOPE:
        return slope, Verdict.UNBOUNDED
    return slope, Verdict.INCONCLUSIVE


def run_path(T: DiscreteOperator, f, h, schedule) -> RegularizationPath:
    """Solve the perturbed problem along a decreasing eps schedule.

    f and h are projected once (``DiscreteOperator.project``), and each eps
    is one ``solve_perturbed`` on that projection: the path makes one
    matrix pass in all with h = 0 and three with h != 0, and no pass per eps.
    The verdict is a finite-sample proxy for the boundedness criterion:
    the growth slope of the norms over the final decade of the schedule is
    compared against BOUNDED_SLOPE and UNBOUNDED_SLOPE (``path_verdict``).
    """
    sched = validate_schedule(schedule)
    projected = T.project(f, h)
    entries = tuple(solve_perturbed(projected, eps) for eps in sched.tolist())
    slope, verdict = path_verdict(sched, [e.norm_h for e in entries])
    return RegularizationPath(entries=entries, verdict=verdict, growth_slope=slope)


def _parse_entry(token: bytes):
    if b"," in token:
        re_part, im_part = token.split(b",", 1)
        return complex(float(re_part), float(im_part))
    return float(token)


def _check_ascii(text, what: str) -> None:
    """InputError naming the first non-ASCII character of ``text`` and its offset."""
    if not text.isascii():
        at = re.search(r"[^\x00-\x7f]" if isinstance(text, str) else rb"[^\x00-\x7f]", text).start()
        raise InputError(f"{what} is not ASCII: {text[at:at + 1]!r} at offset {at}")


def parse_matrix_text(text: str | bytes) -> DiscreteOperator:
    """Parse the plain-text matrix format.

    The text is ASCII.  First line: ``rows cols``.  Then ``rows * cols``
    whitespace-separated entries in row-major order; complex entries are
    written ``re,im``.  ``text`` is a ``str`` or ``bytes``; both are split
    and converted as bytes, and a non-ASCII character in either is an
    InputError.
    """
    _check_ascii(text, "matrix text")
    data = text.encode("ascii") if isinstance(text, str) else text
    tokens = data.split()
    if len(tokens) < 2:
        raise InputError("matrix text must start with 'rows cols'")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        header = [token.decode() for token in tokens[:2]]
        raise InputError(f"malformed matrix header: {header}") from exc
    if rows <= 0 or cols <= 0:
        raise InputError(f"matrix dimensions must be positive, got {rows} x {cols}")
    body = tokens[2:]
    del tokens  # one list of the entries through the conversion, not two
    if len(body) != rows * cols:
        raise InputError(f"expected {rows * cols} matrix entries, found {len(body)}")
    kind, convert = (complex, _parse_entry) if b"," in data else (float, float)
    entries = iter(body)
    try:
        arr = np.fromiter(map(convert, entries), dtype=kind, count=len(body))
    except ValueError as exc:  # map stopped at the bad token: those it did not pull follow it
        row, col = divmod(len(body) - 1 - length_hint(entries), cols)
        bad = f"{body[row * cols + col].decode()!r} at row {row + 1}, column {col + 1}"
        raise InputError(f"malformed matrix entry {bad}") from exc
    return DiscreteOperator._adopt(arr.reshape(rows, cols))


def _read_bytes(path, what: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError as exc:
        raise InputError(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def read_text(path, what: str) -> str:
    """UTF-8 text of a file; a missing, unreadable or undecodable file is an InputError."""
    try:
        return _read_bytes(path, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


# (file bytes, operator) of the last matrix file loaded.  One tuple, read
# and replaced whole, so a thread never pairs one file's bytes with another
# file's operator.
_last_matrix = (None, None)


def load_matrix(path) -> DiscreteOperator:
    """Read a DiscreteOperator from a text file in the plain-text format.

    The operator is keyed on the file's bytes themselves, never on its
    path or mtime.  When the bytes equal those of the last file loaded
    (one read and one compare), that operator is returned again with the
    read-only ``svd`` it has formed, so a process parses and factors one
    operator content once however many data it sweeps.  A load never
    factors: the SVD runs at the operator's first projection.  Only the last
    operator is kept; other bytes are parsed and validated as a first
    load, and a file that fails to load leaves the kept one alone.  The
    price is that the process holds the last file's bytes between loads,
    not a digest: 10.4 MB for an 800 x 600 matrix of ``repr`` floats,
    whose operator is 3.84 MB.  A non-ASCII file is refused with its name.
    """
    global _last_matrix
    data = _read_bytes(path, "matrix file")
    kept, operator = _last_matrix
    if data == kept:
        return operator
    _check_ascii(data, f"matrix file {path}")
    operator = parse_matrix_text(data)
    _last_matrix = (data, operator)
    return operator
