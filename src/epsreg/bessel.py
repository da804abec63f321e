"""Modified Bessel functions of the first kind and their range on the disk.

The radial part of a bounded solution of the separated Helmholtz-type
equation on the unit disk is ``I_i(sqrt(eps) * r)``: the modified Bessel
equation ``r^2 g'' + r g' - (i^2 + eps r^2) g = 0`` becomes the standard
modified Bessel equation in the variable ``sqrt(eps) * r``, and ``I_i`` is
its solution that stays bounded at the origin.

Two evaluation strategies are used: the ascending power series for small
arguments and a Miller-style downward recurrence (normalized against the
independently computed ``I_0``) for large ones.  The recurrence runs on
all large arguments of a call at once, each from its own start order
(Gautschi, SIAM Review 9, 1967).  No external special function library is
required.

The series stops once every element's term is at most 1e-18 of its sum.
The terms of one element first grow and then fall, and a term that small
can only come on the falling side, so every later term is smaller still
and below half an ulp of the sum (a subnormal sum needs x below 5e-4,
where the next term underflows to zero): adding it leaves the sum's bits
as they are.  An element may therefore run past its own stop without
changing, which is what happens when a slower element shares its call,
and also when the stop is tested only every _SERIES_STRIDE terms, which
saves four of the loop's nine array operations on the other terms.
"""

from __future__ import annotations

import math

import numpy as np

from .core import check_epsilon
from .errors import InputError

__all__ = [
    "NU_MAX",
    "X_MAX",
    "check_disk_epsilon",
    "check_order",
    "bessel_i",
    "bessel_i_prime",
]

NU_MAX = 60
X_MAX = 60.0


def check_disk_epsilon(epsilon) -> float:
    """``core.check_epsilon``, then eps <= X_MAX**2: I_i(sqrt(eps) r), r <= 1, stays in range."""
    eps = check_epsilon(epsilon)
    if eps > X_MAX**2:
        bound = f"{X_MAX**2:g}, where sqrt(eps) leaves the Bessel range [0, {X_MAX:g}]"
        raise InputError(f"eps above {bound}, got {eps:g}")
    return eps


_SERIES_SWITCH = 15.0
_SERIES_STRIDE = 4
_MILLER_BUFFER = 40
_FACTORIALS = np.array([float(math.factorial(n)) for n in range(171)])  # 171! overflows


def check_order(nu):
    """The order(s) as an integer array in [0, NU_MAX], or InputError."""
    arr = np.asarray(nu)
    if arr.dtype.kind not in "iu":
        raise InputError(f"order must be an integer, got {nu!r}")
    bad = arr[(arr < 0) | (arr > NU_MAX)]
    if bad.size:
        raise InputError(f"order {bad.flat[0]} outside supported range [0, {NU_MAX}]")
    return arr


def _series(nu, x: np.ndarray) -> np.ndarray:
    """Ascending series sum_k (x/2)^(2k+nu) / (k! (k+nu)!), one order per element.

    All terms are positive, so nothing cancels, and x <= X_MAX needs well under
    200 terms.  The stop is tested every _SERIES_STRIDE terms (see the module
    docstring for why the bits do not depend on where the loop stops).
    """
    half = 0.5 * x
    quarter_sq = half * half
    # numpy squares a scalar exponent 2 exactly; pow can differ in the last bit.
    term = np.where(nu == 2, quarter_sq, half**nu) / _FACTORIALS[nu]
    total = term.copy()
    for k in range(1, 200):
        term = term * quarter_sq / (k * (k + nu))
        total += term
        if k % _SERIES_STRIDE == 0 and (term <= 1e-18 * (total + 1e-300)).all():
            break
    return total


def _miller_downward(nu, x: np.ndarray) -> np.ndarray:
    """Downward recurrence I_{n-1} = I_{n+1} + (2n/x) I_n, one order per element.

    Each element is seeded with 1e-30 at its own start order int(max(nu, x))
    + _MILLER_BUFFER, rescaled by 1e-250 on its own past 1e250, read off at its
    own order and normalized by the series I_0(x), as in a run for it alone.
    """
    start = np.maximum(nu, x).astype(int) + _MILLER_BUFFER
    seed_orders = set(start.tolist())
    read_orders = set(nu.tolist())
    upper = np.zeros_like(x)  # I_{n+1}
    current = np.zeros_like(x)  # I_n
    at_nu = np.zeros_like(x)
    for n in range(max(seed_orders), 0, -1):
        if n in seed_orders:
            current[start == n] = 1e-30
        lower = upper + (2.0 * n / x) * current
        if lower.max() > 1e250:
            big = lower > 1e250
            lower[big] *= 1e-250
            current[big] *= 1e-250
            at_nu[big] *= 1e-250
        if n - 1 in read_orders:
            at_nu = np.where(nu == n - 1, lower, at_nu)
        upper, current = current, lower
    return at_nu * (_series(0, x) / current)


def _bessel_i(nu, x) -> np.ndarray:
    """The one Bessel kernel: I_nu(x) for validated x, orders broadcast against x."""
    nu, arr = np.broadcast_arrays(nu, np.atleast_1d(np.asarray(x, dtype=float)))
    out = np.empty(arr.shape)
    small = arr < _SERIES_SWITCH
    if small.any():
        out[small] = _series(nu[small], arr[small])
    if not small.all():
        out[~small] = _miller_downward(nu[~small], arr[~small])
    return out


def _validate_argument(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    # min and max propagate NaN, which fails both comparisons.
    if arr.size and not (0.0 <= arr.min() and arr.max() <= X_MAX):
        raise InputError(f"bessel_i argument outside supported range [0, {X_MAX}]")
    return arr


def bessel_i(nu, x):
    """Modified Bessel function of the first kind I_nu(x).

    Parameters
    ----------
    nu : int or integer ndarray
        Order(s) in ``[0, NU_MAX]``, broadcast against ``x``: one call per table.
    x : float or ndarray
        Argument(s), ``0 <= x <= X_MAX``.

    Returns
    -------
    float or ndarray
        ``I_nu(x)`` (a float for scalar inputs), relative accuracy about 1e-13.

    Raises
    ------
    InputError
        For arguments that are NaN, negative or above ``X_MAX`` (where the
        result would leave the supported overflow-safe range) or orders
        outside ``[0, NU_MAX]``.
    """
    nu = check_order(nu)
    arr = _validate_argument(x)
    out = _bessel_i(nu, arr)
    return float(out[0]) if nu.ndim == arr.ndim == 0 else out


def bessel_i_prime(nu, x):
    """Derivative I_nu'(x) = (I_{nu-1}(x) + I_{nu+1}(x)) / 2, orders as in bessel_i.

    ``I_{-1} = I_1`` is used for ``nu = 0``.  The value at ``x = 0`` is the
    one-sided limit (``1/2`` for ``nu = 1``, ``0`` otherwise).  Supported
    for every order up to NU_MAX; both neighbors come from one kernel call.
    """
    nu = check_order(nu)
    arr = _validate_argument(x)
    nu_b, arr_b = np.broadcast_arrays(nu, np.atleast_1d(arr))
    lower, upper = _bessel_i([np.where(nu_b == 0, 1, nu_b - 1), nu_b + 1], [arr_b, arr_b])
    out = 0.5 * (lower + upper)
    return float(out[0]) if nu.ndim == arr.ndim == 0 else out

