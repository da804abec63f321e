"""Tests for the dense (T*T + eps I) engine and path diagnostics."""

import functools
import math
import os
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from epsreg import cli, core, diskbasis, ode1d, variational
from epsreg.core import (
    DiscreteOperator,
    _parse_entry,
    Verdict,
    fit_growth_slope,
    load_matrix,
    parse_matrix_text,
    path_verdict,
    run_path,
    solve_perturbed,
)
from epsreg.bessel import check_disk_epsilon
from epsreg.errors import InputError, NumericError
from reference import (
    graded_operator,
    kernel_orthogonality_check,
    limit_residual_mp,
    minimal_norm_solution,
    perturbed_solution_mp,
)


def direct_solve_oracle(matrix, f, h, eps):
    """Independent dense route: LU solve of the assembled normal equations."""
    matrix = np.asarray(matrix)
    adj = matrix.conj().T
    system = adj @ matrix + eps * np.eye(matrix.shape[1])
    return np.linalg.solve(system, adj @ np.asarray(f) + eps * np.asarray(h))


class TestSolvePerturbed:
    def test_scalar_example(self):
        T = DiscreteOperator(np.array([[1.0]]))
        sol = solve_perturbed(T.project([1.0], [0.0]), 1.0)
        assert sol.u == pytest.approx([0.5])

    def test_zero_operator(self):
        T = DiscreteOperator(np.zeros((2, 2)))
        sol = solve_perturbed(T.project([3.0, -2.0], [0.0, 0.0]), 0.7)
        np.testing.assert_allclose(sol.u, 0.0, atol=1e-15)

    def test_diagonal_example(self):
        T = DiscreteOperator(np.diag([1.0, 0.5]))
        sol = solve_perturbed(T.project([1.0, 1.0], [0.0, 0.0]), 0.01)
        np.testing.assert_allclose(sol.u, [1.0 / 1.01, 0.5 / 0.26], rtol=1e-12)
        np.testing.assert_allclose(
            sol.u, direct_solve_oracle(T.matrix, [1.0, 1.0], [0.0, 0.0], 0.01), rtol=1e-12
        )

    def test_norms_recorded(self):
        rng = np.random.default_rng(3)
        T = DiscreteOperator(rng.standard_normal((4, 3)))
        f = rng.standard_normal(4)
        h = rng.standard_normal(3)
        sol = solve_perturbed(T.project(f, h), 0.3)
        assert sol.norm_h == pytest.approx(np.linalg.norm(sol.u), rel=1e-14)
        expected_eps = np.sqrt(
            np.linalg.norm(T.matrix @ sol.u) ** 2 + 0.3 * sol.norm_h**2
        )
        assert sol.norm_eps == pytest.approx(expected_eps, rel=1e-12)

    def test_forward_error_and_residual(self):
        # u and the limit residual ||T u - f|| against a 50-digit solve of the
        # same normal equations, on wide operators (f in the range) and tall
        # ones (f not in it).  The residual measured within 1.6e-14 relative.
        rng = np.random.default_rng(11)
        for k in range(25):
            rows, cols = (6, 9) if k % 2 == 0 else (9, 6)
            T = DiscreteOperator(rng.standard_normal((rows, cols)))
            f = rng.standard_normal(rows)
            h = rng.standard_normal(cols)
            eps = 10.0 ** rng.uniform(-8, 2)
            sol = solve_perturbed(T.project(f, h), eps)
            exact = perturbed_solution_mp(T.matrix, f, h, eps)
            assert np.linalg.norm(sol.u - exact) <= 1e-13 * np.linalg.norm(exact)
            assert sol.residual == pytest.approx(limit_residual_mp(T.matrix, f, h, eps), rel=1e-12)

    @pytest.mark.parametrize("complex_op", [False, True])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_u_is_the_singular_basis_formula_bitwise(self, complex_op, shifted):
        # u = h_perp + V c with h_perp = h - V V* h and
        # c = (s U* f + eps V* h) / (s^2 + eps); with h = 0 both V* h and
        # h_perp are zeros.  norm_h is hypot(||h_perp||, ||c||), which is
        # ||u|| to rounding.
        rng = np.random.default_rng(17)
        matrix = rng.standard_normal((9, 6))
        if complex_op:
            matrix = matrix + 1j * rng.standard_normal((9, 6))
        T = DiscreteOperator(matrix)
        f = rng.standard_normal(9)
        h = rng.standard_normal(6) if shifted else np.zeros(6)
        left, s, right = T.svd
        right_h = right @ h if shifted else np.zeros(6)
        h_perp = h - core._adjoint_times(right, right_h) if shifted else np.zeros(6)
        for eps in (1.0, 1e-4, 1e-12):
            sol = solve_perturbed(T.project(f, h), eps)
            c = (s * core._adjoint_times(left, f) + eps * right_h) / (s * s + eps)
            assert np.array_equal(sol.u, h_perp + core._adjoint_times(right, c))
            assert sol.norm_h == math.hypot(np.linalg.norm(h_perp), np.linalg.norm(c))
            assert sol.norm_h == pytest.approx(np.linalg.norm(sol.u), rel=1e-14)

    @pytest.mark.parametrize("shifted", [False, True])
    def test_matrix_passes_and_u_read_once(self, shifted):
        # h = 0: two passes at the projection, U* f and U (U* f) for
        # ||f - U U* f||; h != 0: V* h and V (V* h) there too.  The solve
        # makes none, and the first read of u one more (V c).
        rng = np.random.default_rng(4)
        T, passes = _counted(rng.standard_normal((7, 5)))
        h = rng.standard_normal(5) if shifted else np.zeros(5)
        sol = solve_perturbed(T.project(rng.standard_normal(7), h), 0.1)
        assert len(passes) == (4 if shifted else 2)
        u = sol.u
        assert len(passes) == (5 if shifted else 3) and sol.u is u and not u.flags.writeable
        h[:] = 1.0  # the caller's h is theirs again once the solve returns
        assert np.array_equal(sol.u, u)
        with pytest.raises(AttributeError):
            sol.u = u

    @pytest.mark.parametrize("shifted", [False, True])
    def test_overflow_raises_at_the_solve(self, shifted):
        # c_2 = 1e-200 * 1e201 / (1e-400 + 3e-308) is beyond the largest
        # double; the solve raises, whether or not u is ever read.
        T = DiscreteOperator(np.diag([1e-200, 1.0]))
        h = [1.0, 1.0] if shifted else [0.0, 0.0]
        with pytest.raises(NumericError, match=r"^solution or its norm overflows at eps=3e-308$"):
            solve_perturbed(T.project([1e201, 1.0], h), 3e-308)

    @pytest.mark.parametrize("shifted", [False, True])
    def test_norm_beyond_the_squares_range_is_finite(self, shifted):
        # c = (1, 1e200): its plain sum of squares overflows, its norm does not.
        T = DiscreteOperator(np.diag([1e-100, 1.0]))
        h = [1.0, 1.0] if shifted else [0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_perturbed(T.project([1e100, 1.0], h), 1e-300)
        assert sol.norm_h == pytest.approx(1e200, rel=1e-15)
        assert np.all(np.isfinite(sol.u)) and math.isfinite(sol.norm_eps)

    def test_overflowing_norm_of_finite_entries_raises(self):
        # c = (1.5e308, 1.5e308) is finite; its norm, 2.1e308, is not.
        T = DiscreteOperator(np.diag([1e-100, 1e-100]))
        with pytest.raises(NumericError, match=r"^solution or its norm overflows at eps=1e-300$"):
            solve_perturbed(T.project([1.5e208, 1.5e208], [0.0, 0.0]), 1e-300)

    @pytest.mark.parametrize("complex_op", [False, True])
    def test_wide_operator_with_h_outside_the_row_space(self, complex_op):
        # A 4x7 T has a 3-dimensional kernel, so a random h has a part
        # h_perp = h - V V* h that no eps changes: u_eps = h_perp + V c and
        # ||u_eps|| = hypot(||h_perp||, ||c||).
        rng = np.random.default_rng(40)
        matrix = rng.standard_normal((4, 7))
        if complex_op:
            matrix = matrix + 1j * rng.standard_normal((4, 7))
        T = DiscreteOperator(matrix)
        f, h = rng.standard_normal(4), rng.standard_normal(7)
        left, s, right = T.svd
        h_perp = h - core._adjoint_times(right, right @ h)
        assert np.linalg.norm(h_perp) >= 0.3 * np.linalg.norm(h)
        for eps in (1e2, 1.0, 1e-4, 1e-10):
            sol = solve_perturbed(T.project(f, h), eps)
            c = (s * core._adjoint_times(left, f) + eps * (right @ h)) / (s * s + eps)
            assert sol.norm_h == math.hypot(np.linalg.norm(h_perp), np.linalg.norm(c))
            exact = perturbed_solution_mp(T.matrix, f, h, eps)
            assert np.linalg.norm(sol.u - exact) <= 1e-13 * np.linalg.norm(exact)
            assert sol.norm_h == pytest.approx(np.linalg.norm(exact), rel=1e-13)

    def test_h_near_the_float_limit_raises_at_the_solve(self):
        # T = [1 1]: h = (1.7e308, -1.7e308) is orthogonal to the row space,
        # and u_1 = 1.7e308 + 5e307 would overflow at the read of u; the
        # solve raises first, as ||h_perp|| + ||c|| is beyond the largest double.
        T = DiscreteOperator(np.array([[1.0, 1.0]]))
        projected = T.project([1e308], [1.7e308, -1.7e308])
        assert np.all(np.isfinite(projected.h_perp))
        with pytest.raises(NumericError, match=r"^solution or its norm overflows at eps=0\.001$"):
            solve_perturbed(projected, 1e-3)

    @pytest.mark.parametrize("complex_op", [False, True])
    def test_rank_deficient_down_to_smallest_normal(self, complex_op):
        # Near-null directions of T get the filter s / (s^2 + eps), which
        # stays below 1 / (2 sqrt(eps)): every solve succeeds without a
        # warning, down to the smallest normal eps, within the energy bound.
        rng = np.random.default_rng(21)
        matrix = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 8))
        if complex_op:
            matrix = matrix + 1j * (rng.standard_normal((12, 3)) @ rng.standard_normal((3, 8)))
        T = DiscreteOperator(matrix)
        f = rng.standard_normal(12)
        for h in (np.zeros(8), rng.standard_normal(8)):
            for eps in (1e-1, 1e-8, 1e-100, 1e-300, np.finfo(float).tiny):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    sol = solve_perturbed(T.project(f, h), eps)
                bound = np.linalg.norm(f) + math.sqrt(eps) * np.linalg.norm(h)
                assert np.isfinite(sol.norm_h) and sol.norm_eps <= (1.0 + 1e-12) * bound
                if eps >= 1e-8:
                    exact = perturbed_solution_mp(T.matrix, f, h, eps)
                    assert np.linalg.norm(sol.u - exact) <= 1e-6 * np.linalg.norm(exact)

    def test_complex_operator(self):
        T = DiscreteOperator(np.array([[1.0 + 1.0j, 0.0], [0.0, 2.0j]]))
        f = np.array([1.0 - 1.0j, 2.0])
        sol = solve_perturbed(T.project(f, np.zeros(2)), 0.5)
        np.testing.assert_allclose(
            sol.u, direct_solve_oracle(T.matrix, f, np.zeros(2), 0.5), rtol=1e-12
        )

    def test_input_errors(self):
        T = DiscreteOperator(np.eye(2))
        with pytest.raises(InputError) as bad_f:
            solve_perturbed(T.project([1.0], [0.0, 0.0]), 1.0)
        assert bad_f.value.key == "f"
        assert str(bad_f.value) == "f must be a vector of length 2, got shape (1,)"
        with pytest.raises(InputError) as bad_h:
            solve_perturbed(T.project([1.0, 1.0], [0.0]), 1.0)
        assert bad_h.value.key == "h"
        with pytest.raises(InputError):
            solve_perturbed(T.project([1.0, 1.0], [0.0, 0.0]), 0.0)
        with pytest.raises(InputError):
            solve_perturbed(T.project([1.0, 1.0], [0.0, 0.0]), -1.0)
        with pytest.raises(InputError):
            DiscreteOperator(np.array([[np.nan, 1.0]]))

    @pytest.mark.parametrize(
        "bad",
        [np.nan, np.inf, -np.inf, complex(np.inf, 0.0), complex(np.nan, 1.0),
         complex(0.0, np.inf), complex(1.0, np.nan), complex(0.0, -np.inf)],
    )
    @pytest.mark.parametrize("where", ["operator", "f", "h"])
    def test_non_finite_entries(self, where, bad):
        dtype = complex if isinstance(bad, complex) else float
        data = {"operator": np.eye(2, dtype=dtype), "f": np.ones(2, dtype), "h": np.zeros(2, dtype)}
        data[where][(0, 1) if where == "operator" else 1] = bad
        name = "operator matrix" if where == "operator" else where
        with pytest.raises(InputError, match=f"^{name} contains non-finite entries$") as err:
            solve_perturbed(DiscreteOperator(data["operator"]).project(data["f"], data["h"]), 1.0)
        assert err.value.key == (None if where == "operator" else where)


class TestTikhonovIdentity:
    def test_identity_100_random(self):
        # For f = T u, h = 0: u_eps = u - eps (T*T + eps I)^{-1} u.  The
        # right-hand side goes through an independent LU route.
        rng = np.random.default_rng(42)
        for trial in range(100):
            rows = int(rng.integers(1, 21))
            cols = int(rng.integers(1, 31))
            T = DiscreteOperator(rng.standard_normal((rows, cols)))
            u = rng.standard_normal(cols)
            eps = 10.0 ** rng.uniform(-3, 1)
            sol = solve_perturbed(T.project(T.matrix @ u, np.zeros(cols)), eps)
            adj = T.matrix.conj().T
            system = adj @ T.matrix + eps * np.eye(cols)
            expected = u - eps * np.linalg.solve(system, u)
            rel = np.linalg.norm(sol.u - expected) / max(np.linalg.norm(expected), 1e-300)
            assert rel <= 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_monotone_contraction(self, seed):
        rng = np.random.default_rng(seed)
        T = DiscreteOperator(rng.standard_normal((5, 4)))
        u = rng.standard_normal(4)
        f = T.matrix @ u
        norms = [
            solve_perturbed(T.project(f, np.zeros(4)), eps).norm_h
            for eps in (10.0, 1.0, 0.1, 0.01)
        ]
        assert all(n <= np.linalg.norm(u) + 1e-12 for n in norms)
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_energy_estimate(self):
        # ||u_eps(f, h)||_eps <= ||f|| + sqrt(eps) ||h|| + 1e-9
        rng = np.random.default_rng(7)
        for _ in range(100):
            rows = int(rng.integers(1, 12))
            cols = int(rng.integers(1, 12))
            T = DiscreteOperator(rng.standard_normal((rows, cols)))
            f = rng.standard_normal(rows)
            h = rng.standard_normal(cols)
            eps = 10.0 ** rng.uniform(-8, 2)
            sol = solve_perturbed(T.project(f, h), eps)
            bound = np.linalg.norm(f) + np.sqrt(eps) * np.linalg.norm(h) + 1e-9
            assert sol.norm_eps <= bound

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        log_eps=st.floats(min_value=-8.0, max_value=2.0),
    )
    def test_energy_estimate_property(self, seed, log_eps):
        rng = np.random.default_rng(seed)
        T = DiscreteOperator(rng.standard_normal((4, 6)))
        f = rng.standard_normal(4)
        h = rng.standard_normal(6)
        eps = 10.0**log_eps
        sol = solve_perturbed(T.project(f, h), eps)
        assert sol.norm_eps <= np.linalg.norm(f) + np.sqrt(eps) * np.linalg.norm(h) + 1e-9

    def test_image_convergence(self):
        # ||T(u_eps - u)|| -> 0 monotonically for consistent data.
        rng = np.random.default_rng(19)
        T = DiscreteOperator(rng.standard_normal((6, 6)) + 3.0 * np.eye(6))
        u = rng.standard_normal(6)
        f = T.matrix @ u
        errors = []
        for eps in 10.0 ** -np.arange(0, 7):
            sol = solve_perturbed(T.project(f, np.zeros(6)), eps)
            errors.append(np.linalg.norm(T.matrix @ (sol.u - u)))
        assert all(b <= a + 1e-14 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < errors[0] / 10.0


class TestRunPath:
    def test_consistent_bounded(self):
        T = DiscreteOperator(np.diag([1.0, 0.5]))
        u = np.array([1.0, 1.0])
        path = run_path(T, T.matrix @ u, np.zeros(2), [1.0, 0.1, 0.01, 0.001])
        assert path.verdict is Verdict.BOUNDED
        assert all(e.norm_h <= np.linalg.norm(u) + 1e-12 for e in path.entries)

    def test_slow_decay_unbounded(self):
        k = np.arange(1, 21)
        T = DiscreteOperator(np.diag(2.0 ** -k.astype(float)))
        f = 2.0 ** (-k / 2.0)
        f = f / np.linalg.norm(f)
        schedule = [1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
        path = run_path(T, f, np.zeros(20), schedule)
        assert path.verdict is Verdict.UNBOUNDED
        norms = [e.norm_h for e in path.entries]
        # Growth by at least 3x per two decades across the tail.
        assert norms[8] >= 3.0 * norms[6]
        assert norms[7] >= 3.0 * norms[5]

    def test_zero_data_bounded(self):
        T = DiscreteOperator(np.eye(3))
        path = run_path(T, np.zeros(3), np.zeros(3), [1.0, 0.1, 0.01])
        assert path.verdict is Verdict.BOUNDED
        assert all(e.norm_h == 0.0 for e in path.entries)

    @pytest.mark.parametrize("shape", [(7, 5), (5, 7)])
    def test_svd_formed_once_per_operator(self, shape):
        rng = np.random.default_rng(4)
        T = DiscreteOperator(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        svd = T.svd
        left, s, right = svd
        k = min(shape)
        assert (left.shape, s.shape, right.shape) == ((shape[0], k), (k,), (k, shape[1]))
        assert np.all(s[:-1] >= s[1:]) and s[-1] >= 0.0
        np.testing.assert_allclose((left * s) @ right, T.matrix, atol=1e-12)
        f = rng.standard_normal(shape[0])
        path = run_path(T, f, np.zeros(shape[1]), [1.0, 0.1, 0.01])
        assert T.svd is svd
        for entry in path.entries:
            expected = direct_solve_oracle(T.matrix, f, np.zeros(shape[1]), entry.epsilon)
            assert np.allclose(entry.u, expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_operator_owns_its_matrix(self, dtype):
        m = np.eye(2, dtype=dtype)
        T = DiscreteOperator(m)
        svd = T.svd
        m[0, 0] = 5.0
        assert m.flags.writeable and T.matrix[0, 0] == 1.0
        assert T.svd is svd and T.matrix.dtype == dtype

    def test_schedule_validation(self):
        T = DiscreteOperator(np.eye(2))
        f, h = np.zeros(2), np.zeros(2)
        with pytest.raises(InputError):
            run_path(T, f, h, [])
        with pytest.raises(InputError):
            run_path(T, f, h, [0.1, 0.1])
        with pytest.raises(InputError):
            run_path(T, f, h, [0.01, 0.1])
        with pytest.raises(InputError):
            run_path(T, f, h, [1.0, -0.1])
        for bad in ([0.1, float("nan")], [float("inf"), 0.1], [1e-300, 1e-310]):
            with pytest.raises(InputError):
                run_path(T, f, h, bad)

    def test_slope_fit(self):
        eps = np.array([1.0, 0.1, 0.01, 0.001])
        norms = (1.0 / eps) ** 0.25
        assert fit_growth_slope(eps, norms) == pytest.approx(0.25, rel=1e-10)

    def test_one_eps_is_inconclusive(self):
        # fit_growth_slope reads a single eps as flat; that is no evidence.
        T = DiscreteOperator(np.eye(2))
        path = run_path(T, [1.0, 1.0], np.zeros(2), [1e-300])
        assert path.verdict is Verdict.INCONCLUSIVE and path.growth_slope == 0.0
        assert run_path(T, [1.0, 1.0], np.zeros(2), [1.0, 1e-300]).verdict is Verdict.BOUNDED
        assert path_verdict([0.1], [5.0]) == (0.0, Verdict.INCONCLUSIVE)
        assert path_verdict([0.1, 0.01], [5.0, 5.0]) == (0.0, Verdict.BOUNDED)


# Median / max relative error of u for the thin-SVD solve (scipy gesdd, one
# BLAS thread), first measured on another draw of 18 graded 15x17 operators;
# the 18 below read 7.7e-14 / 4.4e-13, 1.7e-10 / 1.5e-9 and 6.8e-10 / 8.8e-9.
# Solved through the eigenbasis of T*T these operators erred by
# 3.3e-11 / 1.5e-10 at eps 1e-6, 1.3e-3 / 1.2e-2 at 1e-14 and 1.4e-1 / 1.0 at
# 1e-16, where 12 of the 18 solves raised NumericError.
GRADED_ERRORS = {1e-6: (6.7e-14, 4.4e-13), 1e-14: (1.6e-10, 3.8e-9), 1e-16: (7.0e-10, 5.8e-8)}


@functools.cache
def _graded_cases():
    """18 graded 15x17 operators, singular values over 4, 8 or 12 decades, with f and h."""
    rng = np.random.default_rng(8)
    cases = []
    for trial in range(18):
        decades = (4, 8, 12)[trial % 3]
        matrix = graded_operator(rng, 15, 17, decades)
        cases.append((DiscreteOperator(matrix), rng.standard_normal(15), rng.standard_normal(17)))
    return cases


class TestForwardError:
    """u against a 50-digit solve of the same normal equations."""

    @pytest.mark.parametrize("eps", sorted(GRADED_ERRORS, reverse=True))
    def test_graded_operators(self, eps):
        errors = []
        for T, f, h in _graded_cases():
            exact = perturbed_solution_mp(T.matrix, f, h, eps)
            u = solve_perturbed(T.project(f, h), eps).u
            errors.append(np.linalg.norm(u - exact) / np.linalg.norm(exact))
        # Three times the measured figures: headroom for another LAPACK build.
        median, worst = GRADED_ERRORS[eps]
        assert np.median(errors) <= 3.0 * median and max(errors) <= 3.0 * worst


class TestLimitResidual:
    """``residual`` is ||T u_eps - f||, which no smaller eps makes larger when h = 0."""

    SCHEDULE = np.logspace(0.0, -19.0, 20)

    @pytest.mark.parametrize("shape", [(15, 17), (17, 15)], ids=["wide", "tall"])
    def test_does_not_grow_as_eps_falls(self, shape):
        # Each singular coordinate of T u - f is eps U* f / (s^2 + eps),
        # which falls with eps; the part of f outside the range stays.
        rng = np.random.default_rng(31)
        for decades in (4, 8, 12):
            T = DiscreteOperator(graded_operator(rng, *shape, decades))
            f = rng.standard_normal(shape[0])
            h = np.zeros(shape[1])
            residuals = [e.residual for e in run_path(T, f, h, self.SCHEDULE).entries]
            assert all(b <= a for a, b in zip(residuals, residuals[1:]))
            assert min(residuals) >= T.project(f, h).norm_f_perp


class _CountingFactor:
    """A factor of ``T.svd`` that counts its products with a vector: one matrix pass each."""

    __array_ufunc__ = None  # so that ndarray @ factor defers to __rmatmul__

    def __init__(self, matrix, passes):
        self.matrix, self.passes = matrix, passes

    def __matmul__(self, v):
        self.passes.append(self.matrix.shape)
        return self.matrix @ v

    def __rmatmul__(self, v):
        self.passes.append(self.matrix.shape)
        return v @ self.matrix


def _counted(matrix):
    """An operator over ``matrix`` whose SVD factors record each pass, and the record."""
    T = DiscreteOperator(matrix)
    left, s, right = T.svd
    passes = []
    vars(T)["svd"] = (_CountingFactor(left, passes), s, _CountingFactor(right, passes))
    return T, passes


class TestMatrixPasses:
    """Every product with U or V* of a path, counted on the factors of T.svd."""

    SCHEDULE = np.logspace(0.0, -19.0, 20)

    @pytest.mark.parametrize("shifted", [False, True])
    def test_path_passes(self, shifted):
        # h = 0: U* f and U (U* f) once for the whole path, and the zero
        # V* h and h_perp with no pass.  h != 0: V* h and V (V* h) once
        # more.  No pass per eps, and V c at each first read of u.
        rng = np.random.default_rng(30)
        matrix = rng.standard_normal((12, 8))
        f = rng.standard_normal(12)
        h = rng.standard_normal(8) if shifted else np.zeros(8)
        T, passes = _counted(matrix)
        path = run_path(T, f, h, self.SCHEDULE)
        at_path = 4 if shifted else 2
        assert len(passes) == at_path
        u = path.entries[7].u
        assert path.entries[7].u is u
        assert len(passes) == at_path + 1
        path.entries[3].u
        assert len(passes) == at_path + 2
        # The counted factors change no bit of the path.
        plain = run_path(DiscreteOperator(matrix), f, h, self.SCHEDULE)
        assert np.array_equal(u, plain.entries[7].u)
        for counted, expected in zip(path.entries, plain.entries):
            assert (counted.norm_h, counted.norm_eps, counted.residual) == (
                expected.norm_h, expected.norm_eps, expected.residual
            )


class TestProjectionIsAValue:
    """A projection holds its own arrays made from f and h: a later write to
    the caller's data reaches only a fresh projection, and solves from one
    projection do not depend on what was solved in between."""

    @pytest.mark.parametrize("complex_op", [False, True])
    def test_repeated_solve_equals_cold_solve_bitwise(self, complex_op):
        rng = np.random.default_rng(8)
        matrix = rng.standard_normal((9, 6))
        if complex_op:
            matrix = matrix + 1j * rng.standard_normal((9, 6))
        T = DiscreteOperator(matrix)
        f, h = rng.standard_normal(9), rng.standard_normal(6)
        other_f, other_h = rng.standard_normal(9), rng.standard_normal(6)
        for eps in (1.0, 1e-3, 1e-7):
            solve_perturbed(T.project(f, h), 10.0 * eps)
            repeat = solve_perturbed(T.project(f, h), eps)
            solve_perturbed(T.project(other_f, other_h), eps)
            cold = solve_perturbed(T.project(f, h), eps)
            assert np.array_equal(repeat.u, cold.u)
            assert (repeat.norm_h, repeat.norm_eps, repeat.residual) == (
                cold.norm_h, cold.norm_eps, cold.residual
            )

    @pytest.mark.parametrize("complex_op", [False, True])
    @pytest.mark.parametrize("written", ["f", "h"])
    def test_write_after_project_reaches_only_a_fresh_projection(self, complex_op, written):
        rng = np.random.default_rng(9)
        matrix, f = rng.standard_normal((5, 4)), rng.standard_normal(5)
        if complex_op:
            matrix = matrix + 1j * rng.standard_normal((5, 4))
            f = f + 1j * rng.standard_normal(5)
        T, h = DiscreteOperator(matrix), rng.standard_normal(4)
        projected = T.project(f, h)
        before = solve_perturbed(projected, 0.1)
        (f if written == "f" else h)[0] += 1.0
        after = solve_perturbed(projected, 0.1)
        assert np.array_equal(after.u, before.u)
        assert (after.norm_h, after.norm_eps, after.residual) == (
            before.norm_h, before.norm_eps, before.residual
        )
        changed = solve_perturbed(T.project(f, h), 0.1)
        assert not np.allclose(changed.u, before.u)
        np.testing.assert_allclose(
            changed.u, direct_solve_oracle(T.matrix, f, h, 0.1), rtol=1e-10, atol=1e-12
        )

    @pytest.mark.parametrize("shifted", [False, True])
    def test_projection_is_read_only(self, shifted):
        # A wide operator, so that h has a part outside the row space.
        T = DiscreteOperator(np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        f = np.array([1.0, 2.0])
        h = np.array([1.0, 0.5, -1.0]) if shifted else np.zeros(3)
        projected = T.project(f, h)
        # The SVD may flip the sign of a singular pair; h_perp does not depend on it.
        np.testing.assert_allclose(projected.h_perp, [0.0, 0.0, h[2]], atol=1e-15)
        np.testing.assert_allclose(np.abs(projected.right_h), np.abs(h[:2]), rtol=1e-15)
        if not shifted:
            assert not projected.right_h.any() and not projected.h_perp.any()
        for name in ("left_f", "right_h", "h_perp"):
            array = getattr(projected, name)
            assert not np.shares_memory(array, h) and not np.shares_memory(array, f)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5.0
            with pytest.raises(AttributeError):
                setattr(projected, name, h)


class TestMinimalNorm:
    def test_diagonal_inversion(self):
        T = DiscreteOperator(np.diag([1.0, 0.5]))
        np.testing.assert_allclose(minimal_norm_solution(T, [1.0, 1.0]), [1.0, 2.0], rtol=1e-12)

    def test_minimal_norm_completion(self):
        T = DiscreteOperator(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(minimal_norm_solution(T, [3.0]), [3.0, 0.0], atol=1e-12)

    def test_no_solution(self):
        T = DiscreteOperator(np.zeros((2, 2)))
        assert minimal_norm_solution(T, [1.0, 0.0]) is None

    def test_path_limit_matches_pseudo_inverse(self):
        rng = np.random.default_rng(5)
        T = DiscreteOperator(rng.standard_normal((5, 3)))
        u = rng.standard_normal(3)
        f = T.matrix @ u
        plus = minimal_norm_solution(T, f)
        sol = solve_perturbed(T.project(f, np.zeros(3)), 1e-12)
        np.testing.assert_allclose(sol.u, plus, rtol=1e-6, atol=1e-9)


class TestKernelOrthogonality:
    def test_decoupled_coordinates(self):
        T = DiscreteOperator(np.array([[1.0, 0.0]]))
        sol = solve_perturbed(T.project([1.0], [0.0, 0.0]), 0.5)
        assert kernel_orthogonality_check(T, sol, [np.array([0.0, 1.0])]) <= 1e-15

    def test_random_kernel_from_svd(self):
        rng = np.random.default_rng(23)
        T = DiscreteOperator(rng.standard_normal((3, 5)))
        _, _, vh = np.linalg.svd(T.matrix)
        kernel = [vh[j] for j in range(3, 5)]
        f = rng.standard_normal(3)
        sol = solve_perturbed(T.project(f, np.zeros(5)), 0.1)
        assert kernel_orthogonality_check(T, sol, kernel) <= 1e-10

    def test_rejects_non_kernel_vector(self):
        T = DiscreteOperator(np.eye(2))
        sol = solve_perturbed(T.project([1.0, 0.0], [0.0, 0.0]), 1.0)
        with pytest.raises(InputError):
            kernel_orthogonality_check(T, sol, [np.array([1.0, 0.0])])


class TestLoadMatrixCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(core, "_last_matrix", (None, None))

    def test_same_bytes_same_operator_one_svd(self, tmp_path, monkeypatch):
        calls = []
        svd = scipy.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "svd", counting_svd)
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (first, second):
            path.write_text("3 2\n1 0\n0 2\n1 1\n")
        T = load_matrix(first)
        path_1 = run_path(T, [1.0, 2.0, 3.0], np.zeros(2), [1.0, 0.1, 0.01])
        assert load_matrix(second) is T
        path_2 = run_path(load_matrix(first), [0.0, -1.0, 4.0], np.zeros(2), [1.0, 0.1])
        assert len(calls) == 1
        assert path_1.entries[0].norm_h != path_2.entries[0].norm_h

    def test_keyed_on_bytes_not_mtime(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n1 2\n")
        stat = os.stat(path)
        assert load_matrix(path).matrix.tolist() == [[1.0, 2.0]]
        path.write_text("1 2\n3 4\n")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert os.stat(path).st_size == stat.st_size
        assert load_matrix(path).matrix.tolist() == [[3.0, 4.0]]

    def test_shared_operator_is_read_only(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 0\n0 2\n")
        T = load_matrix(path)
        run_path(T, [1.0, 1.0], np.zeros(2), [1.0, 0.1])
        for arr in (T.matrix, *T.svd):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(ValueError):
            load_matrix(path).matrix[0, 0] = 1
        assert load_matrix(path).matrix.tolist() == [[1.0, 0.0], [0.0, 2.0]]

    def test_read_errors_unchanged_by_a_kept_operator(self, tmp_path):
        good, missing, binary = tmp_path / "m.txt", tmp_path / "none.txt", tmp_path / "b.txt"
        good.write_text("1 1\n1\n")
        binary.write_bytes(b"1 1\n\xff\n")

        def messages():
            out = []
            for path in (missing, binary):
                with pytest.raises(InputError) as error:
                    load_matrix(path)
                out.append(str(error.value))
            return out

        cold = messages()
        assert cold[0] == f"matrix file not found: {missing}"
        assert cold[1] == f"matrix file {binary} is not ASCII: b'\\xff' at offset 4"
        T = load_matrix(good)
        assert messages() == cold
        assert load_matrix(good) is T

    def test_failed_parse_keeps_last_operator(self, tmp_path):
        good, bad = tmp_path / "m.txt", tmp_path / "bad.txt"
        good.write_text("1 1\n1\n")
        bad.write_text("1 2\n1\n")
        T = load_matrix(good)
        with pytest.raises(InputError, match="expected 2 matrix entries"):
            load_matrix(bad)
        assert load_matrix(good) is T

    def test_last_byte_differs_at_same_size(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"1 2\n1 2")
        T = load_matrix(path)
        path.write_bytes(b"1 2\n1 3")
        changed = load_matrix(path)
        assert changed is not T
        assert changed.matrix.tolist() == [[1.0, 3.0]]

    def test_second_file_replaces_the_kept_bytes(self, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        first.write_text("1 1\n1\n")
        second.write_text("1 1\n2\n")
        T = load_matrix(first)
        assert core._last_matrix == (first.read_bytes(), T)
        S = load_matrix(second)
        assert core._last_matrix == (second.read_bytes(), S)
        again = load_matrix(first)
        assert again is not T and again.matrix.tolist() == [[1.0]]
        assert core._last_matrix == (first.read_bytes(), again)

    @staticmethod
    def text_parse(text):
        """A reference parse of ASCII text: ``str`` tokens, each converted alone."""
        tokens = text.split()[2:]
        if "," not in text:
            return np.fromiter(map(float, tokens), dtype=float, count=len(tokens))

        def entry(token):
            if "," in token:
                re_part, im_part = token.split(",", 1)
                return complex(float(re_part), float(im_part))
            return float(token)

        return np.fromiter(map(entry, tokens), dtype=complex, count=len(tokens))

    @staticmethod
    def random_tokens(rng, shape, complex_share):
        values = rng.standard_normal((2,) + shape) * 10.0 ** rng.integers(-300, 300, (2,) + shape)
        re, im = (part.ravel().tolist() for part in values)
        plain = (rng.random(shape) >= complex_share).ravel()
        return [repr(a) if p else f"{a!r},{b!r}" for a, b, p in zip(re, im, plain)]

    @pytest.mark.parametrize("complex_share", [0.0, 0.5])
    @pytest.mark.parametrize(
        "separators",
        [
            [" ", "\n"],
            ["\t", "  ", "\r\n", "\x0b", "\x0c", " \n\n ", "\r"],
        ],
    )
    def test_bytes_parse_bitwise_equal_to_text_parse(self, tmp_path, complex_share, separators):
        rng = np.random.default_rng(len(separators) + int(10 * complex_share))
        tokens = self.random_tokens(rng, (30, 17), complex_share)
        tokens = ["37", "14"] + tokens + ["1_0", "+1", "1.", ".5", "-0", "1e-400", "-1e-320", "0"]
        gaps = rng.choice(separators, size=len(tokens))
        text = "".join(s + t for s, t in zip(gaps, tokens)) + rng.choice(["", "\n"])
        expected = self.text_parse(text)
        path = tmp_path / "m.txt"
        path.write_bytes(text.encode())
        for T in (parse_matrix_text(text), parse_matrix_text(text.encode()), load_matrix(path)):
            assert T.matrix.dtype == expected.dtype
            assert T.matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1 3 ١ ２.5 -٣e1", "'١' at offset 4"),
            ("1 3 ١ ２.5 -٣e1".encode(), "b'\\xd9' at offset 4"),
            ("1 2\n1\xa02", "'\\xa0' at offset 5"),
            ("1 2\n1\xa02".encode(), "b'\\xc2' at offset 5"),
            ("1 1 \ud800", "'\\ud800' at offset 4"),
            (b"1 1\n\xff\n", "b'\\xff' at offset 4"),
        ],
        ids=["str-digits", "bytes-digits", "str-nbsp", "bytes-nbsp", "str-surrogate", "bytes-ff"],
    )
    def test_non_ascii_text_refused(self, tmp_path, text, expected):
        with pytest.raises(InputError) as error:
            parse_matrix_text(text)
        assert str(error.value) == f"matrix text is not ASCII: {expected}"
        path = tmp_path / "m.txt"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass"))
        with pytest.raises(InputError, match=f"^matrix file {path} is not ASCII: "):
            load_matrix(path)

    @pytest.mark.parametrize(
        "separator", ["\x1c", "\x1d", "\x1e", "\x1f"], ids=["FS", "GS", "RS", "US"]
    )
    def test_information_separators_are_not_whitespace(self, separator):
        # str.split() splits at them, bytes.split() does not: the format splits as bytes.
        token = f"1{separator}2"
        for text in (f"1 2\n{token} 3", f"1 2\n{token} 3".encode()):
            with pytest.raises(InputError) as error:
                parse_matrix_text(text)
            assert str(error.value) == f"malformed matrix entry {token!r} at row 1, column 1"

    def test_bench_sized_repr_matrix_bitwise_equal_to_text_parse(self, tmp_path):
        m = np.random.default_rng(3).standard_normal((800, 600))
        body = "\n".join(" ".join(map(repr, row)) for row in m.tolist())
        path = tmp_path / "operator.txt"
        path.write_text(f"800 600\n{body}\n")
        T = load_matrix(path)
        assert T.matrix.tobytes() == self.text_parse(path.read_text()).tobytes()
        assert np.array_equal(T.matrix, m)
        assert load_matrix(path) is T

    @pytest.mark.parametrize(
        "name, content, expected",
        [
            ("missing", None, "matrix file not found: {path}"),
            (
                "directory",
                None,
                "cannot read matrix file {path}: [Errno 21] Is a directory: '{path}'",
            ),
            ("bad_utf8", b"1 1\n\xff\n", "matrix file {path} is not ASCII: b'\\xff' at offset 4"),
            (
                "non_ascii",
                "1 2\n1 é\n".encode(),
                "matrix file {path} is not ASCII: b'\\xc3' at offset 6",
            ),
            ("empty", b"", "matrix text must start with 'rows cols'"),
            ("bad_header", b"2 x\n1 2\n", "malformed matrix header: ['2', 'x']"),
            ("non_positive", b"0 2\n", "matrix dimensions must be positive, got 0 x 2"),
            ("too_few", b"2 2\n1 2 3\n", "expected 4 matrix entries, found 3"),
            ("too_many", b"2 2\n1 2 3 4 5\n", "expected 4 matrix entries, found 5"),
            ("bad_real", b"1 2\n1 x\n", "malformed matrix entry 'x' at row 1, column 2"),
            ("bad_complex", b"1 2\n1,2 3,y\n", "malformed matrix entry '3,y' at row 1, column 2"),
        ],
    )
    def test_load_error_messages(self, tmp_path, name, content, expected):
        path = tmp_path / name
        if name == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        with pytest.raises(InputError) as error:
            load_matrix(path)
        assert str(error.value) == expected.format(path=path)
        if content is not None and content.isascii():
            with pytest.raises(InputError) as text_error:
                parse_matrix_text(content.decode())
            with pytest.raises(InputError) as bytes_error:
                parse_matrix_text(content)
            assert str(bytes_error.value) == str(text_error.value) == str(error.value)


class TestMatrixText:
    def test_real_round_trip(self):
        T = parse_matrix_text("2 3\n1 2 3\n4 5 6\n")
        assert T.cod_dim == 2 and T.dom_dim == 3
        np.testing.assert_allclose(T.matrix, [[1, 2, 3], [4, 5, 6]])

    def test_complex_entries(self):
        T = parse_matrix_text("1 2  1,2 3,-4")
        np.testing.assert_allclose(T.matrix, [[1 + 2j, 3 - 4j]])

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 0\n0 0.5,0.25\n")
        T = load_matrix(path)
        assert T.matrix[1, 1] == 0.5 + 0.25j

    @pytest.mark.parametrize("text", ["2 2\n1 0\n0 2\n", b"1 2  1,2 3,-4"], ids=["real", "complex"])
    def test_parsed_array_adopted_without_copy(self, monkeypatch, text):
        # The parser's fresh array becomes the operator's matrix as it is.
        made, fromiter = [], np.fromiter

        def spy(*args, **kwargs):
            made.append(fromiter(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(np, "fromiter", spy)
        T = parse_matrix_text(text)
        assert len(made) == 1 and np.shares_memory(T.matrix, made[0])
        assert not T.matrix.flags.writeable

    @pytest.mark.parametrize("dtype", [float, complex, int])
    def test_caller_array_copied(self, dtype):
        m = np.eye(3, dtype=dtype)
        T = DiscreteOperator(m)
        assert not np.shares_memory(T.matrix, m)
        assert m.flags.writeable and not T.matrix.flags.writeable

    def test_adopted_array_checked(self):
        with pytest.raises(InputError, match="non-finite"):
            parse_matrix_text("1 2\n1 nan\n")

    @staticmethod
    def token_loop(text):
        return np.array([_parse_entry(tok) for tok in text.encode().split()[2:]])

    def test_real_body_bitwise_equal_to_token_loop(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((40, 30)) * 10.0 ** rng.integers(-300, 300, (40, 30))
        # A last row of tokens that float() reads in its own way.
        odd = ["1_0", "+1", "1.", ".5", "-0", "1e-400"] + ["0"] * 24
        rows = [" ".join(map(repr, row)) for row in m.tolist()] + [" ".join(odd)]
        text = "41 30\n" + "\n".join(rows)
        T = parse_matrix_text(text)
        assert T.matrix.dtype == np.float64
        assert np.array_equal(T.matrix.ravel(), self.token_loop(text))
        assert np.array_equal(T.matrix[:40], m)

    def test_complex_body_equals_token_loop(self):
        text = "2 3\n1,2 3.5 -4,0.25\n1e-3 0,1 7"
        T = parse_matrix_text(text)
        assert T.matrix.dtype == np.complex128
        assert np.array_equal(T.matrix.ravel(), self.token_loop(text))

    def test_mixed_body_bitwise_equal_to_token_loop(self):
        # re,im and plain-real tokens mixed, with signed zeros, subnormals and
        # tokens float() reads in its own way on either side of the comma.
        rng = np.random.default_rng(6)
        re, im = rng.standard_normal((2, 30, 20)) * 10.0 ** rng.integers(-300, 300, (2, 30, 20))
        plain = rng.random((30, 20)) < 0.5
        rows = [
            [repr(a) if p else f"{a!r},{b!r}" for a, b, p in zip(*row)]
            for row in zip(re.tolist(), im.tolist(), plain.tolist())
        ]
        rows.append(["-0,-0", "0,-0", "-0", "1_0,+1", "1.,.5", "1e-400,-1e-320"] + ["0"] * 14)
        text = "31 20\n" + "\n".join(" ".join(row) for row in rows)
        T = parse_matrix_text(text)
        assert T.matrix.dtype == np.complex128
        assert T.matrix.tobytes() == self.token_loop(text).tobytes()

    @pytest.mark.parametrize(
        "text, token, row, col",
        [
            ("1 2 1 zz", "zz", 1, 2),
            ("1 2 1,x 2", "1,x", 1, 1),
            ("1 2 0x10 1", "0x10", 1, 1),
            ("1 2 1,2,3 2", "1,2,3", 1, 1),
            ("1 2 ,1 2", ",1", 1, 1),
            ("1 2 1, 2", "1,", 1, 1),
            ("3 2\n1 2\n3 4\n5 q\n", "q", 3, 2),
            ("2 2\n1,1 2\n3 - \n", "-", 2, 2),
        ],
    )
    def test_malformed_entry_message(self, text, token, row, col):
        # The first entry that does not convert is named, with its row and column.
        for arg in (text, text.encode()):
            with pytest.raises(InputError) as error:
                parse_matrix_text(arg)
            expected = f"malformed matrix entry {token!r} at row {row}, column {col}"
            assert str(error.value) == expected

    def test_malformed(self):
        for text in ("", "2", "2 2 1 2 3", "a b 1 2", "1 1 zz", "0 2 "):
            with pytest.raises(InputError):
                parse_matrix_text(text)


_MATRIX_TOKENS = st.one_of(
    st.floats().map(repr),
    st.tuples(st.floats(), st.floats()).map(lambda pair: f"{pair[0]!r},{pair[1]!r}"),
    st.integers(-2, 4).map(str),
    st.sampled_from(["", ",", "1,", ",1", "1,2,3", "1_0", "0x10", "1e999", "-", "\x00", "\x1c"]),
    st.sampled_from(["\xa0", "\u2003", "١", "é", "\ud800", "\udcff"]),
    st.text(max_size=4),
)


@st.composite
def _matrix_texts(draw):
    """Matrix-like text, as ``str`` or as bytes: a header, then about rows * cols tokens."""
    rows, cols = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
    count = draw(st.one_of(st.just(max(rows * cols, 0)), st.integers(0, 10)))
    tokens = [str(rows), str(cols)] + draw(st.lists(_MATRIX_TOKENS, min_size=count, max_size=count))
    gaps = draw(st.lists(st.sampled_from([" ", "\n", "\t", "\r\n", "\x0b", "\x1f", "\xa0"]),
                         min_size=len(tokens), max_size=len(tokens)))
    text = "".join(gap + token for gap, token in zip(gaps, tokens))
    return text.encode("utf-8", "surrogatepass") if draw(st.booleans()) else text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=st.one_of(_matrix_texts(), st.text(max_size=30), st.binary(max_size=30)))
def test_parse_matrix_text_fuzz(text):
    # Any str or bytes gives an operator or an InputError; nothing else escapes.
    try:
        T = parse_matrix_text(text)
    except InputError:
        return
    assert text.isascii()
    assert np.all(np.isfinite(T.matrix)) and not T.matrix.flags.writeable


GRAD = diskbasis.DiracOperatorKind.GRADIENT
BAD_EPSILONS = [math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324]


@functools.cache
def _quad():
    return variational.DiskQuadrature.build(8, 16)


@functools.cache
def _seeds():
    return variational.build_seed_system(variational.ArcSpec(0.0, math.pi), GRAD, 3, _quad())


# Every entry point that takes an eps, as a call of that eps on valid data.
EPS_ENTRY_POINTS = {
    "core.solve_perturbed": lambda eps: solve_perturbed(
        DiscreteOperator(np.eye(2)).project([1.0, 1.0], [0.0, 0.0]), eps
    ),
    "core.validate_schedule": lambda eps: core.validate_schedule([eps]),
    "diskbasis.BasisFunction": lambda eps: diskbasis.BasisFunction(GRAD, 1, 1, eps),
    "diskbasis.basis_table": lambda eps: diskbasis.basis_table(
        GRAD, diskbasis.enumerate_modes(2), eps, [0.5], [0.1]
    ),
    "diskbasis.boundary_amplitudes": lambda eps: diskbasis.boundary_amplitudes(
        GRAD, diskbasis.enumerate_modes(2), eps
    ),
    "diskbasis.check_helmholtz": lambda eps: diskbasis.check_helmholtz(
        lambda x, y: x * y, eps, [[0.5, 0.1]]
    ),
    "variational.trial_space_for_epsilon": lambda eps: variational.trial_space_for_epsilon(
        _seeds(), eps
    ),
    "variational.solve_perturbed_galerkin": lambda eps: variational.solve_perturbed_galerkin(
        _seeds(), [1.0, eps], f=(np.ones(_quad().w.size), np.zeros(_quad().w.size))
    ),
    "variational.solve_mixed_boundary_series": lambda eps: (
        variational.solve_mixed_boundary_series(
            GRAD, variational.ArcSpec(0.0, math.pi), None, None, eps, n_modes=2, n_phi=16
        )
    ),
    "variational.basis_grams": lambda eps: variational.basis_grams(GRAD, 2, eps, _quad()),
    "ode1d.perturbed_solution": lambda eps: ode1d.perturbed_solution(
        ode1d.Ode1dProblem(0.0, 1.0, 0.3, math.cos), 0.5, eps
    ),
}


class TestCheckEpsilon:
    """core.check_epsilon is the one eps rule, and every entry point applies it."""

    def test_the_rule(self):
        tiny = np.finfo(float).tiny
        for good in (tiny, 1e-300, 0.5, np.float64(3.0), 1, 1e308):
            assert core.check_epsilon(good) == float(good)
            assert type(core.check_epsilon(good)) is float
        message = r"^epsilon must be finite and at least 2\.225e-308, got nan$"
        with pytest.raises(InputError, match=message):
            core.check_epsilon(math.nan)
        with pytest.raises(InputError, match=r"got 5e-324$"):
            core.check_epsilon(5e-324)

    @pytest.mark.parametrize(
        "entry, eps",
        [
            (entry, eps)
            for entry in EPS_ENTRY_POINTS
            for eps in BAD_EPSILONS
            # eps 0 is the Laplacian alone there, which test_diskbasis.py's
            # TestHelmholtz::test_harmonic_polynomial_limit runs.
            if (entry, eps) != ("diskbasis.check_helmholtz", 0.0)
        ],
    )
    def test_every_entry_point_refuses_with_the_rule_message(self, entry, eps):
        with pytest.raises(InputError) as rule:
            core.check_epsilon(eps)
        with pytest.raises(InputError) as refused:
            EPS_ENTRY_POINTS[entry](eps)
        assert str(refused.value) == str(rule.value)


# The entry points whose eps reaches the Bessel range as sqrt(eps) r, r <= 1.
DISK_EPS_ENTRY_POINTS = {
    name: EPS_ENTRY_POINTS[name]
    for name in (
        "diskbasis.BasisFunction",
        "diskbasis.basis_table",
        "diskbasis.boundary_amplitudes",
        "variational.basis_grams",
        "variational.solve_mixed_boundary_series",
    )
}
# basis_table on the circle, where its Bessel argument is sqrt(eps) itself: the same rule.
DISK_EPS_ENTRY_POINTS["diskbasis.basis_table at r = 1"] = lambda eps: diskbasis.basis_table(
    GRAD, diskbasis.enumerate_modes(2), eps, [1.0], [0.0]
)
DISK_EPS_ENTRY_POINTS["cli._disk_check"] = lambda eps: cli._disk_check(
    {"n_phi": 4, "schedule": [eps, 1.0]}
)


@pytest.mark.parametrize("entry", DISK_EPS_ENTRY_POINTS)
def test_disk_eps_bound_is_one_rule(entry):
    """bessel.check_disk_epsilon: eps 3600 = X_MAX**2 is accepted, eps 4000 refused."""
    DISK_EPS_ENTRY_POINTS[entry](3600.0)
    with pytest.raises(InputError) as rule:
        check_disk_epsilon(4000.0)
    with pytest.raises(InputError) as refused:
        DISK_EPS_ENTRY_POINTS[entry](4000.0)
    assert str(rule.value) == (
        "eps above 3600, where sqrt(eps) leaves the Bessel range [0, 60], got 4000"
    )
    if entry.startswith("cli."):
        assert refused.value.key == "schedule"
        assert str(refused.value) == f"bad 'schedule': {rule.value}"
    else:
        assert str(refused.value) == str(rule.value)
