"""Tests for the closed-form 1D example."""

import math

import numpy as np
import pytest

from epsreg import cli
from epsreg.errors import InputError
from epsreg.ode1d import (
    Ode1dProblem,
    _grid_solution,
    convergence_report,
    exact_solution,
    perturbed_solution,
)


class TestExactSolution:
    def test_zero_rhs(self):
        p = Ode1dProblem(0.0, 2.0, 1.5, lambda x: 0.0)
        for x in (0.0, 0.7, 2.0):
            assert exact_solution(p, x) == pytest.approx(1.5, abs=1e-14)

    def test_unit_rhs(self):
        p = Ode1dProblem(0.0, 1.0, 0.0, lambda x: 1.0)
        for x in (0.0, 0.3, 1.0):
            assert exact_solution(p, x) == pytest.approx(x, abs=1e-13)

    def test_cosine_antiderivative(self):
        p = Ode1dProblem(0.0, 1.0, 0.0, math.cos)
        for x in (0.1, 0.5, 1.0):
            assert exact_solution(p, x) == pytest.approx(math.sin(x), abs=1e-12)

    def test_domain_error(self):
        p = Ode1dProblem(0.0, 1.0, 0.0, math.cos)
        with pytest.raises(InputError):
            exact_solution(p, 1.5)
        with pytest.raises(InputError):
            exact_solution(p, -0.2)


class TestPerturbedSolution:
    def test_left_datum_exact(self):
        for eps in (1.0, 0.01, 37.0):
            p = Ode1dProblem(0.0, 1.0, 0.8, math.cos, eps)
            value, _ = perturbed_solution(p, 0.0)
            assert value == pytest.approx(0.8, abs=1e-13)

    @pytest.mark.parametrize("eps", [1.0, 0.01])
    def test_right_flux_matches_f(self, eps):
        p = Ode1dProblem(0.0, 1.0, 0.0, math.cos, eps)
        _, deriv = perturbed_solution(p, 1.0)
        assert abs(deriv - math.cos(1.0)) <= 1e-8

    def test_zero_rhs_profile(self):
        # With f = 0 the unique solution of u'' - eps u = 0, u(a) = u0,
        # u'(b) = 0 is u0 cosh(k(b - x)) / cosh(k(b - a)).
        eps, u0 = 4.0, 1.3
        k = math.sqrt(eps)
        p = Ode1dProblem(0.0, 1.0, u0, lambda x: 0.0, eps)
        for x in (0.0, 0.4, 1.0):
            value, deriv = perturbed_solution(p, x)
            assert value == pytest.approx(u0 * math.cosh(k * (1 - x)) / math.cosh(k), rel=1e-12)
            assert deriv == pytest.approx(
                -u0 * k * math.sinh(k * (1 - x)) / math.cosh(k), rel=1e-11, abs=1e-12
            )

    def test_derivative_against_centered_difference(self):
        p = Ode1dProblem(0.0, 1.0, 0.4, math.cos, 1.0)
        h = 1e-6
        for x in (0.25, 0.5, 0.9):
            vm, _ = perturbed_solution(p, x - h)
            vp, _ = perturbed_solution(p, x + h)
            _, deriv = perturbed_solution(p, x)
            assert deriv == pytest.approx((vp - vm) / (2.0 * h), rel=1e-7, abs=1e-9)

    def test_ode_residual(self):
        # u'' - eps u = f' with f = cos, f' = -sin, via finite differences.
        eps = 1.0
        p = Ode1dProblem(0.0, 1.0, 0.2, math.cos, eps)
        h = 1e-4
        for x in np.linspace(0.05, 0.95, 101):
            vm, _ = perturbed_solution(p, x - h)
            v0, _ = perturbed_solution(p, x)
            vp, _ = perturbed_solution(p, x + h)
            upp = (vp - 2.0 * v0 + vm) / (h * h)
            assert abs(upp - eps * v0 - (-math.sin(x))) <= 1e-6

    def test_large_epsilon_stable(self):
        # sqrt(eps) (b - a) = 63 exercises the exponentially scaled kernels.
        p = Ode1dProblem(0.0, 1.0, 0.5, math.cos, 4.0e3)
        value, deriv = perturbed_solution(p, 0.5)
        assert math.isfinite(value) and math.isfinite(deriv)
        _, deriv_b = perturbed_solution(p, 1.0)
        assert abs(deriv_b - math.cos(1.0)) <= 1e-8

    def test_requires_epsilon(self):
        p = Ode1dProblem(0.0, 1.0, 0.0, math.cos)
        with pytest.raises(InputError):
            perturbed_solution(p, 0.5)

    def test_interval_validation(self):
        with pytest.raises(InputError):
            Ode1dProblem(1.0, 1.0, 0.0, math.cos)
        with pytest.raises(InputError):
            Ode1dProblem(2.0, 1.0, 0.0, math.cos)


class TestConvergenceReport:
    def test_c1_convergence_for_cosine(self):
        p = Ode1dProblem(0.0, 1.0, 0.0, math.cos)
        rows = convergence_report(p, [1.0, 1e-2, 1e-4, 1e-6])
        c0 = [row.c0_error for row in rows]
        c1 = [row.c1_error for row in rows]
        assert all(b < a for a, b in zip(c0, c0[1:]))
        assert all(b < a for a, b in zip(c1, c1[1:]))
        assert c0[-1] <= 1e-3 and c1[-1] <= 1e-3

    def test_grid_solution_matches_pointwise(self):
        # The vectorized cumulative path must agree with adaptive quadrature.
        p = Ode1dProblem(0.0, 1.0, 0.3, math.cos)
        rows = convergence_report(p, [0.5], grid_points=11)
        pe = Ode1dProblem(0.0, 1.0, 0.3, math.cos, 0.5)
        grid = np.linspace(0.0, 1.0, 11)
        exact = [exact_solution(p, x) for x in grid]
        worst = max(
            abs(perturbed_solution(pe, float(x))[0] - e) for x, e in zip(grid, exact)
        )
        assert rows[0].c0_error == pytest.approx(worst, rel=1e-6, abs=1e-10)

    def test_zero_rhs_zero_datum(self):
        p = Ode1dProblem(0.0, 1.0, 0.0, lambda x: 0.0)
        rows = convergence_report(p, [1.0, 0.1])
        assert all(row.c0_error <= 1e-13 and row.c1_error <= 1e-13 for row in rows)

    def test_large_epsilon_falls_back_to_pointwise(self):
        # sqrt(eps)(b - a) > 30 takes the scaled pointwise route.
        p = Ode1dProblem(0.0, 1.0, 0.1, math.cos)
        rows = convergence_report(p, [4.0e3], grid_points=11)
        assert math.isfinite(rows[0].c0_error)
        assert rows[0].c0_error < 1.0

    def test_schedule_validation(self):
        p = Ode1dProblem(0.0, 1.0, 0.0, math.cos)
        with pytest.raises(InputError):
            convergence_report(p, [])
        with pytest.raises(InputError):
            convergence_report(p, [0.1, 1.0])
        with pytest.raises(InputError):
            convergence_report(p, [0.1, float("nan")])


def _unit_rhs(x):
    return 1.0


class TestGridSolution:
    # One grid path serves every eps: k(b - a) below runs from where the
    # kernels are nearly flat to far beyond where cosh(k(b - a)) overflows.
    @pytest.mark.parametrize("u0", [0.0, 0.5])
    @pytest.mark.parametrize("kba", [15.0, 30.0, 60.0, 1e4, 1.5e150])
    def test_unit_rhs_matches_closed_form(self, kba, u0):
        # f = 1: u_eps = u0 cosh(k(b-x))/cosh(s) + sinh(k(x-a))/(k cosh(s)), s = k(b-a).
        a, b = 0.0, 1.5
        eps = (kba / (b - a)) ** 2
        k = math.sqrt(eps)
        s = k * (b - a)
        grid = np.linspace(a, b, 1001)
        # Scaled form: cosh(k(b-x)) / cosh(s) = (ea + eb e^{-s}) / norm and
        # sinh(k(x-a)) / cosh(s) = (eb - ea e^{-s}) / norm.
        ea, eb = np.exp(-k * (grid - a)), np.exp(-k * (b - grid))
        es, norm = math.exp(-s), 1.0 + math.exp(-2.0 * s)
        exact = (u0 * (ea + eb * es) + (eb - ea * es) / k) / norm
        exact_deriv = (-u0 * k * (ea - eb * es) + eb + ea * es) / norm
        values, derivs = _grid_solution(Ode1dProblem(a, b, u0, _unit_rhs), eps, grid)
        # Measured: values within 3.4e-16, derivatives within 7.3e-15 (1 + u0 k).
        assert np.max(np.abs(values - exact)) <= 1e-14
        assert np.max(np.abs(derivs - exact_deriv)) <= 1e-13 * (1.0 + u0 * k)
        # u_eps' - 1 <= 0 everywhere, so u_eps - u falls from 0 at a and the
        # sup errors sit at the ends: C^0 at b, C^1 at a.
        sech, tanh = 2.0 * es / norm, math.tanh(s)
        row = convergence_report(Ode1dProblem(a, b, u0, _unit_rhs), [eps])[0]
        assert row.c0_error == pytest.approx(u0 * (1.0 - sech) + (b - a) - tanh / k, rel=1e-10)
        assert row.c1_error == pytest.approx(u0 * k * tanh + 1.0 - sech, rel=1e-10)

    @pytest.mark.parametrize("f", [math.cos, math.exp], ids=["cos", "exp"])
    @pytest.mark.parametrize("kba", [0.015, 15.0, 30.0, 60.0, 474.0])
    def test_matches_pointwise_reference(self, kba, f):
        # Measured worst cases: values 1.2e-13 (exp, k(b-a) = 0.015), derivatives
        # 1.6e-13 relative (exp, 474).
        a, b, u0 = 0.0, 1.5, 0.5
        eps = (kba / (b - a)) ** 2
        grid = np.linspace(a, b, 1001)
        values, derivs = _grid_solution(Ode1dProblem(a, b, u0, f), eps, grid)
        pe = Ode1dProblem(a, b, u0, f, eps)
        for i in range(0, grid.size, 50):
            value, deriv = perturbed_solution(pe, float(grid[i]))
            assert abs(values[i] - value) <= 1e-12
            assert abs(derivs[i] - deriv) <= 1e-12 * max(1.0, abs(deriv))

    def test_cli_huge_epsilon(self, tmp_path):
        # k = 1e150: the kernels are far narrower than the grid spacing, and
        # u_eps' is about 0 away from b, so the C^1 error is |f(0)| = 1.
        out = tmp_path / "ode.csv"
        cfg = tmp_path / "ode.ini"
        cfg.write_text(f"[ode1d]\na = 0\nb = 1.5\nf = cos\nschedule = 1e300 1\noutput = {out}\n")
        assert cli.main(["run", str(cfg)]) == 0
        rows = [[float(tok) for tok in line.split(",")] for line in out.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == [1e300, 1.0]
        assert rows[0][2] == pytest.approx(1.0, abs=1e-12)
