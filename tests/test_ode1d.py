"""Tests for the closed-form 1D example."""

import math

import numpy as np
import pytest

from epsreg import cli, ode1d
from epsreg.errors import InputError
from epsreg.ode1d import (
    Ode1dProblem,
    _decaying_sums,
    _exact_on_grid,
    _fine_samples,
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
            p = Ode1dProblem(0.0, 1.0, 0.8, math.cos)
            value, _ = perturbed_solution(p, 0.0, eps)
            assert value == pytest.approx(0.8, abs=1e-13)

    @pytest.mark.parametrize("eps", [1.0, 0.01])
    def test_right_flux_matches_f(self, eps):
        p = Ode1dProblem(0.0, 1.0, 0.0, math.cos)
        _, deriv = perturbed_solution(p, 1.0, eps)
        assert abs(deriv - math.cos(1.0)) <= 1e-8

    def test_zero_rhs_profile(self):
        # With f = 0 the unique solution of u'' - eps u = 0, u(a) = u0,
        # u'(b) = 0 is u0 cosh(k(b - x)) / cosh(k(b - a)).
        eps, u0 = 4.0, 1.3
        k = math.sqrt(eps)
        p = Ode1dProblem(0.0, 1.0, u0, lambda x: 0.0)
        for x in (0.0, 0.4, 1.0):
            value, deriv = perturbed_solution(p, x, eps)
            assert value == pytest.approx(u0 * math.cosh(k * (1 - x)) / math.cosh(k), rel=1e-12)
            assert deriv == pytest.approx(
                -u0 * k * math.sinh(k * (1 - x)) / math.cosh(k), rel=1e-11, abs=1e-12
            )

    def test_derivative_against_centered_difference(self):
        p = Ode1dProblem(0.0, 1.0, 0.4, math.cos)
        h = 1e-6
        for x in (0.25, 0.5, 0.9):
            vm, _ = perturbed_solution(p, x - h, 1.0)
            vp, _ = perturbed_solution(p, x + h, 1.0)
            _, deriv = perturbed_solution(p, x, 1.0)
            assert deriv == pytest.approx((vp - vm) / (2.0 * h), rel=1e-7, abs=1e-9)

    def test_ode_residual(self):
        # u'' - eps u = f' with f = cos, f' = -sin, via finite differences.
        eps = 1.0
        p = Ode1dProblem(0.0, 1.0, 0.2, math.cos)
        h = 1e-4
        for x in np.linspace(0.05, 0.95, 101):
            vm, _ = perturbed_solution(p, x - h, eps)
            v0, _ = perturbed_solution(p, x, eps)
            vp, _ = perturbed_solution(p, x + h, eps)
            upp = (vp - 2.0 * v0 + vm) / (h * h)
            assert abs(upp - eps * v0 - (-math.sin(x))) <= 1e-6

    def test_large_epsilon_stable(self):
        # sqrt(eps) (b - a) = 63 exercises the exponentially scaled kernels.
        p = Ode1dProblem(0.0, 1.0, 0.5, math.cos)
        value, deriv = perturbed_solution(p, 0.5, 4.0e3)
        assert math.isfinite(value) and math.isfinite(deriv)
        _, deriv_b = perturbed_solution(p, 1.0, 4.0e3)
        assert abs(deriv_b - math.cos(1.0)) <= 1e-8

    def test_interval_validation(self):
        with pytest.raises(InputError):
            Ode1dProblem(1.0, 1.0, 0.0, math.cos)
        with pytest.raises(InputError) as info:
            Ode1dProblem(2.0, 1.0, 0.0, math.cos)
        assert info.value.key == "b"

    def test_overflowing_rhs_refused_without_warning(self):
        # exp(800) overflows: an InputError keyed 'f', not a RuntimeWarning.
        with pytest.raises(InputError, match="not finite") as info:
            Ode1dProblem(0.0, 800.0, 0.0, np.exp)
        assert info.value.key == "f"


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
        grid = np.linspace(0.0, 1.0, 11)
        exact = [exact_solution(p, x) for x in grid]
        worst = max(
            abs(perturbed_solution(p, float(x), 0.5)[0] - e) for x, e in zip(grid, exact)
        )
        assert rows[0].c0_error == pytest.approx(worst, rel=1e-6, abs=1e-10)

    def test_zero_rhs_zero_datum(self):
        p = Ode1dProblem(0.0, 1.0, 0.0, lambda x: 0.0)
        rows = convergence_report(p, [1.0, 0.1])
        assert all(row.c0_error <= 1e-13 and row.c1_error <= 1e-13 for row in rows)

    def test_large_epsilon_runs_through_grid_solution(self, monkeypatch):
        # eps 4e3 gives k(b - a) = sqrt(4e3) ~ 63; the report still takes it
        # through _grid_solution, and its c0 error stays finite and below 1.
        seen = []
        spy = lambda *args: seen.append(args[1]) or _grid_solution(*args)
        monkeypatch.setattr(ode1d, "_grid_solution", spy)
        p = Ode1dProblem(0.0, 1.0, 0.1, math.cos)
        rows = convergence_report(p, [4.0e3], grid_points=11)
        assert seen == [4.0e3]
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


    @pytest.mark.parametrize("grid_points", [1, 0, 2.5])
    def test_grid_points_validation(self, grid_points):
        p = Ode1dProblem(0.0, 1.0, 0.0, math.cos)
        with pytest.raises(InputError, match="grid_points"):
            convergence_report(p, [1.0], grid_points=grid_points)

    @pytest.mark.parametrize(
        "f, antiderivative", [(math.cos, math.sin), (math.exp, math.exp)], ids=["cos", "exp"]
    )
    def test_exact_values(self, f, antiderivative):
        # Measured: within 5.0e-15 of u0 + F(x) - F(a) over 50 random intervals.
        a, b, u0 = -0.3, 1.4, 0.7
        p = Ode1dProblem(a, b, u0, f)
        grid = np.linspace(a, b, 1001)
        fvals = _fine_samples(p, grid)
        exact = u0 + np.array([antiderivative(x) for x in grid]) - antiderivative(a)
        assert np.max(np.abs(_exact_on_grid(p, fvals) - exact)) <= 1e-14
        # The report's exact derivatives are samples at the grid abscissae.
        assert np.array_equal(fvals[::8], np.array([f(x) for x in grid]))

    @pytest.mark.parametrize("name", sorted(cli._FUNCTIONS))
    def test_fine_samples_are_scalar_calls(self, name):
        # One scalar call per fine point, bitwise as a loop of float(t) calls.
        f = cli._FUNCTIONS[name]
        p = Ode1dProblem(-0.3, 1.4, 0.7, f)
        fine = np.linspace(p.a, p.b, 8001)
        samples = _fine_samples(p, np.linspace(p.a, p.b, 1001))
        assert samples.dtype == float
        assert np.array_equal(samples, np.array([f(float(t)) for t in fine], dtype=float))

    def test_errors_match_closed_form_for_cosine(self):
        # f = cos: u_eps = sin x / (1 + eps) + al cosh(k(b-x))/cosh(s)
        # + be sinh(k(x-a))/cosh(s), with al = u0 - sin a / (1 + eps) from
        # u_eps(a) = u0 and be = k cos b / (1 + eps) from u_eps'(b) = cos b.
        # Measured against this float64 evaluation: within 1.3e-15 on c0 and
        # on c1 (3.3e-14 and 1.1e-14 with the earlier sequential sums and
        # quad-based exact values); against a 40-digit one, 4.3e-15 and 2.7e-15.
        a, b, u0 = 0.0, 1.5, 0.5
        schedule = [10.0**j for j in range(2, -9, -1)]
        rows = convergence_report(Ode1dProblem(a, b, u0, math.cos), schedule)
        x = np.linspace(a, b, 1001)
        for row in rows:
            eps = row.epsilon
            k = math.sqrt(eps)
            s = k * (b - a)
            al, be = u0 - math.sin(a) / (1.0 + eps), k * math.cos(b) / (1.0 + eps)
            # cosh(t)/cosh(s) and sinh(t)/cosh(s) for 0 <= t <= s, scaled.
            norm = 1.0 + math.exp(-2.0 * s)
            tb, ta = k * (b - x), k * (x - a)
            cb = (np.exp(tb - s) + np.exp(-tb - s)) / norm
            sb = (np.exp(tb - s) - np.exp(-tb - s)) / norm
            ca = (np.exp(ta - s) + np.exp(-ta - s)) / norm
            sa = (np.exp(ta - s) - np.exp(-ta - s)) / norm
            value = np.sin(x) / (1.0 + eps) + al * cb + be * sa
            deriv = np.cos(x) / (1.0 + eps) + k * (be * ca - al * sb)
            c0 = np.max(np.abs(value - (u0 + np.sin(x) - math.sin(a))))
            c1 = np.max(np.abs(deriv - np.cos(x)))
            assert abs(row.c0_error - c0) <= 1e-14
            assert abs(row.c1_error - c1) <= 1e-14


class TestDecayingSums:
    # S_m = e^{-rate} S_(m-1) + t_m.  The report's rate 2 k h runs from 0 at
    # eps = 0 through 3.8e-5 (k = 0.1 on the bench grid) to values where
    # e^{-rate} underflows (kernels far below the grid spacing).
    @pytest.mark.parametrize("rate", [0.0, 3.8e-5, 6.9, 460.0, 800.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 1023, 1024, 1025, 4000])
    def test_matches_exact_sums(self, n, rate):
        # Reference S_m = fsum of e^{-rate (m-j)} t_j at 21 indices, exact up
        # to one rounding per product.  Measured worst: 0.99 eps sum_j |w_j t_j|.
        terms = np.random.default_rng(n).standard_normal(n)
        sums = _decaying_sums(terms, rate)
        assert sums.shape == (n + 1,) and sums[0] == 0.0
        for m in sorted(set(np.linspace(0, n, 21).astype(int))):
            weighted = np.exp(-rate * np.arange(m - 1, -1, -1.0)) * terms[:m]
            bound = 4.0 * np.finfo(float).eps * np.abs(weighted).sum()
            assert abs(sums[m] - math.fsum(weighted)) <= bound

    @pytest.mark.parametrize("rate", [0.0, 3.8e-5, 800.0])
    def test_matches_sequential_recurrence(self, rate):
        # Against the scalar recurrence it replaces.  Measured up to 9.0e-13 of
        # |S| + max|t| near decay 1 over six seeds (this one is the worst):
        # the recurrence's own rounding, as the scan is within one rounding of
        # the exact sums above.
        terms = np.random.default_rng(1).standard_normal(4000)
        decay, sequential = math.exp(-rate), [0.0]
        for t in terms:
            sequential.append(decay * sequential[-1] + t)
        scale = np.abs(sequential) + np.max(np.abs(terms))
        assert np.all(np.abs(_decaying_sums(terms, rate) - sequential) <= 2e-12 * scale)

    @pytest.mark.parametrize("rate", [800.0, math.inf])
    def test_zero_decay_returns_the_terms(self, rate):
        terms = np.random.default_rng(5).standard_normal(33)
        assert np.array_equal(_decaying_sums(terms, rate), np.concatenate(([0.0], terms)))

    def test_terms_left_unchanged(self):
        terms = np.arange(1.0, 6.0)
        _decaying_sums(terms, 0.5)
        assert np.array_equal(terms, np.arange(1.0, 6.0))


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
        p = Ode1dProblem(a, b, u0, _unit_rhs)
        values, derivs = _grid_solution(p, eps, grid, _fine_samples(p, grid))
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
        p = Ode1dProblem(a, b, u0, f)
        values, derivs = _grid_solution(p, eps, grid, _fine_samples(p, grid))
        for i in range(0, grid.size, 50):
            value, deriv = perturbed_solution(p, float(grid[i]), eps)
            assert abs(values[i] - value) <= 1e-12
            assert abs(derivs[i] - deriv) <= 1e-12 * max(1.0, abs(deriv))

    @pytest.mark.parametrize("eps", [1e8, 1e12])
    def test_narrow_kernel_reference(self, eps):
        # 1/k = 1e-4 and 1e-6: at 1e12 the kernel is far below quad's node
        # spacing.  Interior asymptote for f = cos: u_eps ~ sin(x) / eps and
        # u_eps' ~ cos(x) / eps (measured worst 2.1e-4 relative, at 1e12);
        # the grid path agrees to 1e-12.
        a, b = 0.0, 1.5
        grid = np.linspace(a, b, 1001)
        p = Ode1dProblem(a, b, 0.0, math.cos)
        values, derivs = _grid_solution(p, eps, grid, _fine_samples(p, grid))
        for i in (100, 500, 900):
            x = float(grid[i])
            value, deriv = perturbed_solution(p, x, eps)
            assert value == pytest.approx(math.sin(x) / eps, rel=1e-3, abs=0.0)
            assert deriv == pytest.approx(math.cos(x) / eps, rel=1e-3, abs=0.0)
            assert abs(values[i] - value) <= 1e-12 and abs(derivs[i] - deriv) <= 1e-12

    @pytest.mark.parametrize("f", [math.cos, math.exp], ids=["cos", "exp"])
    @pytest.mark.parametrize("eps", [1e10, 1e12])
    def test_value_at_large_epsilon(self, eps, f):
        # The value kernel integrates f(y) - f(x), and f(x) times its
        # closed-form mass sdc(k(x-a), s) / k is added, so no two O(1/k)
        # integrals cancel to the O(1/eps) value.  Measured: within 1.2e-8 of
        # the grid path; as a difference of the two integrals it was 8.4e-3
        # off at x = 0.15 and eps 1e12.
        a, b = 0.0, 1.5
        grid = np.linspace(a, b, 1001)
        p = Ode1dProblem(a, b, 0.0, f)
        values, _ = _grid_solution(p, eps, grid, _fine_samples(p, grid))
        for i in (100, 500, 900):
            value, _ = perturbed_solution(p, float(grid[i]), eps)
            assert value == pytest.approx(values[i], rel=1e-7, abs=0.0)

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
