"""Tests for Dirac-operator kinds and the disk solution basis."""

import math

import numpy as np
import pytest

from epsreg.bessel import NU_MAX, bessel_i, bessel_i_prime
from epsreg.diskbasis import (
    BasisFunction,
    DiracOperatorKind,
    Field,
    apply_operator,
    basis_table,
    boundary_amplitudes,
    check_helmholtz,
    enumerate_modes,
    nonvanishing_check,
    symbol_defect,
)
from epsreg.errors import InputError

GRAD = DiracOperatorKind.GRADIENT
CR = DiracOperatorKind.CAUCHY_RIEMANN
SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)


def ring(radius, count, start=0.05):
    angles = start + 2.0 * math.pi * np.arange(count) / count
    return np.column_stack([radius * np.cos(angles), radius * np.sin(angles)])


class TestSymbol:
    def test_identity_both_kinds(self):
        rng = np.random.default_rng(0)
        xis = rng.standard_normal((100, 2))
        assert symbol_defect(GRAD, xis) <= 1e-14
        assert symbol_defect(CR, xis) <= 1e-14

    def test_shapes(self):
        assert GRAD.symbol([1.0, 2.0]).shape == (2, 1)
        assert CR.symbol([1.0, 2.0]).shape == (1, 1)


class TestEvaluate:
    def test_mode_zero_center(self):
        b = BasisFunction(GRAD, 0, 1, 2.5)
        assert b.value_polar(0.0, 1.234) == pytest.approx(1.0 / SQRT_2PI, rel=1e-14)

    def test_gradient_cos_mode(self):
        b = BasisFunction(GRAD, 1, 1, 1.0)
        assert b.value_polar(1.0, 0.0) == pytest.approx(bessel_i(1, 1.0) / SQRT_PI, rel=1e-13)

    def test_cauchy_riemann_phase(self):
        b = BasisFunction(CR, 1, 1, 4.0)
        value = b.value_polar(0.5, math.pi / 2.0)
        assert value == pytest.approx(1j * bessel_i(1, 1.0) / SQRT_PI, rel=1e-13)

    def test_mode_validation(self):
        with pytest.raises(InputError):
            BasisFunction(GRAD, 0, 2, 1.0)
        with pytest.raises(InputError):
            BasisFunction(GRAD, 1, 3, 1.0)

    def test_gradient_continuous_at_origin(self):
        b = BasisFunction(GRAD, 1, 1, 1.0)
        gx0, gy0 = b.gradient_xy(0.0, 0.0)
        gx1, gy1 = b.gradient_xy(1e-9, 1e-9)
        assert gx0 == pytest.approx(0.5 / SQRT_PI, rel=1e-12)
        assert abs(gy0) <= 1e-14
        assert gx1 == pytest.approx(gx0, rel=1e-8)
        assert abs(gy1 - gy0) <= 1e-8


class TestRadialPart:
    """The radial factor I_i(sqrt(eps) r) of a mode, where H_i^(1)(0) is positive."""

    def test_value_at_origin(self):
        assert BasisFunction(GRAD, 0, 1, 2.0).value_polar(0.0, 0.0) == 1.0 / SQRT_2PI
        assert BasisFunction(GRAD, 1, 1, 2.0).value_polar(0.0, 0.0) == 0.0
        assert BasisFunction(CR, 5, 1, 2.0).value_polar(0.0, 0.0) == 0.0

    def test_positive_inside(self):
        radii = np.linspace(0.05, 1.0, 20)
        assert np.all(BasisFunction(GRAD, 3, 1, 4.0).value_polar(radii, 0.0) > 0.0)

    def test_example_values(self):
        # I_2(1) and I_0'(1) = I_1(1), from the ascending series.
        value = BasisFunction(GRAD, 2, 1, 4.0).value_polar(0.5, 0.0)
        assert value * SQRT_PI == pytest.approx(0.1357476697670383, rel=1e-12)
        slope, _ = BasisFunction(GRAD, 0, 1, 1.0).gradient_xy(1.0, 0.0)
        assert slope * SQRT_2PI == pytest.approx(0.565159103992485, rel=1e-12)

    @pytest.mark.parametrize(
        "index, eps",
        [(0, 0.0), (0, -1.0), (0, 4000.0), (-1, 1.0), (NU_MAX + 1, 1.0), (1.5, 1.0)],
    )
    def test_domain_validation(self, index, eps):
        with pytest.raises(InputError):
            BasisFunction(GRAD, index, 1, eps)


class TestApplyOperator:
    def test_gradient_of_coordinate(self):
        field = apply_operator(GRAD, lambda x, y: x)
        out = field(np.array([0.2, -0.1]), np.array([0.3, 0.4]))
        np.testing.assert_allclose(out[0], 1.0, atol=1e-9)
        np.testing.assert_allclose(out[1], 0.0, atol=1e-9)

    def test_cr_of_conjugate(self):
        field = apply_operator(CR, lambda x, y: x - 1j * y)
        out = field(np.array([0.1]), np.array([0.2]))
        np.testing.assert_allclose(out, 2.0, atol=1e-9)

    def test_cr_annihilates_holomorphic(self):
        for m in range(1, 5):
            field = apply_operator(CR, lambda x, y, m=m: (x + 1j * y) ** m)
            out = field(np.array([0.3, -0.2]), np.array([0.1, 0.25]))
            np.testing.assert_allclose(out, 0.0, atol=1e-7)

    def test_exact_gradient_used_for_basis(self):
        b = BasisFunction(GRAD, 2, 1, 1.0)
        field = apply_operator(GRAD, b)
        x, y = np.array([0.4]), np.array([0.3])
        out = field(x, y)
        h = 1e-6
        fd_x = (b.value_xy(x + h, y) - b.value_xy(x - h, y)) / (2 * h)
        fd_y = (b.value_xy(x, y + h) - b.value_xy(x, y - h)) / (2 * h)
        np.testing.assert_allclose(out[0], fd_x, rtol=1e-8)
        np.testing.assert_allclose(out[1], fd_y, rtol=1e-8)

    def test_one_difference_rule_for_every_field_without_gradient(self):
        # A bare callable, an object with value_xy only and a Field without
        # a gradient all take Field.gradient_xy's centered difference.
        class ValueOnly:
            def value_xy(self, x, y):
                return np.sin(3.0 * x) * np.exp(y)

        value = ValueOnly().value_xy
        x, y = np.array([0.2, -0.5, 0.1]), np.array([0.3, 0.1, -0.7])
        outs = [apply_operator(op, u)(x, y) for op in (GRAD, CR)
                for u in (value, ValueOnly(), Field(value))]
        for out in outs[1:3]:
            np.testing.assert_array_equal(out, outs[0])
        for out in outs[4:]:
            np.testing.assert_array_equal(out, outs[3])
        np.testing.assert_allclose(outs[0][0], 3.0 * np.cos(3.0 * x) * np.exp(y), rtol=1e-9)

    def test_outside_disk_rejected(self):
        field = apply_operator(GRAD, lambda x, y: x)
        with pytest.raises(InputError):
            field(np.array([1.2]), np.array([0.0]))


class TestNormalTrace:
    def test_gradient_closed_form(self):
        # lambda = i kills the (lambda - i) term: n(A b) = sqrt(eps) I_i'(sqrt(eps)) H.
        eps = 1.0
        phis = np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)
        for i, branch in [(0, 1), (1, 1), (2, 2)]:
            b = BasisFunction(GRAD, i, branch, eps)
            expected = math.sqrt(eps) * bessel_i_prime(i, math.sqrt(eps)) * GRAD.angular_table(
                [(i, branch)], phis
            )[:, 0]
            np.testing.assert_allclose(b.normal_trace_values(phis), expected, rtol=1e-12)

    def test_mode_zero_constant(self):
        b = BasisFunction(GRAD, 0, 1, 1.0)
        vals = b.normal_trace_values(np.linspace(0, 6, 9))
        expected = bessel_i(1, 1.0) / SQRT_2PI
        np.testing.assert_allclose(vals, expected, rtol=1e-12)

    def test_cr_branch_two_closed_form(self):
        eps = 1.0
        root = math.sqrt(eps)
        b = BasisFunction(CR, 1, 2, eps)
        phis = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
        expected = (
            (root * bessel_i_prime(1, root) + bessel_i(1, root))
            * np.exp(-1j * phis)
            / SQRT_PI
        )
        np.testing.assert_allclose(b.normal_trace_values(phis), expected, rtol=1e-12)

    def test_cr_against_finite_difference_oracle(self):
        # n o A = r d/dr + i d/dphi, realized by centered differences of the
        # analytic basis formula at r = 1.
        eps = 0.7
        b = BasisFunction(CR, 1, 2, eps)
        h = 1e-6
        phis = np.array([0.3, 1.1, 4.0])
        dr = (b.value_polar(1.0 + h, phis) - b.value_polar(1.0 - h, phis)) / (2 * h)
        dphi = (b.value_polar(1.0, phis + h) - b.value_polar(1.0, phis - h)) / (2 * h)
        oracle = 1.0 * dr + 1j * dphi
        np.testing.assert_allclose(b.normal_trace_values(phis), oracle, rtol=1e-7)


class TestHelmholtz:
    def test_mode_zero(self):
        rng = np.random.default_rng(1)
        radii = rng.uniform(0.01, 0.95, 20)
        angles = rng.uniform(0.0, 2.0 * math.pi, 20)
        pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        b = BasisFunction(GRAD, 0, 1, 1.0)
        assert check_helmholtz(b, 1.0, pts) <= 1e-5

    def test_higher_mode(self):
        b = BasisFunction(GRAD, 3, 1, 0.25)
        assert check_helmholtz(b, 0.25, ring(0.6, 20)) <= 1e-5

    def test_harmonic_polynomial_limit(self):
        # eps = 0 with g = r^i: exact harmonic polynomial Re z^i.
        for i in (2, 3):
            u = lambda x, y, i=i: np.real((x + 1j * y) ** i)
            assert check_helmholtz(u, 0.0, ring(0.5, 16)) <= 1e-7

    def test_point_validation(self):
        b = BasisFunction(GRAD, 0, 1, 1.0)
        with pytest.raises(InputError):
            check_helmholtz(b, 1.0, np.array([[0.0, 0.0]]))
        with pytest.raises(InputError):
            check_helmholtz(b, 1.0, np.array([[1.0, 0.0]]))

    def test_non_field_rejected(self):
        # Field.wrap is the adapter: a value that is no field is an input error.
        with pytest.raises(InputError, match="cannot interpret float as a field"):
            check_helmholtz(0.5, 1.0, ring(0.5, 4))


class TestModeTables:
    # Angles on [0, 2 pi) and beyond it on both sides, negative zero included.
    @staticmethod
    def angles(n):
        uniform = 2.0 * math.pi * np.arange(n) / n
        return np.concatenate([uniform, -uniform, np.random.default_rng(n).uniform(-7.0, 14.0, n)])

    @staticmethod
    def closed_form(op, i, j, phi):
        # (H_i^(j), d/dphi H_i^(j)) as the angular_table docstring states them.
        if i == 0:
            dtype = complex if op.is_complex else float
            return np.full(phi.shape, 1.0 / SQRT_2PI, dtype), np.zeros(phi.shape, dtype)
        if op is GRAD:
            if j == 1:
                return np.cos(i * phi) / SQRT_PI, -i * np.sin(i * phi) / SQRT_PI
            return np.sin(i * phi) / SQRT_PI, i * np.cos(i * phi) / SQRT_PI
        s = 1j * (1.0 if j == 1 else -1.0) * i
        return np.exp(s * phi) / SQRT_PI, s * np.exp(s * phi) / SQRT_PI

    @pytest.mark.parametrize("op", [GRAD, CR])
    @pytest.mark.parametrize("n", [7, 13, 108, 257])
    def test_angular_tables_bitwise_equal_to_closed_forms(self, op, n):
        modes = enumerate_modes(NU_MAX)
        phi = self.angles(n)
        values = op.angular_table(modes, phi)
        slopes = op.angular_derivative_table(modes, phi)
        assert values.shape == slopes.shape == (phi.size, len(modes))
        for k, (i, j) in enumerate(modes):
            value, slope = self.closed_form(op, i, j, phi)
            assert values[:, k].tobytes() == value.tobytes(), (i, j)
            assert slopes[:, k].tobytes() == slope.tobytes(), (i, j)

    def test_enumerate_modes_applies_the_order_rule(self):
        assert len(enumerate_modes(0)) == 1 and len(enumerate_modes(NU_MAX)) == 2 * NU_MAX + 1
        for i_max in (-5, -1, NU_MAX + 1):
            with pytest.raises(InputError, match=f"order {i_max} outside supported range"):
                enumerate_modes(i_max)

    def test_angular_table_shape_and_validation(self):
        assert CR.angular_table([(0, 1), (2, 2)], 0.3).shape == (2,)
        assert GRAD.angular_table([(1, 1)], np.zeros((3, 4))).shape == (3, 4, 1)
        with pytest.raises(InputError):
            GRAD.angular_table([(0, 2)], 0.0)

    @pytest.mark.parametrize("op", [GRAD, CR])
    @pytest.mark.parametrize("eps", [400.0, 1.0, 0.01])
    def test_table_residuals_bitwise_equal_to_per_mode(self, op, eps):
        modes = enumerate_modes(8)
        pts = ring(0.5, 12)
        residuals = check_helmholtz(lambda x, y: basis_table(op, modes, eps, x, y), eps, pts)
        values = basis_table(op, modes, eps, *pts.T)
        assert residuals.shape == (len(modes),)
        for k, (i, j) in enumerate(modes):
            b = BasisFunction(op, i, j, eps)
            assert residuals[k] == check_helmholtz(b, eps, pts), (i, j)
            assert values[:, k].tobytes() == b.value_xy(*pts.T).tobytes(), (i, j)


class TestNonvanishing:
    def test_gradient_mode_zero(self):
        assert nonvanishing_check(GRAD, 0, 1, 1.0) == pytest.approx(
            bessel_i(1, 1.0), rel=1e-13
        )

    def test_sample_positive(self):
        assert nonvanishing_check(GRAD, 5, 1, 0.01) > 0.0
        assert nonvanishing_check(CR, 2, 2, 1.0) > 0.0

    def test_positive_across_modes_and_eps(self):
        for op in (GRAD, CR):
            for eps in (0.01, 0.25, 1.0, 4.0, 100.0):
                for i, branch in enumerate_modes(8):
                    assert nonvanishing_check(op, i, branch, eps) > 0.0

    def test_epsilon_validation(self):
        with pytest.raises(InputError):
            nonvanishing_check(GRAD, 0, 1, 0.0)


class TestBoundaryAmplitudes:
    @pytest.mark.parametrize("op", [GRAD, CR])
    @pytest.mark.parametrize("eps", [1e-5, 1.0, 4e2, 3600.0])
    def test_bitwise_equal_to_per_mode_calls(self, op, eps):
        modes = enumerate_modes(NU_MAX)
        trace, conormal = boundary_amplitudes(op, modes, eps)
        root = math.sqrt(eps)
        for k, (i, j) in enumerate(modes):
            value = bessel_i(i, root)
            assert trace[k] == value
            assert conormal[k] == root * bessel_i_prime(i, root) + (op.eigenvalue(i, j) - i) * value

    def test_one_mode_is_nonvanishing_check(self):
        assert nonvanishing_check(CR, 3, 2, 0.7) == boundary_amplitudes(CR, [(3, 2)], 0.7)[1][0]

    def test_validation(self):
        with pytest.raises(InputError):
            boundary_amplitudes(GRAD, [(0, 1)], 0.0)
        with pytest.raises(InputError):
            boundary_amplitudes(GRAD, [(0, 2)], 1.0)


class TestEigenvalueRelation:
    def test_harmonic_polynomials(self):
        # n(A (r^i cos i phi)) = i r^i cos i phi for the gradient operator,
        # checked on the boundary with exact differentiation.
        phis = np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False)
        x, y = np.cos(phis), np.sin(phis)
        for i in range(1, 9):
            z = (x + 1j * y) ** (i - 1)
            ux = np.real(i * z)
            uy = -np.imag(i * z)
            n_of_au = x * ux + y * uy
            expected = i * np.cos(i * phis)
            np.testing.assert_allclose(n_of_au, expected, atol=1e-9)

    def test_cr_eigenvalues(self):
        assert CR.eigenvalue(0, 1) == 0.0
        assert CR.eigenvalue(3, 1) == 0.0
        assert CR.eigenvalue(3, 2) == 6.0
        assert GRAD.eigenvalue(4, 1) == 4.0
        assert GRAD.eigenvalue(4, 2) == 4.0


class TestModeEnumeration:
    def test_planar_counts(self):
        modes = enumerate_modes(3)
        assert modes == [(0, 1), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
