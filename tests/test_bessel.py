"""Tests for the modified Bessel functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epsreg.bessel import (
    NU_MAX,
    _MILLER_BUFFER,
    _SERIES_STRIDE,
    _bessel_i,
    _series,
    bessel_i,
    bessel_i_prime,
)
from epsreg.errors import InputError


def series_oracle(nu: int, x: float, terms: int = 30) -> float:
    """Independent truncated ascending series sum (x/2)^(2k+nu) / (k! (k+nu)!).

    Terms are accumulated by the recurrence t_k = t_{k-1} x^2 / (4 k (k+nu))
    so large truncations stay inside float range.
    """
    term = (0.5 * x) ** nu / math.factorial(nu)
    total = term
    for k in range(1, terms):
        term *= 0.25 * x * x / (k * (k + nu))
        total += term
    return total


def series_per_order(nu: int, x: np.ndarray) -> np.ndarray:
    """The one-order-per-call ascending series the per-element kernel replaced, verbatim."""
    half = 0.5 * x
    term = half**nu / math.factorial(nu)
    total = term.copy()
    quarter_sq = half * half
    for k in range(1, 200):
        term = term * quarter_sq / (k * (k + nu))
        total += term
        if (term <= 1e-18 * (total + 1e-300)).all():
            break
    return total


def scalar_miller(nu: int, x: float) -> float:
    """The per-point Miller recurrence the vectorized branch replaced, verbatim."""
    m_start = int(max(nu, x)) + _MILLER_BUFFER
    values = np.zeros(m_start + 2)
    values[m_start + 1] = 0.0
    values[m_start] = 1e-30
    for n in range(m_start, 0, -1):
        values[n - 1] = values[n + 1] + (2.0 * n / x) * values[n]
        if values[n - 1] > 1e250:
            values *= 1e-250
    i0 = float(series_per_order(0, np.asarray(x)))
    return float(values[nu] * (i0 / values[0]))


def second_derivative_oracle(nu: int, x: float) -> float:
    """I_nu''(x) from the recurrence (I_{nu-2} + 2 I_nu + I_{nu+2}) / 4."""
    lo = bessel_i(abs(nu - 2), x)
    hi = bessel_i(nu + 2, x)
    return 0.25 * (lo + 2.0 * bessel_i(nu, x) + hi)


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(1, 0.0) == 0.0
        assert bessel_i(7, 0.0) == 0.0

    def test_i0_at_one_matches_series_oracle(self):
        expected = series_oracle(0, 1.0)
        assert expected == pytest.approx(1.2660658777520084, rel=1e-14)
        assert bessel_i(0, 1.0) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("nu", [0, 1, 2, 5, 10, 20])
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 15.0])
    def test_matches_series_oracle(self, nu, x):
        assert bessel_i(nu, x) == pytest.approx(series_oracle(nu, x), rel=1e-10)

    @pytest.mark.parametrize("x", [15.0, 25.0, 40.0, 60.0])
    @pytest.mark.parametrize("nu", [0, 3, 17, 42, 60])
    def test_miller_branch_matches_long_series(self, nu, x):
        # The all-positive series has no cancellation, so a long truncation
        # is an independent oracle even at the top of the range.
        assert bessel_i(nu, x) == pytest.approx(series_oracle(nu, x, terms=120), rel=1e-12)

    def test_recurrence_identity(self):
        for nu in range(1, 21):
            for x in (0.1, 1.0, 5.0, 15.0, 40.0):
                lhs = bessel_i(nu - 1, x) - bessel_i(nu + 1, x)
                rhs = (2.0 * nu / x) * bessel_i(nu, x)
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.0, 0.5, 3.0, 14.0, 16.0, 30.0])
        vec = bessel_i(2, xs)
        assert vec.shape == xs.shape
        for xi, vi in zip(xs, vec):
            assert vi == pytest.approx(bessel_i(2, float(xi)), rel=1e-14, abs=1e-300)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        nu=st.integers(min_value=0, max_value=30),
        x1=st.floats(min_value=1e-3, max_value=50.0),
        x2=st.floats(min_value=1e-3, max_value=50.0),
    )
    def test_positive_and_strictly_increasing(self, nu, x1, x2):
        lo, hi = sorted((x1, x2))
        if hi - lo < 1e-9:
            return
        f_lo, f_hi = bessel_i(nu, lo), bessel_i(nu, hi)
        assert f_hi > 0.0 or (nu > 0 and f_hi == 0.0)  # deep underflow for huge nu
        if f_lo > 0.0:
            assert f_hi > f_lo

    def test_domain_errors(self):
        with pytest.raises(InputError):
            bessel_i(0, -0.5)
        with pytest.raises(InputError):
            bessel_i(0, 61.0)
        with pytest.raises(InputError):
            bessel_i(NU_MAX + 1, 1.0)
        with pytest.raises(InputError):
            bessel_i(-1, 1.0)
        with pytest.raises(InputError):
            bessel_i(1.5, 1.0)

    @pytest.mark.parametrize(
        "x", [math.nan, [1.0, math.nan], [20.0, math.nan]], ids=["scalar", "series", "miller"]
    )
    def test_nan_argument_refused(self, x):
        # Series and Miller branches alike: NaN fails 0 <= x <= X_MAX.
        for fn in (bessel_i, bessel_i_prime):
            with pytest.raises(InputError, match="outside supported range"):
                fn(0, np.asarray(x))


class TestVectorizedMiller:
    def test_bitwise_equal_to_scalar_recurrence(self):
        # One call per order over 1024 points with mixed start orders; each
        # order is checked at 128 of them and each point at about 8 orders
        # (the scalar reference costs about 0.3 ms per value).
        xs = np.linspace(15.0, 60.0, 1024)
        for nu in range(NU_MAX + 2):
            vec = _bessel_i(nu, xs)
            picked = np.arange(nu % 8, xs.size, 8)
            ref = np.array([scalar_miller(nu, float(x)) for x in xs[picked]])
            assert np.array_equal(vec[picked], ref), nu

    def test_rescaled_points_bitwise_equal(self):
        # At order 250 the stack of x = 15 passes 1e250 and is rescaled,
        # while that of x = 60 is not: the rescale is per point.
        xs = np.linspace(15.0, 60.0, 16)
        ref = np.array([scalar_miller(250, float(x)) for x in xs])
        assert np.array_equal(_bessel_i(250, xs), ref)


class TestPerElementKernel:
    # Both branches: the series below x = 15, the Miller recurrence from 15.
    # The 64 series points catch a pow that differs from a square in the
    # last bit (about one point in twenty at order 2).
    XS = [0.0, 1e-3, 14.9, 15.0, 20.0, 59.9] + list(np.linspace(0.01, 14.0, 64))

    def per_order_reference(self, nu: int) -> np.ndarray:
        xs = np.array(self.XS)
        small = xs < 15.0
        out = np.empty_like(xs)
        out[small] = series_per_order(nu, xs[small])
        out[~small] = [scalar_miller(nu, float(x)) for x in xs[~small]]
        return out

    def test_one_call_bitwise_equal_to_per_order_calls(self):
        orders = np.arange(NU_MAX + 2)
        nu, x = np.meshgrid(orders, self.XS, indexing="ij")
        table = _bessel_i(nu, x)
        for n in orders:
            assert np.array_equal(table[n], self.per_order_reference(int(n))), n

    def test_public_tables_bitwise(self):
        orders = np.arange(NU_MAX + 2)
        nu, x = np.meshgrid(orders, self.XS, indexing="ij")
        table = _bessel_i(nu, x)
        assert np.array_equal(bessel_i(nu[:-1], x[:-1]), table[:-1])
        lower = table[np.abs(orders[:-1] - 1)]
        assert np.array_equal(bessel_i_prime(nu[:-1], x[:-1]), 0.5 * (lower + table[1:]))

    def test_scalar_inputs_give_floats_and_arrays_broadcast(self):
        assert isinstance(bessel_i(3, 2.0), float)
        assert isinstance(bessel_i_prime(np.int64(3), 2.0), float)
        assert bessel_i(np.array([1, 2]), np.array([2.0, 20.0])).shape == (2,)
        assert bessel_i(np.arange(4)[:, None], np.full((4, 3), 2.0)).shape == (4, 3)

    def test_order_arrays_are_validated(self):
        with pytest.raises(InputError, match="order 61 outside"):
            bessel_i(np.array([0, 61]), np.ones(2))
        with pytest.raises(InputError, match="must be an integer"):
            bessel_i_prime(np.array([0.0, 1.0]), np.ones(2))


class TestStridedSeries:
    # Linear points over the series branch and geometric ones down to where
    # the sums are subnormal, the one range in which a term at the 1e-18 stop
    # is not far below half an ulp.
    XS = np.concatenate([np.linspace(0.0, 15.0, 45, endpoint=False), np.geomspace(1e-9, 1.0, 15)])

    def test_bitwise_equal_to_every_term_stop_alone(self):
        # One element alone stops at the first tested term past its own stop;
        # in one call for the whole table it runs on with the slowest one.
        assert _SERIES_STRIDE > 1
        nu, x = np.meshgrid(np.arange(NU_MAX + 1), self.XS, indexing="ij")
        table = _series(nu.ravel(), x.ravel()).reshape(nu.shape)
        for n in range(NU_MAX + 1):
            every = np.concatenate([series_per_order(n, np.array([v])) for v in self.XS])
            strided = np.concatenate([_series(np.array([n]), np.array([v])) for v in self.XS])
            assert strided.tobytes() == every.tobytes(), n
            assert table[n].tobytes() == every.tobytes(), n


class TestBesselIPrime:
    def test_i0_prime_is_i1(self):
        expected = series_oracle(1, 1.0)
        assert expected == pytest.approx(0.5651591039924851, rel=1e-14)
        assert bessel_i_prime(0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_i1_prime_limit_at_zero(self):
        assert bessel_i_prime(1, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_against_finite_difference(self):
        h = 1e-6
        fd = (bessel_i(3, 2.0 + h) - bessel_i(3, 2.0 - h)) / (2.0 * h)
        assert bessel_i_prime(3, 2.0) == pytest.approx(fd, rel=1e-7)

    def test_top_order_supported(self):
        # The derivative at NU_MAX needs the order NU_MAX + 1 neighbor.
        h = 1e-5
        fd = (bessel_i(NU_MAX, 40.0 + h) - bessel_i(NU_MAX, 40.0 - h)) / (2.0 * h)
        assert bessel_i_prime(NU_MAX, 40.0) == pytest.approx(fd, rel=1e-6)


class TestOdeResidual:
    @pytest.mark.parametrize("epsilon", [0.01, 1.0, 100.0])
    def test_radial_ode_residual(self, epsilon):
        # r^2 g'' + r g' - (i^2 + eps r^2) g = 0 for g(r) = I_i(sqrt(eps) r);
        # the second derivative comes from the ODE-independent recurrence.
        k = math.sqrt(epsilon)
        radii = np.linspace(0.02, 1.0, 50)
        for i in range(0, 21, 4):
            for r in radii:
                g = bessel_i(i, k * r)
                gp = k * bessel_i_prime(i, k * r)
                gpp = k * k * second_derivative_oracle(i, k * r)
                residual = r * r * gpp + r * gp - (i * i + epsilon * r * r) * g
                assert abs(residual) <= 1e-8 * (1.0 + abs(g))

