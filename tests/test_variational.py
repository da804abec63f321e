"""Tests for quadrature, inner products, trial spaces and the disk solvers."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from epsreg.bessel import bessel_i, bessel_i_prime
from epsreg.core import Verdict
from epsreg.diskbasis import (
    BasisFunction,
    DiracOperatorKind,
    apply_operator,
    basis_table,
    check_helmholtz,
)
from epsreg import cli
from epsreg.errors import InputError, NumericError
from epsreg import variational
from epsreg.variational import (
    ArcSpec,
    CauchyProblemSpec,
    DiskQuadrature,
    Field,
    FourierHarmonicField,
    LinearCombination,
    basis_grams,
    build_seed_system,
    cauchy_pipeline,
    l_curve_corner,
    lift_cauchy_datum,
    max_offdiag_relative,
    solve_mixed_boundary_series,
    solve_perturbed_galerkin,
    trial_space_for_epsilon,
)
from reference import (
    boundary_form_h,
    constant,
    cr_pole_norm,
    gram_schmidt,
    inner_eps,
    k0_mixed_data,
    k0_source,
    monomial,
    pair_outputs,
    seed_fields,
    trace_values,
    wrap,
)

GRAD = DiracOperatorKind.GRADIENT
CR = DiracOperatorKind.CAUCHY_RIEMANN
UPPER = ArcSpec(0.0, math.pi)


@pytest.fixture(scope="module")
def quad64():
    return DiskQuadrature.build(64, 256)


@pytest.fixture(scope="module")
def quad_small():
    return DiskQuadrature.build(40, 128)


def _form(gram, d):
    """d^H G^T d, clipped at 0: the squared norm of the seed combination d."""
    return max(float(np.real(np.conj(d) @ (gram.T @ d))), 0.0)


def _galerkin_residual(seeds, eps, d, rhs):
    """Defect of the Fourier-coefficient identity c = C^H rhs = C^H G^T d.

    C is the eps-orthonormal basis and G = K + eps M the assembled eps-Gram,
    so this checks the orthonormalization directly.
    """
    coeff = trial_space_for_epsilon(seeds, eps)
    gram = seeds.energy_gram + eps * seeds.l2_gram
    c = coeff.conj().T @ rhs
    return float(np.max(np.abs(c - coeff.conj().T @ gram.T @ d)))


def cubic_field():
    """u* = Re z^3 with exact gradient."""
    return Field(
        lambda x, y: x**3 - 3.0 * x * y**2,
        lambda x, y: (3.0 * x**2 - 3.0 * y**2, -6.0 * x * y),
    )


class TestDiskQuadrature:
    def test_area(self, quad64):
        area = float(np.real(quad64.integrate(np.ones_like(quad64.x))))
        assert area == pytest.approx(math.pi, rel=1e-12)

    def test_second_moment(self, quad64):
        moment = float(np.real(quad64.integrate(quad64.x**2)))
        assert moment == pytest.approx(math.pi / 4.0, rel=1e-10)

    def test_size_validation(self):
        before = variational._disk_quadrature.cache_info()
        with pytest.raises(InputError):
            DiskQuadrature.build(1, 256)
        # Above the bounds the build refuses before any Gauss-Legendre solve,
        # and a refused size never enters the memo.
        for n_r, n_phi in ((variational.N_R_MAX + 1, 8), (8, 3), (8, variational.N_PHI_MAX + 1)):
            with pytest.raises(InputError, match="must lie in") as info:
                DiskQuadrature.build(n_r, n_phi)
            assert info.value.key == ("n_r" if n_r > variational.N_R_MAX else "n_phi")
        after = variational._disk_quadrature.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)

    def test_equal_sizes_share_one_read_only_instance(self):
        quad = DiskQuadrature.build(16, 64)
        assert DiskQuadrature.build(16, 64) is quad
        assert DiskQuadrature.build(n_phi=64, n_r=16) is quad
        for name in ("r", "wr", "phi", "x", "y", "w"):
            arr = getattr(quad, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_alternating_sizes_stay_cached(self):
        fine, coarse = DiskQuadrature.build(64, 256), DiskQuadrature.build(16, 64)
        misses = variational._disk_quadrature.cache_info().misses
        for _ in range(3):
            assert DiskQuadrature.build(64, 256) is fine
            assert DiskQuadrature.build(16, 64) is coarse
        assert variational._disk_quadrature.cache_info().misses == misses

    def test_memo_is_bounded(self):
        first = DiskQuadrature.build(5, 8)
        for n_r in range(6, 12):
            DiskQuadrature.build(n_r, 8)
        assert variational._disk_quadrature.cache_info().currsize <= 4
        rebuilt = DiskQuadrature.build(5, 8)
        assert rebuilt is not first and np.array_equal(rebuilt.w, first.w)

    @pytest.mark.parametrize("n_r, n_phi", [(64, 256), (16, 64), (7, 12)])
    def test_nodes_equal_meshgrid_form(self, n_r, n_phi):
        quad = DiskQuadrature.build(n_r, n_phi)
        rr, pp = np.meshgrid(quad.r, quad.phi, indexing="ij")
        assert np.array_equal(quad.x, (rr * np.cos(pp)).ravel())
        assert np.array_equal(quad.y, (rr * np.sin(pp)).ravel())

    # Worst relative errors measured for this rule (numpy leggauss): 5.0e-14,
    # 4.3e-13 and 5.7e-12 (scipy roots_legendre: 1.4e-13, 5.1e-12, 3.2e-11).
    @pytest.mark.parametrize("n_r, bound", [(64, 5e-13), (256, 2e-11), (1024, 1e-10)])
    def test_radial_rule_is_exact_to_degree_2n_minus_1(self, n_r, bound):
        # wr carries the Jacobian r, so sum wr r^k integrates r^(k+1) = 1 / (k + 2).
        quad = DiskQuadrature.build(n_r, 4)
        k = np.arange(2 * n_r - 1)
        moments = np.array([np.sum(quad.wr * quad.r**j) for j in k])
        assert float(np.max(np.abs(moments * (k + 2) - 1.0))) <= bound


class TestArcSpec:
    def test_geometry(self):
        assert UPPER.length == pytest.approx(math.pi)
        assert UPPER.complement_length == pytest.approx(math.pi)

    def test_quadrature_weights_sum(self):
        phi, w = UPPER.quadrature(256)
        assert np.sum(w) == pytest.approx(math.pi, rel=1e-14)
        cphi, cw = UPPER.complement_quadrature(256)
        assert np.sum(cw) == pytest.approx(math.pi, rel=1e-14)
        assert np.all(cphi >= math.pi - 1e-12)

    def test_full_circle(self):
        full = ArcSpec(0.0, 2 * math.pi)
        assert full.is_full
        phi, w = full.quadrature(128)
        assert phi.size == 128 and np.sum(w) == pytest.approx(2 * math.pi)
        cphi, _ = full.complement_quadrature(128)
        assert cphi.size == 0

    def test_validation(self):
        with pytest.raises(InputError):
            ArcSpec(7.0, 8.0)
        with pytest.raises(InputError):
            ArcSpec(1.0, 1.0)
        with pytest.raises(InputError):
            ArcSpec(0.0, 7.0)


class TestInnerProducts:
    def test_constant_field(self, quad_small):
        c = constant(2.0 - 1.0j)
        for eps in (0.5, 2.0):
            value = inner_eps(c, c, CR, eps, quad_small)
            assert complex(value) == pytest.approx(eps * 5.0 * math.pi, rel=1e-12)

    def test_odd_symmetry(self, quad_small):
        x_field = monomial(1, 0)
        y_field = monomial(0, 1)
        value = inner_eps(x_field, y_field, GRAD, 1.0, quad_small)
        assert abs(complex(value)) <= 1e-14

    def test_radial_reduction_oracle(self, quad64):
        # Separation of variables reduces (b, b)_eps for b = I_1(r) cos(phi)/sqrt(pi)
        # to one-dimensional radial integrals.
        b = BasisFunction(GRAD, 1, 1, 1.0)
        l2_1d = quad(lambda r: bessel_i(1, r) ** 2 * r, 0.0, 1.0, epsabs=1e-13)[0]
        energy_1d = quad(
            lambda r: (bessel_i_prime(1, r) ** 2 + (bessel_i(1, r) / r) ** 2) * r,
            1e-12,
            1.0,
            epsabs=1e-13,
        )[0]
        value = inner_eps(b, b, GRAD, 1.0, quad64)
        assert float(np.real(value)) == pytest.approx(energy_1d + l2_1d, rel=1e-9)

    def test_conjugate_symmetry(self, quad_small):
        u = BasisFunction(CR, 1, 1, 1.0)
        v = BasisFunction(CR, 2, 2, 1.0)
        combo_u = 1.5 * wrap(u) + (0.3 + 0.7j) * wrap(v)
        combo_v = (0.2 - 0.1j) * wrap(u) + 2.0 * wrap(v)
        ab = complex(inner_eps(combo_u, combo_v, CR, 0.7, quad_small))
        ba = complex(inner_eps(combo_v, combo_u, CR, 0.7, quad_small))
        assert ab == pytest.approx(np.conj(ba), abs=1e-12)


class TestBoundaryForm:
    def test_mode_zero_matches_analytic(self):
        # (|g_0(1)|^2 + |g_0'(1)|^2) / 2 for the upper-half arc; the same
        # quantity appears under the square root in the normalized first
        # element of the boundary-orthonormal basis.
        eps = 1.0
        b0 = BasisFunction(GRAD, 0, 1, eps)
        g0 = bessel_i(0, 1.0)
        g0p = bessel_i_prime(0, 1.0)
        value = boundary_form_h(b0, b0, GRAD, UPPER)
        assert float(np.real(value)) == pytest.approx((g0**2 + g0p**2) / 2.0, rel=1e-12)

    def test_zero_trace_zero_conormal(self):
        # (1 - r^2)^2 has vanishing trace everywhere and vanishing radial
        # derivative on the boundary, so h(u, u) = 0.
        u = Field(
            lambda x, y: (1.0 - x * x - y * y) ** 2,
            lambda x, y: (
                -4.0 * x * (1.0 - x * x - y * y),
                -4.0 * y * (1.0 - x * x - y * y),
            ),
        )
        assert abs(complex(boundary_form_h(u, u, GRAD, UPPER))) <= 1e-24

    def test_distinct_frequencies_full_circle(self):
        b1 = BasisFunction(GRAD, 1, 1, 1.0)
        b2 = BasisFunction(GRAD, 2, 1, 1.0)
        value = boundary_form_h(b1, b2, GRAD, ArcSpec(0.0, 2 * math.pi))
        assert abs(complex(value)) <= 1e-14

    def test_complementary_arcs_split_the_full_circle(self):
        # h over Gamma plus h over its complement arc is the trace product
        # plus the conormal product over the whole circle: for the
        # orthonormal angular modes cos(phi) and sin(2 phi) that is
        # I_1(1)^2 + I_2(1)^2 + I_1'(1)^2 + I_2'(1)^2.
        u = wrap(BasisFunction(GRAD, 1, 1, 1.0)) + wrap(
            BasisFunction(GRAD, 2, 2, 1.0)
        )
        gamma = ArcSpec(0.3, 2.0)
        complement = ArcSpec(2.0, 0.3 + 2.0 * math.pi)
        h_gamma = complex(boundary_form_h(u, u, GRAD, gamma, n_phi=1024))
        h_complement = complex(boundary_form_h(u, u, GRAD, complement, n_phi=1024))
        expected = sum(bessel_i(i, 1.0) ** 2 + bessel_i_prime(i, 1.0) ** 2 for i in (1, 2))
        assert h_gamma + h_complement == pytest.approx(expected, rel=1e-8)


class TestGramSchmidt:
    def test_orthonormal_input_fixed(self):
        vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        result = gram_schmidt(vectors, lambda a, b: np.vdot(b, a))
        np.testing.assert_allclose(result.basis[0], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(result.basis[1], [0.0, 1.0], atol=1e-12)
        assert result.dropped == []

    def test_euclidean_example(self):
        vectors = [np.array([1.0, 0.0]), np.array([1.0, 1.0])]
        result = gram_schmidt(vectors, lambda a, b: np.vdot(b, a))
        np.testing.assert_allclose(result.basis[0], [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(result.basis[1], [0.0, 1.0], atol=1e-14)
        # triangular reconstruction: v_k = sum_j R[j, k] e_j
        recon = np.column_stack(result.basis) @ result.coefficients
        np.testing.assert_allclose(recon, np.column_stack(vectors), atol=1e-14)

    def test_dependent_vector_dropped(self):
        vectors = [np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([0.0, 1.0])]
        result = gram_schmidt(vectors, lambda a, b: np.vdot(b, a))
        assert result.dropped == [1]
        assert len(result.basis) == 2

    def test_field_level_under_boundary_form(self, quad_small):
        # Gram-Schmidt of the first three basis functions under the boundary
        # form, cross-checked against a brute-force classical pass.
        eps = 1.0
        funcs = [
            wrap(BasisFunction(GRAD, 0, 1, eps)),
            wrap(BasisFunction(GRAD, 1, 1, eps)),
            wrap(BasisFunction(GRAD, 1, 2, eps)),
        ]
        inner = lambda a, b: boundary_form_h(a, b, GRAD, UPPER)
        result = gram_schmidt(funcs, inner)
        assert result.dropped == []
        for i, ei in enumerate(result.basis):
            for j, ej in enumerate(result.basis):
                value = complex(inner(ei, ej))
                assert value == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


class TestTrialSpace:
    def test_full_circle_defining_function(self, quad_small):
        seeds = build_seed_system(ArcSpec(0.0, 2 * math.pi), GRAD, 1, quad_small)
        ratio = seeds.at_nodes([1.0])[0] / (1.0 - quad_small.x**2 - quad_small.y**2)
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)

    def test_traces_vanish_on_gamma(self, quad_small):
        seeds = build_seed_system(UPPER, GRAD, 12, quad_small)
        phi, _ = UPPER.quadrature(quad_small.n_phi)
        fields = seed_fields(seeds)
        for column in trial_space_for_epsilon(seeds, 0.5).T:
            member = LinearCombination(column, fields)
            assert float(np.max(np.abs(member.value_xy(np.cos(phi), np.sin(phi))))) <= 1e-9

    def test_seed_tables_vanish_on_gamma(self):
        # At r = 1 both terms of every seed carry 1 - r^2 or sigma, which are
        # zero on Gamma, so the trace is exactly zero.  The seeds of a smaller
        # trial size are the leading columns of these TRIAL_MAX.
        rng = np.random.default_rng(29)
        starts = rng.uniform(0.0, 2 * math.pi, 40)
        lengths = rng.uniform(0.05, 2 * math.pi, 40)
        arcs = [ArcSpec(0.0, 2 * math.pi)] + [ArcSpec(a, a + b) for a, b in zip(starts, lengths)]
        exponents = variational._monomial_exponents(variational.TRIAL_MAX)
        for arc in arcs:
            phi, _ = arc.quadrature(256)
            ring, _, (angular, _, _) = variational._seed_tables(arc, exponents, np.ones(1), phi)
            traces = variational._tensor_combination(ring, angular, np.eye(len(exponents)))
            assert np.all(traces == 0.0), arc

    def test_traces_nonzero_on_complement(self, quad_small):
        seeds = build_seed_system(UPPER, GRAD, 4, quad_small)
        cphi, _ = UPPER.complement_quadrature(quad_small.n_phi)
        inner_phi = cphi[(cphi > math.pi + 0.3) & (cphi < 2 * math.pi - 0.3)]
        traces = seed_fields(seeds)[0].value_xy(np.cos(inner_phi), np.sin(inner_phi))
        assert float(np.min(np.abs(traces))) > 1e-4

    def test_single_seed_positive_inside(self, quad_small):
        seeds = build_seed_system(UPPER, GRAD, 1, quad_small)
        assert np.all(seeds.at_nodes([1.0])[0] > 0.0)

    def test_orthonormal_under_eps(self, quad_small):
        seeds = build_seed_system(UPPER, GRAD, 16, quad_small)
        for eps in (0.01, 1.0, 100.0):
            coeff = trial_space_for_epsilon(seeds, eps)
            gram = coeff.conj().T @ (seeds.energy_gram + eps * seeds.l2_gram).T @ coeff
            assert float(np.max(np.abs(gram - np.eye(coeff.shape[1])))) <= 1e-10

    def test_norm_equivalence_sandwich(self, quad_small):
        # min(1, sqrt(eps)) D(u) <= ||u||_eps <= max(1, sqrt(eps)) D(u),
        # on every orthonormal member and on random combinations.
        seeds = build_seed_system(UPPER, GRAD, 10, quad_small)
        rng = np.random.default_rng(2)
        for eps in (0.01, 1.0, 100.0):
            gram = seeds.energy_gram + eps * seeds.l2_gram
            graph = seeds.energy_gram + seeds.l2_gram
            members = list(trial_space_for_epsilon(seeds, eps).T)
            randoms = [rng.standard_normal(10) for _ in range(20)]
            for c in members + randoms:
                n_eps = math.sqrt(max(float(np.real(np.conj(c) @ (gram.T @ c))), 0.0))
                n_graph = math.sqrt(max(float(np.real(np.conj(c) @ (graph.T @ c))), 0.0))
                lo = min(1.0, math.sqrt(eps)) * n_graph
                hi = max(1.0, math.sqrt(eps)) * n_graph
                assert lo - 1e-12 <= n_eps <= hi + 1e-12

    def test_trial_span_friedrichs_bound(self, quad64):
        # Smallest Rayleigh quotient ||A v||^2 / ||v||^2 over the default
        # 24-member span with data on the upper half circle.  Being O(1), it
        # pins the perturbed family at its limit for every eps below ~1e-1,
        # which is why noisy Cauchy data cannot produce tail growth here.
        import scipy.linalg

        seeds = build_seed_system(UPPER, GRAD, 24, quad64)
        mu = scipy.linalg.eigh(seeds.energy_gram, seeds.l2_gram, eigvals_only=True)
        assert mu[0] >= 1.0


class TestGalerkin:
    def test_zero_data(self, quad_small):
        seeds = build_seed_system(UPPER, GRAD, 8, quad_small)
        d = solve_perturbed_galerkin(seeds, [0.5])[:, 0]
        assert math.sqrt(_form(seeds.l2_gram, d)) == 0.0
        assert _galerkin_residual(seeds, 0.5, d, np.zeros(8)) <= 1e-12

    def test_reproduces_span_member(self, quad_small):
        # u* in the trial span with f = A u* and h = u* satisfies the
        # perturbed equation identically, so the solver must return it.
        eps = 0.3
        seeds = build_seed_system(UPPER, GRAD, 10, quad_small)
        rng = np.random.default_rng(5)
        d_star = rng.standard_normal(10)
        h_vals, gx, gy = seeds.at_nodes(d_star)
        f_vals = (gx, gy)
        d = solve_perturbed_galerkin(seeds, [eps], f=f_vals, h=h_vals)[:, 0]
        diff = d - d_star
        gram = seeds.energy_gram + eps * seeds.l2_gram
        err = math.sqrt(max(float(np.real(np.conj(diff) @ (gram.T @ diff))), 0.0))
        assert err <= 1e-9
        rhs = seeds.rhs_vector(f_vals) + eps * seeds.l2_vector(h_vals)
        assert _galerkin_residual(seeds, eps, d, rhs) <= 1e-9

    def test_matches_dense_normal_equations(self, quad_small):
        u_star = cubic_field()
        f = apply_operator(GRAD, u_star)
        for size in (8, 16, 24):
            seeds = build_seed_system(UPPER, GRAD, size, quad_small)
            f_vals = tuple(f(quad_small.x, quad_small.y))
            d = solve_perturbed_galerkin(seeds, [1e-3], f=f_vals)[:, 0]
            gram = seeds.energy_gram + 1e-3 * seeds.l2_gram
            dense = np.linalg.solve(gram.T, seeds.rhs_vector(f_vals))
            diff = d - dense
            err = math.sqrt(max(float(np.real(np.conj(diff) @ (seeds.l2_gram.T @ diff))), 0.0))
            assert err <= 1e-9 * max(1.0, math.sqrt(_form(seeds.l2_gram, d)))

    def test_projection_error_decreases_with_size(self, quad_small):
        u_star = cubic_field()
        au = apply_operator(GRAD, u_star)(quad_small.x, quad_small.y)
        u_vals = u_star.value_xy(quad_small.x, quad_small.y)
        eps = 1e-2
        errors = []
        for size in (8, 16, 24):
            seeds = build_seed_system(UPPER, GRAD, size, quad_small)
            g = seeds.rhs_vector((au[0], au[1])) + eps * seeds.l2_vector(u_vals)
            c = trial_space_for_epsilon(seeds, eps).conj().T @ g
            norm_sq = float(
                np.real(
                    quad_small.integrate(np.abs(au[0]) ** 2 + np.abs(au[1]) ** 2)
                    + eps * quad_small.integrate(np.abs(u_vals) ** 2)
                )
            )
            errors.append(math.sqrt(max(norm_sq - float(np.real(np.conj(c) @ c)), 0.0)))
        assert errors[2] < errors[1] < errors[0]

    def test_energy_estimate_random_data(self, quad_small):
        # ||u_eps(f, h)||_eps <= ||f|| + sqrt(eps) ||h|| + 1e-6, and the
        # coefficient identity holds to 1e-9 for every basis member.
        seeds = build_seed_system(UPPER, GRAD, 12, quad_small)
        rng = np.random.default_rng(9)
        for trial_no in range(20):
            eps = 10.0 ** rng.uniform(-4, 2)
            f_vals = (
                rng.standard_normal(quad_small.x.size),
                rng.standard_normal(quad_small.x.size),
            )
            h_vals = rng.standard_normal(quad_small.x.size)
            d = solve_perturbed_galerkin(seeds, [eps], f=f_vals, h=h_vals)[:, 0]
            norm_eps = math.sqrt(_form(seeds.energy_gram, d) + eps * _form(seeds.l2_gram, d))
            rhs = seeds.rhs_vector(f_vals) + eps * seeds.l2_vector(h_vals)
            f_norm = math.sqrt(
                float(np.real(quad_small.integrate(f_vals[0] ** 2 + f_vals[1] ** 2)))
            )
            h_norm = math.sqrt(float(np.real(quad_small.integrate(h_vals**2))))
            assert norm_eps <= f_norm + math.sqrt(eps) * h_norm + 1e-6
            assert _galerkin_residual(seeds, eps, d, rhs) <= 1e-9

    def test_full_disk_closed_form_oracle(self, quad64):
        # Independent PDE oracle.  With data on the whole boundary and
        # f = grad(w) for w = (1 - r^2) r cos(phi), the continuous perturbed
        # solution is u_eps = w - eps * z where z solves (-Lap + eps) z = w
        # with zero trace.  In the mode-1 radial reduction z has the closed
        # form a r + b r^3 + c I_1(sqrt(eps) r) with
        #   b = -1/eps,  a = 1/eps - 8/eps^2,  c = -(a + b)/I_1(sqrt(eps)),
        # obtained by matching polynomial coefficients and the boundary
        # condition.  The Galerkin solution must follow it down to the
        # span's polynomial-approximation floor.
        arc = ArcSpec(0.0, 2 * math.pi)
        seeds = build_seed_system(arc, GRAD, 24, quad64)
        f_vals = (1 - 3 * quad64.x**2 - quad64.y**2, -2 * quad64.x * quad64.y)

        def closed_form(eps):
            k = math.sqrt(eps)
            b = -1.0 / eps
            a = 1.0 / eps - 8.0 / eps**2
            c = -(a + b) / bessel_i(1, k)
            r = np.hypot(quad64.x, quad64.y)
            cos_phi = np.where(r > 0, quad64.x / np.where(r > 0, r, 1.0), 1.0)
            radial = r * (1 - r**2) - eps * (a * r + b * r**3 + c * bessel_i(1, k * r))
            return radial * cos_phi

        schedule = (1.0, 0.1, 0.01)
        coeffs = solve_perturbed_galerkin(seeds, schedule, f=f_vals)
        for eps, tol, d in zip(schedule, (1e-6, 1e-8, 1e-11), coeffs.T):
            ref = closed_form(eps)
            got = seeds.at_nodes(d)[0]
            err = math.sqrt(float(np.real(quad64.integrate(np.abs(got - ref) ** 2))))
            nrm = math.sqrt(float(np.real(quad64.integrate(np.abs(ref) ** 2))))
            assert err <= tol * nrm

    def test_consistency_residual_decreases(self, quad_small):
        # For f = A u* with u* in the span the image misfit shrinks along a
        # decreasing schedule: last <= first / 5 over four decades.
        seeds = build_seed_system(UPPER, GRAD, 10, quad_small)
        rng = np.random.default_rng(13)
        d_star = rng.standard_normal(10)
        f_vals = seeds.at_nodes(d_star)[1:]
        schedule = (1.0, 0.1, 0.01, 1e-3, 1e-4)
        residuals = seeds.residuals(seeds.project(f_vals), schedule, f_vals)
        assert all(b <= a + 1e-14 for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] <= residuals[0] / 5.0


class TestSeriesSolver:
    def test_zero_data(self):
        sol = solve_mixed_boundary_series(GRAD, UPPER, None, None, 1.0, n_modes=6)
        assert float(np.max(np.abs(sol.raw_coeffs))) == 0.0

    def test_round_trip_from_raw_basis_function(self):
        eps = 1.0
        src = BasisFunction(GRAD, 2, 1, eps)
        sol = solve_mixed_boundary_series(
            GRAD,
            UPPER,
            lambda phi: src.value_polar(1.0, phi),
            lambda phi: src.normal_trace_values(phi),
            eps,
            n_modes=8,
        )
        raw = np.array(sol.raw_coeffs, dtype=float, copy=True)
        idx = sol.modes.index((2, 1))
        assert raw[idx] == pytest.approx(1.0, abs=1e-8)
        raw[idx] -= 1.0
        assert float(np.max(np.abs(raw))) <= 1e-8
        # forward-evaluation oracle: reconstruction matches the source field
        phis = np.linspace(0.0, 2.0 * math.pi, 37)
        np.testing.assert_allclose(
            sol.trace_on(phis), src.value_polar(1.0, phis), atol=1e-8
        )

    @pytest.mark.parametrize("op", [GRAD, CR])
    def test_orthonormal_coefficient_matches_projection_oracle(self, op, quad_small):
        # k_i from boundary data must equal the direct h-projection of the
        # source onto each orthonormal basis element.
        eps = 0.5
        src = BasisFunction(op, 2, 1, eps)
        sol = solve_mixed_boundary_series(
            op,
            UPPER,
            lambda phi: src.value_polar(1.0, phi),
            lambda phi: src.normal_trace_values(phi),
            eps,
            n_modes=6,
        )
        basis_fields = [wrap(atom) for atom in sol.field.atoms]
        for i in range(sol.coeff.shape[1]):
            e_i = np.real(sol.coeff[:, i]) if not op.is_complex else sol.coeff[:, i]
            member = sum(
                (c * f for c, f in zip(e_i[1:], basis_fields[1:])),
                e_i[0] * basis_fields[0],
            )
            direct = complex(boundary_form_h(src, member, op, UPPER))
            assert complex(sol.k[i]) == pytest.approx(direct, abs=1e-8)

    def test_trace_error_small_for_b11_data(self):
        eps = 1.0
        src = BasisFunction(GRAD, 1, 1, eps)
        sol = solve_mixed_boundary_series(
            GRAD,
            UPPER,
            lambda phi: src.value_polar(1.0, phi),
            lambda phi: src.normal_trace_values(phi),
            eps,
            n_modes=16,
        )
        assert sol.trace_error_gamma <= 1e-6

    def test_boundary_fit_nonincreasing_in_modes(self):
        # Data from a fixed 20-mode combination with geometrically decaying
        # weights: the fit error must shrink as the expansion grows.
        eps = 1.0
        sources = [
            (BasisFunction(GRAD, i, branch, eps), 2.0**-i)
            for i in range(1, 21)
            for branch in (1, 2)
        ]

        def u0(phi):
            return sum(wt * b.value_polar(1.0, phi) for b, wt in sources)

        def u1(phi):
            return sum(wt * b.normal_trace_values(phi) for b, wt in sources)

        errors = [
            solve_mixed_boundary_series(GRAD, UPPER, u0, u1, eps, n_modes=n_modes).trace_error_gamma
            for n_modes in (4, 8, 16)
        ]
        assert errors[0] >= errors[1] >= errors[2]

    def test_reconstruction_stable_at_tiny_epsilon(self):
        # Deep modes underflow on the boundary for tiny eps; the expansion
        # must still reproduce the data at machine accuracy.
        eps = 1e-8
        src = BasisFunction(GRAD, 2, 1, eps)
        u0 = lambda phi: src.value_polar(1.0, phi)
        sol = solve_mixed_boundary_series(
            GRAD, UPPER, u0, lambda phi: src.normal_trace_values(phi), eps, n_modes=16
        )
        g_phi, g_w = UPPER.quadrature(256)
        scale = math.sqrt(float(np.sum(g_w * np.abs(u0(g_phi)) ** 2)))
        assert sol.trace_error_gamma <= 1e-12 * scale
        inner_val = sol.field.value_xy(np.array([0.3]), np.array([0.2]))
        ref_val = src.value_xy(np.array([0.3]), np.array([0.2]))
        np.testing.assert_allclose(inner_val, ref_val, rtol=1e-10)

    @pytest.mark.parametrize("op", [GRAD, CR])
    @pytest.mark.parametrize("eps", [1e-3, 1.0, 4e2])
    def test_boundary_columns_bitwise(self, op, eps):
        sol = solve_mixed_boundary_series(op, UPPER, None, None, eps, n_modes=12)
        phi = np.linspace(0.0, 2.0 * math.pi, 101)
        trace = sol.trace_scale * op.angular_table(sol.modes, phi)
        conormal = sol.conormal_scale * op.angular_table(sol.modes, phi)
        basis = [BasisFunction(op, i, j, eps) for i, j in sol.modes]
        assert np.array_equal(
            trace, np.column_stack([b.value_polar(1.0, phi) for b in basis])
        )
        assert np.array_equal(
            conormal, np.column_stack([b.normal_trace_values(phi) for b in basis])
        )

    @pytest.mark.parametrize("op", [GRAD, CR])
    @pytest.mark.parametrize(
        "arc", [ArcSpec(0.3, 2.0), ArcSpec(0.0, 2.0 * math.pi)], ids=["partial", "full"]
    )
    @pytest.mark.parametrize("eps", [1e-5, 1.0, 4e2])
    @pytest.mark.parametrize("source", [(2, 1), (9, 2)], ids=["in span", "beyond span"])
    def test_misfits_bitwise_equal_to_the_arc_quadrature_formula(self, op, arc, eps, source):
        # The fit's misfits against the same sums taken afresh from the arc
        # quadratures, the data closures and the trace_on / conormal_on tables.
        src = BasisFunction(op, *source, eps)
        u0 = lambda phi: src.value_polar(1.0, phi)
        u1 = lambda phi: src.normal_trace_values(phi)
        sol = solve_mixed_boundary_series(op, arc, u0, u1, eps, n_modes=6)
        g_phi, g_w = arc.quadrature(256)
        c_phi, c_w = arc.complement_quadrature(256)
        trace = math.sqrt(float(np.sum(g_w * np.abs(sol.trace_on(g_phi) - u0(g_phi)) ** 2)))
        assert sol.trace_error_gamma == trace
        if arc.is_full:
            assert sol.normal_error_complement == 0.0
        else:
            normal = math.sqrt(float(np.sum(c_w * np.abs(sol.conormal_on(c_phi) - u1(c_phi)) ** 2)))
            assert sol.normal_error_complement == normal

    @pytest.mark.parametrize("eps", [1e-3, 4e2])
    def test_bessel_kernel_calls_do_not_grow_with_n_modes(self, eps, monkeypatch):
        # One bessel_i and one bessel_i_prime table serve every mode.
        from epsreg import bessel

        calls = []
        kernel = bessel._bessel_i

        def counting(nu, x):
            calls.append(np.size(x))
            return kernel(nu, x)

        monkeypatch.setattr(bessel, "_bessel_i", counting)
        counts = []
        for n_modes in (4, 16, 40):
            calls.clear()
            solve_mixed_boundary_series(CR, UPPER, None, None, eps, n_modes=n_modes)
            counts.append(len(calls))
        assert counts == [2, 2, 2]

    @pytest.mark.parametrize("eps", [1e-5, 1e-8])
    def test_deep_modes_at_small_epsilon_reproduce_source(self, eps):
        # I_39(sqrt(eps)) is a normal float here, though its square is not:
        # the boundary-normalized columns keep every mode.
        arc = ArcSpec(0.5 * math.pi, 1.5 * math.pi)
        src = BasisFunction(CR, 3, 2, eps)
        u0 = lambda phi: src.value_polar(1.0, phi)
        u1 = lambda phi: src.normal_trace_values(phi)
        sol = solve_mixed_boundary_series(CR, arc, u0, u1, eps, n_modes=40)
        g_phi, g_w = arc.quadrature(256)
        c_phi, c_w = arc.complement_quadrature(256)
        for got, want, w, phi in (
            (sol.trace_on, u0, g_w, g_phi),
            (sol.conormal_on, u1, c_w, c_phi),
        ):
            err = math.sqrt(float(np.sum(w * np.abs(got(phi) - want(phi)) ** 2)))
            assert err <= 1e-12 * math.sqrt(float(np.sum(w * np.abs(want(phi)) ** 2)))
        assert abs(sol.raw_coeffs[sol.modes.index((3, 2))] - 1.0) <= 1e-12

    def test_underflowed_mode_is_numeric_error(self):
        # I_55(sqrt(1e-8)) is below the smallest normal float; dividing its
        # column by it would overflow.
        arc = ArcSpec(0.5 * math.pi, 1.5 * math.pi)
        with pytest.raises(NumericError, match=r"mode \(55, 1\).*eps=1e-08"):
            solve_mixed_boundary_series(CR, arc, None, None, 1e-8, n_modes=60)

    def test_overflowing_coefficient_is_numeric_error(self):
        # I_54(sqrt(7.5e-9)) is a normal float, but the h-orthonormal
        # coefficients of mode 54 are about 1e311, beyond the largest float.
        arc = ArcSpec(0.5 * math.pi, 1.5 * math.pi)
        with pytest.raises(NumericError, match=r"overflow at eps=7.5e-09"):
            solve_mixed_boundary_series(CR, arc, None, None, 7.5e-9, n_modes=54)

    @pytest.mark.parametrize(
        "z0", [1.5 * np.exp(0.3j), 1.2 * np.exp(-0.4j)], ids=["1.5 e^0.3i", "1.2 e^-0.4i"]
    )
    def test_cr_pole_data_reach_the_exact_norm(self, z0, quad64):
        # With |z0| > 1, 1/(z - z0) solves the Cauchy problem for CR with its
        # own trace on Gamma and no conormal data on the complement; at
        # n_modes 40 and eps 1e-8 the series' L^2 norm is within 2% of its
        # norm (measured 1.3731 against 1.3589, and 1.9322 against 1.9300).
        eps = 1e-8
        sol = solve_mixed_boundary_series(
            CR, UPPER, lambda phi: 1.0 / (np.exp(1j * phi) - z0), None, eps, n_modes=40, n_phi=512
        )
        values = basis_table(CR, sol.modes, eps, quad64.x, quad64.y) @ sol.raw_coeffs
        norm = math.sqrt(float(np.real(quad64.integrate(np.abs(values) ** 2))))
        assert norm == pytest.approx(cr_pole_norm(z0), rel=0.02)

    K0_SOURCE = (1.5, 0.3)

    def _k0_error(self, quad, op, eps, n_modes):
        """Relative L^2 error on the disk nodes of the series for ``k0_source``'s own data."""
        u0, u1 = k0_mixed_data(op, eps, self.K0_SOURCE)
        sol = solve_mixed_boundary_series(op, UPPER, u0, u1, eps, n_modes=n_modes, n_phi=1024)
        values = basis_table(op, sol.modes, eps, quad.x, quad.y) @ sol.raw_coeffs
        exact = k0_source(eps, self.K0_SOURCE).value_xy(quad.x, quad.y)
        misfit = float(np.real(quad.integrate(np.abs(values - exact) ** 2)))
        return math.sqrt(misfit / float(np.real(quad.integrate(exact**2))))

    @pytest.mark.parametrize(
        "op, eps, bound",
        [
            # Bounds about 4x the errors measured at n_modes 40: 8.3e-7,
            # 1.6e-9, 1.1e-10, 5.5e-11 (gradient) and 7.8e-7, 5.1e-9 (CR).
            # CR below eps 1 is ROADMAP item 4 (2.4e-2 at eps 1e-8).
            (GRAD, 1e2, 3e-6),
            (GRAD, 1.0, 6e-9),
            (GRAD, 1e-4, 5e-10),
            (GRAD, 1e-8, 2e-10),
            (CR, 1e2, 3e-6),
            (CR, 1.0, 2e-8),
        ],
    )
    def test_k0_source_reproduced(self, quad64, op, eps, bound):
        # u = K_0(sqrt(eps) |x - x0|) with |x0| > 1 solves its own mixed data,
        # and the error falls as the modes grow.
        errors = [self._k0_error(quad64, op, eps, n_modes) for n_modes in (16, 24, 40)]
        assert errors[2] <= bound
        assert errors[0] > errors[1] > errors[2]

    def test_k0_source_solves_helmholtz(self):
        angles = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
        points = np.column_stack([0.6 * np.cos(angles), 0.6 * np.sin(angles)])
        for eps in (1e2, 1.0, 1e-4):
            u = k0_source(eps, self.K0_SOURCE)
            scale = float(np.max(np.abs(u.value_xy(points[:, 0], points[:, 1]))))
            assert check_helmholtz(u, eps, points) <= 1e-6 * scale
        with pytest.raises(InputError):
            k0_source(1.0, (0.5, 0.5))

    def test_cr_pole_norm_series(self):
        # The closed form against the sum of pi |z0|^(-2n-2) / (n + 1).
        z0 = 1.5 * np.exp(0.3j)
        terms = math.pi * abs(z0) ** (-2.0 * np.arange(1, 200)) / np.arange(1, 200)
        assert cr_pole_norm(z0) == pytest.approx(math.sqrt(float(np.sum(terms))), rel=1e-14)
        with pytest.raises(InputError):
            cr_pole_norm(0.5j)

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ({"n_phi": 0}, "'n_phi' must lie in [4, 4096], got 0"),
            ({"n_phi": -8}, "'n_phi' must lie in [4, 4096], got -8"),
            ({"n_modes": -1}, "order -1 outside supported range [0, 60]"),
            ({"n_modes": 61}, "order 61 outside supported range [0, 60]"),
        ],
        ids=["n_phi-zero", "n_phi-negative", "n_modes-negative", "n_modes-high"],
    )
    def test_sizes_refused_by_their_owners(self, sizes, message):
        # n_phi by check_quadrature_size, n_modes by the order rule that
        # enumerate_modes applies; on the full circle, where n_phi 0 once
        # divided by zero.
        with pytest.raises(InputError, match=re.escape(message)):
            solve_mixed_boundary_series(GRAD, ArcSpec(0.0, 2.0 * math.pi), None, None, 1.0, **sizes)

    def test_helmholtz_residual_of_solution(self):
        from epsreg.diskbasis import check_helmholtz

        eps = 1.0
        src = BasisFunction(GRAD, 1, 1, eps)
        sol = solve_mixed_boundary_series(
            GRAD,
            UPPER,
            lambda phi: src.value_polar(1.0, phi),
            lambda phi: src.normal_trace_values(phi),
            eps,
            n_modes=8,
        )
        angles = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
        pts = np.column_stack([0.5 * np.cos(angles), 0.5 * np.sin(angles)])
        assert check_helmholtz(sol.field, eps, pts) <= 1e-4


class TestLift:
    def test_horner_matches_power_sums(self):
        rng = np.random.default_rng(8)
        orders = np.arange(-64, 65)
        coeffs = rng.standard_normal(orders.size) + 1j * rng.standard_normal(orders.size)
        coeffs /= (1.0 + np.abs(orders)) ** 2
        field = FourierHarmonicField(orders, coeffs, real_output=False)
        r = np.sqrt(rng.uniform(0.0, 1.0, 200))
        phi = rng.uniform(0.0, 2.0 * math.pi, 200)
        x, y = r * np.cos(phi), r * np.sin(phi)
        z = x + 1j * y
        value = sum(c * (z**n if n >= 0 else np.conj(z) ** (-n)) for n, c in zip(orders, coeffs))
        dz = sum(c * n * z ** (n - 1) for n, c in zip(orders, coeffs) if n > 0)
        dzbar = sum(c * (-n) * np.conj(z) ** (-n - 1) for n, c in zip(orders, coeffs) if n < 0)
        ux, uy = field.gradient_xy(x, y)
        np.testing.assert_allclose(field.value_xy(x, y), value, rtol=0, atol=1e-13)
        np.testing.assert_allclose(ux, dz + dzbar, rtol=0, atol=1e-12)
        np.testing.assert_allclose(uy, 1j * (dz - dzbar), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("real_output", [True, False])
    @pytest.mark.parametrize(
        "n_r, n_phi, degree",
        [(64, 256, 64), (16, 64, 16), (64, 256, 160), (16, 64, 40), (16, 64, 0)],
        ids=["64x256", "16x64", "64x256-folded", "16x64-folded", "degree-0"],
    )
    def test_at_nodes_matches_horner(self, n_r, n_phi, degree, real_output):
        # Degrees above n_phi / 2 fold onto column n mod n_phi of the FFT table.
        rng = np.random.default_rng(degree)
        orders = np.arange(-degree, degree + 1)
        coeffs = rng.standard_normal(orders.size) + 1j * rng.standard_normal(orders.size)
        coeffs /= (1.0 + np.abs(orders)) ** 2
        field = FourierHarmonicField(orders, coeffs, real_output=real_output)
        quad = DiskQuadrature.build(n_r, n_phi)
        got = field.at_nodes(quad)
        want = (field.value_xy(quad.x, quad.y), *field.gradient_xy(quad.x, quad.y))
        for g, h in zip(got, want):
            assert g.shape == quad.x.shape and np.iscomplexobj(g) is not real_output
            np.testing.assert_allclose(g, h, rtol=0, atol=1e-13 * float(np.max(np.abs(h))))

    def test_trace_matches_datum_on_gamma(self):
        u0 = lambda phi: np.cos(3.0 * np.asarray(phi))
        lift = lift_cauchy_datum(u0, UPPER, 256)
        phi = np.linspace(0.05, math.pi - 0.05, 101)
        traces = trace_values(lift, phi)
        assert float(np.max(np.abs(traces - u0(phi)))) <= 2e-3

    def test_lift_is_harmonic(self):
        from epsreg.diskbasis import check_helmholtz

        u0 = lambda phi: np.cos(3.0 * np.asarray(phi))
        lift = lift_cauchy_datum(u0, UPPER, 256)
        angles = np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)
        pts = np.column_stack([0.5 * np.cos(angles), 0.5 * np.sin(angles)])
        assert check_helmholtz(lift, 0.0, pts) <= 1e-6


class TestLCurve:
    def test_corner_detection(self):
        residuals = [1.0, 0.1, 0.01, 0.009, 0.008]
        norms = [1.0, 1.01, 1.02, 5.0, 50.0]
        assert l_curve_corner(norms, residuals) == 2

    def test_converged_tail_rounding_does_not_win(self):
        # The same corner followed by a converged tail whose points differ
        # only by 1e-13 relative rounding: Menger curvature of that noise
        # is ~1e13 and must not outrank the real corner.
        rng = np.random.default_rng(4)
        jitter = 1.0 + 1e-13 * rng.standard_normal((2, 12))
        residuals = [1.0, 0.1, 0.01, 0.009, 0.008] + list(0.008 * jitter[0])
        norms = [1.0, 1.01, 1.02, 5.0, 50.0] + list(50.0 * jitter[1])
        assert l_curve_corner(norms, residuals) == 2

    def test_short_input(self):
        assert l_curve_corner([1.0, 2.0], [1.0, 0.5]) == 1


class TestPipeline:
    def test_zero_data(self):
        spec = CauchyProblemSpec(
            operator=GRAD,
            arc=UPPER,
            f=None,
            u0=lambda phi: np.zeros_like(np.asarray(phi, dtype=float)),
            schedule=[1.0, 0.1, 0.01],
            trial_size=6,
            n_r=32,
            n_phi=128,
        )
        result = cauchy_pipeline(spec)
        assert result.verdict is Verdict.BOUNDED
        assert all(r.l2_norm <= 1e-12 for r in result.records)

    def test_manufactured_reconstruction(self):
        u_star = cubic_field()
        spec = CauchyProblemSpec(
            operator=GRAD,
            arc=UPPER,
            f=apply_operator(GRAD, u_star),
            u0=lambda phi: u_star.value_xy(np.cos(phi), np.sin(phi)),
            schedule=[1e-1, 1e-2, 1e-3, 1e-4, 1e-5],
            trial_size=24,
            reference=u_star,
        )
        result = cauchy_pipeline(spec)
        assert result.verdict is Verdict.BOUNDED
        assert result.rel_error_at_best <= 0.05
        assert len(result.records) == 5
        assert result.best_epsilon in [r.epsilon for r in result.records]
        # the reconstruction at the pick is finite at every node
        val = _reconstruction_at_nodes(spec, result)
        assert np.isfinite(val).all()

    def test_full_circle_data_reconstructs_exactly(self):
        # With data on the whole boundary the harmonic lift of the cubic is
        # the solution itself, so the correction vanishes and the
        # reconstruction is exact up to Fourier truncation.
        u_star = cubic_field()
        spec = CauchyProblemSpec(
            operator=GRAD,
            arc=ArcSpec(0.0, 2 * math.pi),
            f=apply_operator(GRAD, u_star),
            u0=lambda phi: u_star.value_xy(np.cos(phi), np.sin(phi)),
            schedule=[1e-1, 1e-2, 1e-3],
            trial_size=8,
            n_r=40,
            n_phi=128,
            reference=u_star,
        )
        result = cauchy_pipeline(spec)
        assert result.verdict is Verdict.BOUNDED
        assert result.rel_error_at_best <= 1e-10
        assert all(r.l2_norm <= 1e-10 for r in result.records)

    def test_lift_enters_by_node_values_only(self, monkeypatch):
        # The pipeline takes U0 and its gradient from at_nodes; the pointwise
        # Horner evaluators stay as the arbitrary-point API.
        def refuse(self, x, y):
            raise AssertionError("cauchy_pipeline evaluated the lift pointwise")

        for name in ("value_xy", "gradient_xy"):
            monkeypatch.setattr(FourierHarmonicField, name, refuse)
        u_star = cubic_field()
        spec = CauchyProblemSpec(
            operator=GRAD,
            arc=UPPER,
            f=apply_operator(GRAD, u_star),
            u0=lambda phi: u_star.value_xy(np.cos(phi), np.sin(phi)),
            schedule=[1e-1, 1e-2, 1e-3],
            trial_size=8,
            n_r=40,
            n_phi=128,
            reference=u_star,
        )
        result = cauchy_pipeline(spec)
        assert all(np.isfinite(r.rel_error) for r in result.records)

    def test_cauchy_riemann_complex_path(self):
        # u* = conj(z): A u* = 2, so the right-hand side is constant and the
        # whole pipeline runs through the complex code path.
        u_star = Field(
            lambda x, y: x - 1j * y,
            lambda x, y: (np.ones(np.broadcast(x, y).shape), -1j * np.ones(np.broadcast(x, y).shape)),
        )
        spec = CauchyProblemSpec(
            operator=CR,
            arc=UPPER,
            f=apply_operator(CR, u_star),
            u0=lambda phi: np.exp(-1j * np.asarray(phi)),
            schedule=[1e-1, 1e-2, 1e-3],
            trial_size=12,
            n_r=40,
            n_phi=128,
            reference=u_star,
        )
        result = cauchy_pipeline(spec)
        assert result.verdict is Verdict.BOUNDED
        assert all(np.isfinite(r.rel_error) for r in result.records)
        assert all(np.isfinite(r.l2_norm) and np.isfinite(r.residual) for r in result.records)
        value = _reconstruction_at_nodes(spec, result)
        assert np.iscomplexobj(value)

    def test_spec_validation(self):
        good = dict(
            operator=GRAD,
            arc=UPPER,
            f=None,
            u0=lambda phi: np.zeros_like(phi),
            schedule=[1.0, 0.1],
        )
        CauchyProblemSpec(**good)
        with pytest.raises(InputError):
            CauchyProblemSpec(**{**good, "schedule": [0.1, 1.0]})
        with pytest.raises(InputError):
            CauchyProblemSpec(**{**good, "schedule": []})
        with pytest.raises(InputError):
            CauchyProblemSpec(**{**good, "trial_size": 0})
        for bad in ([1e-1, float("nan")], [float("inf"), 1e-1], [1e-300, 1e-310]):
            with pytest.raises(InputError):
                CauchyProblemSpec(**{**good, "schedule": bad})

    def test_spec_applies_the_parse_rules(self):
        # The Python API rejects what cli.parse_config rejects: a trial space
        # above TRIAL_MAX, and a quadrature that cannot integrate its Grams.
        u_star = cubic_field()
        good = dict(
            operator=GRAD,
            arc=ArcSpec(0.0, 2 * math.pi),
            f=apply_operator(GRAD, u_star),
            u0=lambda phi: u_star.value_xy(np.cos(phi), np.sin(phi)),
            schedule=[1e-1, 1e-2],
            trial_size=66,
            reference=u_star,
        )
        for size in (variational.TRIAL_MAX + 1, 400):
            with pytest.raises(InputError, match="trial_size"):
                CauchyProblemSpec(**{**good, "trial_size": size, "n_r": 64, "n_phi": 256})
        CauchyProblemSpec(**{**good, "trial_size": variational.TRIAL_MAX})
        # Without the rule this spec runs on a rank-deficient Gram and returns
        # a verdict with rel_error 6.31; at the bound it is 1e-15.
        with pytest.raises(InputError, match="integrate"):
            CauchyProblemSpec(**{**good, "n_r": 2, "n_phi": 4})
        needs = variational.seed_quadrature_needs(66)
        for key in ("n_r", "n_phi"):
            with pytest.raises(InputError, match="integrate"):
                CauchyProblemSpec(**{**good, **needs, key: needs[key] - 1})
        result = cauchy_pipeline(CauchyProblemSpec(**{**good, **needs}))
        assert result.rel_error_at_best <= 1e-8

    def test_refusals_name_their_key(self):
        # ArcSpec owns the arc rule and CauchyProblemSpec the trial-space and
        # seed-quadrature rules; InputError.key is the parameter whose config
        # line cli.parse_config cites.
        nan = float("nan")
        arcs = [
            ((7.0, 8.0), "gamma_start", "'gamma_start' must lie in [0, 2 pi)"),
            ((-1e-300, 1.0), "gamma_start", "'gamma_start' must lie in [0, 2 pi)"),
            ((nan, 1.0), "gamma_start", "'gamma_start' must lie in [0, 2 pi)"),
            ((1.0, 1.0), "gamma_end", "'gamma_end' must exceed 'gamma_start'"),
            ((1.0, nan), "gamma_end", "'gamma_end' must exceed 'gamma_start'"),
            ((0.0, 7.0), "gamma_end", "arc length exceeds 2 pi"),
            ((1.0, float("inf")), "gamma_end", "arc length exceeds 2 pi"),
        ]
        for (start, end), key, message in arcs:
            with pytest.raises(InputError, match=re.escape(message)) as info:
                ArcSpec(start, end)
            assert info.value.key == key
        good = dict(operator=GRAD, arc=UPPER, f=None, u0=None, schedule=[1.0, 0.1])
        needs = variational.seed_quadrature_needs(66)
        specs = [
            ({"trial_size": 0}, "trial_size", "'trial_size' must lie in [1, 231]"),
            ({"trial_size": 232}, "trial_size", "'trial_size' must lie in [1, 231]"),
            ({"trial_size": 66, "n_r": 12}, "n_r", "'n_r' must be >= 13 to integrate"),
            ({"trial_size": 66, "n_phi": 20}, "n_phi", "'n_phi' must be >= 21 to integrate"),
            # Both short: n_r is reported, as parse_config reports it.
            ({"trial_size": 66, "n_r": 2, "n_phi": 4}, "n_r", "'n_r' must be >= 13"),
            # check_quadrature_size runs first: n_phi 3 fails its range, not the seed rule.
            ({"n_r": 1025}, "n_r", "'n_r' must lie in [2, 1024], got 1025"),
            ({"n_phi": 3}, "n_phi", "'n_phi' must lie in [4, 4096], got 3"),
        ]
        assert needs == {"n_r": 13, "n_phi": 21}
        for change, key, message in specs:
            with pytest.raises(InputError, match=re.escape(message)) as info:
                CauchyProblemSpec(**{**good, **change})
            assert info.value.key == key


def _reconstruction_at_nodes(spec, result):
    """Node values of U0 + u_(best eps), rebuilt from the spec as cauchy_pipeline solves it."""
    quad = DiskQuadrature.build(spec.n_r, spec.n_phi)
    seeds = build_seed_system(spec.arc, spec.operator, spec.trial_size, quad)
    a_lift = spec.operator.apply_gradient(*result.lift.gradient_xy(quad.x, quad.y))
    f_tilde = np.asarray(spec.f(quad.x, quad.y)) - a_lift
    if spec.operator is GRAD:
        f_tilde = (f_tilde[0], f_tilde[1])
    gains = seeds.gains(seeds.project(f_tilde), [result.best_epsilon])
    return result.lift.value_xy(quad.x, quad.y) + seeds.at_nodes(seeds.eigvecs @ gains)[0][:, 0]


def _dense_sweep(spec, result):
    """l2_norm, residual and rel_error from a dense solve of (K + eps M)^T d = b."""
    quad = DiskQuadrature.build(spec.n_r, spec.n_phi)
    seeds = build_seed_system(spec.arc, spec.operator, spec.trial_size, quad)
    w = quad.w
    values, grad_x, grad_y = seeds.at_nodes(np.eye(seeds.size))
    lx, ly = result.lift.gradient_xy(quad.x, quad.y)
    fx, fy = spec.reference.gradient_xy(quad.x, quad.y)
    if spec.operator is GRAD:
        f_parts, images = [fx - lx, fy - ly], [grad_x, grad_y]
        b = sum((w * f) @ a for f, a in zip(f_parts, images))
    else:
        f_parts, images = [fx - lx + 1j * (fy - ly)], [grad_x + 1j * grad_y]
        b = (w * f_parts[0]) @ np.conj(images[0])
    u_ref = spec.reference.value_xy(quad.x, quad.y)
    ref_norm = math.sqrt(float(np.sum(w * np.abs(u_ref) ** 2)))
    lift_vals = result.lift.value_xy(quad.x, quad.y)
    rows = []
    for eps in spec.schedule:
        d = np.linalg.solve((seeds.energy_gram + eps * seeds.l2_gram).T, b)
        l2 = math.sqrt(float(np.real(np.conj(d) @ (seeds.l2_gram.T @ d))))
        res = math.sqrt(sum(float(np.sum(w * np.abs(a @ d - f) ** 2)) for a, f in zip(images, f_parts)))
        err = math.sqrt(float(np.sum(w * np.abs(lift_vals + values @ d - u_ref) ** 2)))
        rows.append((l2, res, err / ref_norm))
    return np.array(rows)


def _twin_with_duplicate(seeds, k):
    """The seed system with seed k appended a second time, spectrum recomputed."""
    dup = [*range(seeds.size), k]
    sub = np.ix_(dup, dup)
    grams = {name: getattr(seeds, name)[sub] for name in ("l2_gram", "energy_gram")}
    lam, eigvecs, dropped = variational._seed_spectrum(grams["energy_gram"], grams["l2_gram"])
    return dataclasses.replace(
        seeds,
        exponents=[seeds.exponents[j] for j in dup],
        tables=tuple((radial[..., dup], angular[..., dup]) for radial, angular in seeds.tables),
        lam=lam,
        eigvecs=eigvecs,
        dropped=dropped,
        **grams,
    )


class TestSeedSpectrum:
    @pytest.mark.parametrize("op", [GRAD, CR])
    def test_node_columns_equal_seed_fields(self, op, quad_small):
        seeds = build_seed_system(UPPER, op, 15, quad_small)
        x, y = quad_small.x, quad_small.y
        values, grad_x, grad_y = seeds.at_nodes(np.eye(seeds.size))
        for k, field in enumerate(seed_fields(seeds)):
            gx, gy = field.gradient_xy(x, y)
            np.testing.assert_allclose(values[:, k], field.value_xy(x, y), rtol=0, atol=1e-14)
            np.testing.assert_allclose(grad_x[:, k], gx, rtol=0, atol=1e-14)
            np.testing.assert_allclose(grad_y[:, k], gy, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("op", [GRAD, CR])
    @pytest.mark.parametrize("size", [24, 66])
    def test_pipeline_matches_dense_solve(self, op, size):
        u_star = cubic_field()
        spec = CauchyProblemSpec(
            operator=op,
            arc=UPPER,
            f=apply_operator(op, u_star),
            u0=lambda phi: u_star.value_xy(np.cos(phi), np.sin(phi)),
            schedule=list(np.logspace(-1.0, -8.0, 8)),
            trial_size=size,
            reference=u_star,
        )
        result = cauchy_pipeline(spec)
        got = np.array([(r.l2_norm, r.residual, r.rel_error) for r in result.records])
        np.testing.assert_allclose(got, _dense_sweep(spec, result), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("op", [GRAD, CR])
    def test_duplicated_seed_is_dropped(self, op, quad_small):
        seeds = build_seed_system(UPPER, op, 8, quad_small)
        twin = _twin_with_duplicate(seeds, 3)
        assert len(twin.dropped) == 1 and twin.dropped[0] in (3, 8)
        rng = np.random.default_rng(1)
        f = (rng.standard_normal(quad_small.x.size), rng.standard_normal(quad_small.x.size))
        if op is CR:
            f = f[0] + 1j * f[1]
        eps = [1e-1, 1e-4, 1e-8]
        d_twin = solve_perturbed_galerkin(twin, eps, f)
        assert np.all(np.isfinite(d_twin))
        # The same fields, hence the same residuals.
        np.testing.assert_allclose(
            twin.residuals(twin.project(f), eps, f),
            seeds.residuals(seeds.project(f), eps, f),
            rtol=1e-9,
        )
        assert trial_space_for_epsilon(twin, 1e-4).shape[1] == 8

    def test_all_seeds_dropped_is_numeric_error(self, quad_small, tmp_path, monkeypatch):
        monkeypatch.setattr(variational, "_SEED_DROP_TOL", 2.0)
        with pytest.raises(NumericError, match="all seeds dropped"):
            build_seed_system(UPPER, GRAD, 4, quad_small)
        cfg = tmp_path / "dc.ini"
        cfg.write_text(
            "[disk_cauchy]\n"
            "gamma_start = 0.0\n"
            f"gamma_end = {math.pi}\n"
            "trial_size = 4\n"
            "n_r = 16\n"
            "n_phi = 64\n"
            "schedule = 1e-1 1e-2\n"
            f"output = {tmp_path / 'dc.csv'}\n"
        )
        assert cli.main(["run", str(cfg)]) == 3
        assert not (tmp_path / "dc.csv").exists()

    @pytest.mark.parametrize("op", [GRAD, CR])
    @pytest.mark.parametrize("size", [28, 66])
    def test_spectrum_ignores_seed_scaling(self, op, size, quad64):
        # The family depends on the span of the seeds, not on their scaling:
        # Grams scaled by D x D give the same lam, the same dropped seeds and
        # the filter W diag(1 / (lam + eps)) W^H scaled by 1/D x 1/D.  W
        # itself is not compared, as eigenvectors of near-equal lam may turn.
        seeds = build_seed_system(UPPER, op, size, quad64)
        d = np.exp(np.random.default_rng(size).uniform(-3.0, 3.0, size))
        outer = np.outer(d, d)
        lam, w, dropped = variational._seed_spectrum(
            outer * seeds.energy_gram, outer * seeds.l2_gram
        )
        assert np.max(np.abs(lam - seeds.lam)) <= 1e-9 * np.max(seeds.lam)
        assert dropped == seeds.dropped
        for eps in (1e-1, 1e-5):
            ref = (seeds.eigvecs / (seeds.lam + eps)) @ seeds.eigvecs.conj().T
            twin = outer * ((w / (lam + eps)) @ w.conj().T)
            assert np.linalg.norm(twin - ref) <= 1e-9 * np.linalg.norm(ref)

    @pytest.mark.parametrize("norm_sq", [0.0, math.nan, math.inf])
    def test_degenerate_seed_is_numeric_error(self, norm_sq):
        grams = np.diag([1.0, norm_sq])
        with pytest.raises(NumericError, match="zero or non-finite L\\^2 norm"):
            variational._seed_spectrum(grams, grams)

    def test_spectrum_diagonalizes_both_grams(self, quad_small):
        seeds = build_seed_system(UPPER, CR, 12, quad_small)
        w = seeds.eigvecs
        np.testing.assert_allclose(w.conj().T @ seeds.l2_gram.T @ w, np.eye(12), atol=1e-10)
        np.testing.assert_allclose(w.conj().T @ seeds.energy_gram.T @ w, np.diag(seeds.lam), atol=1e-10)
        assert np.all(np.diff(seeds.lam) >= 0.0) and seeds.lam[0] > 0.0


def _node_misfits(seeds, coeffs, f_vals, target):
    """Residuals ||A u - f|| and distances ||u - target|| of explicit columns u = s @ d,
    each from its own node values."""
    w = seeds.quad.w
    values, gx, gy = seeds.at_nodes(coeffs)
    if seeds.operator is GRAD:
        images, parts = (gx, gy), f_vals
    else:
        images, parts = (gx + 1j * gy,), (f_vals,)
    res = sum(w @ np.abs(a - np.asarray(f)[:, None]) ** 2 for a, f in zip(images, parts))
    dist = w @ np.abs(values - target[:, None]) ** 2
    return np.sqrt(res), np.sqrt(dist)


def _cauchy_data(op, quad, noisy):
    """f~ = A (u* - U0) and u* - U0 at the nodes for u* = Re z^3 on the upper arc."""
    u_star = cubic_field()

    def u0(phi):
        noise = 0.1 * np.cos(20 * phi) if noisy else 0.0
        return u_star.value_xy(np.cos(phi), np.sin(phi)) + noise

    lift = lift_cauchy_datum(u0, UPPER, quad.n_phi, complex_output=op.is_complex)
    (sx, sy), (lx, ly) = u_star.gradient_xy(quad.x, quad.y), lift.gradient_xy(quad.x, quad.y)
    gx, gy = sx - lx, sy - ly
    f_vals = (gx, gy) if op is GRAD else gx + 1j * gy
    return f_vals, u_star.value_xy(quad.x, quad.y) - lift.value_xy(quad.x, quad.y)


class TestEigenMisfits:
    # Residuals and L^2 distances of a whole schedule come from one node-value
    # column at the smallest eps plus coefficient-space terms; here they are
    # checked against the node values of every column W g(eps).
    SCHEDULE = np.logspace(-1.0, -8.0, 60)

    @pytest.mark.parametrize("op", [GRAD, CR])
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("duplicated", [False, True])
    def test_match_node_value_columns(self, op, noisy, duplicated, quad_small):
        seeds = build_seed_system(UPPER, op, 24, quad_small)
        if duplicated:
            seeds = _twin_with_duplicate(seeds, 5)
            assert len(seeds.dropped) == 1
        f_vals, target = _cauchy_data(op, quad_small, noisy)
        proj = seeds.project(f_vals)
        coeffs = seeds.eigvecs @ seeds.gains(proj, self.SCHEDULE)
        res, dist = _node_misfits(seeds, coeffs, f_vals, target)
        np.testing.assert_allclose(seeds.residuals(proj, self.SCHEDULE, f_vals), res, rtol=1e-10)
        dist_got = seeds.l2_distances(proj, self.SCHEDULE, target)
        np.testing.assert_allclose(dist_got, dist, rtol=1e-10)

    def test_schedule_order_does_not_matter(self, quad_small):
        seeds = build_seed_system(UPPER, CR, 24, quad_small)
        f_vals, target = _cauchy_data(CR, quad_small, True)
        proj = seeds.project(f_vals)
        order = np.random.default_rng(2).permutation(self.SCHEDULE.size)
        for method, data in ((seeds.residuals, f_vals), (seeds.l2_distances, target)):
            np.testing.assert_allclose(
                method(proj, self.SCHEDULE[order], data),
                method(proj, self.SCHEDULE, data)[order],
                rtol=1e-12,
            )

    @pytest.mark.parametrize("op", [GRAD, CR])
    @pytest.mark.parametrize("smallest", [1e-8, 1e-10])
    def test_residual_does_not_cancel(self, op, smallest, quad_small):
        # f = A s* with s* = W c* in the span: res(eps) = eps ||sqrt(lam) c* / (lam + eps)||
        # exactly.  At eps = 1e-8 that is below 2e-9 ||f||; a Gram expansion
        # ||A u||^2 - 2 Re (A u, f) + ||f||^2 would stall near sqrt(eps_mach) ||f||.
        seeds = build_seed_system(UPPER, op, 24, quad_small)
        d_star = np.random.default_rng(1).standard_normal(24)
        _, gx, gy = seeds.at_nodes(d_star)
        f_vals = (gx, gy) if op is GRAD else gx + 1j * gy
        f_norm = math.sqrt(float(quad_small.w @ (gx**2 + gy**2)))
        schedule = np.logspace(-1.0, math.log10(smallest), 10)
        res = seeds.residuals(seeds.project(f_vals), schedule, f_vals)
        at = int(np.argmin(np.abs(schedule - 1e-8)))
        assert res[at] <= 2e-9 * f_norm
        c_star = seeds.eigvecs.conj().T @ (seeds.l2_gram.T @ d_star)
        lam = seeds.lam
        exact = 1e-8 * math.sqrt(float(np.sum(lam * np.abs(c_star) ** 2 / (lam + 1e-8) ** 2)))
        assert res[at] == pytest.approx(exact, rel=1e-6)
        assert all(b <= a for a, b in zip(res, res[1:]))


class TestSeparableSeedGrams:
    # The seed Grams come from radial x angular tables; here they are checked
    # against Grams of node matrices of the seed Field closures.
    @pytest.mark.parametrize("op", [GRAD, CR])
    @pytest.mark.parametrize(
        "arc", [UPPER, ArcSpec(0.3, 0.8), ArcSpec(0.0, 2 * math.pi)], ids=["upper", "short", "full"]
    )
    @pytest.mark.parametrize("size", [1, 15, 66])
    def test_matches_node_quadrature(self, op, arc, size, quad_small):
        seeds = build_seed_system(arc, op, size, quad_small)
        x, y, w = quad_small.x, quad_small.y, quad_small.w
        fields = seed_fields(seeds)
        values = np.column_stack([field.value_xy(x, y) for field in fields])
        grads = [field.gradient_xy(x, y) for field in fields]
        gx = np.column_stack([g[0] for g in grads])
        gy = np.column_stack([g[1] for g in grads])
        l2_ref = (w[:, None] * values).T @ values
        if op is GRAD:
            energy_ref = (w[:, None] * gx).T @ gx + (w[:, None] * gy).T @ gy
        else:
            image = gx + 1j * gy
            energy_ref = (w[:, None] * image).T @ np.conj(image)
        for gram, ref in ((seeds.l2_gram, l2_ref), (seeds.energy_gram, energy_ref)):
            diag = np.sqrt(np.abs(np.real(np.diag(ref))))
            assert np.all(np.abs(gram - ref) <= 1e-12 * np.outer(diag, diag))
        # Projections of node data and node values of seed combinations are
        # contractions with the same tables; check them against the closures,
        # scaled by Cauchy-Schwarz bounds from the Gram diagonals.
        rng = np.random.default_rng(size)
        h = rng.standard_normal(x.size)
        if op is GRAD:
            f = (h, rng.standard_normal(x.size))
            rhs_ref = (w * f[0]) @ gx + (w * f[1]) @ gy
        else:
            f = h + 1j * rng.standard_normal(x.size)
            rhs_ref = (w * f) @ np.conj(image)
        f_norm = math.sqrt(float(sum(w @ np.abs(part) ** 2 for part in np.atleast_2d(f))))
        energy_diag = np.sqrt(np.real(np.diag(energy_ref)))
        l2_diag = np.sqrt(np.diag(l2_ref))
        assert np.all(np.abs(seeds.rhs_vector(f) - rhs_ref) <= 1e-12 * f_norm * energy_diag)
        # Real and complex operands alike: the tables are real, and complex
        # data and coefficients are contracted by their real and imaginary parts.
        for data in (h, h + 1j * rng.standard_normal(x.size)):
            bound = 1e-12 * math.sqrt(float(w @ np.abs(data) ** 2)) * l2_diag
            assert np.all(np.abs(seeds.l2_vector(data) - (w * data) @ values) <= bound)
        real = rng.standard_normal((size, 3))
        for coeffs in (real, real + 1j * rng.standard_normal((size, 3))):
            for nodes, closure in zip(seeds.at_nodes(coeffs), (values, gx, gy)):
                # Termwise bound sum_k |c_k| max |q_k| on every node value.
                scale = np.max(np.abs(closure), axis=0) @ np.abs(coeffs)
                assert np.all(np.abs(nodes - closure @ coeffs) <= 1e-12 * scale)


def _ulps(computed, exact: Fraction, ulp) -> float:
    """|computed - exact| in units of ``ulp``."""
    return float(abs(Fraction(float(computed)) - exact) / Fraction(float(ulp)))


class TestPowerAccuracy:
    # The seed angular tables and the CLI's cubic take powers of negative
    # bases; against exact rational arithmetic on the rounded bases, every
    # power lies within 1 ulp (the spacing of the floats at the exact power)
    # and the cubic within 2 ulp of its largest term, with the ulp of a term
    # t taken as 2^-52 |t|, the largest spacing at that magnitude.
    # Measured: 0.63 and 1.42.
    def test_angular_powers_within_one_ulp(self, quad64):
        exponents = variational._monomial_exponents(variational.TRIAL_MAX)
        theta = variational._seed_tables(UPPER, exponents, quad64.r, quad64.phi)[2][0][:, 0]
        # A seed with py = 0 has theta = cos^px exactly, one with px = 0 sin^py.
        columns = {(0, px): k for k, (px, py) in enumerate(exponents) if py == 0}
        columns.update({(1, py): k for k, (px, py) in enumerate(exponents) if px == 0})
        worst = 0.0
        bases = np.column_stack([np.cos(quad64.phi), np.sin(quad64.phi)]).tolist()
        for j, pair in enumerate(bases):
            for which, base in enumerate(pair):
                power = Fraction(1)
                for k in range(21):
                    value = theta[j, columns[which, k]]
                    worst = max(worst, _ulps(value, power, np.spacing(abs(float(power)))))
                    power *= Fraction(base)
        assert worst <= 1.0

    def test_manufactured_cubic_within_two_ulp_of_its_largest_term(self, quad64):
        x, y = quad64.x, quad64.y
        values = cli._manufactured_cubic().value_xy(x, y)
        worst = 0.0
        for xv, yv, value in zip(x.tolist(), y.tolist(), values.tolist()):
            cube, cross = Fraction(xv) ** 3, 3 * Fraction(xv) * Fraction(yv) ** 2
            worst = max(worst, _ulps(value, cube - cross, 2.0**-52 * max(abs(cube), abs(cross))))
        assert worst <= 2.0


class TestSeedQuadratureRule:
    # The parse-time rule n_r >= d + 3, n_phi >= 2 d + 1 (d the top seed
    # degree) is where the seed Grams become exact: on the full circle the
    # seeds are polynomials, so at the bound they equal the Grams of a far
    # finer rule, and one node fewer in either direction moves them.
    @pytest.mark.parametrize("size", [10, 24, 66])
    def test_bound_is_exact_and_sharp(self, size):
        arc, op = ArcSpec(0.0, 2 * math.pi), CR
        need = variational.seed_quadrature_needs(size)
        fine = DiskQuadrature.build(64, 256)
        ref = build_seed_system(arc, op, size, fine)

        def gram_error(n_r, n_phi):
            seeds = build_seed_system(
                arc, op, size, DiskQuadrature.build(n_r, n_phi)
            )
            worst = 0.0
            for got, want in ((seeds.l2_gram, ref.l2_gram), (seeds.energy_gram, ref.energy_gram)):
                diag = np.sqrt(np.abs(np.real(np.diag(want))))
                worst = max(worst, float(np.max(np.abs(got - want) / np.outer(diag, diag))))
            return worst

        # Measured: at most 1.8e-14 at the bound, at least 1.2e-10 one node below.
        assert gram_error(need["n_r"], need["n_phi"]) <= 1e-13
        assert gram_error(need["n_r"] - 1, need["n_phi"]) >= 1e-11
        assert gram_error(need["n_r"], need["n_phi"] - 1) >= 1e-11

    def test_degree_of_graded_seeds(self):
        for size in range(1, variational.TRIAL_MAX + 1):
            d = max(px + py for px, py in variational._monomial_exponents(size))
            assert variational.seed_quadrature_needs(size) == dict(n_r=d + 3, n_phi=2 * d + 1)


class TestBasisGrams:
    @pytest.mark.parametrize("op", [GRAD, CR])
    def test_orthogonality(self, op, quad_small):
        _, l2_gram, energy_gram = basis_grams(op, 6, 1.0, quad_small)
        assert max_offdiag_relative(l2_gram) <= 1e-8
        assert max_offdiag_relative(energy_gram) <= 1e-8

    @pytest.mark.parametrize("eps", [1e-5, 1e-2, 1.0, 4e2])
    def test_radial_table_equals_radial_factor(self, eps, quad64):
        values, slopes = variational._radial_table(8, eps, quad64.r)
        root = math.sqrt(eps)
        for i in range(9):
            assert np.array_equal(values[:, i], bessel_i(i, root * quad64.r))
            assert np.array_equal(slopes[:, i], root * bessel_i_prime(i, root * quad64.r))

    @pytest.mark.parametrize("op", [GRAD, CR])
    @pytest.mark.parametrize("eps", [1e-2, 1.0, 4e2])
    def test_matches_pointwise_gram(self, op, eps):
        quad = DiskQuadrature.build(24, 96)
        modes, l2_gram, energy_gram = basis_grams(op, 8, eps, quad)
        basis = [BasisFunction(op, i, j, eps) for i, j in modes]
        values = np.column_stack([b.value_xy(quad.x, quad.y) for b in basis])
        grads = [op.apply_gradient(*b.gradient_xy(quad.x, quad.y)) for b in basis]
        l2_ref = (quad.w[:, None] * values).T @ np.conj(values)
        energy_ref = np.array(
            [[quad.integrate(pair_outputs(op, ga, gb)) for gb in grads] for ga in grads]
        )
        for gram, ref in ((l2_gram, l2_ref), (energy_gram, energy_ref)):
            diag = np.sqrt(np.abs(np.real(np.diag(ref))))
            assert np.all(np.abs(gram - ref) <= 1e-12 * np.outer(diag, diag))

    @pytest.mark.parametrize("i_max", [-3, 61])
    def test_i_max_held_to_the_order_rule(self, i_max, quad_small):
        with pytest.raises(InputError, match=f"order {i_max} outside supported range"):
            basis_grams(GRAD, i_max, 1.0, quad_small)

    def test_bessel_points_per_call(self, monkeypatch):
        # One kernel call over the orders 0..i_max + 1 on the n_r radii gives
        # every value and derivative, never the n_r * n_phi nodes.  Points
        # are counted after the orders broadcast against the arguments.
        from epsreg import bessel

        counted = []
        kernel = bessel._bessel_i

        def counting(nu, x):
            counted.append(np.broadcast(nu, x).size)
            return kernel(nu, x)

        monkeypatch.setattr(bessel, "_bessel_i", counting)
        quad = DiskQuadrature.build(32, 128)
        i_max = 8
        basis_grams(GRAD, i_max, 4e2, quad)
        assert len(counted) == 1
        assert 0 < sum(counted) <= (i_max + 2) * quad.n_r
