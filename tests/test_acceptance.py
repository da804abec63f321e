"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; the prints carry the measured quantities.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from epsreg.bessel import bessel_i, bessel_i_prime
from epsreg.core import (
    DiscreteOperator,
    Verdict,
    run_path,
    solve_perturbed,
)
from epsreg.diskbasis import (
    BasisFunction,
    DiracOperatorKind,
    apply_operator,
    nonvanishing_check,
    symbol_defect,
)
from epsreg.ode1d import Ode1dProblem, convergence_report, perturbed_solution
from epsreg.variational import (
    ArcSpec,
    CauchyProblemSpec,
    DiskQuadrature,
    Field,
    FourierHarmonicField,
    basis_grams,
    build_seed_system,
    cauchy_pipeline,
    conormal_values,
    max_offdiag_relative,
    solve_mixed_boundary_series,
)
from reference import boundary_form_h, gram_schmidt, trace_values, wrap

GRAD = DiracOperatorKind.GRADIENT
CR = DiracOperatorKind.CAUCHY_RIEMANN
UPPER = ArcSpec(0.0, math.pi)


def report(criterion: str, detail: str):
    print(f"acceptance {criterion}: {detail}")


def series_oracle(nu: int, x: float, terms: int = 30) -> float:
    term = (0.5 * x) ** nu / math.factorial(nu)
    total = term
    for k in range(1, terms):
        term *= 0.25 * x * x / (k * (k + nu))
        total += term
    return total


def cubic_field() -> Field:
    return Field(
        lambda x, y: x**3 - 3.0 * x * y**2,
        lambda x, y: (3.0 * x**2 - 3.0 * y**2, -6.0 * x * y),
    )


def test_criterion_01_tikhonov_identity():
    """u_eps = u - eps (T*T + eps I)^{-1} u for f = T u, 100 random cases."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        rows = int(rng.integers(1, 21))
        cols = int(rng.integers(1, 31))
        T = DiscreteOperator(rng.standard_normal((rows, cols)))
        u = rng.standard_normal(cols)
        eps = 10.0 ** rng.uniform(-3, 1)
        sol = solve_perturbed(T.project(T.matrix @ u, np.zeros(cols)), eps)
        system = T.matrix.conj().T @ T.matrix + eps * np.eye(cols)
        expected = u - eps * np.linalg.solve(system, u)
        rel = np.linalg.norm(sol.u - expected) / max(np.linalg.norm(expected), 1e-300)
        worst = max(worst, rel)
    report("criterion 1", f"worst relative deviation {worst:.3e} (tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_02_boundedness_dichotomy():
    """Consistent instance Bounded with contraction; slow-decay Unbounded."""
    T = DiscreteOperator(np.diag([1.0, 0.5]))
    u = np.array([1.0, 1.0])
    consistent = run_path(T, T.matrix @ u, np.zeros(2), [1.0, 0.1, 0.01, 0.001])
    assert consistent.verdict is Verdict.BOUNDED
    assert max(e.norm_h for e in consistent.entries) <= np.linalg.norm(u) + 1e-12

    k = np.arange(1, 21, dtype=float)
    slow = DiscreteOperator(np.diag(2.0**-k))
    f = 2.0 ** (-k / 2.0)
    f /= np.linalg.norm(f)
    schedule = [1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
    path = run_path(slow, f, np.zeros(20), schedule)
    norms = [e.norm_h for e in path.entries]
    ratio_a = norms[8] / norms[6]
    ratio_b = norms[7] / norms[5]
    report(
        "criterion 2",
        f"consistent=Bounded, slow-decay verdict={path.verdict.value} "
        f"slope={path.growth_slope:.3f} two-decade ratios {ratio_a:.2f}, {ratio_b:.2f}",
    )
    assert path.verdict is Verdict.UNBOUNDED
    assert ratio_a >= 3.0 and ratio_b >= 3.0


def test_criterion_03_energy_estimate():
    """||u_eps(f,h)||_eps <= ||f|| + sqrt(eps) ||h|| + 1e-9, 100 random cases."""
    rng = np.random.default_rng(7)
    worst_excess = -math.inf
    for _ in range(100):
        rows = int(rng.integers(1, 16))
        cols = int(rng.integers(1, 16))
        T = DiscreteOperator(rng.standard_normal((rows, cols)))
        f = rng.standard_normal(rows)
        h = rng.standard_normal(cols)
        eps = 10.0 ** rng.uniform(-8, 2)
        sol = solve_perturbed(T.project(f, h), eps)
        bound = np.linalg.norm(f) + math.sqrt(eps) * np.linalg.norm(h) + 1e-9
        worst_excess = max(worst_excess, sol.norm_eps - bound)
        assert sol.norm_eps <= bound
    report("criterion 3", f"max excess over bound {worst_excess:.3e} (must be <= 0)")


def test_criterion_04_bessel_accuracy():
    """I_nu matches the 30-term series oracle; recurrence identity holds."""
    worst = 0.0
    for nu in range(0, 21):
        for x in (0.1, 1.0, 5.0, 15.0):
            expected = series_oracle(nu, x)
            got = bessel_i(nu, x)
            if expected != 0.0:
                worst = max(worst, abs(got - expected) / abs(expected))
    worst_rec = 0.0
    for nu in range(1, 21):
        for x in (0.1, 1.0, 5.0, 15.0):
            lhs = bessel_i(nu - 1, x) - bessel_i(nu + 1, x)
            rhs = (2.0 * nu / x) * bessel_i(nu, x)
            scale = max(abs(rhs), 1e-300)
            worst_rec = max(worst_rec, abs(lhs - rhs) / scale)
    report("criterion 4", f"series dev {worst:.3e}, recurrence dev {worst_rec:.3e} (tol 1e-10)")
    assert worst <= 1e-10
    assert worst_rec <= 1e-10


def _fd_helmholtz_relative(b: BasisFunction, epsilon: float, points: np.ndarray) -> float:
    """Independent 5-point oracle: max |(-Lap + eps) b| / (1 + |b|)."""
    h = 1e-4
    x, y = points[:, 0], points[:, 1]
    val = b.value_xy
    lap = (
        val(x + h, y) + val(x - h, y) + val(x, y + h) + val(x, y - h) - 4.0 * val(x, y)
    ) / (h * h)
    resid = np.abs(-lap + epsilon * val(x, y))
    return float(np.max(resid / (1.0 + np.abs(val(x, y)))))


def test_criterion_05_basis_structure():
    """Gram orthogonality, Helmholtz residual, nonvanishing, symbol identity."""
    quad = DiskQuadrature.build(64, 256)
    rng = np.random.default_rng(0)
    angles = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False) + 0.037
    points = np.column_stack([0.55 * np.cos(angles), 0.55 * np.sin(angles)])
    worst_off = 0.0
    worst_helm = 0.0
    min_coupling = math.inf
    for op in (GRAD, CR):
        defect = symbol_defect(op, rng.standard_normal((100, 2)))
        assert defect <= 1e-14
        for eps in (0.25, 1.0, 4.0):
            modes, l2_gram, energy_gram = basis_grams(op, 8, eps, quad)
            worst_off = max(
                worst_off,
                max_offdiag_relative(l2_gram),
                max_offdiag_relative(energy_gram),
            )
            for i, branch in modes:
                b = BasisFunction(op, i, branch, eps)
                worst_helm = max(worst_helm, _fd_helmholtz_relative(b, eps, points))
                min_coupling = min(min_coupling, nonvanishing_check(op, i, branch, eps))
    report(
        "criterion 5",
        f"max offdiag {worst_off:.3e} (tol 1e-8), max helmholtz {worst_helm:.3e} "
        f"(tol 1e-5), min coupling {min_coupling:.3e} (> 0)",
    )
    assert worst_off <= 1e-8
    assert worst_helm <= 1e-5
    assert min_coupling > 0.0


def test_criterion_06_eigenvalue_relation():
    """n(A(r^i cos i phi)) = i r^i cos i phi on 50 boundary points, i <= 8."""
    phis = np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False)
    worst = 0.0
    for i in range(1, 9):
        harmonic = Field(
            lambda x, y, i=i: np.real((x + 1j * y) ** i),
            lambda x, y, i=i: (
                np.real(i * (x + 1j * y) ** (i - 1)),
                -np.imag(i * (x + 1j * y) ** (i - 1)),
            ),
        )
        got = conormal_values(GRAD, harmonic, phis)
        expected = i * np.cos(i * phis)
        worst = max(worst, float(np.max(np.abs(got - expected))))
    report("criterion 6", f"max deviation {worst:.3e} (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_07_one_dimensional_ground_truth():
    """Closed-form 1D case: exact datum, flux match, strict C^1 convergence."""
    problem = Ode1dProblem(0.0, 1.0, 0.0, math.cos)
    for eps in (1.0, 1e-2, 1e-4, 1e-6):
        value_a, _ = perturbed_solution(problem, 0.0, eps)
        assert value_a == 0.0
        _, deriv_b = perturbed_solution(problem, 1.0, eps)
        assert abs(deriv_b - math.cos(1.0)) <= 1e-8
    rows = convergence_report(problem, [1.0, 1e-2, 1e-4, 1e-6])
    c0 = [r.c0_error for r in rows]
    c1 = [r.c1_error for r in rows]
    report(
        "criterion 7",
        f"C0 errors {['%.2e' % v for v in c0]}, C1 errors {['%.2e' % v for v in c1]}",
    )
    assert all(b < a for a, b in zip(c0, c0[1:]))
    assert all(b < a for a, b in zip(c1, c1[1:]))
    assert c0[-1] <= 1e-3 and c1[-1] <= 1e-3


def _disk_cauchy_spec(noise_amplitude: float) -> CauchyProblemSpec:
    u_star = cubic_field()

    def u0(phi):
        base = u_star.value_xy(np.cos(phi), np.sin(phi))
        if noise_amplitude:
            base = base + noise_amplitude * np.cos(20.0 * np.asarray(phi))
        return base

    return CauchyProblemSpec(
        operator=GRAD,
        arc=UPPER,
        f=apply_operator(GRAD, u_star),
        u0=u0,
        schedule=[1e-1, 1e-2, 1e-3, 1e-4, 1e-5],
        trial_size=24,
        n_r=64,
        n_phi=256,
        reference=u_star,
    )


def _disk_cauchy_result(noise_amplitude: float):
    return cauchy_pipeline(_disk_cauchy_spec(noise_amplitude))


def test_criterion_08a_disk_reconstruction_clean():
    """Manufactured Re z^3: relative L2 error <= 5% at the L-curve epsilon."""
    result = _disk_cauchy_result(0.0)
    report(
        "criterion 8a",
        f"rel_error={result.rel_error_at_best:.4f} (tol 0.05) "
        f"verdict={result.verdict.value} best_eps={result.best_epsilon:.1e}",
    )
    assert result.rel_error_at_best <= 0.05
    assert result.verdict is Verdict.BOUNDED


def _vector_l2_norm(quad: DiskQuadrature, vx, vy) -> float:
    return math.sqrt(float(np.sum(quad.w * (np.abs(vx) ** 2 + np.abs(vy) ** 2))))


def _upper_arc_witness(quad: DiskQuadrature):
    """q = (-psi_y, psi_x) for psi harmonic with trace sin^2(phi) sin(20 phi)
    on the upper arc and 0 below it.

    div q = 0, and q . n = -d(psi)/d(phi) vanishes where the trace of psi is
    constant, i.e. off Gamma.  So (q, grad v) = 0 for every v vanishing on
    Gamma.  psi is the harmonic extension of the Fourier series of its
    trace, sampled at 2 n_phi points and cut at n_phi / 2 modes (cut at
    n_phi modes from 4 n_phi samples, the leak rises from 8e-13 to 6e-8).
    """
    n_samples = 2 * quad.n_phi
    phis = 2.0 * math.pi * np.arange(n_samples) / n_samples
    trace = np.where(phis <= math.pi, np.sin(phis) ** 2 * np.sin(20.0 * phis), 0.0)
    spectrum = np.fft.fft(trace) / n_samples
    cutoff = quad.n_phi // 2
    orders = np.arange(-cutoff, cutoff + 1)
    psi = FourierHarmonicField(orders, spectrum[orders % n_samples], real_output=True)
    psi_x, psi_y = psi.gradient_xy(quad.x, quad.y)
    return -psi_y, psi_x


def test_criterion_08b_disk_reconstruction_noisy():
    """0.1 cos(20 phi) noise on the arc: a bounded family with a residual floor.

    Gradient data on the disk with the datum on the upper arc.  The noisy
    datum has no solution, but the gradient on fields vanishing on Gamma
    has a closed range (Friedrichs), so the family cannot blow up.  The
    missing solution shows instead as a limit residual bounded below.

    (a) Bounded.  With f~ = f - A U0 (U0 the lifted datum), the Galerkin
    identity ||A v||^2 + eps ||v||^2 = (f~, A v) gives ||A v_eps|| <= ||f~||.
    With mu_min the smallest eigenvalue of (energy_gram, l2_gram) on the
    trial span, ||v_eps|| <= ||f~|| / sqrt(mu_min) for every eps and any
    data.

    (b) No u_eps solves the noisy problem.  The witness q of
    ``_upper_arc_witness`` is orthogonal to A v for every v vanishing on
    Gamma, so beta = |(f~, q)| / ||q|| bounds the distance from f~ to the
    range from below, and every residual ||A v_eps - f~|| is >= beta.  The
    discrete leak max_k |(q, A s_k)| / ||q|| over the pipeline's seeds s_k
    is checked to be negligible.  For the clean datum beta vanishes: the
    clean u* - U0 and psi are both odd under x -> -x, so (f~, q) cancels
    exactly, the lift's 6e-5 trace error on Gamma included.  The check
    that tells noise from discretization is the next one: the clean
    residual lies below the noisy beta.

    The dense-range case, where the paper's equivalence makes noise flip
    the family to Unbounded (Cauchy-Riemann), is ROADMAP item 1.
    """
    noisy_spec = _disk_cauchy_spec(0.1)
    noisy = cauchy_pipeline(noisy_spec)
    clean = _disk_cauchy_result(0.0)

    quad = DiskQuadrature.build(noisy_spec.n_r, noisy_spec.n_phi)
    seeds = build_seed_system(noisy_spec.arc, noisy_spec.operator, noisy_spec.trial_size, quad)
    mu_min = float(scipy.linalg.eigh(seeds.energy_gram, seeds.l2_gram, eigvals_only=True)[0])

    qx, qy = _upper_arc_witness(quad)
    q_norm = _vector_l2_norm(quad, qx, qy)
    leak = float(np.max(np.abs(seeds.rhs_vector((qx, qy))))) / q_norm

    gx, gy = noisy_spec.reference.gradient_xy(quad.x, quad.y)

    def f_tilde_and_beta(result):
        lx, ly = result.lift.gradient_xy(quad.x, quad.y)
        fx, fy = gx - lx, gy - ly
        beta = abs(float(np.sum(quad.w * (fx * qx + fy * qy)))) / q_norm
        return _vector_l2_norm(quad, fx, fy), beta

    f_norm, beta = f_tilde_and_beta(noisy)
    _, beta_clean = f_tilde_and_beta(clean)
    norm_bound = f_norm / math.sqrt(mu_min)
    norms = [r.l2_norm for r in noisy.records]
    residuals = [r.residual for r in noisy.records]
    clean_residuals = [r.residual for r in clean.records]
    report(
        "criterion 8b",
        f"verdict={noisy.verdict.value} slope={noisy.growth_slope:.3e} "
        f"mu_min={mu_min:.3f} norms<={max(norms):.4f} (bound {norm_bound:.4f}) "
        f"beta={beta:.4f} (clean {beta_clean:.1e}, leak {leak:.1e}) "
        f"residuals {min(residuals):.4f}..{max(residuals):.4f} "
        f"(clean {max(clean_residuals):.4f})",
    )
    assert noisy.verdict is Verdict.BOUNDED
    assert all(n <= norm_bound for n in norms)
    assert leak <= 1e-10
    assert all(r >= beta for r in residuals)
    assert beta_clean <= 1e-10
    assert max(clean_residuals) < beta


def test_criterion_09_series_round_trip():
    """Data from b_2^(1) recovers its expansion; off-coefficients <= 1e-8."""
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
    unit_dev = abs(raw[idx] - 1.0)
    raw[idx] = 0.0
    off = float(np.max(np.abs(raw)))
    report("criterion 9", f"unit coefficient dev {unit_dev:.3e}, max off {off:.3e} (tol 1e-8)")
    assert unit_dev <= 1e-8
    assert off <= 1e-8


def _brute_force_boundary_gs(funcs, eps):
    """Classical Gram-Schmidt with explicit quadrature sums (oracle)."""
    g_phi, g_w = UPPER.quadrature(256)
    c_phi, c_w = UPPER.complement_quadrature(256)

    def h_inner(a, b):
        ta = trace_values(a, g_phi)
        tb = trace_values(b, g_phi)
        na = conormal_values(GRAD, a, c_phi)
        nb = conormal_values(GRAD, b, c_phi)
        return float(np.sum(g_w * ta * np.conj(tb)) + np.sum(c_w * na * np.conj(nb)))

    ortho = []
    for f in funcs:
        work = wrap(f)
        for e in ortho:
            work = work - h_inner(work, e) * e
        ortho.append((1.0 / math.sqrt(h_inner(work, work))) * work)
    return ortho, h_inner


def test_criterion_10_gram_schmidt_versus_paper():
    """Boundary orthonormalization: structural form of the first element.

    The first orthonormal element must be the zero-mode radial factor over
    sqrt(pi (|g_0(1)|^2 + |g_0'(1)|^2)); the next two elements are compared
    against the brute-force oracle, and their published closed-form
    counterparts are reported without a hard assertion (the source display
    uses an unstated normalization convention).
    """
    eps = 1.0
    root = math.sqrt(eps)
    funcs = [
        wrap(BasisFunction(GRAD, 0, 1, eps)),
        wrap(BasisFunction(GRAD, 1, 1, eps)),
        wrap(BasisFunction(GRAD, 1, 2, eps)),
    ]
    inner = lambda a, b: boundary_form_h(a, b, GRAD, UPPER)
    ours = gram_schmidt(funcs, inner)
    oracle, h_inner = _brute_force_boundary_gs(funcs, eps)

    sample_r = np.array([0.2, 0.5, 0.9])
    sample_phi = np.array([0.3, 1.2, 2.4])
    xs, ys = sample_r * np.cos(sample_phi), sample_r * np.sin(sample_phi)

    # implementation against brute-force oracle, all three elements
    worst_vs_oracle = 0.0
    for mine, ref in zip(ours.basis, oracle):
        dev = float(np.max(np.abs(mine.value_xy(xs, ys) - ref.value_xy(xs, ys))))
        worst_vs_oracle = max(worst_vs_oracle, dev)
    assert worst_vs_oracle <= 1e-10

    # structural form of the first element
    g0 = bessel_i(0, root)
    g0p = root * bessel_i_prime(0, root)
    closed_first = bessel_i(0, root * sample_r) / (
        math.sqrt(math.pi) * math.sqrt(g0**2 + g0p**2)
    )
    form_dev = float(np.max(np.abs(ours.basis[0].value_xy(xs, ys) - closed_first)))
    assert form_dev <= 1e-10

    # reported-only comparison for the next two elements
    g1 = bessel_i(1, root)
    g1p = root * bessel_i_prime(1, root)
    ours_b11 = ours.basis[1].value_xy(xs, ys)
    factored = bessel_i(1, root * sample_r) * np.cos(sample_phi)
    our_c11 = float(np.mean(np.real(ours_b11 / factored)))
    derived_c11 = math.sqrt(2.0) / (math.sqrt(math.pi) * math.sqrt(g1**2 + g1p**2))
    published_c11 = 2.0 / (math.sqrt(math.pi) * math.sqrt(g1**2 + g1p**2))
    mix_a = g0 * g1 - g0p * g1p
    coupling = h_inner(funcs[2], oracle[0])
    report(
        "criterion 10",
        f"first element matches closed form to {form_dev:.2e}; "
        f"second element coefficient ours={our_c11:.6f} "
        f"(arc-L2 value {derived_c11:.6f}, published display {published_c11:.6f}); "
        f"third element mixes modes with published a={mix_a:.6f} vs "
        f"measured zero-mode coupling {coupling:.6f} (report only)",
    )
    assert our_c11 == pytest.approx(derived_c11, rel=1e-9)
