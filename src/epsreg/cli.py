"""Experiment runner: eps sweeps, disk reconstructions, 1D tables, checks.

Configs are single-section key = value files; the section name selects the
experiment.  Output is CSV with 17-significant-digit values, one row per
schedule entry, plus a trailing ``verdict=...`` line for experiments that
classify a regularization path.  Exit codes: 0 success, 2 validation or
I/O error, 3 numeric failure (for verify-style runs also: nonzero when a
property check fails).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple, Optional

import numpy as np

from . import core, diskbasis, ode1d, variational
from .bessel import NU_MAX, X_MAX, RadialFactor, bessel_i
from .diskbasis import BasisFunction, DiracOperatorKind
from .errors import InputError, NumericError

EXPERIMENTS = ("ode1d", "matrix_path", "disk_cauchy", "disk_mixed", "verify_basis")

_FUNCTIONS = {
    "cos": np.cos,
    "sin": np.sin,
    "exp": np.exp,
    "one": lambda x: np.ones_like(np.asarray(x, dtype=float)),
    "zero": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
}

_HEADERS = {
    "ode1d": "epsilon,c0_error,c1_error",
    "matrix_path": "epsilon,norm_h,norm_eps,residual",
    "disk_cauchy": "epsilon,l2_norm,residual,rel_error",
    "disk_mixed": "epsilon,trace_error_gamma,normal_error_complement,helmholtz_residual",
    "verify_basis": (
        "epsilon,max_l2_offdiag,max_energy_offdiag,max_helmholtz_residual,"
        "min_normal_coupling,symbol_defect"
    ),
}


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict
    output_path: str
    seed: int = 0
    lines: dict = dc_field(default_factory=dict)
    source: str = ""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _parse_sections(text: str, source: str):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise InputError(f"{source}:{lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise InputError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise InputError(f"{source}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in sections[current]:
            raise InputError(f"{source}:{lineno}: duplicate key {key!r}")
        sections[current][key] = (value, lineno)
    return sections


def _coerce(kind, value, source, lineno, key):
    try:
        if kind == "float":
            return float(value)
        if kind == "int":
            return int(value)
        if kind == "floats":
            items = [float(tok) for tok in value.split()]
            if not items:
                raise ValueError("empty list")
            return items
        if kind == "str":
            return value
        if kind == "operator":
            mapping = {
                "gradient": DiracOperatorKind.GRADIENT,
                "cauchy_riemann": DiracOperatorKind.CAUCHY_RIEMANN,
            }
            if value not in mapping:
                raise ValueError(f"expected one of {sorted(mapping)}")
            return mapping[value]
        if kind == "function":
            if value not in _FUNCTIONS:
                raise ValueError(f"expected one of {sorted(_FUNCTIONS)}")
            return value
    except ValueError as exc:
        raise InputError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    raise InputError(f"unknown schema kind {kind}")  # pragma: no cover


_SCHEMAS = {
    "ode1d": {
        "a": ("float", True, None),
        "b": ("float", True, None),
        "u0": ("float", False, 0.0),
        "f": ("function", True, None),
        "schedule": ("floats", True, None),
        "output": ("str", True, None),
    },
    "matrix_path": {
        "matrix": ("str", True, None),
        "f": ("floats", True, None),
        "h": ("floats", False, None),
        "schedule": ("floats", True, None),
        "output": ("str", True, None),
    },
    "disk_cauchy": {
        "operator": ("operator", False, DiracOperatorKind.GRADIENT),
        "gamma_start": ("float", True, None),
        "gamma_end": ("float", True, None),
        "trial_size": ("int", False, 24),
        "n_r": ("int", False, 64),
        "n_phi": ("int", False, 256),
        "schedule": ("floats", True, None),
        "noise_amplitude": ("float", False, 0.0),
        "noise_frequency": ("int", False, 20),
        "seed": ("int", False, 0),
        "output": ("str", True, None),
    },
    "disk_mixed": {
        "operator": ("operator", False, DiracOperatorKind.GRADIENT),
        "gamma_start": ("float", True, None),
        "gamma_end": ("float", True, None),
        "n_modes": ("int", False, 16),
        "n_phi": ("int", False, 256),
        "source_index": ("int", False, 2),
        "source_branch": ("int", False, 1),
        "schedule": ("floats", True, None),
        "output": ("str", True, None),
    },
    "verify_basis": {
        "operator": ("operator", False, DiracOperatorKind.GRADIENT),
        "i_max": ("int", False, 8),
        "n_r": ("int", False, 64),
        "n_phi": ("int", False, 256),
        "schedule": ("floats", True, None),
        "seed": ("int", False, 0),
        "output": ("str", True, None),
    },
}


# Inclusive ranges: Bessel orders stop at NU_MAX; quadratures need 2 radii,
# 4 angles and stop at N_R_MAX, N_PHI_MAX.
_INT_RANGES = dict(
    n_modes=(0, NU_MAX),
    i_max=(0, NU_MAX),
    n_r=(2, variational.N_R_MAX),
    n_phi=(4, variational.N_PHI_MAX),
    trial_size=(1, variational.TRIAL_MAX),
)


def _validate_schedule_param(schedule, source, lineno):
    try:
        core.validate_schedule(schedule)
    except InputError as exc:
        raise InputError(f"{source}:{lineno}: bad 'schedule': {exc}") from exc


def parse_config(path: str) -> ExperimentConfig:
    """Strict parse of an experiment config; unknown keys are rejected."""
    sections = _parse_sections(core.read_text(path, "config file"), path)
    if len(sections) != 1:
        raise InputError(
            f"{path}: expected exactly one experiment section, found {sorted(sections)}"
        )
    (name, raw), = sections.items()
    if name not in EXPERIMENTS:
        raise InputError(f"{path}: unknown experiment [{name}]; expected one of {EXPERIMENTS}")
    schema = _SCHEMAS[name]
    params, lines = {}, {}
    for key, (value, lineno) in raw.items():
        if key not in schema:
            raise InputError(f"{path}:{lineno}: unknown key {key!r} for experiment '{name}'")
        kind, _, _ = schema[key]
        params[key] = _coerce(kind, value, path, lineno, key)
        lines[key] = lineno
    for key, (kind, required, default) in schema.items():
        if key not in params:
            if required:
                raise InputError(f"{path}: missing required key {key!r} for '{name}'")
            if default is not None:
                params[key] = default
    if "schedule" in params:
        _validate_schedule_param(params["schedule"], path, lines.get("schedule", 0))
    if "gamma_start" in params:
        gs, ge = params["gamma_start"], params["gamma_end"]
        if not (0.0 <= gs < 2.0 * math.pi):
            raise InputError(f"{path}:{lines['gamma_start']}: 'gamma_start' must lie in [0, 2 pi)")
        if not ge > gs:
            raise InputError(
                f"{path}:{lines['gamma_end']}: 'gamma_end' must exceed 'gamma_start' "
                "(equal endpoints do not define a nonempty arc)"
            )
        if ge - gs > 2.0 * math.pi + 1e-12:
            raise InputError(f"{path}:{lines['gamma_end']}: arc length exceeds 2 pi")
    for key, value in params.items():
        if schema[key][0] in ("float", "floats") and not np.all(np.isfinite(value)):
            raise InputError(f"{path}:{lines[key]}: bad {key!r}: values must be finite")
    for key, (lo, hi) in _INT_RANGES.items():
        if key in params and not lo <= params[key] <= hi:
            raise InputError(f"{path}:{lines[key]}: {key!r} must lie in [{lo}, {hi}]")
    if name == "disk_cauchy":
        for key, need in variational.seed_quadrature_needs(params["trial_size"]).items():
            if params[key] < need:
                raise InputError(
                    f"{path}:{lines.get(key, 0)}: {key!r} must be >= {need} to integrate the "
                    f"Grams of trial_size {params['trial_size']} exactly"
                )
    if name in ("disk_mixed", "verify_basis") and max(params["schedule"]) > X_MAX**2:
        bound = f"{X_MAX**2:g}, where sqrt(eps) leaves the Bessel range [0, {X_MAX:g}]"
        raise InputError(f"{path}:{lines['schedule']}: bad 'schedule': eps above {bound}")
    output = params.pop("output")
    seed = int(params.get("seed", 0))
    return ExperimentConfig(
        experiment=name, params=params, output_path=output, seed=seed, lines=lines, source=path
    )


# ---------------------------------------------------------------------------
# Experiment bodies
# ---------------------------------------------------------------------------


class RunResult(NamedTuple):
    """CSV rows, an optional trailer line, the summary line and the check status."""

    rows: list
    trailer: Optional[str]
    summary: str
    ok: bool = True


def _fmt(values) -> str:
    return ",".join(f"{float(v):.17g}" for v in values)


def _run_ode1d(cfg: ExperimentConfig) -> RunResult:
    p = cfg.params
    problem = ode1d.Ode1dProblem(p["a"], p["b"], p["u0"], _FUNCTIONS[p["f"]])
    rows = [
        (row.epsilon, row.c0_error, row.c1_error)
        for row in ode1d.convergence_report(problem, p["schedule"])
    ]
    summary = f"experiment=ode1d rows={len(rows)}"
    if len(rows) >= 2 and rows[-1][1] > 0.0 and rows[-2][1] > 0.0:
        # observed rate over the last schedule step, informational only
        span = math.log(rows[-2][0] / rows[-1][0])
        rate0 = math.log(rows[-2][1] / rows[-1][1]) / span
        rate1 = math.log(rows[-2][2] / rows[-1][2]) / span if rows[-1][2] > 0.0 else float("nan")
        summary += f" c0_rate={rate0:.3f} c1_rate={rate1:.3f}"
    return RunResult(rows, None, summary)


def _run_matrix_path(cfg: ExperimentConfig) -> RunResult:
    p = cfg.params
    try:
        operator = core.load_matrix(p["matrix"])
    except InputError as exc:
        raise InputError(f"{cfg.source}:{cfg.lines['matrix']}: bad 'matrix': {exc}") from exc
    h = p.get("h", np.zeros(operator.dom_dim))
    path = core.run_path(operator, p["f"], h, p["schedule"])
    rows = [(e.epsilon, e.norm_h, e.norm_eps, e.residual) for e in path.entries]
    verdict = path.verdict.value
    return RunResult(
        rows, f"verdict={verdict}", f"experiment=matrix_path rows={len(rows)} verdict={verdict}"
    )


def _manufactured_cubic():
    """u* = Re z^3 = x^3 - 3 x y^2 with its exact gradient."""
    def value(x, y):
        return x**3 - 3.0 * x * y**2

    def gradient(x, y):
        return 3.0 * x**2 - 3.0 * y**2, -6.0 * x * y

    return variational.Field(value, gradient)


def _run_disk_cauchy(cfg: ExperimentConfig) -> RunResult:
    p = cfg.params
    op = p["operator"]
    arc = variational.ArcSpec(p["gamma_start"], p["gamma_end"])
    u_star = _manufactured_cubic()
    f_closure = diskbasis.apply_operator(op, u_star)
    amp, freq = p["noise_amplitude"], p["noise_frequency"]

    def u0(phi):
        base = u_star.value_xy(np.cos(phi), np.sin(phi))
        if amp:
            base = base + amp * np.cos(freq * np.asarray(phi))
        return base

    spec = variational.CauchyProblemSpec(
        operator=op,
        arc=arc,
        f=f_closure,
        u0=u0,
        schedule=p["schedule"],
        trial_size=p["trial_size"],
        n_r=p["n_r"],
        n_phi=p["n_phi"],
        reference=u_star,
    )
    result = variational.cauchy_pipeline(spec)
    rows = [(r.epsilon, r.l2_norm, r.residual, r.rel_error) for r in result.records]
    trailer = f"verdict={result.verdict.value}"
    summary = (
        f"experiment=disk_cauchy rows={len(rows)} verdict={result.verdict.value} "
        f"best_epsilon={result.best_epsilon:.17g} rel_error={result.rel_error_at_best:.17g}"
    )
    return RunResult(rows, trailer, summary)


def _ring_points(radius: float, count: int) -> np.ndarray:
    angles = 2.0 * math.pi * (np.arange(count) + 0.5) / count
    return np.column_stack([radius * np.cos(angles), radius * np.sin(angles)])


def _run_disk_mixed(cfg: ExperimentConfig) -> RunResult:
    p = cfg.params
    op = p["operator"]
    arc = variational.ArcSpec(p["gamma_start"], p["gamma_end"])
    i, branch = p["source_index"], p["source_branch"]
    points = _ring_points(0.5, 16)
    g_phi, g_w = arc.quadrature(p["n_phi"])
    c_phi, c_w = arc.complement_quadrature(p["n_phi"])

    rows = []
    for eps in p["schedule"]:
        source = BasisFunction(RadialFactor(i, eps), branch, op)
        u0 = lambda phi: source.value_polar(1.0, phi)
        u1 = lambda phi: source.normal_trace_values(phi)
        sol = variational.solve_mixed_boundary_series(
            op, arc, u0, u1, eps, n_modes=p["n_modes"], n_phi=p["n_phi"]
        )
        trace_err = math.sqrt(
            float(np.sum(g_w * np.abs(sol.trace_on(g_phi) - u0(g_phi)) ** 2))
        ) if g_phi.size else 0.0
        normal_err = math.sqrt(
            float(np.sum(c_w * np.abs(sol.conormal_on(c_phi) - u1(c_phi)) ** 2))
        ) if c_phi.size else 0.0
        helm = diskbasis.check_helmholtz(sol.field, eps, points)
        rows.append((eps, trace_err, normal_err, helm))
    return RunResult(rows, None, f"experiment=disk_mixed rows={len(rows)}")


_VERIFY_TOLS = {
    "max_l2_offdiag": 1e-8,
    "max_energy_offdiag": 1e-8,
    "max_helmholtz_residual": 1e-5,
    "min_normal_coupling": 0.0,
    "symbol_defect": 1e-14,
}


def _basis_checks(op, i_max, eps, quad, points):
    """Disk-basis identities at one eps.

    Returns the largest relative off-diagonal L^2 and energy Gram entries,
    the worst Helmholtz residual (scaled by 1 + the mode's magnitude
    ``|I_i(sqrt(eps) r)| max |H_i|`` on the ring of ``points``) and the
    smallest normal coupling over the modes up to ``i_max``.
    """
    modes, l2_gram, energy_gram = variational.basis_grams(op, i_max, eps, quad)
    orders = np.array([i for i, _ in modes])
    ring = bessel_i(orders, np.full(orders.shape, math.sqrt(eps) * float(np.hypot(*points[0]))))
    helm = 0.0
    for (i, branch), amplitude in zip(modes, ring):
        b = BasisFunction(RadialFactor(i, eps), branch, op)
        # Both branches of H_i share the amplitude |H_i^(1)(0)|.
        scale = 1.0 + abs(amplitude) * abs(op.angular(i, 1, 0.0))
        helm = max(helm, diskbasis.check_helmholtz(b, eps, points) / scale)
    _, conormal = diskbasis.boundary_amplitudes(op, modes, eps)
    return (
        variational.max_offdiag_relative(l2_gram),
        variational.max_offdiag_relative(energy_gram),
        helm,
        float(np.min(conormal)),
    )


def _run_verify_basis(cfg: ExperimentConfig) -> RunResult:
    p = cfg.params
    op = p["operator"]
    quad = variational.DiskQuadrature.build(p["n_r"], p["n_phi"])
    rng = np.random.default_rng(cfg.seed)
    xis = rng.standard_normal((100, 2))
    defect = diskbasis.symbol_defect(op, xis)
    points = _ring_points(0.5, 12)

    rows = []
    ok = True
    for eps in p["schedule"]:
        off_l2, off_en, helm, coupling = _basis_checks(op, p["i_max"], eps, quad, points)
        rows.append((eps, off_l2, off_en, helm, coupling, defect))
        ok = ok and (
            off_l2 <= _VERIFY_TOLS["max_l2_offdiag"]
            and off_en <= _VERIFY_TOLS["max_energy_offdiag"]
            and helm <= _VERIFY_TOLS["max_helmholtz_residual"]
            and coupling > _VERIFY_TOLS["min_normal_coupling"]
            and defect <= _VERIFY_TOLS["symbol_defect"]
        )
    status = "pass" if ok else "FAIL"
    summary = f"experiment=verify_basis rows={len(rows)} status={status}"
    return RunResult(rows, None, summary, ok)


_RUNNERS = {
    "ode1d": _run_ode1d,
    "matrix_path": _run_matrix_path,
    "disk_cauchy": _run_disk_cauchy,
    "disk_mixed": _run_disk_mixed,
    "verify_basis": _run_verify_basis,
}


def run(config: ExperimentConfig, output_override=None) -> int:
    """Execute one experiment: write its CSV and print a summary; non-finite output writes none."""
    result = _RUNNERS[config.experiment](config)
    if not np.all(np.isfinite(np.asarray(result.rows, dtype=float))):
        raise NumericError(f"{config.experiment} produced a non-finite value; no CSV written")
    path = output_override or config.output_path
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(_HEADERS[config.experiment] + "\n")
            for row in result.rows:
                handle.write(_fmt(row) + "\n")
            if result.trailer:
                handle.write(result.trailer + "\n")
    except OSError as exc:
        raise InputError(f"cannot write output file {path!r}: {exc}") from exc
    print(result.summary)
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# Built-in property suite (--verify)
# ---------------------------------------------------------------------------


def _verify_suite() -> int:
    """Structural checks across all modules; nonzero exit on any violation."""
    failures = 0

    def check(name, passed, detail=""):
        nonlocal failures
        print(f"{'PASS' if passed else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
        failures += 0 if passed else 1

    quad = variational.DiskQuadrature.build(48, 192)
    area = float(np.real(quad.integrate(np.ones_like(quad.x))))
    check("quadrature disk area", abs(area - math.pi) <= 1e-12 * math.pi, f"area={area!r}")
    moment = float(np.real(quad.integrate(quad.x**2)))
    check("quadrature r^2 cos^2 moment", abs(moment - math.pi / 4) <= 1e-10, f"val={moment!r}")

    x = 2.0
    for nu in (1, 3, 7):
        lhs = bessel_i(nu - 1, x) - bessel_i(nu + 1, x)
        rhs = (2.0 * nu / x) * bessel_i(nu, x)
        check(f"bessel recurrence nu={nu}", abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs)))

    rng = np.random.default_rng(0)
    for op in DiracOperatorKind:
        defect = diskbasis.symbol_defect(op, rng.standard_normal((100, 2)))
        check(f"symbol identity {op.value}", defect <= 1e-14, f"defect={defect:.2e}")

    points = _ring_points(0.45, 10)
    for op in DiracOperatorKind:
        for eps in (0.25, 1.0, 4.0):
            off_l2, off_en, worst, coupling = _basis_checks(op, 6, eps, quad, points)
            off = max(off_l2, off_en)
            check(f"basis orthogonality {op.value} eps={eps}", off <= 1e-8, f"offdiag={off:.2e}")
            check(f"helmholtz residual {op.value} eps={eps}", worst <= 1e-5, f"res={worst:.2e}")
            check(f"normal coupling positive {op.value} eps={eps}", coupling > 0.0)

    phis = np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False)
    for i in range(1, 9):
        mono = variational.Field(
            lambda x, y, i=i: np.real((x + 1j * y) ** i),
            lambda x, y, i=i: (
                np.real(i * (x + 1j * y) ** (i - 1)),
                -np.imag(i * (x + 1j * y) ** (i - 1)),
            ),
        )
        n_vals = variational.conormal_values(DiracOperatorKind.GRADIENT, mono, phis)
        expect = i * np.cos(i * phis)
        check(f"eigenvalue identity i={i}", float(np.max(np.abs(n_vals - expect))) <= 1e-9)

    problem = ode1d.Ode1dProblem(0.0, 1.0, 0.3, np.cos, 0.5)
    val_a, _ = ode1d.perturbed_solution(problem, 0.0)
    _, der_b = ode1d.perturbed_solution(problem, 1.0)
    check("ode1d left datum", abs(val_a - 0.3) <= 1e-12, f"u(a)={val_a!r}")
    check("ode1d right flux", abs(der_b - math.cos(1.0)) <= 1e-8, f"u'(b)-f(b)={der_b - math.cos(1.0):.2e}")

    arc = variational.ArcSpec(0.0, math.pi)
    seeds = variational.build_seed_system(arc, DiracOperatorKind.GRADIENT, 8, quad)
    d_star = rng.standard_normal(8)
    u_star, ux_star, uy_star = seeds.at_nodes(d_star)
    # eps 1e-8 checks the spectral solve at the small end of long schedules.
    epsilons = (0.3, 1e-8)
    coeffs = variational.solve_perturbed_galerkin(
        seeds, epsilons, f=(ux_star, uy_star), h=u_star
    )
    for eps, d in zip(epsilons, coeffs.T):
        gram = seeds.energy_gram + eps * seeds.l2_gram
        diff = d - d_star
        gal_err = math.sqrt(max(float(np.real(np.conj(diff) @ (gram.T @ diff))), 0.0))
        check(
            f"galerkin reproduces span member eps={eps:g}", gal_err <= 1e-9, f"err={gal_err:.2e}"
        )

    src = BasisFunction(RadialFactor(2, 1.0), 1, DiracOperatorKind.GRADIENT)
    series = variational.solve_mixed_boundary_series(
        DiracOperatorKind.GRADIENT,
        arc,
        lambda phi: src.value_polar(1.0, phi),
        lambda phi: src.normal_trace_values(phi),
        1.0,
        n_modes=6,
    )
    raw = np.array(series.raw_coeffs, dtype=float, copy=True)
    raw[series.modes.index((2, 1))] -= 1.0
    series_err = float(np.max(np.abs(raw)))
    check("series round trip", series_err <= 1e-8, f"err={series_err:.2e}")

    print(f"verify: {failures} failure(s)")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="epsreg",
        description="Epsilon-regularization experiments for ill-posed Cauchy problems.",
    )
    parser.add_argument("command", nargs="?", choices=["run"], help="run <config>")
    parser.add_argument("config", nargs="?", help="path to the experiment config")
    parser.add_argument("--output", help="override the configured output path")
    parser.add_argument(
        "--verify", action="store_true", help="run the built-in property suite and exit"
    )
    args = parser.parse_args(argv)

    try:
        if args.verify:
            return _verify_suite()
        if args.command != "run" or not args.config:
            parser.print_usage(sys.stderr)
            return 2
        config = parse_config(args.config)
        return run(config, output_override=args.output)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
