"""Experiment runner: eps sweeps, disk reconstructions, 1D tables, checks.

Configs are single-section key = value files; the section name selects the
experiment, one record of ``EXPERIMENTS`` (CSV header, key schema, runner,
parse-time check).  Output is CSV with 17-significant-digit values, one row per
schedule entry, plus a trailing ``verdict=...`` line for experiments that
classify a regularization path.  Exit codes: 0 success, 2 validation or
I/O error, 3 numeric failure (for verify-style runs also: nonzero when a
property check fails).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import core, diskbasis, ode1d, variational
from .bessel import bessel_i, check_disk_epsilon, check_order
from .diskbasis import DiracOperatorKind
from .errors import InputError, NumericError

_FUNCTIONS = {
    "cos": np.cos,
    "sin": np.sin,
    "exp": np.exp,
    "one": lambda x: np.ones_like(np.asarray(x, dtype=float)),
    "zero": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
}


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict
    output_path: str
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


def _floats(value: str) -> list:
    items = [float(tok) for tok in value.split()]
    if not items:
        raise ValueError("empty list")
    return items


def _choice(mapping: dict):
    """Parser of a word among ``mapping``'s keys, giving that key's value."""

    def parse(value: str):
        if value not in mapping:
            raise ValueError(f"expected one of {sorted(mapping)}")
        return mapping[value]

    return parse


def _order(value: str) -> int:
    """An integer Bessel order, held to ``bessel.check_order``."""
    return check_order(int(value))


def _seed(value: str) -> int:
    """A nonnegative integer: a seed of ``np.random.default_rng``."""
    number = int(value)
    if number < 0:
        raise ValueError(f"must be nonnegative, got {number}")
    return number


class Key(NamedTuple):
    """A config key: parser of its text (ValueError on bad text, InputError
    included), whether it is required and its default (None: absent)."""

    parse: Callable
    required: bool = False
    default: object = None


_REQUIRED_FLOAT = Key(float, True)
_OPERATOR = Key(
    _choice({op.value: op for op in DiracOperatorKind}), False, DiracOperatorKind.GRADIENT
)
_ARC = dict(operator=_OPERATOR, gamma_start=_REQUIRED_FLOAT, gamma_end=_REQUIRED_FLOAT)
# The library owns the ranges: ``_order`` and each experiment's check apply
# their owners (check_quadrature_size, ArcSpec, ...; ``_keyed_check``).
_N_R = Key(int, False, 64)
_N_PHI = Key(int, False, 256)


def _schema(**keys) -> dict:
    """An experiment's keys, then the ``schedule`` and ``output`` that every one takes."""
    return {**keys, "schedule": Key(_floats, True), "output": Key(str, True)}


def _keyed_check(source, lines, build, *args):
    """Apply the rules of the library object ``build(*args)``; a refusal cites its key's line."""
    try:
        build(*args)
    except InputError as exc:
        raise InputError(f"{source}:{lines.get(exc.key, 0)}: {exc}", key=exc.key) from exc


def parse_config(path: str) -> ExperimentConfig:
    """Strict parse of an experiment config; unknown keys are rejected.

    The first failure is reported, in this order: parsers (the order rule
    included), required keys, schedule, arc, finiteness, the experiment's
    check.
    """
    sections = _parse_sections(core.read_text(path, "config file"), path)
    if len(sections) != 1:
        raise InputError(
            f"{path}: expected exactly one experiment section, found {sorted(sections)}"
        )
    (name, raw), = sections.items()
    if name not in EXPERIMENTS:
        raise InputError(
            f"{path}: unknown experiment [{name}]; expected one of {tuple(EXPERIMENTS)}"
        )
    experiment = EXPERIMENTS[name]
    schema = experiment.schema
    params, lines = {}, {}
    for key, (value, lineno) in raw.items():
        if key not in schema:
            raise InputError(f"{path}:{lineno}: unknown key {key!r} for experiment '{name}'")
        try:
            params[key] = schema[key].parse(value)
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
        lines[key] = lineno
    for key, spec in schema.items():
        if key not in params:
            if spec.required:
                raise InputError(f"{path}: missing required key {key!r} for '{name}'")
            if spec.default is not None:
                params[key] = spec.default
    try:
        core.validate_schedule(params["schedule"])
    except InputError as exc:
        raise InputError(f"{path}:{lines['schedule']}: bad 'schedule': {exc}") from exc
    if "gamma_start" in params:
        _keyed_check(path, lines, variational.ArcSpec, params["gamma_start"], params["gamma_end"])
    for key, value in params.items():
        if schema[key].parse in (float, _floats) and not np.all(np.isfinite(value)):
            raise InputError(f"{path}:{lines[key]}: bad {key!r}: values must be finite")
    if experiment.check:
        _keyed_check(path, lines, experiment.check, params)
    output = params.pop("output")
    return ExperimentConfig(
        experiment=name, params=params, output_path=output, lines=lines, source=path
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


def _ode1d_problem(p) -> ode1d.Ode1dProblem:
    """The ode1d problem of parsed params; parse_config builds it for its rules."""
    return ode1d.Ode1dProblem(p["a"], p["b"], p["u0"], _FUNCTIONS[p["f"]])


def _run_ode1d(cfg: ExperimentConfig) -> RunResult:
    p = cfg.params
    rows = [
        (row.epsilon, row.c0_error, row.c1_error)
        for row in ode1d.convergence_report(_ode1d_problem(p), p["schedule"])
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
    try:
        path = core.run_path(operator, p["f"], h, p["schedule"])
    except InputError as exc:  # parse_config left only the lengths of f and h unchecked
        raise InputError(f"{cfg.source}:{cfg.lines[exc.key]}: bad {exc.key!r}: {exc}") from exc
    rows = [(e.epsilon, e.norm_h, e.norm_eps, e.residual) for e in path.entries]
    verdict = path.verdict.value
    return RunResult(
        rows, f"verdict={verdict}", f"experiment=matrix_path rows={len(rows)} verdict={verdict}"
    )


def _manufactured_cubic():
    """u* = Re z^3 = x^3 - 3 x y^2 with its exact gradient."""
    def value(x, y):
        # x^3 as |x|^3 with the sign of x: numpy's pow takes a scalar path on negative bases.
        return np.copysign(np.abs(x) ** 3, x) - 3.0 * x * y**2

    def gradient(x, y):
        return 3.0 * x**2 - 3.0 * y**2, -6.0 * x * y

    return variational.Field(value, gradient)


def _cauchy_spec(p, f=None, u0=None, reference=None) -> variational.CauchyProblemSpec:
    """The disk_cauchy problem of parsed params; parse_config builds it with no data."""
    arc = variational.ArcSpec(p["gamma_start"], p["gamma_end"])
    sizes = {key: p[key] for key in ("trial_size", "n_r", "n_phi")}
    return variational.CauchyProblemSpec(
        p["operator"], arc, f, u0, p["schedule"], **sizes, reference=reference
    )


def _run_disk_cauchy(cfg: ExperimentConfig) -> RunResult:
    p = cfg.params
    u_star = _manufactured_cubic()
    f_closure = diskbasis.apply_operator(p["operator"], u_star)
    amp, freq = p["noise_amplitude"], p["noise_frequency"]

    def u0(phi):
        base = u_star.value_xy(np.cos(phi), np.sin(phi))
        if amp:
            base = base + amp * np.cos(freq * np.asarray(phi))
        return base

    result = variational.cauchy_pipeline(_cauchy_spec(p, f_closure, u0, u_star))
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


def _mode_boundary_data(op, mode, eps):
    """(u0, u1): the trace and n(A b) on the circle of the basis mode ``(i, j)`` at eps."""
    (trace,), (conormal,) = diskbasis.boundary_amplitudes(op, [mode], eps)
    angular = lambda phi: op.angular_table([mode], phi)[..., 0]
    return (lambda phi: trace * angular(phi)), (lambda phi: conormal * angular(phi))


def _run_disk_mixed(cfg: ExperimentConfig) -> RunResult:
    p = cfg.params
    op = p["operator"]
    arc = variational.ArcSpec(p["gamma_start"], p["gamma_end"])
    points = _ring_points(0.5, 16)
    rows = []
    for eps in p["schedule"]:
        u0, u1 = _mode_boundary_data(op, (p["source_index"], p["source_branch"]), eps)
        sol = variational.solve_mixed_boundary_series(
            op, arc, u0, u1, eps, n_modes=p["n_modes"], n_phi=p["n_phi"]
        )
        helm = float(diskbasis.check_helmholtz(sol.field, eps, points))
        rows.append((eps, sol.trace_error_gamma, sol.normal_error_complement, helm))
    return RunResult(rows, None, f"experiment=disk_mixed rows={len(rows)}")


# The verify_basis columns after epsilon, in CSV order, with their bounds,
# shared with --verify: a ``min_`` column must lie above its bound, every
# other one at or below it.
_VERIFY_TOLS = {
    "max_l2_offdiag": 1e-8,
    "max_energy_offdiag": 1e-8,
    "max_helmholtz_residual": 1e-5,
    "min_normal_coupling": 0.0,
    "symbol_defect": 1e-14,
}


def _passes(value, bound, above=False) -> bool:
    """value > bound when ``above``, else value <= bound; NaN never passes."""
    return value > bound if above else value <= bound


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
    # Both branches of H_i share the amplitude |H_i^(1)(0)|.
    scale = 1.0 + np.abs(ring) * np.abs(op.angular_table([(i, 1) for i in orders], 0.0))
    values = lambda x, y: diskbasis.basis_table(op, modes, eps, x, y)
    helm = diskbasis.check_helmholtz(values, eps, points) / scale
    _, conormal = diskbasis.boundary_amplitudes(op, modes, eps)
    return (
        variational.max_offdiag_relative(l2_gram),
        variational.max_offdiag_relative(energy_gram),
        float(np.max(helm)),
        float(np.min(conormal)),
    )


def _run_verify_basis(cfg: ExperimentConfig) -> RunResult:
    p = cfg.params
    op = p["operator"]
    quad = variational.DiskQuadrature.build(p["n_r"], p["n_phi"])
    rng = np.random.default_rng(p["seed"])
    xis = rng.standard_normal((100, 2))
    defect = diskbasis.symbol_defect(op, xis)
    points = _ring_points(0.5, 12)

    rows = []
    ok = True
    for eps in p["schedule"]:
        values = (*_basis_checks(op, p["i_max"], eps, quad, points), defect)
        rows.append((eps, *values))
        ok = ok and all(
            _passes(v, bound, c.startswith("min_"))
            for (c, bound), v in zip(_VERIFY_TOLS.items(), values)
        )
    status = "pass" if ok else "FAIL"
    summary = f"experiment=verify_basis rows={len(rows)} status={status}"
    return RunResult(rows, None, summary, ok)


def _disk_check(params):
    """The quadrature sizes, then the Bessel range of the schedule: disk_mixed
    and verify_basis evaluate I_i(sqrt(eps) r), r <= 1."""
    variational.check_quadrature_size(params.get("n_r"), params["n_phi"])
    try:
        check_disk_epsilon(max(params["schedule"]))
    except InputError as exc:
        raise InputError(f"bad 'schedule': {exc}", key="schedule") from exc


def _disk_mixed_check(params):
    """``_disk_check``, then the mode rule for the source mode."""
    _disk_check(params)
    try:
        diskbasis.check_mode(params["source_index"], params["source_branch"])
    except InputError as exc:
        raise InputError(f"bad 'source_branch': {exc}", key="source_branch") from exc


class Experiment(NamedTuple):
    """CSV header, config schema (key -> ``Key``), runner and an optional
    parse-time ``check(params)`` whose InputError names its key."""

    header: str
    schema: dict
    runner: Callable
    check: Optional[Callable] = None


EXPERIMENTS = {
    "ode1d": Experiment(
        "epsilon,c0_error,c1_error",
        _schema(a=_REQUIRED_FLOAT, b=_REQUIRED_FLOAT, u0=Key(float, False, 0.0),
                f=Key(_choice(dict(zip(_FUNCTIONS, _FUNCTIONS))), True)),
        _run_ode1d,
        _ode1d_problem,
    ),
    "matrix_path": Experiment(
        "epsilon,norm_h,norm_eps,residual",
        _schema(matrix=Key(str, True), f=Key(_floats, True), h=Key(_floats)),
        _run_matrix_path,
    ),
    "disk_cauchy": Experiment(
        "epsilon,l2_norm,residual,rel_error",
        _schema(**_ARC, trial_size=Key(int, False, 24), n_r=_N_R, n_phi=_N_PHI,
                noise_amplitude=Key(float, False, 0.0), noise_frequency=Key(int, False, 20)),
        _run_disk_cauchy,
        _cauchy_spec,
    ),
    "disk_mixed": Experiment(
        "epsilon,trace_error_gamma,normal_error_complement,helmholtz_residual",
        _schema(**_ARC, n_modes=Key(_order, False, 16), n_phi=_N_PHI,
                source_index=Key(_order, False, 2), source_branch=Key(int, False, 1)),
        _run_disk_mixed,
        _disk_mixed_check,
    ),
    "verify_basis": Experiment(
        ",".join(["epsilon", *_VERIFY_TOLS]),
        _schema(operator=_OPERATOR, i_max=Key(_order, False, 8), n_r=_N_R,
                n_phi=_N_PHI, seed=Key(_seed, False, 0)),
        _run_verify_basis,
        _disk_check,
    ),
}


def run(config: ExperimentConfig, output_override=None) -> int:
    """Execute one experiment: write its CSV and print a summary; non-finite output writes none."""
    experiment = EXPERIMENTS[config.experiment]
    result = experiment.runner(config)
    if not np.all(np.isfinite(np.asarray(result.rows, dtype=float))):
        raise NumericError(f"{config.experiment} produced a non-finite value; no CSV written")
    path = output_override or config.output_path
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(experiment.header + "\n")
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


def verify_checks():
    """The built-in property checks, one at a time: (name, value, bound, above).

    A check passes when ``_passes(value, bound, above)``.  The disk-basis
    checks read their bounds from ``_VERIFY_TOLS`` as ``verify_basis`` does.
    Nothing is computed before the first item is asked for.
    """
    tols = _VERIFY_TOLS
    quad = variational.DiskQuadrature.build(48, 192)
    area = float(np.real(quad.integrate(np.ones_like(quad.x))))
    yield "quadrature disk area", abs(area - math.pi), 1e-12 * math.pi, False
    moment = float(np.real(quad.integrate(quad.x**2)))
    yield "quadrature r^2 cos^2 moment", abs(moment - math.pi / 4), 1e-10, False

    x = 2.0
    for nu in (1, 3, 7):
        lhs = bessel_i(nu - 1, x) - bessel_i(nu + 1, x)
        rhs = (2.0 * nu / x) * bessel_i(nu, x)
        yield f"bessel recurrence nu={nu}", abs(lhs - rhs), 1e-10 * max(1.0, abs(rhs)), False

    rng = np.random.default_rng(0)
    for op in DiracOperatorKind:
        defect = diskbasis.symbol_defect(op, rng.standard_normal((100, 2)))
        yield f"symbol identity {op.value}", defect, tols["symbol_defect"], False

    points = _ring_points(0.45, 10)
    off_bound = min(tols["max_l2_offdiag"], tols["max_energy_offdiag"])
    for op in DiracOperatorKind:
        for eps in (0.25, 1.0, 4.0):
            off_l2, off_en, worst, coupling = _basis_checks(op, 6, eps, quad, points)
            at = f"{op.value} eps={eps}"
            yield f"basis orthogonality {at}", max(off_l2, off_en), off_bound, False
            yield f"helmholtz residual {at}", worst, tols["max_helmholtz_residual"], False
            yield f"normal coupling positive {at}", coupling, tols["min_normal_coupling"], True

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
        yield f"eigenvalue identity i={i}", float(np.max(np.abs(n_vals - expect))), 1e-9, False

    problem = ode1d.Ode1dProblem(0.0, 1.0, 0.3, np.cos)
    val_a, _ = ode1d.perturbed_solution(problem, 0.0, 0.5)
    _, der_b = ode1d.perturbed_solution(problem, 1.0, 0.5)
    yield "ode1d left datum", abs(val_a - 0.3), 1e-12, False
    yield "ode1d right flux", abs(der_b - math.cos(1.0)), 1e-8, False

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
        yield f"galerkin reproduces span member eps={eps:g}", gal_err, 1e-9, False

    u0, u1 = _mode_boundary_data(DiracOperatorKind.GRADIENT, (2, 1), 1.0)
    series = variational.solve_mixed_boundary_series(
        DiracOperatorKind.GRADIENT, arc, u0, u1, 1.0, n_modes=6
    )
    raw = np.array(series.raw_coeffs, dtype=float, copy=True)
    raw[series.modes.index((2, 1))] -= 1.0
    yield "series round trip", float(np.max(np.abs(raw))), 1e-8, False


def _verify_suite() -> int:
    """Print PASS|FAIL name (value) per check of ``verify_checks``; nonzero exit on any FAIL."""
    failures = 0
    for name, value, bound, above in verify_checks():
        passed = _passes(value, bound, above)
        failures += not passed
        print(f"{'PASS' if passed else 'FAIL'} {name} ({value:.2e})")
    print(f"verify: {failures} failure(s)")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.verify:
            return _verify_suite()
        if args.command != "run" or not args.config:
            _parser().print_usage(sys.stderr)
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
