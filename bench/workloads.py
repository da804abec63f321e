"""Seeded input generator for the epsreg benchmark.

Each workload is a *deck*: a fixed list of run kinds that is executed in
full, so that every timed pass sees the same mix of experiments whatever
the seed.  The seed picks the parameters of each run (Cauchy arc placement,
noise frequency, verify_basis sample seed, matrix singular vectors and
right-hand sides, ODE interval and datum) and the order of the runs in
the deck.  The program under test only ever sees the
config and matrix files written here.

Every run records the outcome its input was built to have (exit code and,
where the experiment classifies a path, the verdict).  A few inputs are
known not to reach that outcome in the current program; they carry a
``known`` outcome and a reason, so they stay in the deck and are counted
as failures in the benchmark's pass ratio rather than tuned away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

WORKLOADS = ("cauchy_seeds", "cauchy_sweep", "basis_series", "engine_1d")

# Known failures at the time the benchmark was written.  The runs stay in
# their decks; a later program that meets the built-for outcome turns them
# into passes, which raises the pass ratio.
CR_NOISE_REASON = (
    "Cauchy-Riemann data with non-holomorphic noise has no solution, so the "
    "path should be Unbounded; the fixed seed span makes it come out Bounded"
)
VERIFY_400_REASON = (
    "verify_basis at eps 4e2 on the reduced 16x64 quadrature exceeds the "
    "1e-5 Helmholtz residual tolerance and exits 1"
)

# Jitter of the seeded Cauchy arcs: start in radians, length as a share.
# rel_error depends strongly on where the arc sits (0.01 to 0.70 over
# random arcs at trial_size 66), and err_max is compared across seeds, so
# arcs move only slightly around a fixed base arc.
ARC_START_JITTER = 0.01
ARC_LENGTH_JITTER = 0.005


@dataclass
class RunSpec:
    """One ``epsreg run`` call and the outcome its input was built to have."""

    name: str
    experiment: str
    params: dict
    schedule: list
    expect_rc: int = 0
    expect_verdict: Optional[str] = None
    known_rc: Optional[int] = None
    known_verdict: Optional[str] = None
    known_reason: Optional[str] = None
    # Extra property checks: a bound on the largest matrix_path norm_h.
    norm_bound: Optional[float] = None
    config_path: Optional[Path] = None

    @property
    def has_known_failure(self) -> bool:
        return self.known_reason is not None

    def config_text(self) -> str:
        lines = [f"[{self.experiment}]"]
        for key, value in self.params.items():
            lines.append(f"{key} = {value}")
        lines.append("schedule = " + " ".join(repr(float(e)) for e in self.schedule))
        lines.append(f"output = {self.name}.csv")
        return "\n".join(lines) + "\n"


@dataclass
class Deck:
    runs: list
    warmup: list
    matrices: list = field(default_factory=list)


def _arc(rng, base_start: float, base_length: float):
    start = (base_start + rng.uniform(-ARC_START_JITTER, ARC_START_JITTER)) % (2.0 * math.pi)
    length = base_length * (1.0 + rng.uniform(-ARC_LENGTH_JITTER, ARC_LENGTH_JITTER))
    return {"gamma_start": repr(start), "gamma_end": repr(start + length)}


def _cauchy_deck(rng, schedule):
    """One run per (operator, noise) pair, in seeded order, each on its own arc."""
    combos = [
        ("gradient", False),
        ("gradient", True),
        ("cauchy_riemann", False),
        ("cauchy_riemann", True),
    ]
    runs = []
    for slot in rng.permutation(len(combos)):
        operator, noisy = combos[slot]
        params = {"operator": operator, **_arc(rng, 0.0, math.pi), "trial_size": 66}
        params["noise_amplitude"] = 0.1 if noisy else 0.0
        params["noise_frequency"] = int(rng.integers(18, 23))
        tag = ("grad" if operator == "gradient" else "cr") + ("_noise" if noisy else "_clean")
        spec = RunSpec(tag, "disk_cauchy", params, list(schedule), expect_verdict="Bounded")
        if operator == "cauchy_riemann" and noisy:
            spec.expect_verdict = "Unbounded"
            spec.known_verdict = "Bounded"
            spec.known_reason = CR_NOISE_REASON
        runs.append(spec)
    warm_params = dict(runs[0].params, operator="gradient", noise_amplitude=0.0)
    warmup = [RunSpec("warmup_disk_cauchy", "disk_cauchy", warm_params, [1e-1, 1e-2])]
    return runs, warmup


def _basis_deck(rng):
    """disk_mixed series runs interleaved with verify_basis runs.

    Schedules are sized so that most runs take a similar time and the
    median call lands among them rather than between two clusters.  The
    disk_mixed arc and source mode are fixed: the boundary error at eps 4e2
    (the workload's err_max) is rounding-level noise from the Miller branch
    that changes by up to 4x under an arc shift of 0.01 rad, so the seed
    moves only the verify_basis sample seeds and the run order.
    """

    def mixed(name, operator, n_modes, source, schedule):
        params = {
            "operator": operator,
            "gamma_start": repr(0.5 * math.pi),
            "gamma_end": repr(1.5 * math.pi),
            "n_modes": n_modes,
            "source_index": source[0],
            "source_branch": source[1],
        }
        return RunSpec(name, "disk_mixed", params, schedule)

    def verify(name, operator, schedule, **quad):
        params = {"operator": operator, **quad, "seed": int(rng.integers(0, 2**31))}
        return RunSpec(name, "verify_basis", params, schedule)

    verify_schedule = [100.0, 30.0, 10.0, 3.0, 1.0, 0.3, 0.1, 0.03, 0.01]
    mixed_runs = [
        mixed("mixed_grad_16", "gradient", 16, (2, 1), [400.0, 40.0, 4.0, 0.4]),
        mixed("mixed_cr_40", "cauchy_riemann", 40, (3, 2), [400.0, 10.0, 1.0]),
        mixed("mixed_grad_24", "gradient", 24, (1, 2), [400.0, 40.0]),
    ]
    verify_runs = [
        verify("verify_grad", "gradient", verify_schedule),
        verify("verify_cr", "cauchy_riemann", verify_schedule),
        verify("verify_grad_400", "gradient", [400.0], n_r=16, n_phi=64),
    ]
    known = verify_runs[-1]
    known.known_rc = 1
    known.known_reason = VERIFY_400_REASON
    runs = []
    for m, v in zip(rng.permutation(3), rng.permutation(3)):
        runs += [mixed_runs[m], verify_runs[v]]
    warmup = [
        mixed("warmup_disk_mixed", "gradient", 16, (2, 1), [400.0]),
        verify("warmup_verify_basis", "gradient", [1.0], n_r=16, n_phi=64),
    ]
    return runs, warmup


def _format_vector(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _write_matrix(path: Path, matrix: np.ndarray) -> None:
    rows, cols = matrix.shape
    body = "\n".join(" ".join(map(repr, row)) for row in matrix.tolist())
    path.write_text(f"{rows} {cols}\n{body}\n", encoding="utf-8")


def _engine_deck(rng, workdir: Path):
    """matrix_path runs on one 800x600 text matrix, interleaved with ode1d runs.

    T = U diag(s) V^T with s log-spaced from 1 to 1e-5.  ``f = T u`` is
    solvable (Bounded; every ||u_eps|| stays below ||u||), while adding
    components along left singular vectors with s < sqrt(eps_min) = 1e-3
    makes f unsolvable in the limit (Unbounded).
    """
    rows, cols = 800, 600
    u_mat, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    v_mat, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    sigma = np.logspace(0.0, -5.0, cols)
    matrix = (u_mat * sigma) @ v_mat.T
    matrix_path = workdir / "operator.txt"
    _write_matrix(matrix_path, matrix)

    small = sigma < 1e-3
    schedule = list(np.logspace(-1.0, -6.0, 20))

    def path_run(name, f, verdict, norm_bound=None):
        params = {"matrix": str(matrix_path), "f": _format_vector(f)}
        return RunSpec(
            name, "matrix_path", params, schedule, expect_verdict=verdict, norm_bound=norm_bound
        )

    def ode_run(name, f):
        # b - a is about 1.5, so eps = 1600 gives k(b - a) = 60, above the
        # scaled-kernel switch at 30; the other entries stay below it.
        a = rng.uniform(-0.01, 0.01)
        params = {
            "a": repr(a),
            "b": repr(a + 1.5 * (1.0 + rng.uniform(-0.005, 0.005))),
            "u0": repr(rng.uniform(0.45, 0.55)),
            "f": f,
        }
        return RunSpec(name, "ode1d", params, [1600.0, 100.0, 1.0, 1e-2, 1e-4])

    def path_pair(tag):
        u_true = v_mat @ (rng.standard_normal(cols) / math.sqrt(cols))
        f_solvable = matrix @ u_true
        f_unsolvable = f_solvable + u_mat[:, small] @ (1e-2 * rng.standard_normal(int(small.sum())))
        bound = float(np.linalg.norm(u_true))
        return (
            path_run(f"path_solvable_{tag}", f_solvable, "Bounded", norm_bound=bound),
            path_run(f"path_unsolvable_{tag}", f_unsolvable, "Unbounded"),
        )

    # Four matrix_path runs to two ode1d runs: the median call is a
    # matrix_path call rather than a midpoint between the two kinds.
    (solvable_a, unsolvable_a), (solvable_b, unsolvable_b) = path_pair("a"), path_pair("b")
    odes = [ode_run("ode_exp", "exp"), ode_run("ode_cos", "cos")]
    first, second = (odes[k] for k in rng.permutation(2))
    runs = [solvable_a, first, unsolvable_a, solvable_b, second, unsolvable_b]
    warmup = [
        RunSpec("warmup_matrix_path", "matrix_path", dict(solvable_a.params), [1e-1, 1e-2]),
        RunSpec("warmup_ode1d", "ode1d", dict(odes[0].params), [1e-2]),
    ]
    return runs, warmup, [matrix_path]


def build_deck(workload: str, seed: int, workdir: Path) -> Deck:
    """Generate the workload's inputs under ``workdir`` and return its deck."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed & (2**64 - 1))
    matrices = []
    if workload == "cauchy_seeds":
        runs, warmup = _cauchy_deck(rng, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    elif workload == "cauchy_sweep":
        runs, warmup = _cauchy_deck(rng, list(np.logspace(-1.0, -8.0, 60)))
    elif workload == "basis_series":
        runs, warmup = _basis_deck(rng)
    else:
        runs, warmup, matrices = _engine_deck(rng, workdir)
    for spec in warmup + runs:
        spec.config_path = workdir / f"{spec.name}.ini"
        spec.config_path.write_text(spec.config_text(), encoding="utf-8")
    return Deck(runs, warmup, matrices)
