"""Output checks for one ``epsreg run`` call.

The expected CSV layout is the benchmark's own copy of the documented
schema, so a change to the program's output format shows up here as a
failure instead of being absorbed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

HEADERS = {
    "ode1d": "epsilon,c0_error,c1_error",
    "matrix_path": "epsilon,norm_h,norm_eps,residual",
    "disk_cauchy": "epsilon,l2_norm,residual,rel_error",
    "disk_mixed": "epsilon,trace_error_gamma,normal_error_complement,helmholtz_residual",
    "verify_basis": (
        "epsilon,max_l2_offdiag,max_energy_offdiag,max_helmholtz_residual,"
        "min_normal_coupling,symbol_defect"
    ),
}
CLASSIFYING = ("matrix_path", "disk_cauchy")
VERDICTS = ("Bounded", "Unbounded", "Inconclusive")

# disk_mixed reproduces a basis function that lies in its own mode span,
# so trace and conormal errors are quadrature and rounding error only.
MIXED_ERROR_TOL = 1e-4

OK, KNOWN, FAILED = "ok", "known", "failed"


@dataclass
class RunOutcome:
    """What one call produced, and how it compares to its built-for outcome."""

    name: str
    experiment: str
    rc: Optional[int]
    wall_s: float
    rows: int = 0
    verdict: Optional[str] = None
    error: Optional[float] = None
    sha256: Optional[str] = None
    status: str = FAILED
    problems: list = field(default_factory=list)


def parse_csv(text: str, experiment: str):
    """Split CSV text into (rows, trailer verdict, problems)."""
    problems = []
    if text.endswith("\n"):
        text = text[:-1]
    else:
        problems.append("output does not end with a newline")
    lines = text.split("\n")
    if lines[0] != HEADERS[experiment]:
        problems.append(f"header {lines[0]!r} != {HEADERS[experiment]!r}")
        return [], None, problems
    body = lines[1:]
    verdict = None
    if experiment in CLASSIFYING:
        if not body or not body[-1].startswith("verdict="):
            problems.append("missing verdict trailer")
        else:
            verdict = body.pop()[len("verdict="):]
            if verdict not in VERDICTS:
                problems.append(f"unknown verdict {verdict!r}")
    width = HEADERS[experiment].count(",") + 1
    rows = []
    for k, line in enumerate(body, start=2):
        cells = line.split(",")
        if len(cells) != width:
            problems.append(f"line {k}: {len(cells)} cells, expected {width}")
            continue
        try:
            values = [float(c) for c in cells]
        except ValueError:
            problems.append(f"line {k}: non-numeric cell")
            continue
        if not all(math.isfinite(v) for v in values):
            problems.append(f"line {k}: non-finite value")
        rows.append(values)
    return rows, verdict, problems


def summary_value(summary: str, key: str) -> Optional[float]:
    """A ``key=value`` number from the run's printed summary line."""
    for token in summary.split():
        if token.startswith(key + "="):
            try:
                return float(token[len(key) + 1:])
            except ValueError:
                return None
    return None


def primary_error(experiment: str, rows, summary: str) -> Optional[float]:
    """The workload's headline error for one run (None if it has none)."""
    if experiment == "disk_cauchy":
        return summary_value(summary, "rel_error")
    if experiment == "disk_mixed" and rows:
        return max(max(row[1], row[2]) for row in rows)
    if experiment == "ode1d" and rows:
        return rows[-1][2]
    return None


def _problems(spec, rc, rows, verdict, error, expect_rc, expect_verdict):
    problems = []
    if rc != expect_rc:
        problems.append(f"exit code {rc}, expected {expect_rc}")
    if len(rows) != len(spec.schedule):
        problems.append(f"{len(rows)} rows, expected {len(spec.schedule)}")
    elif any(row[0] != float(eps) for row, eps in zip(rows, spec.schedule)):
        problems.append("epsilon column differs from the schedule")
    if expect_verdict is not None and verdict != expect_verdict:
        problems.append(f"verdict {verdict}, expected {expect_verdict}")
    if spec.experiment == "disk_cauchy" and (error is None or not math.isfinite(error)):
        problems.append("no finite rel_error in the run summary")
    if spec.experiment == "disk_mixed" and rows and error > MIXED_ERROR_TOL:
        problems.append(f"boundary error {error:.3e} > {MIXED_ERROR_TOL:.0e}")
    if spec.experiment == "ode1d" and rows and rows[-1][2] > rows[0][2]:
        problems.append("c1_error grows as eps decreases")
    if spec.norm_bound is not None and rows:
        largest = max(row[1] for row in rows)
        if largest > spec.norm_bound * (1.0 + 1e-8):
            problems.append(f"norm_h {largest:.6g} exceeds ||u|| = {spec.norm_bound:.6g}")
    return problems


def check_run(spec, rc, csv_bytes: Optional[bytes], summary: str, wall_s: float) -> RunOutcome:
    """Compare one run against the outcome its input was built to have.

    A run whose only deviations match its recorded known failure is
    ``known``; any other deviation is ``failed``.
    """
    out = RunOutcome(spec.name, spec.experiment, rc, wall_s)
    if csv_bytes is None:
        out.problems = ["no CSV written"] + ([] if rc is not None else ["run raised"])
        return out
    out.sha256 = hashlib.sha256(csv_bytes).hexdigest()
    rows, verdict, parse_problems = parse_csv(csv_bytes.decode("utf-8", "replace"), spec.experiment)
    out.rows, out.verdict = len(rows), verdict
    out.error = primary_error(spec.experiment, rows, summary)
    if parse_problems:
        out.problems = parse_problems
        return out
    out.problems = _problems(spec, rc, rows, verdict, out.error, spec.expect_rc, spec.expect_verdict)
    if not out.problems:
        out.status = OK
        return out
    if spec.has_known_failure:
        known_rc = spec.expect_rc if spec.known_rc is None else spec.known_rc
        known_verdict = spec.known_verdict or spec.expect_verdict
        if not _problems(spec, rc, rows, verdict, out.error, known_rc, known_verdict):
            out.status = KNOWN
    return out
