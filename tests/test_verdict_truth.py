"""The disk verdict on data whose truth is known.

For the Cauchy-Riemann operator, u0 = 1 / (e^{i phi} - z0) on the upper
half circle with f = 0 is the trace of a solution exactly when the pole z0
lies outside the closed unit disk.  Each row asserts its truth: Bounded
when the problem is solvable, anything but Bounded when it is not.

The seed family reads Bounded on every row today.  Its gains are
p / (lam + eps), so once eps falls below the smallest seed eigenvalue
lam[0] the family has converged to the Galerkin solution whatever the
data, and the final decade of these schedules lies below lam[0] at every
trial size (ROADMAP item 2, finding 4).  The rows that read wrong for that
reason are strict xfails: a verdict rule that gets them right must remove
the marker, and a right row that goes wrong fails.
"""

import functools
import math

import numpy as np
import pytest

from epsreg import cli
from epsreg.core import Verdict
from epsreg.diskbasis import DiracOperatorKind
from epsreg.variational import (
    ArcSpec,
    CauchyProblemSpec,
    DiskQuadrature,
    build_seed_system,
    cauchy_pipeline,
)

CR = DiracOperatorKind.CAUCHY_RIEMANN
UPPER = ArcSpec(0.0, math.pi)
SCHEDULE = np.logspace(-1.0, -8.0, 29)
SIZES = (28, 66, 136)
FINDING_4 = (
    "ROADMAP item 2, finding 4: the seed family is flat for eps below its "
    "smallest eigenvalue lam[0], so it reads Bounded whatever the data"
)

SOLVABLE = {"1.5 e^0.3i": 1.5 * np.exp(0.3j), "1.2 e^-0.4i": 1.2 * np.exp(-0.4j), "1.05": 1.05}
UNSOLVABLE = {
    "0.9 e^-1.5i": 0.9 * np.exp(-1.5j),
    "0.5 e^-1.5i": 0.5 * np.exp(-1.5j),
    "0.5 e^1.5i": 0.5 * np.exp(1.5j),
    "0.2": 0.2,
}


@functools.cache
def _pole_run(z0: complex, size: int):
    """cauchy_pipeline on f = 0, u0 = 1 / (e^{i phi} - z0) on the upper half circle."""
    spec = CauchyProblemSpec(
        operator=CR,
        arc=UPPER,
        f=None,
        u0=lambda phi: 1.0 / (np.exp(1j * phi) - z0),
        schedule=list(SCHEDULE),
        trial_size=size,
    )
    return cauchy_pipeline(spec)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("z0", SOLVABLE.values(), ids=SOLVABLE.keys())
def test_solvable_pole_reads_bounded(z0, size):
    assert _pole_run(z0, size).verdict is Verdict.BOUNDED


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=FINDING_4)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("z0", UNSOLVABLE.values(), ids=UNSOLVABLE.keys())
def test_unsolvable_pole_reads_not_bounded(z0, size):
    assert _pole_run(z0, size).verdict is not Verdict.BOUNDED


@pytest.mark.parametrize("size", SIZES)
def test_seed_family_is_flat_below_its_smallest_eigenvalue(size):
    # Each gain moves by the factor (lam + 1e-8) / (lam + 1e-7) over the
    # final decade, so the norm moves by at most 9e-8 / lam[0] relative.
    lam0 = build_seed_system(UPPER, CR, size, DiskQuadrature.build(64, 256)).lam[0]
    last = list(SCHEDULE).index(1e-7)
    assert SCHEDULE[last + 4] == 1e-8
    for z0 in (*SOLVABLE.values(), *UNSOLVABLE.values()):
        norms = [r.l2_norm for r in _pole_run(z0, size).records]
        assert abs(norms[-1] - norms[last]) / norms[-1] <= 9e-8 / lam0, z0


def _cli_cr_verdict(tmp_path, noise_amplitude: float) -> str:
    """The verdict trailer of the CLI's CR run on the cauchy_seeds schedule."""
    cfg = tmp_path / "cr.ini"
    cfg.write_text(
        "[disk_cauchy]\noperator = cauchy_riemann\n"
        f"gamma_start = 0.0\ngamma_end = {math.pi!r}\ntrial_size = 66\n"
        f"noise_amplitude = {noise_amplitude}\nnoise_frequency = 20\n"
        "schedule = 1e-1 1e-2 1e-3 1e-4 1e-5\noutput = cr.csv\n"
    )
    out = tmp_path / "cr.csv"
    # Not an assert: a failed run must fail the xfail-marked test, not pass as xfailed.
    if cli.main(["run", str(cfg), "--output", str(out)]) != 0:
        raise RuntimeError("the CR disk_cauchy run did not exit 0")
    return out.read_text().splitlines()[-1]


def test_cli_cr_clean_reads_bounded(tmp_path, capsys):
    assert _cli_cr_verdict(tmp_path, 0.0) == "verdict=Bounded"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=FINDING_4)
def test_cli_cr_noisy_reads_not_bounded(tmp_path, capsys):
    # Non-holomorphic noise on the datum leaves the problem without a solution.
    assert _cli_cr_verdict(tmp_path, 0.1) != "verdict=Bounded"
