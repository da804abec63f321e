"""epsreg benchmark: seeded CLI workloads, end-to-end metrics, per-layer spans.

Usage (from the repository root)::

    python3 bench/run.py --workload cauchy_seeds --seed 1 --seconds 20 --trace 0

One process is one closed-loop client: it calls
``epsreg.cli.main(["run", <config>, "--output", <csv>])`` in-process, one
config after the next, for the configs that ``workloads.py`` generated from
the seed.  A workload is a deck of runs that is always executed whole;
after a warm-up, whole decks repeat while more than half a deck's time
remains of ``--seconds``.  Every run's exit code, CSV and verdict are
checked against the outcome its input was built to have.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes one
untraced and one traced pass over the deck and reports per-layer metrics
from spans recorded around the package's public functions (see
``tracer.py``).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record (environment, every run, CSV
hashes) is written to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE_HASHES = BENCH_DIR / "reference_hashes.json"
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402

END_TO_END = (
    ("eps_per_s", "1/s"),
    ("run_s.p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("err_max", "1"),
    ("pass_ratio", "1"),
)

_LAYER_TIMES = (
    ("cli.parse_config", ("s",)),
    ("cli.run", ("self_s",)),
    ("core.load_matrix", ("s",)),
    ("core.solve_perturbed", ("calls", "s")),
    ("ode1d.convergence_report", ("self_s",)),
    ("ode1d.exact_solution", ("calls", "s")),
    ("ode1d.perturbed_solution", ("calls", "s")),
    ("bessel.bessel_i", ("calls", "s")),
    ("bessel.bessel_i_prime", ("calls", "s")),
    ("diskbasis.basis_eval", ("self_s",)),
    ("diskbasis.check_helmholtz", ("s",)),
    ("diskbasis.nonvanishing_check", ("calls", "s")),
    ("variational.build_seed_system", ("calls", "self_s")),
    ("variational.trial_space_for_epsilon", ("calls", "s")),
    ("variational.solve_perturbed_galerkin", ("calls", "s")),
    ("variational.lift", ("s",)),
    ("variational.quadrature", ("s",)),
    ("variational.l_curve_corner", ("s",)),
    ("variational.cauchy_pipeline", ("self_s",)),
    ("variational.basis_grams", ("self_s",)),
    ("variational.solve_mixed_boundary_series", ("calls", "self_s")),
)
_COUNTS = ("bessel.points", "bessel.miller_points", "variational.seeds.count")
_RATIOS = ("variational.trial_space", "variational.solve_mixed_boundary_series")
_MODULES = ("cli", "core", "ode1d", "bessel", "diskbasis", "variational")
_ACCOUNTING = (
    ("trace.wall_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.eps_per_s", "1/s", "higher"),
    ("trace.untraced_eps_per_s", "1/s", "higher"),
    ("trace.eps_per_s_delta", "1/s", "higher"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span, stats in _LAYER_TIMES:
        for stat in stats:
            out.append((f"{span}.{stat}", "count" if stat == "calls" else "s", "lower"))
    out += [(name, "count", "lower") for name in _COUNTS]
    out += [(f"{name}.kept_ratio", "1", "higher") for name in _RATIOS]
    out += [(f"{module}.errors", "count", "lower") for module in _MODULES]
    out += list(_ACCOUNTING)
    return out


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for lib_path in sorted(libs):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "pool_size": 1,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Running the program
# ---------------------------------------------------------------------------

_SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import epsreg.cli as cli
from epsreg import core
inputs = json.loads(sys.argv[2])
for path in inputs["configs"]:
    cli.parse_config(path)
for path in inputs["matrices"]:
    core.load_matrix(path)
"""


def measure_setup(deck) -> list:
    """Wall time of fresh interpreters that import epsreg.cli and load the inputs."""
    inputs = json.dumps(
        {
            "configs": [str(spec.config_path) for spec in deck.runs],
            "matrices": [str(path) for path in deck.matrices],
        }
    )
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        # No timeout: with one, subprocess polls the child every 50 ms and
        # the measured time is rounded up to that step.
        subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), inputs], cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return times


def execute(cli, spec, out_dir: Path):
    """One ``epsreg run`` call, timed, then checked."""
    out_path = out_dir / f"{spec.name}.csv"
    if out_path.exists():
        out_path.unlink()
    captured = io.StringIO()
    rc = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            rc = cli.main(["run", str(spec.config_path), "--output", str(out_path)])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed run, not a benchmark error
        traceback.print_exc(file=sys.stderr)
    wall = perf_counter() - start
    csv_bytes = out_path.read_bytes() if out_path.exists() else None
    return checks.check_run(spec, rc, csv_bytes, captured.getvalue(), wall)


def run_deck(cli, deck, out_dir, tracer=None):
    outcomes = []
    for spec in deck.runs:
        if tracer is not None:
            tracer.begin_run(spec.name)
        try:
            outcomes.append(execute(cli, spec, out_dir))
        finally:
            if tracer is not None:
                tracer.end_run()
    return outcomes


def timed_passes(cli, deck, out_dir, seconds: float):
    """Whole decks while more than half a deck's time is left of ``seconds``."""
    outcomes, deck_times = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        outcomes += run_deck(cli, deck, out_dir)
        deck_times.append(perf_counter() - t0)
        if perf_counter() - start + 0.5 * statistics.fmean(deck_times) >= seconds:
            return outcomes


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def eps_per_s(outcomes) -> float:
    rows = sum(o.rows for o in outcomes if o.status != checks.FAILED)
    return rows / sum(o.wall_s for o in outcomes)


def print_runs(outcomes) -> None:
    for o in outcomes:
        detail = "" if o.status == checks.OK else " (" + "; ".join(o.problems) + ")"
        err = "-" if o.error is None else f"{o.error:.6g}"
        print(
            f"run {o.name:<16} {o.experiment:<12} rc={o.rc} rows={o.rows} "
            f"wall={o.wall_s:.4f}s verdict={o.verdict} err={err} "
            f"sha256={(o.sha256 or '-')[:16]} {o.status}{detail}"
        )


def tally(outcomes):
    """(attempted, known, failed) counts."""
    known = sum(o.status == checks.KNOWN for o in outcomes)
    failed = sum(o.status == checks.FAILED for o in outcomes)
    return len(outcomes), known, failed


def hash_report(workload: str, seed: int, outcomes) -> dict:
    """CSV hash per run name, compared with the committed reference when it has one."""
    hashes, unstable = {}, []
    for o in outcomes:
        if o.sha256 is None:
            continue
        if hashes.setdefault(o.name, o.sha256) != o.sha256 and o.name not in unstable:
            unstable.append(o.name)
    reference = {}
    if REFERENCE_HASHES.is_file():
        table = json.loads(REFERENCE_HASHES.read_text(encoding="utf-8"))
        reference = table.get(workload, {}).get(str(seed), {})
    moved = sorted(name for name, digest in hashes.items() if reference.get(name, digest) != digest)
    unknown = sorted(name for name in hashes if name not in reference)
    print(
        f"csv hashes: {len(hashes)} configs, {len(hashes) - len(moved) - len(unknown)} match "
        f"the reference, {len(moved)} moved {moved}, {len(unknown)} not in the reference, "
        f"{len(unstable)} differ between repeats {unstable}"
    )
    return {"sha256": hashes, "moved": moved, "not_in_reference": unknown, "unstable": unstable}


def end_to_end(outcomes, setup_times, reasons) -> dict:
    errors = [o.error for o in outcomes if o.error is not None]
    attempted, known, failed = tally(outcomes)
    values = {
        "eps_per_s": eps_per_s(outcomes),
        "run_s.p50": statistics.median(o.wall_s for o in outcomes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_max": max(errors) if errors else float("nan"),
        "pass_ratio": (attempted - known - failed) / attempted,
    }
    print(
        f"run_s.p50 over n={attempted} runs; setup_s = median of {len(setup_times)} fresh "
        f"interpreters {[round(t, 4) for t in setup_times]}"
    )
    print(
        f"fail_ratio={(known + failed) / attempted:.6g} ({known + failed} of {attempted}: "
        f"{known} known failures, {failed} unexpected)"
    )
    for name in sorted({o.name for o in outcomes if o.status == checks.KNOWN}):
        print(f"known failure: {name}: {reasons[name]}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(workload, tracer, traced, untraced) -> dict:
    stats = tracer.layer_stats()
    values = {}
    for span, wanted in _LAYER_TIMES:
        entry = stats.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat in wanted:
            values[f"{span}.{stat}"] = entry[stat]
    for name in _COUNTS:
        values[name] = tracer.counters[name]
    for name in _RATIOS:
        offered = tracer.counters[f"{name}.offered"]
        values[f"{name}.kept_ratio"] = tracer.counters[f"{name}.kept"] / offered if offered else 0.0
    for module in _MODULES:
        values[f"{module}.errors"] = tracer.counters[f"{module}.errors"]
    wall = sum(o.wall_s for o in traced)
    self_sum = tracer.self_sum()
    values["trace.wall_s"] = wall
    values["trace.self_sum_s"] = self_sum
    values["trace.unattributed_s"] = wall - self_sum
    values["trace.eps_per_s"] = eps_per_s(traced)
    values["trace.untraced_eps_per_s"] = eps_per_s(untraced)
    values["trace.eps_per_s_delta"] = values["trace.eps_per_s"] - values["trace.untraced_eps_per_s"]
    print(
        f"self-time accounting: layers {self_sum:.4f} s of {wall:.4f} s traced wall "
        f"({self_sum / wall:.1%}), unattributed {wall - self_sum:.4f} s; tracing overhead "
        f"{values['trace.eps_per_s_delta']:+.4f} eps/s "
        f"({values['trace.eps_per_s'] / values['trace.untraced_eps_per_s'] - 1.0:+.1%})"
    )
    if tracer.missing or tracer.counters["trace.counter_errors"]:
        print(
            f"tracer: targets missing from the program {tracer.missing}, "
            f"{tracer.counters['trace.counter_errors']} counter updates failed"
        )
    for name, stat in sorted(stats.items(), key=lambda item: -item[1]["self_s"]):
        print(
            f"layer {name:<42} calls={stat['calls']:<7} s={stat['s']:.4f} "
            f"self_s={stat['self_s']:.4f} ({stat['self_s'] / wall:.1%})"
        )
    design_checks(workload, tracer.spans, stats, wall)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_metrics()}


def design_checks(workload, spans, stats, wall) -> None:
    """Print whether the trace confirms why the workload was chosen."""

    def stat(name, key="self_s"):
        return stats.get(name, {}).get(key, 0.0)

    def module_self(*modules):
        return sum(v["self_s"] for k, v in stats.items() if k.split(".")[0] in modules)

    names = {span.name for span in spans}
    claims = []
    if workload == "cauchy_seeds":
        top = max(stats, key=lambda k: stats[k]["self_s"])
        claims.append(
            (
                "build_seed_system has the largest self_s",
                top == "variational.build_seed_system",
                f"largest is {top} at {stats[top]['self_s'] / wall:.1%} of wall",
            )
        )
    elif workload == "cauchy_sweep":
        sweep = stat("variational.trial_space_for_epsilon", "s") + stat(
            "variational.solve_perturbed_galerkin", "s"
        )
        seeds = stat("variational.build_seed_system")
        claims.append(
            (
                "trial_space_for_epsilon + solve_perturbed_galerkin exceed build_seed_system",
                sweep > seeds,
                f"{sweep:.3f} s vs {seeds:.3f} s",
            )
        )
    elif workload == "basis_series":
        share = (
            module_self("bessel", "diskbasis")
            + stat("variational.basis_grams")
            + stat("variational.solve_mixed_boundary_series")
        ) / wall
        claims.append(("bessel + diskbasis + series/Grams are most of the wall", share > 0.5, f"{share:.1%}"))
    if workload == "engine_1d":
        share = module_self("core", "ode1d") / wall
        claims.append(("core + ode1d are most of the wall", share > 0.5, f"{share:.1%}"))
        disk = sorted(n for n in names if n.split(".")[0] in ("variational", "bessel"))
        claims.append(("no variational/bessel span", not disk, f"found {disk}"))
    else:
        claims.append(("no core.solve_perturbed span", "core.solve_perturbed" not in names, ""))
    for claim, holds, detail in claims:
        print(f"design: {workload}: {claim}: {'confirmed' if holds else 'NOT confirmed'} ({detail})")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def pin_threads() -> None:
    """One thread of work: BLAS pools of one, the program's eps pool at its default of one.

    Must run before numpy is first imported; the set-up interpreters
    inherit the environment.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("EPSREG_THREADS", None)


def main(argv=None) -> int:
    pin_threads()
    import workloads

    args = parse_args(argv)
    if not (SRC / "epsreg" / "cli.py").is_file():
        print(f"error: the epsreg sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import epsreg.cli as cli

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = WORK / f"{tag}-{os.getpid()}"
    try:
        deck = workloads.build_deck(args.workload, args.seed, work_dir)
        env = environment(args.seed)
        print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))

        setup_times = [] if args.trace else measure_setup(deck)
        warm = [execute(cli, spec, work_dir) for spec in deck.warmup]
        warm_failed = [o for o in warm if o.status == checks.FAILED]
        for o in warm_failed:
            print(f"warm-up {o.name} failed: {'; '.join(o.problems)}")

        record = {"env": env, "workload": args.workload, "trace": args.trace}
        if args.trace:
            from tracer import Tracer

            untraced = run_deck(cli, deck, work_dir)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_deck(cli, deck, work_dir, tracer)
            finally:
                tracer.uninstall()
            outcomes = untraced + traced
            print_runs(outcomes)
            metrics = layer_metrics(args.workload, tracer, traced, untraced)
        else:
            outcomes = timed_passes(cli, deck, work_dir, args.seconds)
            print_runs(outcomes)
            reasons = {spec.name: spec.known_reason for spec in deck.runs}
            metrics = end_to_end(outcomes, setup_times, reasons)

        attempted, known, failed = tally(outcomes)
        record["hashes"] = hash_report(args.workload, args.seed, outcomes)
        record["runs"] = [vars(o) for o in warm + outcomes]
        record["metrics"] = metrics
        for name, entry in metrics.items():
            print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    result = {
        "correct": failed == 0 and not warm_failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
