"""Tests of the benchmark itself: generator, output checks and tracer.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

import epsreg.bessel  # noqa: E402
import epsreg.cli  # noqa: E402
import epsreg.diskbasis  # noqa: E402
import epsreg.variational  # noqa: E402


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _run_cli(config, out):
    return epsreg.cli.main(["run", str(config), "--output", str(out)])


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the benchmark prints
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in bench_run.per_layer_metrics()
    ]


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["cauchy_seeds", "cauchy_sweep", "basis_series"])
def test_same_seed_same_inputs(tmp_path, workload):
    a = workloads.build_deck(workload, 7, tmp_path / "a")
    b = workloads.build_deck(workload, 7, tmp_path / "b")
    c = workloads.build_deck(workload, 8, tmp_path / "c")
    text = lambda deck: [s.config_path.read_text() for s in deck.warmup + deck.runs]  # noqa: E731
    assert text(a) == text(b)
    assert text(a) != text(c)


def test_cauchy_decks_cover_every_operator_noise_pair(tmp_path):
    seeds = workloads.build_deck("cauchy_seeds", 3, tmp_path / "s")
    sweep = workloads.build_deck("cauchy_sweep", 3, tmp_path / "w")
    assert sorted(s.name for s in seeds.runs) == ["cr_clean", "cr_noise", "grad_clean", "grad_noise"]
    # Only the schedule length differs between the two decks.
    for a, b in zip(seeds.runs, sweep.runs):
        assert a.params == b.params
        assert (len(a.schedule), len(b.schedule)) == (5, 60)
    known = [s.name for s in seeds.runs if s.has_known_failure]
    assert known == ["cr_noise"]


def test_parsed_schedule_matches_the_written_one(tmp_path):
    deck = workloads.build_deck("cauchy_sweep", 1, tmp_path)
    spec = deck.runs[0]
    config = epsreg.cli.parse_config(str(spec.config_path))
    assert config.params["schedule"] == [float(e) for e in spec.schedule]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _spec(**kw):
    base = dict(name="r", experiment="matrix_path", params={}, schedule=[1.0, 0.1])
    base.update(kw)
    return workloads.RunSpec(**base)


GOOD = b"epsilon,norm_h,norm_eps,residual\n1,2,3,0\n0.10000000000000001,2,3,0\nverdict=Bounded\n"


def test_check_accepts_a_good_run():
    out = checks.check_run(_spec(expect_verdict="Bounded"), 0, GOOD, "", 0.1)
    assert out.status == checks.OK, out.problems
    assert out.rows == 2 and out.verdict == "Bounded" and len(out.sha256) == 64


@pytest.mark.parametrize(
    "csv, rc, problem",
    [
        (GOOD.replace(b"norm_h", b"norm"), 0, "header"),
        (GOOD.replace(b"1,2,3,0\n", b"1,2,nan,0\n", 1), 0, "non-finite"),
        (GOOD.replace(b"verdict=Bounded\n", b""), 0, "verdict"),
        (GOOD.replace(b"0.10000000000000001,2,3,0\n", b""), 0, "rows"),
        (GOOD.replace(b"0.10000000000000001", b"0.2"), 0, "epsilon column"),
        (GOOD, 3, "exit code"),
        (None, None, "no CSV"),
    ],
)
def test_check_flags_bad_output(csv, rc, problem):
    out = checks.check_run(_spec(expect_verdict="Bounded"), rc, csv, "", 0.1)
    assert out.status == checks.FAILED
    assert any(problem in p for p in out.problems), out.problems


def test_known_failure_is_separate_from_unexpected_failure():
    spec = _spec(expect_verdict="Unbounded", known_verdict="Bounded", known_reason="why")
    assert checks.check_run(spec, 0, GOOD, "", 0.1).status == checks.KNOWN
    # A known failure does not excuse a different deviation.
    assert checks.check_run(spec, 3, GOOD, "", 0.1).status == checks.FAILED
    # Reaching the built-for outcome is a pass.
    fixed = GOOD.replace(b"Bounded", b"Unbounded")
    assert checks.check_run(spec, 0, fixed, "", 0.1).status == checks.OK


def test_norm_bound_check():
    assert checks.check_run(_spec(norm_bound=2.5), 0, GOOD, "", 0.1).status == checks.OK
    out = checks.check_run(_spec(norm_bound=1.5), 0, GOOD, "", 0.1)
    assert out.status == checks.FAILED and "norm_h" in out.problems[0]


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def _snapshot():
    import epsreg

    mods = {name: mod for name, mod in sys.modules.items() if name.startswith("epsreg")}
    mods["epsreg"] = epsreg
    names = {name: dict(vars(mod)) for name, mod in mods.items()}
    classes = {
        cls: dict(vars(cls))
        for cls in (
            epsreg.diskbasis.BasisFunction,
            epsreg.variational.FourierHarmonicField,
            epsreg.variational.DiskQuadrature,
        )
    }
    return names, classes


def test_install_rebinds_every_namespace_and_uninstall_restores():
    before_names, before_classes = _snapshot()
    original_bessel_i = epsreg.bessel.bessel_i
    original_prime = epsreg.bessel.bessel_i_prime
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (epsreg.bessel, epsreg.diskbasis, epsreg.cli):
            assert mod.bessel_i is not original_bessel_i
            assert mod.bessel_i.__wrapped__ is original_bessel_i
        for mod in (epsreg.bessel, epsreg.diskbasis):
            assert mod.bessel_i_prime.__wrapped__ is original_prime
        assert "__wrapped__" in vars(epsreg.diskbasis.BasisFunction)["value_xy"].__dict__
        assert isinstance(vars(epsreg.variational.DiskQuadrature)["build"], classmethod)
        patched = set(tracer.patched_names())
        assert ("epsreg.cli", "bessel_i") in patched
        assert ("BasisFunction", "normal_trace_values") in patched
        assert ("FourierHarmonicField", "gradient_xy") in patched
        # Every target was found somewhere.
        assert tracer.missing == []
        for target in TARGETS:
            assert any(attr == target.attr.split(".")[-1] for _, attr in patched), target
    finally:
        tracer.uninstall()
    assert tracer.patched_names() == []
    after_names, after_classes = _snapshot()
    for name, namespace in before_names.items():
        for attr, value in namespace.items():
            assert after_names[name][attr] is value, (name, attr)
    for cls, namespace in before_classes.items():
        for attr, value in namespace.items():
            assert vars(cls)[attr] is value, (cls, attr)


def _traced(tmp_path, config_text, name="run"):
    config = _write(tmp_path, f"{name}.ini", config_text)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_run(name)
        rc = _run_cli(config, tmp_path / f"{name}.csv")
        tracer.end_run()
    finally:
        tracer.uninstall()
    return tracer, rc


def test_worker_thread_spans_belong_to_the_run(tmp_path):
    _write(tmp_path, "t.txt", "3 2\n1 0\n0 1\n1 1\n")
    tracer, rc = _traced(
        tmp_path,
        f"[matrix_path]\nmatrix = {tmp_path / 't.txt'}\nf = 1 2 3\nschedule = 1 0.1 0.01\noutput = x.csv\n",
    )
    assert rc == 0
    solves = [s for s in tracer.spans if s.name == "core.solve_perturbed"]
    assert len(solves) == 3
    for span in solves:
        assert span.parent is not None and span.parent.name == "cli.run"
        assert span.run == "run"
    (root,) = [s for s in tracer.spans if s.name == "cli.run"]
    assert root.self_time() <= root.duration - sum(s.duration for s in solves) + 1e-9
    stats = tracer.layer_stats()
    assert stats["core.solve_perturbed"]["calls"] == 3
    assert stats["core.load_matrix"]["calls"] == 1
    roots = [s for s in tracer.spans if s.parent is None]
    assert sorted(s.name for s in roots) == ["cli.parse_config", "cli.run"]
    assert math.isclose(tracer.self_sum(), sum(s.duration for s in roots), rel_tol=1e-9)


def test_bessel_points_and_nested_spans_are_counted_once(tmp_path):
    tracer, rc = _traced(
        tmp_path,
        "[disk_mixed]\ngamma_start = 0\ngamma_end = 3\nn_modes = 4\nn_phi = 32\n"
        "schedule = 400 1\noutput = x.csv\n",
    )
    assert rc == 0
    stats = tracer.layer_stats()
    assert stats["bessel.bessel_i"]["calls"] > 0
    assert tracer.counters["bessel.points"] >= stats["bessel.bessel_i"]["calls"]
    # sqrt(400) = 20 is above the series switch, so the Miller branch is used.
    assert 0 < tracer.counters["bessel.miller_points"] < tracer.counters["bessel.points"]
    # value_xy calls value_polar: both are basis_eval spans, counted once.
    eval_spans = [s for s in tracer.spans if s.name == "diskbasis.basis_eval"]
    outer = [s for s in eval_spans if not s.has_ancestor_named("diskbasis.basis_eval")]
    assert stats["diskbasis.basis_eval"]["calls"] == len(outer) < len(eval_spans)
    assert tracer.counters["variational.solve_mixed_boundary_series.offered"] == 2 * 9
    assert not [s for s in tracer.spans if s.name == "core.solve_perturbed"]


def test_escaping_exceptions_are_counted_per_module():
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(ValueError):
            epsreg.diskbasis.bessel_i(-1, 1.0)
    finally:
        tracer.uninstall()
    assert tracer.counters["bessel.errors"] == 1
    assert tracer.counters["bessel.points"] == 1


def test_self_time_subtracts_the_union_of_children():
    from tracer import Span

    parent = Span("p", None, None, 0.0, 10.0)
    parent.children = [
        Span("a", None, parent, 1.0, 4.0),
        Span("b", None, parent, 3.0, 5.0),
        Span("c", None, parent, 9.0, 12.0),
    ]
    assert math.isclose(parent.self_time(), 10.0 - 4.0 - 1.0)


def test_missing_targets_and_broken_counters_do_not_break_runs(monkeypatch, tmp_path):
    import tracer as tracer_module
    from tracer import Target

    def broken(tracer, result):
        return result.no_such_field

    monkeypatch.setattr(
        tracer_module,
        "TARGETS",
        (
            Target("core", "no_such_function", "core.none"),
            Target("core", "solve_perturbed", "core.solve_perturbed", after=broken),
        ),
    )
    _write(tmp_path, "t.txt", "2 2\n1 0\n0 1\n")
    tracer, rc = _traced(
        tmp_path,
        f"[matrix_path]\nmatrix = {tmp_path / 't.txt'}\nf = 1 2\nschedule = 1 0.1 0.01\noutput = x.csv\n",
    )
    assert rc == 0
    assert tracer.missing == ["core.no_such_function"]
    assert tracer.counters["trace.counter_errors"] == 3
    assert tracer.layer_stats()["core.solve_perturbed"]["calls"] == 3
