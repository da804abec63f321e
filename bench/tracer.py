"""Layer spans for the traced benchmark pass, recorded from outside the program.

``Tracer.install`` wraps the public functions of each epsreg layer and
rebinds every name under which a module of the package holds them (for
example ``bessel_i`` lives in ``bessel``, ``diskbasis`` and ``cli``), and
wraps methods on their class.  ``Tracer.uninstall`` puts every original
object back, so timed passes run unpatched code.

Spans belong to the active run (one ``epsreg run`` call), not to a thread:
``cli`` does per-eps work on a ``ThreadPoolExecutor`` worker even with a
pool of one, and a span that opens on a thread with no open span of its
own takes the innermost open span of the thread that began the run as its
parent.  Work is serialized (the caller blocks in ``pool.map``), so a
parent's self time is its duration minus the union of its children's.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    name: str
    run: Optional[str]
    parent: Optional["Span"]
    start: float
    end: float = 0.0
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        covered, last = 0.0, self.start
        for child in sorted(self.children, key=lambda s: s.start):
            lo, hi = max(child.start, last), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                last = hi
        return self.duration - covered

    def has_ancestor_named(self, name: str) -> bool:
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False


def _count_bessel_points(tracer, args, kwargs):
    bessel = sys.modules["epsreg.bessel"]
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"], dtype=float)
    tracer.counters["bessel.points"] += x.size
    switch = getattr(bessel, "_SERIES_SWITCH", None)
    if switch is not None:
        tracer.counters["bessel.miller_points"] += int(np.count_nonzero(x >= switch))


def _count_seeds(tracer, result):
    tracer.counters["variational.seeds.count"] += result.size


def _count_trial_space(tracer, result):
    tracer.counters["variational.trial_space.kept"] += result.size
    tracer.counters["variational.trial_space.offered"] += result.seeds.size


def _count_series_modes(tracer, result):
    tracer.counters["variational.solve_mixed_boundary_series.kept"] += result.coeff.shape[1]
    tracer.counters["variational.solve_mixed_boundary_series.offered"] += len(result.modes)


@dataclass(frozen=True)
class Target:
    """A layer function (``attr``) or method (``Class.method``) to wrap."""

    module: str
    attr: str
    span: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None


TARGETS = (
    Target("cli", "parse_config", "cli.parse_config"),
    Target("cli", "run", "cli.run"),
    Target("core", "load_matrix", "core.load_matrix"),
    Target("core", "solve_perturbed", "core.solve_perturbed"),
    Target("ode1d", "convergence_report", "ode1d.convergence_report"),
    Target("ode1d", "exact_solution", "ode1d.exact_solution"),
    Target("ode1d", "perturbed_solution", "ode1d.perturbed_solution"),
    Target("bessel", "bessel_i", "bessel.bessel_i", before=_count_bessel_points),
    Target("bessel", "bessel_i_prime", "bessel.bessel_i_prime", before=_count_bessel_points),
    Target("diskbasis", "BasisFunction.value_polar", "diskbasis.basis_eval"),
    Target("diskbasis", "BasisFunction.value_xy", "diskbasis.basis_eval"),
    Target("diskbasis", "BasisFunction.gradient_xy", "diskbasis.basis_eval"),
    Target("diskbasis", "BasisFunction.normal_trace_values", "diskbasis.basis_eval"),
    Target("diskbasis", "check_helmholtz", "diskbasis.check_helmholtz"),
    Target("diskbasis", "nonvanishing_check", "diskbasis.nonvanishing_check"),
    Target("variational", "DiskQuadrature.build", "variational.quadrature"),
    Target("variational", "lift_cauchy_datum", "variational.lift"),
    Target("variational", "FourierHarmonicField.value_xy", "variational.lift"),
    Target("variational", "FourierHarmonicField.gradient_xy", "variational.lift"),
    Target("variational", "build_seed_system", "variational.build_seed_system", after=_count_seeds),
    Target(
        "variational",
        "trial_space_for_epsilon",
        "variational.trial_space_for_epsilon",
        after=_count_trial_space,
    ),
    Target("variational", "solve_perturbed_galerkin", "variational.solve_perturbed_galerkin"),
    Target("variational", "l_curve_corner", "variational.l_curve_corner"),
    Target("variational", "cauchy_pipeline", "variational.cauchy_pipeline"),
    Target("variational", "basis_grams", "variational.basis_grams"),
    Target(
        "variational",
        "solve_mixed_boundary_series",
        "variational.solve_mixed_boundary_series",
        after=_count_series_modes,
    ),
)


class Tracer:
    """Records layer spans and counters for the runs made while installed."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._lock = threading.Lock()
        self._stacks = defaultdict(list)
        self._run = None
        self._run_thread = None
        self._patches = []
        self.missing = []

    # -- runs and spans -------------------------------------------------

    def begin_run(self, name: str) -> None:
        self._run = name
        self._run_thread = threading.get_ident()

    def end_run(self) -> None:
        self._run = None
        self._run_thread = None

    def _enter(self, name: str) -> Span:
        stack = self._stacks[threading.get_ident()]
        if stack:
            parent = stack[-1]
        else:
            owner = self._stacks.get(self._run_thread)
            parent = owner[-1] if owner else None
        span = Span(name, self._run, parent, perf_counter())
        stack.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = perf_counter()
        self._stacks[threading.get_ident()].pop()
        with self._lock:
            if span.parent is not None:
                span.parent.children.append(span)
            self.spans.append(span)

    def _wrap(self, fn, target: Target):
        module = target.span.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if target.before is not None:
                self._count(target.before, args, kwargs)
            span = self._enter(target.span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[f"{module}.errors"] += 1
                raise
            finally:
                self._exit(span)
            if target.after is not None:
                self._count(target.after, result)
            return result

        return traced

    def _count(self, hook, *args) -> None:
        # A counter that no longer matches the program's API must not
        # break the run it observes; the miss is counted and reported.
        try:
            hook(self, *args)
        except (AttributeError, KeyError, TypeError, ValueError):
            self.counters["trace.counter_errors"] += 1

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; each module namespace holding one is rebound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = {
            name: mod
            for name, mod in sys.modules.items()
            if (name == "epsreg" or name.startswith("epsreg.")) and mod is not None
        }
        try:
            for target in TARGETS:
                home = package.get(f"epsreg.{target.module}")
                owner_name, _, meth = target.attr.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                if owner is None or meth not in vars(owner):
                    # A layer function the program no longer has records no spans.
                    self.missing.append(f"{target.module}.{target.attr}")
                    continue
                original = vars(owner)[meth]
                if owner_name:
                    if isinstance(original, classmethod):
                        wrapped = classmethod(self._wrap(original.__func__, target))
                    else:
                        wrapped = self._wrap(original, target)
                    self._patch(owner, meth, original, wrapped)
                    continue
                wrapped = self._wrap(original, target)
                for mod in package.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched_names(self):
        """(owner name, attribute) for every rebinding currently in place."""
        return [(getattr(o, "__name__", repr(o)), a) for o, a, _ in self._patches]

    # -- results --------------------------------------------------------

    def layer_stats(self) -> dict:
        """calls / s (outermost spans of a name) and self_s (all spans) per span name."""
        stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span in self.spans:
            entry = stats[span.name]
            entry["self_s"] += span.self_time()
            if not span.has_ancestor_named(span.name):
                entry["calls"] += 1
                entry["s"] += span.duration
        return dict(stats)

    def self_sum(self) -> float:
        return sum(span.self_time() for span in self.spans)
