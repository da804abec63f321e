"""The package's public names and the README's library examples."""

import ast
import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import epsreg
from epsreg import cli

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(info.name for info in pkgutil.iter_modules(epsreg.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"epsreg.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(epsreg.__file__).read_text(encoding="utf-8"))
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    assert [name for name in names if not hasattr(epsreg, name)] == []


def _readme_examples():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def _run_example(source: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
    return out.getvalue()


def test_readme_path_example():
    verdict, _slope = _run_example(_readme_examples()[0]).split()
    assert verdict == "Bounded"


def test_readme_disk_example():
    verdict, best_epsilon, rel_error = _run_example(_readme_examples()[1]).split()
    assert verdict == "Bounded"
    assert float(best_epsilon) > 0.0
    assert float(rel_error) < 0.05


def test_readme_csv_schemas_match_the_cli():
    rows = re.findall(r"^\| `(\w+)` +\| `([\w,]+)` +\|", README.read_text(encoding="utf-8"), re.M)
    assert rows == [(name, exp.header) for name, exp in cli.EXPERIMENTS.items()]


# An InputError message that states a rule on eps: its sign, finiteness or size.
_RULE_WORDS = "(positive|finite|negative|normal|at least|above)"
_EPS_RULE = re.compile(rf"\beps(ilon)?\b.*{_RULE_WORDS}|{_RULE_WORDS}.*\beps(ilon)?\b", re.I)


def test_only_check_epsilon_states_the_eps_rule():
    """Every eps is checked by core.check_epsilon, and a disk eps by
    bessel.check_disk_epsilon as well; no module keeps a copy of either rule."""
    owners = set()
    for path in sorted(Path(epsreg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "InputError"
                    and any(_EPS_RULE.search(ast.unparse(arg)) for arg in node.exc.args)
                ):
                    owners.add(f"{path.stem}.{func.name}")
    assert owners == {"core.check_epsilon", "bessel.check_disk_epsilon"}


# The size limits and the one function that may read each.
_LIMIT_OWNERS = {
    "NU_MAX": "bessel.check_order",
    "N_R_MAX": "variational.check_quadrature_size",
    "N_PHI_MAX": "variational.check_quadrature_size",
}
# A raised message that states a range rule on an order or a quadrature size.
_SIZE_RULE = re.compile(
    r"\b(order|n_modes|i_max|source_index|n_r|n_phi|key)\b.*(outside supported|must lie in)"
)


def _limit_reads(node, scope=()):
    """(name, dotted scope) of every load or import of a limit under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            name = child.id
        elif isinstance(child, (ast.Attribute, ast.alias)):
            name = getattr(child, "attr", None) or child.name
        else:
            name = None
        if name in _LIMIT_OWNERS:
            yield name, ".".join(scope)
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _limit_reads(child, scope + (child.name,) if named else scope)


def test_only_the_owners_state_the_size_ranges():
    """bessel.check_order alone raises for an order outside [0, NU_MAX] and
    variational.check_quadrature_size alone for an n_r or n_phi out of range;
    every caller, the CLI included, applies them, so no copy of either range
    (with the limits or as a message) can regrow."""
    readers, raisers = set(), set()
    for path in sorted(Path(epsreg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers.update((name, f"{path.stem}.{scope}") for name, scope in _limit_reads(tree))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) in ("InputError", "ValueError")
                    and any(_SIZE_RULE.search(ast.unparse(arg)) for arg in node.exc.args)
                ):
                    raisers.add(f"{path.stem}.{func.name}")
    assert readers == set(_LIMIT_OWNERS.items())
    assert raisers == set(_LIMIT_OWNERS.values())


def _scopes_calling(name, node, scope=()):
    """The dotted scope of every call of ``name`` (bare or as an attribute) under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                yield ".".join(scope)
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _scopes_calling(name, child, scope + (child.name,) if named else scope)


def test_only_series_field_builds_basis_functions():
    """The solvers and the CLI read the modes as tables; one BasisFunction per
    mode is built only for SeriesSolution.field, so the closure layer cannot
    regrow unnoticed."""
    callers = [
        f"{path.stem}.{scope}"
        for path in sorted(Path(epsreg.__file__).parent.glob("*.py"))
        for scope in _scopes_calling("BasisFunction", ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert callers == ["variational.SeriesSolution.field"]
