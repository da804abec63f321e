"""Tests for config parsing, CSV output and CLI exit codes."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from epsreg import cli, diskbasis, variational
from epsreg.diskbasis import DiracOperatorKind
from epsreg.errors import InputError
from reference import graded_operator, perturbed_solution_mp

ODE_CONFIG = """\
# one-dimensional convergence sweep
[ode1d]
a = 0.0
b = 1.0
u0 = 0.0
f = cos
schedule = 1 1e-2 1e-4
output = {out}
"""


def write_config(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_minimal_ode1d(self, tmp_path):
        path = write_config(tmp_path, ODE_CONFIG.format(out="o.csv"))
        cfg = cli.parse_config(path)
        assert cfg.experiment == "ode1d"
        assert cfg.params["schedule"] == [1.0, 1e-2, 1e-4]
        assert cfg.output_path == "o.csv"

    def test_unknown_key_names_line(self, tmp_path):
        text = ODE_CONFIG.format(out="o.csv") + "wavelength = 3\n"
        path = write_config(tmp_path, text)
        with pytest.raises(InputError, match=r":9: unknown key 'wavelength'"):
            cli.parse_config(path)

    def test_non_decreasing_schedule_names_field(self, tmp_path):
        text = ODE_CONFIG.format(out="o.csv").replace("1 1e-2 1e-4", "1e-4 1e-2 1")
        path = write_config(tmp_path, text)
        with pytest.raises(InputError, match="schedule"):
            cli.parse_config(path)

    def test_equal_arc_endpoints_rejected(self, tmp_path):
        text = (
            "[disk_mixed]\n"
            "gamma_start = 1.0\n"
            "gamma_end = 1.0\n"
            "schedule = 1 0.1\n"
            "output = o.csv\n"
        )
        path = write_config(tmp_path, text)
        with pytest.raises(InputError, match="gamma_end"):
            cli.parse_config(path)

    def test_nan_arc_end_rejected_with_line(self, tmp_path):
        text = "[disk_mixed]\ngamma_start = 1.0\ngamma_end = nan\nschedule = 1 0.1\noutput = o.csv\n"
        path = write_config(tmp_path, text)
        with pytest.raises(InputError, match=r":3: 'gamma_end' must exceed"):
            cli.parse_config(path)

    def test_cauchy_seed_key_rejected(self, tmp_path, capsys):
        # disk_cauchy draws no random numbers, so it has no seed key.
        path = write_config(
            tmp_path,
            "[disk_cauchy]\ngamma_start = 0\ngamma_end = 3\nseed = 1\n"
            "schedule = 1 0.1\noutput = o.csv\n",
        )
        assert cli.main(["run", path]) == 2
        assert f"{path}:4: unknown key 'seed'" in capsys.readouterr().err

    def test_unknown_experiment(self, tmp_path):
        path = write_config(tmp_path, "[quantum]\noutput = o.csv\n")
        with pytest.raises(InputError, match="unknown experiment"):
            cli.parse_config(path)

    def test_missing_required_key(self, tmp_path):
        path = write_config(tmp_path, "[ode1d]\na = 0\nb = 1\nf = cos\noutput = o.csv\n")
        with pytest.raises(InputError, match="schedule"):
            cli.parse_config(path)

    def test_syntax_error_line(self, tmp_path):
        path = write_config(tmp_path, "[ode1d]\nnot a key value pair\n")
        with pytest.raises(InputError, match=":2:"):
            cli.parse_config(path)

    def test_missing_file(self):
        with pytest.raises(InputError, match="not found"):
            cli.parse_config("/nonexistent/path.ini")


class TestRunOde1d:
    def test_csv_schema_and_rows(self, tmp_path, capsys):
        out = tmp_path / "ode.csv"
        path = write_config(tmp_path, ODE_CONFIG.format(out=out))
        assert cli.main(["run", path]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,c0_error,c1_error"
        assert len(lines) == 1 + 3
        values = [float(tok) for tok in lines[1].split(",")]
        assert values[0] == 1.0
        summary = capsys.readouterr().out
        assert "experiment=ode1d" in summary

    def test_determinism(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        path = write_config(tmp_path, ODE_CONFIG.format(out=out_a))
        assert cli.main(["run", path]) == 0
        assert cli.main(["run", path, "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize(
        "a, b, f, line, message",
        [
            ("2", "1", "cos", 4, "interval requires a < b, got (2.0, 1.0)"),
            ("0", "800", "exp", 6, "right-hand side f is not finite on the interval"),
        ],
        ids=["reversed-interval", "f-overflows"],
    )
    def test_problem_rules_fail_at_parse_time(self, tmp_path, capsys, a, b, f, line, message):
        # Ode1dProblem's refusals cite the line of their key (b, f) and write
        # no CSV; an overflowing f raises no RuntimeWarning on the way.
        out = tmp_path / "ode.csv"
        text = ODE_CONFIG.format(out=out).replace("a = 0.0", f"a = {a}")
        path = write_config(tmp_path, text.replace("b = 1.0", f"b = {b}").replace("cos", f))
        assert cli.main(["run", path]) == 2
        assert capsys.readouterr().err == f"error: {path}:{line}: {message}\n"
        assert not out.exists()


class TestRunMatrixPath:
    def test_complex_matrix_and_verdict(self, tmp_path):
        matrix = tmp_path / "m.txt"
        matrix.write_text("2 2\n1 0\n0 0.5,0.25\n")
        out = tmp_path / "mp.csv"
        cfg = write_config(
            tmp_path,
            f"[matrix_path]\nmatrix = {matrix}\nf = 1 1\n"
            f"schedule = 1 0.1 0.01\noutput = {out}\n",
        )
        assert cli.main(["run", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,norm_h,norm_eps,residual"
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("verdict=")

    def test_graded_operator_down_to_eps_1e_16(self, tmp_path):
        # Singular values over 13 decades, h = 0: solved through the normal
        # equations this run exited 3 ("normal-equation residual 4.092e-10
        # exceeds 1e-10 * (1 + ||rhs||)").
        rng = np.random.default_rng(8)
        matrix = graded_operator(rng, 15, 17, 12)
        f = rng.standard_normal(15)
        schedule = np.logspace(-6.0, -16.0, 11).tolist()
        path, out = tmp_path / "m.txt", tmp_path / "mp.csv"
        path.write_text("15 17\n" + "\n".join(" ".join(map(repr, row)) for row in matrix.tolist()))
        cfg = write_config(
            tmp_path,
            f"[matrix_path]\nmatrix = {path}\nf = {' '.join(map(repr, f.tolist()))}\n"
            f"schedule = {' '.join(map(repr, schedule))}\noutput = {out}\n",
        )
        assert cli.main(["run", cfg]) == 0
        rows = [[float(x) for x in line.split(",")] for line in out.read_text().splitlines()[1:-1]]
        assert [row[0] for row in rows] == schedule
        exact = [np.linalg.norm(perturbed_solution_mp(matrix, f, np.zeros(17), e)) for e in schedule]
        np.testing.assert_allclose([row[1] for row in rows], exact, rtol=1e-8)


class TestRunDiskCauchy:
    def test_noise_config_runs(self, tmp_path):
        out = tmp_path / "dc.csv"
        cfg = write_config(
            tmp_path,
            "[disk_cauchy]\n"
            "gamma_start = 0.0\n"
            f"gamma_end = {math.pi}\n"
            "trial_size = 8\n"
            "n_r = 32\n"
            "n_phi = 128\n"
            "schedule = 1e-1 1e-2 1e-3\n"
            "noise_amplitude = 0.1\n"
            "noise_frequency = 20\n"
            f"output = {out}\n",
        )
        assert cli.main(["run", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,l2_norm,residual,rel_error"
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("verdict=")
        for line in lines[1:-1]:
            values = [float(tok) for tok in line.split(",")]
            assert all(np.isfinite(v) for v in values)


class TestOneEpsilonPath:
    @pytest.mark.parametrize(
        "section",
        [
            "[matrix_path]\nmatrix = {matrix}\nf = 1 1\nschedule = 1e-300\n",
            "[disk_cauchy]\ngamma_start = 0.0\ngamma_end = 3.14\ntrial_size = 8\n"
            "n_r = 32\nn_phi = 128\nschedule = 1e-2\n",
        ],
        ids=["matrix_path", "disk_cauchy"],
    )
    def test_one_epsilon_is_inconclusive(self, tmp_path, capsys, section):
        # One eps is no evidence of boundedness, whatever its fitted slope.
        matrix = tmp_path / "m.txt"
        matrix.write_text("2 2\n1 0\n0 1\n")
        out = tmp_path / "one.csv"
        cfg = write_config(tmp_path, section.format(matrix=matrix) + f"output = {out}\n")
        assert cli.main(["run", cfg]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 1 + 1
        assert lines[-1] == "verdict=Inconclusive"
        assert "verdict=Inconclusive" in capsys.readouterr().out


class TestRunDiskMixed:
    def test_row_per_epsilon(self, tmp_path):
        out = tmp_path / "dm.csv"
        cfg = write_config(
            tmp_path,
            "[disk_mixed]\n"
            "gamma_start = 0.0\n"
            f"gamma_end = {math.pi}\n"
            "n_modes = 6\n"
            "source_index = 2\n"
            "source_branch = 1\n"
            "schedule = 1 0.5\n"
            f"output = {out}\n",
        )
        assert cli.main(["run", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,trace_error_gamma,normal_error_complement,helmholtz_residual"
        assert len(lines) == 3
        for line in lines[1:]:
            _, trace_err, normal_err, helm = (float(tok) for tok in line.split(","))
            assert trace_err <= 1e-8 and normal_err <= 1e-8 and helm <= 1e-4

    @pytest.mark.parametrize(
        "keys, line, message",
        [
            (
                "source_index = 61\n",
                4,
                "bad value for 'source_index': order 61 outside supported range [0, 60]",
            ),
            (
                "source_index = -1\n",
                4,
                "bad value for 'source_index': order -1 outside supported range [0, 60]",
            ),
            (
                "source_index = 0\nsource_branch = 2\n",
                5,
                "bad 'source_branch': mode 0 carries a single angular branch",
            ),
            ("source_branch = 3\n", 4, "bad 'source_branch': angular branch must be 1 or 2, got 3"),
        ],
    )
    def test_bad_source_mode_fails_at_parse_time(self, tmp_path, capsys, keys, line, message):
        out = tmp_path / "dm.csv"
        cfg = write_config(
            tmp_path,
            f"[disk_mixed]\ngamma_start = 0.0\ngamma_end = 3.0\n{keys}"
            f"schedule = 1\noutput = {out}\n",
        )
        assert cli.main(["run", cfg]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:{line}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "op, mode",
        [
            (DiracOperatorKind.GRADIENT, (2, 1)),
            (DiracOperatorKind.GRADIENT, (1, 2)),
            (DiracOperatorKind.CAUCHY_RIEMANN, (3, 2)),
        ],
    )
    @pytest.mark.parametrize("eps", [400.0, 40.0, 10.0, 4.0, 1.0, 0.4])
    def test_source_data_bitwise_equal_to_basis_function(self, op, mode, eps):
        # The bench deck's sources: the table-built data keep the bits of the mode's closure.
        arc = variational.ArcSpec(0.5 * math.pi, 1.5 * math.pi)
        phi = np.concatenate([arc.quadrature(256)[0], arc.complement_quadrature(256)[0]])
        u0, u1 = cli._mode_boundary_data(op, mode, eps)
        source = diskbasis.BasisFunction(op, *mode, eps)
        assert u0(phi).tobytes() == source.value_polar(1.0, phi).tobytes()
        assert u1(phi).tobytes() == source.normal_trace_values(phi).tobytes()


class TestRunVerifyBasis:
    def test_passes_tolerances(self, tmp_path):
        out = tmp_path / "vb.csv"
        cfg = write_config(
            tmp_path,
            "[verify_basis]\n"
            "operator = cauchy_riemann\n"
            "i_max = 4\n"
            "n_r = 40\n"
            "n_phi = 128\n"
            "schedule = 1 0.25\n"
            f"output = {out}\n",
        )
        assert cli.main(["run", cfg]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header[0] == "epsilon" and header[-1] == "symbol_defect"


    def test_eps_400_on_coarse_quadrature_passes(self, tmp_path):
        out = tmp_path / "vb.csv"
        cfg = write_config(
            tmp_path,
            "[verify_basis]\n"
            "n_r = 16\n"
            "n_phi = 64\n"
            "schedule = 400\n"
            f"output = {out}\n",
        )
        assert cli.main(["run", cfg]) == 0

    @pytest.mark.parametrize("op", [DiracOperatorKind.GRADIENT, DiracOperatorKind.CAUCHY_RIEMANN])
    def test_perturbed_basis_fails_the_helmholtz_check(self, op, monkeypatch):
        # b (1 + 1e-3 r^2) misses the equation by 4e-3 (b + r b_r): the
        # normalized residual must see it at every eps, while the basis
        # itself stays below the 1e-5 tolerance.
        table = diskbasis.basis_table

        def perturbed_table(op, modes, eps, x, y):
            return table(op, modes, eps, x, y) * (1.0 + 1e-3 * (x * x + y * y))[:, None]

        quad = variational.DiskQuadrature.build(16, 64)
        points = cli._ring_points(0.5, 12)
        schedule = [400.0, 100.0, 30.0, 10.0, 3.0, 1.0, 0.3, 0.1, 0.03, 0.01]
        clean = [cli._basis_checks(op, 8, eps, quad, points)[2] for eps in schedule]
        monkeypatch.setattr(diskbasis, "basis_table", perturbed_table)
        perturbed = [cli._basis_checks(op, 8, eps, quad, points)[2] for eps in schedule]
        assert max(clean) <= cli._VERIFY_TOLS["max_helmholtz_residual"]
        assert min(perturbed) >= 1.1e-3


class TestNonFiniteOutput:
    def test_underflowing_series_exits_3_without_csv(self, tmp_path, capsys):
        out = tmp_path / "dm.csv"
        cfg = write_config(
            tmp_path,
            "[disk_mixed]\n"
            "operator = cauchy_riemann\n"
            f"gamma_start = {0.5 * math.pi!r}\n"
            f"gamma_end = {1.5 * math.pi!r}\n"
            "n_modes = 60\n"
            "schedule = 1e-8\n"
            f"output = {out}\n",
        )
        assert cli.main(["run", cfg]) == 3
        err = capsys.readouterr().err
        assert "underflow" in err and "(55, 1)" in err
        assert not out.exists()

    def test_nan_row_from_any_runner_exits_3_without_csv(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "o.csv"
        cfg = write_config(tmp_path, ODE_CONFIG.format(out=out))
        stub = cli.RunResult([(1.0, 0.5, 0.25), (1e-2, float("nan"), 0.0)], None, "stub")
        stubbed = cli.EXPERIMENTS["ode1d"]._replace(runner=lambda config: stub)
        monkeypatch.setitem(cli.EXPERIMENTS, "ode1d", stubbed)
        assert cli.main(["run", cfg]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "[quantum]\noutput = o.csv\n")
        assert cli.main(["run", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_is_2(self):
        assert cli.main(["run", "/no/such/file.ini"]) == 2

    def test_unwritable_output_is_2(self, tmp_path):
        path = write_config(tmp_path, ODE_CONFIG.format(out="/no/such/dir/x.csv"))
        assert cli.main(["run", path]) == 2

    def test_no_command_prints_usage(self, capsys):
        assert cli.main([]) == 2


class TestImports:
    def test_cli_import_leaves_out_scipy_integrate(self):
        # Only ode1d's adaptive quadrature uses scipy.integrate; it is
        # imported where quad is called, so the other runs never load it.
        code = "import sys, epsreg.cli; print('scipy.integrate' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False"]

    # scipy.linalg is imported where it is called: imports, config parsing,
    # disk_mixed, verify_basis and ode1d runs load no scipy module.
    _LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

    def _fresh(self, code, cwd=None):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.splitlines()

    def test_import_loads_no_scipy(self):
        code = (
            "import sys\n"
            "import epsreg\n"
            f"print({self._LOADED_SCIPY})\n"
            "import epsreg.cli\n"
            f"print({self._LOADED_SCIPY})\n"
        )
        assert self._fresh(code) == ["[]", "[]"]

    def test_import_builds_no_quadrature(self):
        # --verify's checks run only when asked for, never at import.
        code = (
            "import sys\n"
            "import epsreg.cli\n"
            "from epsreg import variational\n"
            "print(variational._disk_quadrature.cache_info().currsize)\n"
            f"print({self._LOADED_SCIPY})\n"
        )
        assert self._fresh(code) == ["0", "[]"]

    @pytest.mark.parametrize(
        "text",
        [
            ODE_CONFIG.format(out="o.csv"),
            "[disk_mixed]\ngamma_start = 0.0\ngamma_end = 3.0\nn_modes = 6\n"
            "schedule = 1 0.5\noutput = o.csv\n",
            "[verify_basis]\ni_max = 4\nn_r = 16\nn_phi = 64\nschedule = 1 0.25\noutput = o.csv\n",
        ],
        ids=["ode1d", "disk_mixed", "verify_basis"],
    )
    def test_run_loads_no_scipy(self, tmp_path, text):
        path = write_config(tmp_path, text)
        code = (
            "import sys\n"
            "from epsreg import cli\n"
            f"print(cli.main(['run', {path!r}]))\n"
            f"print({self._LOADED_SCIPY})\n"
        )
        assert self._fresh(code, cwd=tmp_path)[-2:] == ["0", "[]"]
        assert (tmp_path / "o.csv").exists()

    # module is in sys.modules (before, after) the call; the quadrature's
    # Gauss-Legendre rule comes from numpy, so building it loads no scipy.
    @pytest.mark.parametrize(
        "module, before, after, setup, call, check",
        [
            (
                "scipy.linalg",
                "False",
                "True",
                "op = core.DiscreteOperator(np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 3.0]]))",
                "left, s, right = op.svd",
                "np.allclose((left * s) @ right, op.matrix, rtol=0, atol=1e-12)",
            ),
            (
                "scipy",
                "False",
                "False",
                "",
                "quad = variational.DiskQuadrature.build(8, 16)",
                "abs(quad.w.sum() - math.pi) <= 1e-13",
            ),
            (
                "scipy.linalg",
                "False",
                "True",
                "quad = variational.DiskQuadrature.build(16, 64)",
                "seeds = variational.build_seed_system("
                "variational.ArcSpec(0.0, math.pi), diskbasis.DiracOperatorKind.GRADIENT, 6, quad)",
                "np.allclose(seeds.eigvecs.conj().T @ seeds.l2_gram.T @ seeds.eigvecs,"
                " np.eye(seeds.eigvecs.shape[1]), rtol=0, atol=1e-10)",
            ),
        ],
        ids=["svd", "quadrature", "seed_system"],
    )
    def test_first_call_loads_its_module(self, module, before, after, setup, call, check):
        code = (
            "import math, sys\n"
            "import numpy as np\n"
            "from epsreg import core, diskbasis, variational\n"
            f"{setup}\n"
            f"print({module!r} in sys.modules)\n"
            f"{call}\n"
            f"print({module!r} in sys.modules, bool({check}))\n"
        )
        assert self._fresh(code) == [before, f"{after} True"]


    def test_load_matrix_leaves_the_svd_to_the_first_solve(self, tmp_path):
        # A load never factors, so the bench's setup_s never holds the SVD.
        (tmp_path / "m.txt").write_text("3 2\n2 0\n1 1\n0 3\n")
        code = (
            "import sys\n"
            "from epsreg import core\n"
            "op = core.load_matrix('m.txt')\n"
            "print('svd' in vars(op), 'scipy.linalg' in sys.modules)\n"
            "core.run_path(op, [1.0, 2.0, 3.0], [0.0, 0.0], [1.0, 0.1])\n"
            "print('svd' in vars(op), 'scipy.linalg' in sys.modules)\n"
        )
        assert self._fresh(code, cwd=tmp_path) == ["False False", "True True"]


class TestUnreadableInputs:
    # Files that cannot be opened or decoded exit 2 with the file named,
    # never with a traceback, and leave no CSV behind.
    def test_config_with_invalid_utf8(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        path = tmp_path / "bad.ini"
        path.write_bytes(ODE_CONFIG.format(out=out).encode() + b"# \xff\n")
        assert cli.main(["run", str(path)]) == 2
        assert f"cannot read config file {path}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_matrix_path_names_file_and_line(self, tmp_path, capsys, kind):
        matrix = tmp_path / "m.txt"
        if kind == "directory":
            matrix.mkdir()
        out = tmp_path / "mp.csv"
        cfg = write_config(
            tmp_path,
            f"[matrix_path]\nf = 1 1\nmatrix = {matrix}\nschedule = 1 0.1\noutput = {out}\n",
        )
        assert cli.main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:3: bad 'matrix'" in err and str(matrix) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "vectors, line, message",
        [
            ("f = 1 2 3\nh = 0 0", 3, "bad 'f': f must be a vector of length 2, got shape (3,)"),
            ("f = 1 2\nh = 0 0 0", 4, "bad 'h': h must be a vector of length 2, got shape (3,)"),
        ],
    )
    def test_matrix_path_vector_length_names_line(self, tmp_path, capsys, vectors, line, message):
        matrix = tmp_path / "m.txt"
        matrix.write_text("2 2\n1 0\n0 1\n")
        out = tmp_path / "mp.csv"
        cfg = write_config(
            tmp_path,
            f"[matrix_path]\nmatrix = {matrix}\n{vectors}\nschedule = 1 0.1\noutput = {out}\n",
        )
        assert cli.main(["run", cfg]) == 2
        assert capsys.readouterr().err.strip() == f"error: {cfg}:{line}: {message}"
        assert not out.exists()


# --verify's checks, computed once at collection.
VERIFY_CHECKS = list(cli.verify_checks())


class TestVerifySuite:
    def test_all_checks_pass(self, capsys):
        assert cli.main(["--verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "verify: 0 failure(s)"
        assert not [line for line in lines if line.startswith("FAIL")]
        assert sum("galerkin reproduces span member" in line for line in lines) == 2

    @pytest.mark.parametrize(
        "name, value, bound, above", VERIFY_CHECKS, ids=[check[0] for check in VERIFY_CHECKS]
    )
    def test_check_passes(self, name, value, bound, above):
        # One case per check, named by it.
        assert cli._passes(value, bound, above), f"{name}: {value} against {bound}"

    def test_lowered_helmholtz_bound_fails_its_checks_only(self, tmp_path, capsys, monkeypatch):
        # --verify and verify_basis read the one table of bounds.
        monkeypatch.setitem(cli._VERIFY_TOLS, "max_helmholtz_residual", 1e-12)
        assert cli.main(["--verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 39 and lines[-1] == "verify: 6 failure(s)"
        assert all(re.fullmatch(r"(PASS|FAIL) .+ \(\S+\)", line) for line in lines[:-1])
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(failed) == 6
        assert all(line.startswith("FAIL helmholtz residual ") for line in failed)
        text = "[verify_basis]\ni_max = 4\nn_r = 16\nn_phi = 64\nschedule = 1\noutput = o.csv\n"
        path = write_config(tmp_path, text)
        assert cli.main(["run", path, "--output", str(tmp_path / "o.csv")]) == 1
        assert "status=FAIL" in capsys.readouterr().out


class TestScheduleValues:
    # NaN, inf and subnormal eps fail at parse time with the config line.
    @pytest.mark.parametrize("schedule", ["1e-1 nan", "inf 1e-1", "1e-300 1e-310"])
    def test_rejected_with_line_number(self, tmp_path, capsys, schedule):
        out = tmp_path / "dc.csv"
        path = write_config(
            tmp_path,
            "[disk_cauchy]\n"
            "gamma_start = 0.0\n"
            f"gamma_end = {math.pi}\n"
            "trial_size = 4\n"
            "n_r = 16\n"
            "n_phi = 64\n"
            f"schedule = {schedule}\n"
            f"output = {out}\n",
        )
        assert cli.main(["run", path]) == 2
        assert f"{path}:7: bad 'schedule'" in capsys.readouterr().err
        assert not out.exists()


class TestNumberValues:
    # Non-finite numbers, a negative i_max and a negative seed fail at parse
    # time with the config line; none of them writes a CSV.
    @pytest.mark.parametrize(
        "section, body, lineno",
        [
            ("disk_cauchy", "gamma_start = 0\ngamma_end = 3\nnoise_amplitude = nan", 4),
            ("disk_cauchy", "gamma_start = 0\ngamma_end = 3\nnoise_amplitude = inf", 4),
            ("ode1d", "a = 0\nb = 1\nf = cos\nu0 = inf", 5),
            ("ode1d", "a = -inf\nb = 1\nf = cos", 2),
            ("matrix_path", "matrix = m.txt\nf = 1 nan", 3),
            ("verify_basis", "i_max = -1", 2),
            ("verify_basis", "seed = -1", 2),
        ],
        ids=[
            "noise-nan", "noise-inf", "u0-inf", "a-minus-inf", "f-nan", "i_max-negative",
            "seed-negative",
        ],
    )
    def test_rejected_with_line_number(self, tmp_path, capsys, section, body, lineno):
        out = tmp_path / "out.csv"
        path = write_config(
            tmp_path, f"[{section}]\n{body}\nschedule = 1e-1 1e-2\noutput = {out}\n"
        )
        assert cli.main(["run", path]) == 2
        assert f"{path}:{lineno}: " in capsys.readouterr().err
        assert not out.exists()


ARC = "gamma_start = 0\ngamma_end = 3"


class TestRanges:
    # Bessel orders stop at NU_MAX = 60 and arguments at X_MAX = 60, so
    # n_modes, i_max and the disk_mixed / verify_basis eps are bounded; the
    # quadratures need n_r in [2, 1024] and n_phi in [4, 4096].  Each fails
    # at parse time with the config line and the message of the rule's owner
    # (bessel.check_order, variational.check_quadrature_size, ...).
    @pytest.mark.parametrize(
        "section, body, lineno, message",
        [
            (
                "disk_mixed", f"{ARC}\nn_modes = 61", 4,
                "bad value for 'n_modes': order 61 outside supported range [0, 60]",
            ),
            (
                "verify_basis", "i_max = 61", 2,
                "bad value for 'i_max': order 61 outside supported range [0, 60]",
            ),
            ("disk_mixed", f"{ARC}\nschedule = 4000 1", 4, "bad 'schedule': eps above 3600"),
            ("verify_basis", "schedule = 3601 1", 2, "bad 'schedule': eps above 3600"),
            ("verify_basis", "n_r = 1", 2, "'n_r' must lie in [2, 1024], got 1"),
            ("disk_cauchy", f"{ARC}\nn_phi = 3", 4, "'n_phi' must lie in [4, 4096], got 3"),
            ("verify_basis", "n_r = 1025", 2, "'n_r' must lie in [2, 1024], got 1025"),
            ("disk_mixed", f"{ARC}\nn_phi = 4097", 4, "'n_phi' must lie in [4, 4096], got 4097"),
            ("disk_cauchy", f"{ARC}\nn_r = 1025", 4, "'n_r' must lie in [2, 1024], got 1025"),
            ("disk_cauchy", f"{ARC}\nn_phi = 4097", 4, "'n_phi' must lie in [4, 4096], got 4097"),
            ("disk_cauchy", f"{ARC}\ntrial_size = 0", 4, "'trial_size' must lie in [1, 231]"),
            ("disk_cauchy", f"{ARC}\ntrial_size = 232", 4, "'trial_size' must lie in [1, 231]"),
            ("disk_cauchy", f"{ARC}\ntrial_size = 66\nn_r = 12", 5, "'n_r' must be >= 13"),
            ("disk_cauchy", f"{ARC}\ntrial_size = 66\nn_phi = 20", 5, "'n_phi' must be >= 21"),
            (
                "disk_cauchy", "gamma_start = 7\ngamma_end = 8", 2,
                "'gamma_start' must lie in [0, 2 pi)",
            ),
            ("disk_mixed", "gamma_start = 0\ngamma_end = 7", 3, "arc length exceeds 2 pi"),
        ],
        ids=[
            "n_modes", "i_max", "mixed-schedule", "verify-schedule", "n_r", "n_phi",
            "n_r-high", "mixed-n_phi-high", "cauchy-n_r-high", "cauchy-n_phi-high",
            "trial_size-low", "trial_size-high", "seed-n_r", "seed-n_phi",
            "gamma_start", "arc-length",
        ],
    )
    def test_rejected_with_line_number(self, tmp_path, capsys, section, body, lineno, message):
        out = tmp_path / "out.csv"
        if "schedule" not in body:
            body += "\nschedule = 1 0.5"
        path = write_config(tmp_path, f"[{section}]\n{body}\noutput = {out}\n")
        assert cli.main(["run", path]) == 2
        assert f"{path}:{lineno}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, body",
        [
            ("disk_mixed", f"{ARC}\nn_modes = 60\nn_phi = 4\nschedule = 3600"),
            ("verify_basis", "i_max = 60\nn_r = 2\nn_phi = 4\nschedule = 3600"),
            ("disk_cauchy", f"{ARC}\nschedule = 4000"),
            ("disk_cauchy", f"{ARC}\ntrial_size = 1\nn_r = 3\nn_phi = 4\nschedule = 1"),
            ("disk_cauchy", f"{ARC}\ntrial_size = 231\nn_r = 23\nn_phi = 41\nschedule = 1"),
            ("verify_basis", "n_r = 1024\nn_phi = 4096\nschedule = 1"),
            ("disk_mixed", f"{ARC}\nn_phi = 4096\nschedule = 1"),
            ("disk_cauchy", f"{ARC}\nn_r = 1024\nn_phi = 4096\nschedule = 1"),
        ],
        ids=[
            "disk_mixed", "verify_basis", "disk_cauchy-unbounded-eps",
            "disk_cauchy-one-seed", "disk_cauchy-trial-max",
            "verify_basis-quad-max", "disk_mixed-n_phi-max", "disk_cauchy-quad-max",
        ],
    )
    def test_bounds_are_inclusive(self, tmp_path, section, body):
        cfg = cli.parse_config(write_config(tmp_path, f"[{section}]\n{body}\noutput = o.csv\n"))
        assert cfg.experiment == section


_TRIAL_SIZES = st.one_of(
    st.sampled_from([0, 1, 2] + [variational.TRIAL_MAX + k for k in (-1, 0, 1)]),
    st.integers(1, 30),
)
# (gamma_start, gamma_end): the full circle, 1e-6-wide arcs and any arc.
_ARCS = st.one_of(
    st.just((0.0, 2.0 * math.pi)),
    st.floats(0.0, 6.28).map(lambda start: (start, start + 1e-6)),
    st.tuples(st.floats(0.0, 6.28), st.floats(1e-3, 2.0 * math.pi)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
)


@st.composite
def _cauchy_configs(draw):
    start, end = draw(_ARCS)
    body = [
        f"operator = {draw(st.sampled_from(['gradient', 'cauchy_riemann']))}",
        f"gamma_start = {start!r}",
        f"gamma_end = {end!r}",
        f"trial_size = {draw(_TRIAL_SIZES)}",
        f"n_r = {draw(st.integers(2, 30))}",
        f"n_phi = {draw(st.integers(4, 64))}",
        f"noise_amplitude = {draw(st.sampled_from([0.0, 0.1]))}",
        "schedule = 1e-1 1e-3 1e-6",
    ]
    return "[disk_cauchy]\n" + "\n".join(body) + "\n"


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_cauchy_configs())
def test_disk_cauchy_run_fuzz(tmp_path, capsys, text):
    # Parsed configs run to exit 0 with a CSV, or fail cleanly with 2 or 3
    # and no CSV; nothing escapes as a traceback.
    out = tmp_path / "fuzz.csv"
    out.unlink(missing_ok=True)
    path = write_config(tmp_path, text + f"output = {out}\n", name="fuzz.ini")
    code = cli.main(["run", path])
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    assert out.exists() == (code == 0)


# Per experiment, values of each key at and around the owners' edges, small
# sizes only; None leaves the key out.
_RUN_FUZZ_KEYS = {
    "ode1d": dict(
        a=["0", "-1", "2", "1e-3"],
        b=["1", "2", "800", "0"],
        u0=[None, "0.3", "-2"],
        f=list(cli._FUNCTIONS),
    ),
    "verify_basis": dict(
        operator=[None, "gradient", "cauchy_riemann"],
        i_max=["2", "0", "-1", "5", "61"],
        n_r=["6", "1", "2", "12"],
        n_phi=["16", "3", "4", "32"],
        seed=[None, "-1", "7", str(2**70)],
    ),
    "disk_mixed": dict(
        operator=[None, "gradient", "cauchy_riemann"],
        gamma_start=["0", "1"],
        gamma_end=["3", "6.283185307179586", "1.000001"],
        n_modes=["4", "0", "-1", "8", "61"],
        n_phi=["32", "0", "4", "64"],
        source_index=[None, "-1", "0", "3", "61"],
        source_branch=[None, "2", "3"],
    ),
}
_RUN_FUZZ_SCHEDULES = ["1 0.25", "3600 1", "4000 1", "1e-2 1e-8", "1e-300", "1e2"]


@st.composite
def _run_configs(draw):
    name = draw(st.sampled_from(sorted(_RUN_FUZZ_KEYS)))
    body = [
        f"{key} = {value}"
        for key, values in _RUN_FUZZ_KEYS[name].items()
        if (value := draw(st.sampled_from(values))) is not None
    ]
    body.append(f"schedule = {draw(st.sampled_from(_RUN_FUZZ_SCHEDULES))}")
    return f"[{name}]\n" + "\n".join(body) + "\n"


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_run_configs())
def test_series_and_1d_run_fuzz(tmp_path, capsys, text):
    # As test_disk_cauchy_run_fuzz, for the experiments that may also exit 1
    # (a failed verify_basis check), which writes its CSV.
    out = tmp_path / "fuzz.csv"
    out.unlink(missing_ok=True)
    path = write_config(tmp_path, text + f"output = {out}\n", name="fuzz.ini")
    code = cli.main(["run", path])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert out.exists() == (code in (0, 1))


# Arc endpoints at and around the validators' edges (0, 2 pi, 2 pi +- 1e-12,
# NaN, the infinities) and any float; gamma_end also as gamma_start plus an
# offset, so the arc length meets its edges 0 and 2 pi + 1e-12.
_ENDPOINTS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, math.pi, 2.0 * math.pi, 2.0 * math.pi - 1e-12, 2.0 * math.pi + 1e-12]
        + [math.nan, math.inf, -math.inf]
    ),
    st.floats(-1.0, 13.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
_ENDPOINT_PAIRS = st.one_of(
    st.tuples(_ENDPOINTS, _ENDPOINTS),
    st.tuples(_ENDPOINTS, _ENDPOINTS).map(lambda t: (t[0], t[0] + t[1])),
)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(arc=_ENDPOINT_PAIRS)
def test_arc_validators_agree(tmp_path, arc):
    # parse_config and ArcSpec accept and reject the same (gamma_start, gamma_end).
    start, end = arc
    text = (
        f"[disk_mixed]\ngamma_start = {start!r}\ngamma_end = {end!r}\n"
        "schedule = 1 0.1\noutput = o.csv\n"
    )
    path = write_config(tmp_path, text, name="arc.ini")
    outcomes = []
    for validate in (cli.parse_config, lambda _: variational.ArcSpec(start, end)):
        try:
            validate(path)
            outcomes.append(True)
        except InputError:
            outcomes.append(False)
    assert outcomes[0] == outcomes[1]


class TestFormatting:
    def test_seventeen_significant_digits(self):
        line = cli._fmt((1.0 / 3.0, 1e-7))
        assert line == "0.33333333333333331,9.9999999999999995e-08"


# A valid body per experiment; the fuzz below mutates these line by line.
_FUZZ_BASES = {
    "ode1d": ["a = 0", "b = 1", "f = cos", "schedule = 1 1e-2", "output = o.csv"],
    "matrix_path": ["matrix = m.txt", "f = 1 1", "schedule = 1 0.1", "output = o.csv"],
    "disk_cauchy": ["gamma_start = 0", "gamma_end = 3", "schedule = 1e-1 1e-2", "output = o.csv"],
    "disk_mixed": ["gamma_start = 1", "gamma_end = 4", "schedule = 1 0.5", "output = o.csv"],
    "verify_basis": ["operator = gradient", "schedule = 1 0.25", "output = o.csv"],
}
_FUZZ_KEYS = sorted({key for exp in cli.EXPERIMENTS.values() for key in exp.schema}) + [
    "", "wavelength", "a b", "[ode1d]", "#",
]
_FUZZ_VALUES = [
    "0", "1", "-1", "0.5", "6.283185307179586", "7", "1e-1 1e-2", "1 1e-2 1e-4", "1e-2 1",
    "nan", "inf", "-inf", "1e-310", "1e400", "gradient", "cauchy_riemann", "cos", "tan",
    "", "x", "1_0", "0x10", "= =", "9" * 5000,
]
_FUZZ_SECTIONS = list(cli.EXPERIMENTS) + ["", "quantum", "ode1d]", "[ode1d"]
_FUZZ_LINE = st.one_of(
    st.tuples(
        st.sampled_from(_FUZZ_KEYS),
        st.one_of(st.sampled_from(_FUZZ_VALUES), st.text(max_size=12)),
    ).map(" = ".join),
    st.sampled_from(_FUZZ_SECTIONS).map("[{}]".format),
    st.text(max_size=20),
)
_FUZZ_CHUNK = st.one_of(
    _FUZZ_LINE.map(lambda line: line.encode("utf-8", "surrogatepass")),
    st.sampled_from([b"", b"\xff", b"a = \xc3\x28", b"\x80", b"\xed\xa0\x80", b"\x00", b"\r", b"\x0c"]),
)


@st.composite
def _config_bytes(draw):
    name = draw(st.sampled_from(sorted(_FUZZ_BASES)))
    lines = [f"[{name}]".encode()] + [line.encode() for line in _FUZZ_BASES[name]]
    for _ in range(draw(st.integers(0, 3))):
        chunk = draw(_FUZZ_CHUNK)
        at = draw(st.integers(0, len(lines)))
        if at < len(lines) and draw(st.booleans()):
            lines[at] = chunk
        else:
            lines.insert(at, chunk)
    return b"\n".join(lines) + b"\n"


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=_config_bytes())
def test_parse_config_fuzz(tmp_path, data):
    # Parsing only: every input either gives a config or raises InputError.
    path = tmp_path / "fuzz.ini"
    path.write_bytes(data)
    try:
        cfg = cli.parse_config(str(path))
    except InputError:
        return
    assert cfg.experiment in cli.EXPERIMENTS
    assert cfg.output_path and cfg.source == str(path)
