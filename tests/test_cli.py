"""Tests for config parsing, CSV output and CLI exit codes."""

import math

import numpy as np
import pytest

from epsreg import cli
from epsreg.errors import InputError

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

    def test_threads_do_not_change_output(self, tmp_path):
        matrix = tmp_path / "m.txt"
        matrix.write_text("2 2\n1 0\n0 0.5\n")
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = write_config(
            tmp_path,
            f"[matrix_path]\nmatrix = {matrix}\nf = 1 1\n"
            f"schedule = 1 0.1 0.01 0.001\noutput = {out_a}\n",
        )
        assert cli.main(["run", cfg]) == 0
        assert cli.main(["run", cfg, "--output", str(out_b), "--threads", "4"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_env_var_thread_count(self, tmp_path, monkeypatch):
        matrix = tmp_path / "m.txt"
        matrix.write_text("1 1\n2\n")
        out = tmp_path / "env.csv"
        cfg = write_config(
            tmp_path,
            f"[matrix_path]\nmatrix = {matrix}\nf = 1\nschedule = 1 0.1\noutput = {out}\n",
        )
        monkeypatch.setenv("EPSREG_THREADS", "3")
        assert cli.main(["run", cfg]) == 0
        assert out.exists()
        monkeypatch.setenv("EPSREG_THREADS", "0")
        assert cli.main(["run", cfg]) == 2


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


class TestFormatting:
    def test_seventeen_significant_digits(self):
        line = cli._fmt((1.0 / 3.0, 1e-7))
        assert line == "0.33333333333333331,9.9999999999999995e-08"
