"""Tests for config parsing, CSV output and CLI exit codes."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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

    def test_nan_arc_end_rejected_with_line(self, tmp_path):
        text = "[disk_mixed]\ngamma_start = 1.0\ngamma_end = nan\nschedule = 1 0.1\noutput = o.csv\n"
        path = write_config(tmp_path, text)
        with pytest.raises(InputError, match=r":3: 'gamma_end' must exceed"):
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


class TestVerifySuite:
    def test_all_checks_pass(self, capsys):
        assert cli.main(["--verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "verify: 0 failure(s)"
        assert not [line for line in lines if line.startswith("FAIL")]
        assert sum("galerkin reproduces span member" in line for line in lines) == 2


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
    # Non-finite numbers and a negative i_max fail at parse time with the
    # config line; none of them writes a CSV.
    @pytest.mark.parametrize(
        "section, body, lineno",
        [
            ("disk_cauchy", "gamma_start = 0\ngamma_end = 3\nnoise_amplitude = nan", 4),
            ("disk_cauchy", "gamma_start = 0\ngamma_end = 3\nnoise_amplitude = inf", 4),
            ("ode1d", "a = 0\nb = 1\nf = cos\nu0 = inf", 5),
            ("ode1d", "a = -inf\nb = 1\nf = cos", 2),
            ("matrix_path", "matrix = m.txt\nf = 1 nan", 3),
            ("verify_basis", "i_max = -1", 2),
        ],
        ids=["noise-nan", "noise-inf", "u0-inf", "a-minus-inf", "f-nan", "i_max-negative"],
    )
    def test_rejected_with_line_number(self, tmp_path, capsys, section, body, lineno):
        out = tmp_path / "out.csv"
        path = write_config(
            tmp_path, f"[{section}]\n{body}\nschedule = 1e-1 1e-2\noutput = {out}\n"
        )
        assert cli.main(["run", path]) == 2
        assert f"{path}:{lineno}: " in capsys.readouterr().err
        assert not out.exists()


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
_FUZZ_KEYS = sorted({key for schema in cli._SCHEMAS.values() for key in schema}) + [
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
