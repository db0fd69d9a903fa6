import json

import numpy as np
import pytest

from guas_cert import MatrixPair, cli
from guas_cert.cli import (
    EXIT_GUAS,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_NOT_GUAS,
    EXIT_PRECONDITION,
    load_problem,
    main,
    parse_signal,
    save_problem,
)
from guas_cert.errors import (
    BadSignalSpec,
    DimensionTooLarge,
    InternalInconsistency,
    NonFiniteInput,
    NotHurwitz,
    StructureViolation,
)
from guas_cert.gallery import kdeux, mason


@pytest.fixture
def mason_file(tmp_path):
    path = tmp_path / "mason.json"
    save_problem(mason(), str(path))
    return str(path)


@pytest.fixture
def nan_file(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"B0": [[-1.0, NaN], [0.0, -1.0]], "B1": [[-1.0, 0.0], [0.0, -1.0]]}'
    )
    return str(path)


@pytest.fixture
def kdeux_pm_file(tmp_path):
    pair = kdeux(1.0, -1.0)
    path = tmp_path / "kdeux.json"
    save_problem(MatrixPair(pair.B0, pair.B1, np.eye(3)), str(path))
    return str(path)


class TestProblemFiles:
    def test_roundtrip(self, tmp_path):
        pair = mason()
        path = tmp_path / "p.json"
        save_problem(pair, str(path))
        back = load_problem(str(path))
        np.testing.assert_array_equal(back.B0, pair.B0)
        np.testing.assert_array_equal(back.B1, pair.B1)
        np.testing.assert_array_equal(back.P, pair.P)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"B0": [[1]]}')
        with pytest.raises(ValueError):
            load_problem(str(path))


class TestParseSignal:
    def test_binary(self):
        sig = parse_signal("binary:1=0,2=1")
        assert sig.kind == "binary_piecewise"
        assert sig.segments == ((1.0, 0.0), (2.0, 1.0))

    def test_relaxed(self):
        sig = parse_signal("relaxed:0.5=0.25")
        assert sig.kind == "relaxed_piecewise"

    def test_garbage(self):
        with pytest.raises(BadSignalSpec):
            parse_signal("sawtooth:1=0")
        with pytest.raises(BadSignalSpec):
            parse_signal("binary:abc")


class TestAnalyzeCommand:
    def test_mason_exits_guas(self, mason_file, capsys):
        assert main(["analyze", mason_file]) == EXIT_GUAS
        out = capsys.readouterr().out
        assert "GUAS_trivial_kernel" in out

    def test_kdeux_opposite_exits_not_guas(self, kdeux_pm_file):
        assert main(["analyze", kdeux_pm_file]) == EXIT_NOT_GUAS

    def test_non_hurwitz_is_precondition_failure(self, tmp_path):
        path = tmp_path / "skew.json"
        path.write_text(json.dumps({
            "B0": [[0.0, 1.0], [-1.0, 0.0]], "B1": [[-1.0, 0.0], [0.0, -1.0]],
        }))
        assert main(["analyze", str(path)]) == EXIT_PRECONDITION

    def test_missing_file_is_io_error(self):
        assert main(["analyze", "/nonexistent/p.json"]) == EXIT_IO

    def test_nan_entry_is_io_error(self, nan_file, capsys):
        assert main(["analyze", nan_file]) == EXIT_IO
        assert "non-finite" in capsys.readouterr().err

    def test_nan_in_P_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "nan_P.json"
        path.write_text(
            '{"B0": [[-1.0, 0.0], [0.0, -1.0]], "B1": [[-1.0, 0.0], [0.0, -1.0]],'
            ' "P": [[NaN, 0.0], [0.0, 1.0]]}'
        )
        assert main(["analyze", str(path)]) == EXIT_IO
        assert "non-finite" in capsys.readouterr().err

    def test_json_report_matches_schema(self, kdeux_pm_file, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        import importlib.resources as res

        main(["analyze", kdeux_pm_file, "--json"])
        report = json.loads(capsys.readouterr().out)
        schema = json.loads(
            res.files("guas_cert").joinpath("report_schema.json").read_text()
        )
        jsonschema.validate(report, schema)
        assert report["conclusion"] == "NOT_GUAS_constant_input"


class TestExitCodes:
    @pytest.mark.parametrize("exc, code", [
        (NotHurwitz("B0"), EXIT_PRECONDITION),
        (NonFiniteInput("B0"), EXIT_IO),
        (StructureViolation("C"), EXIT_INTERNAL),
        (InternalInconsistency("run"), EXIT_INTERNAL),
        (DimensionTooLarge("k"), EXIT_INTERNAL),
        (np.linalg.LinAlgError("svd"), EXIT_INTERNAL),
        (RuntimeError("bug"), EXIT_INTERNAL),
    ])
    def test_exception_maps_to_code(self, exc, code, mason_file, monkeypatch, capsys):
        def raising(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "analyze", raising)
        assert main(["analyze", mason_file]) == code
        assert str(exc) in capsys.readouterr().err


class TestSimulateCommand:
    def test_csv_written(self, mason_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main([
            "simulate", mason_file, "--signal", "binary:1=0,1=1",
            "--x0", "1,0", "--T", "2", "--dt", "0.01", "--out", str(out),
        ])
        assert code == EXIT_GUAS
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x_1,x_2,norm,lambda"
        assert len(lines) == 202
        assert "final norm ratio" in capsys.readouterr().out

    def test_worst_signal(self, mason_file, tmp_path):
        out = tmp_path / "worst.csv"
        code = main([
            "simulate", mason_file, "--signal", "worst",
            "--x0", "1,0", "--T", "5", "--dt", "0.01", "--out", str(out),
        ])
        assert code == EXIT_GUAS
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data[-1, 3] < data[0, 3]  # norm column decays

    def test_badlocus_takes_x0_in_K(self, kdeux_pm_file, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        code = main([
            "simulate", kdeux_pm_file, "--signal", "badlocus",
            "--x0", "1,-1", "--T", "1", "--dt", "0.01", "--out", str(out),
        ])
        assert code == EXIT_GUAS
        assert "final norm ratio" in capsys.readouterr().out
        assert out.read_text().splitlines()[0].startswith("t,x_1,x_2,norm")

    def test_badlocus_full_state_x0_is_io_error(self, kdeux_pm_file, tmp_path, capsys):
        code = main([
            "simulate", kdeux_pm_file, "--signal", "badlocus",
            "--x0", "1,-1,0", "--T", "1", "--dt", "0.01",
            "--out", str(tmp_path / "bad.csv"),
        ])
        assert code == EXIT_IO
        assert "coordinates of K" in capsys.readouterr().err

    def test_nan_entry_is_io_error(self, nan_file, tmp_path):
        code = main([
            "simulate", nan_file, "--signal", "worst", "--x0", "1,0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_IO

    def test_nan_x0_is_io_error(self, mason_file, tmp_path):
        code = main([
            "simulate", mason_file, "--signal", "worst", "--x0", "nan,0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_IO

    @pytest.mark.parametrize("signal", ["worst", "binary:1=0,1=1"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_x0_is_io_error(self, mason_file, tmp_path, capsys, signal):
        # finite entries whose norm overflows: the run's norms are inf or NaN
        code = main([
            "simulate", mason_file, "--signal", signal, "--x0", "1e308,1e308",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_IO
        assert "not finite" in capsys.readouterr().err

    def test_bad_signal_spec_is_io_error(self, mason_file, tmp_path):
        code = main([
            "simulate", mason_file, "--signal", "binary:1=7",
            "--x0", "1,0", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_IO


class TestExampleCommand:
    def test_hurwitz_demo(self, capsys):
        assert main(["example", "hurwitz"]) == EXIT_GUAS
        out = capsys.readouterr().out
        assert "agree: True" in out

    def test_mason_prints_strict_search(self, capsys):
        assert main(["example", "mason"]) == EXIT_GUAS
        out = capsys.readouterr().out
        assert "strict 2x2 Lyapunov search" in out
        assert "r-axis" in out

    def test_kdeux_sign_dependence(self):
        assert main(["example", "kdeux", "--a", "1", "--b", "2"]) == EXIT_GUAS
        assert main(["example", "kdeux", "--a", "1", "--b", "-1"]) == EXIT_NOT_GUAS

    def test_torus_inconclusive(self):
        code = main(["example", "torus", "--T", "10", "--dt", "0.01"])
        assert code == EXIT_INCONCLUSIVE

    def test_nan_parameter_is_io_error(self):
        assert main(["example", "kdeux", "--a", "nan"]) == EXIT_IO

    @pytest.mark.parametrize("name, flags", [
        ("torus", ["--T", "-5"]),
        ("torus", ["--dt", "1e9"]),
        ("torus", ["--T", "inf"]),
        ("mason", ["--grid", "1"]),
    ], ids=["negative-T", "dt-past-T", "infinite-T", "grid-1"])
    def test_bad_analyzer_option_is_io_error(self, name, flags, capsys):
        """Rejected before any stage runs: no verdict, so no exit code 0-2."""
        assert main(["example", name, *flags]) == EXIT_IO
        captured = capsys.readouterr()
        assert "must be" in captured.err
        assert "conclusion" not in captured.out

    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["example", "does-not-exist"])
