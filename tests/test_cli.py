import json

import numpy as np
import pytest
from scipy.linalg import expm

from guas_cert import MatrixPair, NormalizedPair, block_form, cli, common_kernel
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
from guas_cert.gallery import assemble, kdeux, mason, torus
from guas_cert.observability import MAX_GRID


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

    def test_missing_keys(self, tmp_path, capsys):
        """An object without B1, a number, a string and a JSON object in a
        matrix are parse errors: a ValueError, exit 4, and no traceback."""
        path = tmp_path / "bad.json"
        for text in ('{"B0": [[1]]}', "3", '"B0B1"',
                     '{"B0": {"a": 1}, "B1": [[-1]]}',
                     '{"B0": [[-1]], "B1": [[-1]], "P": {"a": 1}}',
                     '{"B0": [[{"a": 1}]], "B1": [[-1]]}'):
            path.write_text(text)
            with pytest.raises(ValueError):
                load_problem(str(path))
            assert main(["analyze", str(path)]) == EXIT_IO, text
            assert "Traceback" not in capsys.readouterr().err


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

    @pytest.mark.parametrize("problem, argv, lines", [
        pytest.param(torus, ["worst", "--x0", "1,0,0,0,0", "--T", "20", "--dt", "5e-3"],
                     ["final norm ratio: 4.190721e-01",
                      "limit radius estimate: 4.190721e-01 (plateaued: False)"],
                     id="torus-worst"),
        pytest.param(mason, ["binary:1=0", "--x0", "0,1", "--T", "1", "--dt", "0.01"],
                     ["final norm ratio: 2.365361e-01",
                      "limit radius estimate: 5.710487e-01 (plateaued: False)"],
                     id="mason-binary"),
        pytest.param(torus, ["badlocus", "--x0", "1,0,0,0", "--T", "5", "--dt", "1e-2"],
                     ["exited F at t = 1.58",
                      "final norm ratio: 1.000000e+00",
                      "limit radius estimate: 1.000000e+00 (plateaued: True)"],
                     id="torus-badlocus"),
    ])
    def test_stdout(self, problem, argv, lines, tmp_path, capsys):
        """The printed lines, the limit radius with its plateau flag included."""
        path, out = tmp_path / "problem.json", tmp_path / "run.csv"
        save_problem(problem(), str(path))
        code = main(["simulate", str(path), "--signal", *argv, "--out", str(out)])
        assert code == EXIT_GUAS
        assert capsys.readouterr().out.splitlines() == [
            *lines, f"trajectory written to {out}"
        ]

    def test_worst_signal(self, mason_file, tmp_path):
        out = tmp_path / "worst.csv"
        code = main([
            "simulate", mason_file, "--signal", "worst",
            "--x0", "1,0", "--T", "5", "--dt", "0.01", "--out", str(out),
        ])
        assert code == EXIT_GUAS
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data[-1, 3] < data[0, 3]  # norm column decays

    def test_binary_run_is_in_the_problems_coordinates(self, mason_file, tmp_path):
        """mason carries P: the last state of u = 0 for T = 1 is expm(B0) x0."""
        out = tmp_path / "b0.csv"
        code = main([
            "simulate", mason_file, "--signal", "binary:1=0", "--x0", "0,1",
            "--T", "1", "--dt", "0.01", "--out", str(out),
        ])
        assert code == EXIT_GUAS
        last = np.loadtxt(out, delimiter=",", skiprows=1)[-1]
        np.testing.assert_allclose(last[1:3], expm(mason().B0) @ [0.0, 1.0], atol=1e-9)

    @pytest.mark.parametrize("signal", ["binary:1=0,1=1", "relaxed:2=0.5", "worst"])
    def test_states_start_at_x0_with_their_P_norm(self, mason_file, tmp_path, signal):
        out = tmp_path / "run.csv"
        code = main([
            "simulate", mason_file, "--signal", signal, "--x0", "0,1",
            "--T", "2", "--dt", "0.01", "--out", str(out),
        ])
        assert code == EXIT_GUAS
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        x, norm = data[:, 1:3], data[:, 3]
        np.testing.assert_allclose(x[0], [0.0, 1.0], atol=1e-12)
        P = mason().P
        np.testing.assert_allclose(norm, np.sqrt(np.einsum("ti,ij,tj->t", x, P, x)),
                                   rtol=1e-12)

    def test_full_state_x0_of_wrong_length_is_io_error(self, mason_file, tmp_path,
                                                       capsys):
        code = main([
            "simulate", mason_file, "--signal", "worst", "--x0", "1,0,0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_IO
        assert "x0 has length 3, system dimension is 2" in capsys.readouterr().err

    def test_badlocus_takes_x0_in_K(self, kdeux_pm_file, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        code = main([
            "simulate", kdeux_pm_file, "--signal", "badlocus",
            "--x0", "1,-1", "--T", "1", "--dt", "0.01", "--out", str(out),
        ])
        assert code == EXIT_GUAS
        assert "final norm ratio" in capsys.readouterr().out
        assert out.read_text().splitlines()[0].startswith("t,x_1,x_2,norm")

    def test_badlocus_exits_F(self, tmp_path, capsys):
        """kdeux(1, 1): the feedback run from x0 in F leaves F at t = pi/4."""
        path = tmp_path / "kdeux.json"
        save_problem(kdeux(1.0, 1.0), str(path))
        h = str(np.sqrt(0.5))
        argv = ["simulate", str(path), "--signal", "badlocus", "--T", "2",
                "--dt", "1e-3", "--out", str(tmp_path / "bad.csv")]
        assert main(argv + ["--x0", f"{h},-{h}"]) == EXIT_GUAS
        assert "exited F at t = 0.786" in capsys.readouterr().out
        assert main(argv + ["--x0", f"{h},{h}"]) == EXIT_IO
        assert "requires x0 in F" in capsys.readouterr().err

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

    @pytest.mark.parametrize("problem, signal, x0", [
        ("mason_file", "worst", "1e308,1e308"),
        ("mason_file", "binary:1=0,1=1", "1e308,1e308"),
        ("kdeux_pm_file", "badlocus", "-1e308,1e308"),
    ], ids=["worst", "binary:1=0,1=1", "badlocus"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_x0_is_io_error(self, request, tmp_path, capsys, problem,
                                        signal, x0):
        # finite entries whose norm overflows: the run's norms are inf or NaN
        code = main([
            "simulate", request.getfixturevalue(problem), "--signal", signal,
            "--x0=" + x0, "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_IO
        assert "not finite" in capsys.readouterr().err

    def test_bad_signal_spec_is_io_error(self, mason_file, tmp_path, capsys):
        for spec in ["binary:1=7", "binary:inf=0", "relaxed:1=0.5,inf=1",
                     "binary:nan=0"]:
            code = main([
                "simulate", mason_file, "--signal", spec,
                "--x0", "1,0", "--out", str(tmp_path / "x.csv"),
            ])
            assert code == EXIT_IO, spec
            assert "cannot parse signal spec" in capsys.readouterr().err, spec

    @pytest.mark.parametrize("horizon", [
        ["--T", "-1"], ["--dt", "0"], ["--dt", "-0.001"], ["--T", "inf"],
        ["--dt", "5", "--T", "1"],
    ], ids=["negative-T", "zero-dt", "negative-dt", "infinite-T", "dt-past-T"])
    @pytest.mark.parametrize("signal", ["binary:1=0,1=1", "relaxed:2=0.5", "worst",
                                        "badlocus"])
    def test_bad_horizon_is_io_error(self, kdeux_pm_file, tmp_path, capsys, signal,
                                     horizon):
        """Every signal kind takes the one horizon rule: finite, 0 < dt <= T."""
        x0 = "1,0,0"
        if signal == "badlocus":  # in the coordinates of K, inside F
            x0 = "-0.7071067811865476,0.7071067811865476"
        code = main([
            "simulate", kdeux_pm_file, "--signal", signal, "--x0=" + x0, *horizon,
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_IO
        assert "0 < dt <= T" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("signal", ["binary:1=0,1=1", "worst"])
    def test_step_count_overflow_is_io_error(self, mason_file, tmp_path, capsys,
                                             signal):
        """Finite T and dt whose ratio overflows: exit 4, not an OverflowError."""
        code = main([
            "simulate", mason_file, "--signal", signal, "--x0", "1,0",
            "--T", "1e300", "--dt", "1e-300", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_IO
        assert "T / dt must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


    def test_step_count_cap_is_io_error(self, tmp_path, capsys):
        """Finite T / dt, but 1e15 steps: exit 4 before any allocation."""
        problem = tmp_path / "torus.json"
        save_problem(torus(), str(problem))
        code = main([
            "simulate", str(problem), "--signal", "worst", "--x0", "1,0,0,0,0",
            "--T", "1e12", "--dt", "1e-3", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_IO
        assert "at most 10000000 steps" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


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

    def test_torus_rates_count(self, capsys):
        """q = 2 blocks take two rates."""
        assert main(["example", "torus", "--rates", "1", "--T", "1",
                     "--dt", "0.01"]) == EXIT_IO
        assert "need 2 rates, got 1" in capsys.readouterr().err
        assert main(["example", "torus", "--rates", "1,2", "--T", "1",
                     "--dt", "0.01"]) == EXIT_INCONCLUSIVE

    @pytest.mark.parametrize("name, flags", [
        ("torus", ["--T", "-5"]),
        ("torus", ["--dt", "1e9"]),
        ("torus", ["--T", "inf"]),
        ("torus", ["--T", "1e300", "--dt", "1e-300"]),
        ("mason", ["--T", "1e300", "--dt", "1e-300"]),
        ("torus", ["--T", "1e12", "--dt", "1e-3"]),
        ("mason", ["--grid", "1"]),
        ("mason", ["--grid", str(MAX_GRID + 1)]),
        ("kdeux", ["--b", "-1", "--tol", "-1"]),
        ("kdeux", ["--b", "-1", "--tol", "nan"]),
        ("kdeux", ["--b", "-1", "--tol", "inf"]),
        ("kdeux", ["--b", "-1", "--tol", "0"]),
        ("mason", ["--seed", "-1"]),
        ("torus", ["--seed", "-1", "--T", "1", "--dt", "0.01"]),
    ], ids=["negative-T", "dt-past-T", "infinite-T", "step-count-overflow",
            "step-count-overflow-without-evidence", "step-count-cap", "grid-1",
            "grid-above-cap", "negative-tol",
            "nan-tol", "infinite-tol", "zero-tol", "negative-seed-without-evidence",
            "negative-seed"])
    def test_bad_analyzer_option_is_io_error(self, name, flags, capsys):
        """Rejected before any stage runs: no verdict, so no exit code 0-2."""
        assert main(["example", name, *flags]) == EXIT_IO
        captured = capsys.readouterr()
        assert "must be" in captured.err
        assert "conclusion" not in captured.out

    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["example", "does-not-exist"])


#: A pair that is not GUAS at any time scale: expm(0.3 A1) expm(0.3 A0) has
#: spectral radius 5.48, and no common weak Lyapunov P = I.
DESTABILIZING = (
    np.array([[-0.1, 1.0], [-10.0, -0.1]]),
    np.array([[-0.1, 10.0], [-1.0, -0.1]]),
)


class TestOverflowRefusals:
    """A tolerance or scale of the front end that overflows refuses the
    input (exit 4); an infinite tolerance would pass any form."""

    @pytest.mark.parametrize("s, code", [(1.0, EXIT_PRECONDITION), (1e150, EXIT_PRECONDITION),
                                         (1e155, EXIT_IO)])
    def test_destabilizing_pair_is_never_certified(self, tmp_path, s, code):
        path = str(tmp_path / "pair.json")
        save_problem(MatrixPair(s * DESTABILIZING[0], s * DESTABILIZING[1]), path)
        assert main(["analyze", path]) == code

    # 1e40 and 1e60: O(lam) is finite, but the Lipschitz bound of the Kalman
    # sweep, a sum of powers of ||A||, overflows
    @pytest.mark.parametrize("s", [1e40, 1e60, 1e100, 1e150, 1e155])
    def test_scaled_torus_is_refused(self, tmp_path, capsys, s):
        pair = torus()
        path = str(tmp_path / "torus.json")
        save_problem(MatrixPair(s * pair.B0, s * pair.B1), path)
        assert main(["analyze", path]) == EXIT_IO
        assert "overflow" in capsys.readouterr().err

    def test_huge_P_is_refused_as_non_finite(self):
        with pytest.raises(NonFiniteInput, match="overflows"):
            MatrixPair(-np.eye(2), -np.eye(2), 1e300 * np.eye(2))

    def test_block_form_refuses_an_overflowing_scale(self):
        # a huge rotation on K with a modest symmetric part: the kernel is
        # exact, and 1 + ||B||_F overflows
        J = np.array([[0.0, 1e200], [-1e200, 0.0]])
        npair = NormalizedPair(
            assemble(J, np.array([[1.0, 0.0]]), np.array([[-1.0]])),
            assemble(J, np.array([[0.0, 1.0]]), np.array([[-1.0]])),
        )
        decomp = common_kernel(npair)
        assert decomp.k == 2
        with pytest.raises(NonFiniteInput, match="overflows"):
            block_form(npair, decomp)
