import importlib
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref

import numpy as np
import pytest

import opint
import opint.cli as cli
import opint.sylvester as sylvester
from opint.cli import main
from opint.probfile import load_problem, matrix_from_json, matrix_to_json
from opint import InvalidProblemError, SpectralMeasure, operator_norm
from opint.spectral import _PHASE, _normal_form

from conftest import (count_decompositions, make_certified_riccati, random_normal,
                      random_unitary)


def matjson(M):
    return matrix_to_json(np.asarray(M, dtype=complex))


def write_problem(tmp_path, name="problem.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestProblemFile:
    def test_matrix_round_trip(self, rng):
        M = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        back = matrix_from_json(matrix_to_json(M))
        assert np.array_equal(back, M)

    def test_rejects_bad_data(self, tmp_path):
        path = write_problem(tmp_path, C={"rows": 2, "cols": 2,
                                          "data": [[0, 0], [1, 1], [2, 2]]})
        with pytest.raises(InvalidProblemError):
            load_problem(path)

    def test_rejects_nonfinite(self, tmp_path):
        path = write_problem(tmp_path, C={"rows": 1, "cols": 1,
                                          "data": [[1e999, 0.0]]})
        with pytest.raises(InvalidProblemError):
            load_problem(path)

    def test_tolerance_override(self, tmp_path):
        path = write_problem(tmp_path, tolerances={"tol_cluster": 1e-6})
        assert load_problem(path)["tolerances"].tol_cluster == 1e-6

    def test_unknown_tolerance_key(self, tmp_path):
        path = write_problem(tmp_path, tolerances={"tol_bogus": 1e-6})
        with pytest.raises(InvalidProblemError):
            load_problem(path)

    @pytest.mark.parametrize("data", [[[True, False]], [[1.0, False]]])
    def test_rejects_booleans(self, tmp_path, data):
        path = write_problem(tmp_path, C={"rows": 1, "cols": 1, "data": data})
        with pytest.raises(InvalidProblemError):
            load_problem(path)

    @pytest.mark.parametrize("rows", [1.7, "1", 1.0, True, 0])
    def test_rejects_non_integer_sizes(self, tmp_path, rows):
        path = write_problem(tmp_path, C={"rows": rows, "cols": 1,
                                          "data": [[1.0, 0.0]]})
        with pytest.raises(InvalidProblemError):
            load_problem(path)

    @pytest.mark.parametrize("value", [True, "2", None, [2.0],
                                       pytest.param(10 ** 400, id="huge_int")])
    def test_rejects_non_number_rect(self, tmp_path, capsys, value):
        path = write_problem(tmp_path, C=matjson(np.eye(2)),
                             rect={"a": -1.0, "b": value, "c": -1, "d": 1})
        with pytest.raises(InvalidProblemError):
            load_problem(path)
        code, _, _ = run(capsys, ["spectral", path])
        assert code == 2

    @pytest.mark.parametrize("value", ["1e-6", True, None])
    def test_rejects_non_number_tolerances(self, tmp_path, capsys, value):
        path = write_problem(tmp_path, C=matjson(np.eye(2)),
                             tolerances={"tol_cluster": value})
        with pytest.raises(InvalidProblemError):
            load_problem(path)
        code, _, _ = run(capsys, ["spectral", path])
        assert code == 2

    def test_integer_rect_and_tolerances_load_as_floats(self, tmp_path):
        path = write_problem(tmp_path, rect={"a": -1, "b": 2, "c": -1, "d": 1},
                             tolerances={"tol_cluster": 1e-6})
        problem = load_problem(path)
        assert problem["rect"].b == 2.0 and type(problem["rect"].b) is float
        assert problem["tolerances"].tol_cluster == 1e-6


class TestSpectralCommand:
    def test_clusters_and_multiplicities(self, tmp_path, capsys):
        path = write_problem(tmp_path, C=matjson(np.diag([1.0, 1j, 1j])))
        code, out, _ = run(capsys, ["spectral", path])
        assert code == 0
        report = json.loads(out)
        assert sorted(report["multiplicities"]) == [1, 2]
        eigs = {complex(re, im) for re, im in report["eigenvalues"]}
        assert eigs == {1 + 0j, 1j}
        assert all(v <= 1e-10 for v in report["residuals"].values())

    def test_not_normal_exits_3(self, tmp_path, capsys):
        path = write_problem(tmp_path, C=matjson([[0.0, 1.0], [0.0, 0.0]]))
        code, _, err = run(capsys, ["spectral", path])
        assert code == 3
        assert "normal" in err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, ["spectral", str(path)])
        assert code == 2

    def test_missing_matrix_exits_2(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, _, _ = run(capsys, ["spectral", path])
        assert code == 2

    def test_output_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, C=matjson(np.eye(2)))
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, ["spectral", path, "--output", str(out_path)])
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["dim"] == 2


class TestSylvesterCommand:
    @pytest.mark.parametrize("method", ["spectral", "kronecker", "contour", "double"])
    def test_scalar_all_methods(self, tmp_path, capsys, method):
        path = write_problem(tmp_path, A=matjson([[2.0]]), C=matjson([[0.0]]),
                             D=matjson([[1.0]]))
        code, out, _ = run(capsys, ["sylvester", path, "--method", method])
        assert code == 0
        report = json.loads(out)
        assert report["X"]["data"][0][0] == pytest.approx(0.5, abs=1e-10)
        assert report["residual"] <= 1e-10

    def test_zero_gap_exits_3(self, tmp_path, capsys):
        path = write_problem(tmp_path, A=matjson([[1.0]]), C=matjson([[1.0]]),
                             D=matjson([[1.0]]))
        code, _, _ = run(capsys, ["sylvester", path])
        assert code == 3

    def test_double_nonnormal_exits_3(self, tmp_path, capsys):
        path = write_problem(tmp_path,
                             A=matjson([[3.0, 1.0], [0.0, 3.5]]),
                             C=matjson([[0.0]]), D=matjson([[1.0, 1.0]]))
        code, _, _ = run(capsys, ["sylvester", path, "--method", "double"])
        assert code == 3

    def test_round_trip_residual(self, tmp_path, capsys, rng):
        C, _ = random_normal(rng, 4)
        A, _ = random_normal(rng, 3, re=(2.0, 4.0))
        D = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        path = write_problem(tmp_path, A=matjson(A), C=matjson(C), D=matjson(D))
        code, out, _ = run(capsys, ["sylvester", path])
        assert code == 0
        report = json.loads(out)
        X = matrix_from_json(report["X"])
        recomputed = operator_norm(X @ A - C @ X - D)
        assert recomputed == pytest.approx(report["residual"], abs=1e-12)


class TestReportShape:
    """The default JSON keys and certificate modes of the two solver
    commands, for a normal and a non-normal A."""

    CERTIFICATE = {"mode", "d", "norm_b", "enorm_d", "condition_ok", "r_min",
                   "r_max", "q_at_rmin", "apriori_norm_x", "apriori_enorm_x",
                   "strict_contraction_predicted"}

    @pytest.mark.parametrize("normal_a", [True, False])
    def test_sylvester_and_riccati_keys(self, tmp_path, capsys, rng, normal_a):
        prob = make_certified_riccati(rng, 5, 4, normal_a=normal_a)
        path = write_problem(tmp_path, **{name: matjson(getattr(prob, name))
                                          for name in "ABCD"})
        code, out, _ = run(capsys, ["sylvester", path])
        report = json.loads(out)
        assert code == 0
        assert set(report) == {"method", "X", "residual", "gap_d",
                               "gap_numrange", "bounds"}
        gated = {"enorm_vs_gap", "hs_vs_gap"} if normal_a else set()
        assert set(report["bounds"]) == {"enorm_vs_numrange"} | gated
        for check in report["bounds"].values():
            assert set(check) == {"bound", "observed", "ok"} and check["ok"]
        code, out, _ = run(capsys, ["riccati", path])
        report = json.loads(out)
        assert code == 0
        assert set(report) == {"certificate", "X", "iterations", "residual",
                               "enorm_x", "converged", "posterior"}
        assert set(report["certificate"]) == self.CERTIFICATE
        assert report["certificate"]["mode"] == (
            "normal_a" if normal_a else "numerical_range")
        assert set(report["posterior"]) == {
            "aposteriori_sup_resolvent", "aposteriori_gap", "strict_enorm_lt_1",
            "strict_norm_order"}


class TestRiccatiCommand:
    def test_scalar_certified(self, tmp_path, capsys):
        path = write_problem(tmp_path, A=matjson([[3.0]]), B=matjson([[1.0]]),
                             C=matjson([[0.0]]), D=matjson([[1.0]]))
        code, out, _ = run(capsys, ["riccati", path, "--tol", "1e-13"])
        assert code == 0
        report = json.loads(out)
        assert report["converged"]
        assert report["X"]["data"][0][0] == pytest.approx(0.3027756, abs=1e-6)
        assert report["certificate"]["condition_ok"]
        assert all(chk["ok"] for chk in report["posterior"].values())

    def test_uncertified_prints_certificate(self, tmp_path, capsys):
        path = write_problem(tmp_path, A=matjson([[3.0]]), B=matjson([[2.0]]),
                             C=matjson([[0.0]]), D=matjson([[2.0]]), seed=12345)
        code, out, _ = run(capsys, ["riccati", path])
        assert code == 3
        payload = json.loads(out)
        assert payload["certificate"]["condition_ok"] is False
        assert payload["certificate"]["r_min"] is None  # NaN serialized as null
        assert payload["seed"] == 12345

    def test_uncertified_with_override(self, tmp_path, capsys):
        path = write_problem(tmp_path, A=matjson([[3.0]]), B=matjson([[1.0]]),
                             C=matjson([[0.0]]), D=matjson([[3.0]]))
        code, out, _ = run(capsys, ["riccati", path, "--override-certificate"])
        assert code == 0
        assert json.loads(out)["converged"]

    def test_zero_b_exits_3(self, tmp_path, capsys):
        path = write_problem(tmp_path, A=matjson([[3.0]]), B=matjson([[0.0]]),
                             C=matjson([[0.0]]), D=matjson([[1.0]]))
        code, _, err = run(capsys, ["riccati", path])
        assert code == 3
        assert "sylvester" in err.lower()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_exits_2(self, tmp_path, capsys, tol):
        path = write_problem(tmp_path, A=matjson([[3.0]]), B=matjson([[1.0]]),
                             C=matjson([[0.0]]), D=matjson([[1.0]]))
        code, out, err = run(capsys, ["riccati", path, "--tol", tol])
        assert code == 2
        assert out == ""
        assert "tol must be finite and nonnegative" in err

    def test_max_iter_exits_4(self, tmp_path, capsys):
        path = write_problem(tmp_path, A=matjson([[3.0]]), B=matjson([[1.0]]),
                             C=matjson([[0.0]]), D=matjson([[1.0]]))
        code, _, _ = run(capsys, ["riccati", path, "--tol", "1e-14",
                                  "--max-iter", "2"])
        assert code == 4

    def test_diverging_iterate_exits_4(self, tmp_path, capsys):
        # B X_1 overflows, so the second step has no finite A + BX to solve on
        A = 1e-20 * np.random.default_rng(0).standard_normal((2, 2))
        path = write_problem(tmp_path, A=matjson(A), B=matjson(1e200 * np.ones((2, 2))),
                             C=matjson(1e20 * np.diag([1.0, 2.0j])),
                             D=matjson(1e200 * np.ones((2, 2))))
        code, out, err = run(capsys, ["riccati", path, "--override-certificate",
                                      "--max-iter", "30"])
        assert (code, out) == (4, "")
        assert err.startswith("error: fixed-point iteration diverged: "
                              "A + BX is not finite at step 2 (last step ")

    def test_tiny_entries_certify_and_solve(self, tmp_path, capsys):
        # d^2 / 4 and (d - ||B|| r_min)^2 underflow unless the certificate scales
        path = write_problem(tmp_path, A=matjson([[1e-200 * (1 + 1j)]]),
                             B=matjson(1e-300 * np.ones((1, 3))),
                             C=matjson(1e-300 * np.diag([1.0, 2.0j, -1.5])),
                             D=matjson(1e-200 * np.ones((3, 1))))
        code, out, err = run(capsys, ["riccati", path])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["certificate"]["condition_ok"] and report["converged"]
        # X = D A^{-1} up to terms 1e-100 smaller
        X = matrix_from_json(report["X"])
        assert np.allclose(X, 0.5 - 0.5j, rtol=1e-15, atol=0.0)


class TestEnormCommand:
    def test_triple(self, tmp_path, capsys):
        path = write_problem(tmp_path, C=matjson(np.diag([0.0, 1.0])),
                             Y=matjson(np.diag([3.0, 4.0])))
        code, out, _ = run(capsys, ["enorm", path])
        assert code == 0
        report = json.loads(out)
        assert report["op_norm"] == pytest.approx(4.0)
        assert report["e_norm"] == pytest.approx(5.0)
        assert report["hs_norm"] == pytest.approx(5.0)

    def test_zero(self, tmp_path, capsys):
        path = write_problem(tmp_path, C=matjson(np.diag([0.0, 1.0])),
                             Y=matjson(np.zeros((2, 2))))
        code, out, _ = run(capsys, ["enorm", path])
        assert code == 0
        assert json.loads(out) == {"op_norm": 0.0, "e_norm": 0.0, "hs_norm": 0.0}

    def test_shape_mismatch_exits_2(self, tmp_path, capsys):
        path = write_problem(tmp_path, C=matjson(np.diag([0.0, 1.0])),
                             Y=matjson(np.eye(3)))
        code, _, _ = run(capsys, ["enorm", path])
        assert code == 2

    def test_bound_violation_exits_3(self, tmp_path, capsys, monkeypatch):
        # a measure on the non-unitary basis 2I breaks ||Y||_E <= ||Y||_2
        from opint import SpectralMeasure
        import opint.cli
        monkeypatch.setattr(
            opint.cli, "decompose_normal",
            lambda C, tol: SpectralMeasure([0.0, 1.0], 2.0 * np.eye(2), [1, 1]))
        path = write_problem(tmp_path, C=matjson(np.diag([0.0, 1.0])),
                             Y=matjson(np.eye(2)))
        code, out, err = run(capsys, ["enorm", path])
        assert code == 3
        assert out == "" and "exceeds" in err


class TestHugeEntries:
    """Entries near 1e200, whose squares overflow, on C = diag(0, 1) or I."""

    BIG = 1e200 * np.ones((2, 2))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_enorm(self, tmp_path, capsys, scale):
        path = write_problem(tmp_path, C=matjson(np.eye(2)),
                             Y=matjson(scale * np.ones((2, 2))))
        code, out, _ = run(capsys, ["enorm", path])
        assert code == 0
        for value in json.loads(out).values():
            assert value == pytest.approx(2.0 * scale, rel=1e-15, abs=0.0)

    def test_spectral(self, tmp_path, capsys):
        path = write_problem(tmp_path, C=matjson(1e200 * np.diag([1.0, 2.0, 3.0j])))
        code, out, _ = run(capsys, ["spectral", path])
        assert code == 0
        report = json.loads(out)
        assert report["eigenvalues"] == [[0.0, 3e200], [1e200, 0.0], [2e200, 0.0]]
        assert report["multiplicities"] == [1, 1, 1]

    @pytest.mark.parametrize("argv,exit_code,message", [
        (["riccati"], 3, ""),
        (["sylvester", "--method", "kronecker"], 0, ""),
        (["sylvester"], 0, ""),
        (["sylvester", "--method", "contour"], 0, ""),
        (["sylvester", "--method", "double"], 0, "")])
    def test_solvers(self, tmp_path, capsys, argv, exit_code, message):
        A, C = np.diag([3.0, 4.0]), np.diag([0.0, 1.0])
        path = write_problem(tmp_path, A=matjson(A), B=matjson(np.eye(2)),
                             C=matjson(C), D=matjson(self.BIG))
        code, out, err = run(capsys, argv[:1] + [path] + argv[1:])
        assert code == exit_code and message in err
        if argv[0] == "sylvester":  # X_ij = D_ij / (a_j - c_i), as the oracle finds
            X = matrix_from_json(json.loads(out)["X"])
            exact = self.BIG / (np.diag(A)[None, :] - np.diag(C)[:, None])
            assert np.allclose(X, exact, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("method", ["kronecker", "spectral", "contour", "double"])
    @pytest.mark.parametrize("d", [1.0, 1e200])
    def test_solvers_on_huge_a_and_c(self, tmp_path, capsys, method, d):
        # the contour's node integrand is about d / 1e400, below the float
        # range for d = 1, unless the solver scales the problem
        A, C = 1e200 * np.diag([5.0, 6.0]), 1e200 * np.diag([1.0, 2.0, 3.0j])
        D = d * np.ones((3, 2))
        path = write_problem(tmp_path, A=matjson(A), C=matjson(C), D=matjson(D))
        code, out, err = run(capsys, ["sylvester", path, "--method", method])
        assert (code, err) == (0, "")
        X = matrix_from_json(json.loads(out)["X"])
        exact = D / (np.diag(A)[None, :] - np.diag(C)[:, None])
        assert np.allclose(X, exact, rtol=1e-13, atol=0.0)


class TestKroneckerMemory:
    """A Kronecker system beyond the available memory exits 2 before its
    (hk)^2 matrix exists; h = k = 24 under a budget of 1000 bytes."""

    NEED = 2 * (24 * 24) ** 2 * 16
    MESSAGE = (f"error: the vectorized system needs {NEED} bytes (K and its LU copy), "
               "but only 1000 bytes are available\n")

    def problem(self, tmp_path, rng):
        A, _ = random_normal(rng, 24, re=(2.0, 4.0))
        C, _ = random_normal(rng, 24)
        return write_problem(tmp_path, A=matjson(A), C=matjson(C), D=matjson(np.ones((24, 24))))

    def test_exits_2_naming_the_bytes(self, tmp_path, capsys, rng, monkeypatch):
        path = self.problem(tmp_path, rng)
        monkeypatch.setattr(sylvester, "_available_memory", lambda: 1000)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, ["sylvester", path, "--method", "kronecker"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (2, "", self.MESSAGE)
        assert peak < (24 * 24) ** 2 * 16

    def test_exits_2_under_optimized_python(self, tmp_path, rng):
        path = self.problem(tmp_path, rng)
        src = os.path.dirname(os.path.dirname(os.path.abspath(opint.__file__)))
        script = textwrap.dedent(f"""
            import tracemalloc
            import opint.sylvester
            from opint.cli import main
            assert False, "python -O should have stripped this assert"
            opint.sylvester._available_memory = lambda: 1000
            tracemalloc.start()
            code = main(["sylvester", {path!r}, "--method", "kronecker"])
            print(code, tracemalloc.get_traced_memory()[1])
        """)
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0 and out.stderr == self.MESSAGE, out.stderr
        code, peak = map(int, out.stdout.split())
        assert code == 2 and peak < (24 * 24) ** 2 * 16


class TestIntegrateCommand:
    def test_affine_study(self, tmp_path, capsys):
        path = write_problem(tmp_path, C=matjson(np.diag([1.0, 1j])),
                             rect={"a": -2, "b": 2, "c": -2, "d": 2})
        code, out, _ = run(capsys, ["integrate", path, "--function", "affine:1,2",
                                    "--grid-levels", "30", "--tol", "1e-11"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level,m,n,mesh,diff_prev,err_vs_exact"
        assert lines[-1] == "# converged"
        last = lines[-2].split(",")
        assert float(last[5]) <= 1e-9

    def test_constant_poly(self, tmp_path, capsys):
        path = write_problem(tmp_path, C=matjson(np.diag([1.0, 1j])),
                             rect={"a": -2, "b": 2, "c": -2, "d": 2})
        code, out, _ = run(capsys, ["integrate", path, "--function", "poly:1"])
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[-1] == "# converged"
        assert float(rows[2].split(",")[4]) == 0.0  # level-2 cauchy diff
        assert float(rows[1].split(",")[5]) == 0.0  # exact from level 1

    def test_resolvent_study(self, tmp_path, capsys, rng):
        C, _ = random_normal(rng, 4)
        A, _ = random_normal(rng, 4, re=(3.0, 4.0))
        D = rng.standard_normal((2, 4))
        path = write_problem(tmp_path, C=matjson(C), A=matjson(A), D=matjson(D),
                             rect={"a": -1.2, "b": 1.2, "c": -1.2, "d": 1.2})
        code, out, _ = run(capsys, ["integrate", path, "--function",
                                    "resolvent:A,D", "--grid-levels", "45",
                                    "--tol", "2e-9"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "# converged"
        assert float(lines[-2].split(",")[5]) <= 1e-8

    def test_singular_tag_exits_4_naming_it(self, tmp_path, capsys):
        # spec(A) = spec(C): the exact integral's first tag, 0.25, is singular
        M = matjson(np.diag([0.25, 0.75]))
        path = write_problem(tmp_path, C=M, A=M, D=matjson(np.eye(2)),
                             rect={"a": 0, "b": 1, "c": -0.5, "d": 0.5})
        code, out, err = run(capsys, ["integrate", path, "--function",
                                      "resolvent:A,D", "--grid-levels", "6"])
        assert code == 4
        assert out == ""
        assert "at z = (0.25+0j)" in err

    @pytest.mark.parametrize("A, D, message", [
        (np.ones((2, 3)), np.eye(2), "A must be square"),
        (np.eye(2), np.ones((2, 3)), "cannot form D (A - z)^{-1}"),
        (np.eye(3), np.eye(3), "must have 2 columns to integrate"),
    ])
    def test_resolvent_shape_errors_exit_2(self, tmp_path, capsys, A, D, message):
        path = write_problem(tmp_path, C=matjson(np.diag([1.0, 1j])), A=matjson(A),
                             D=matjson(D), rect={"a": -2, "b": 2, "c": -2, "d": 2})
        code, out, err = run(capsys, ["integrate", path, "--function", "resolvent:A,D"])
        assert code == 2
        assert out == ""
        assert message in err

    def test_not_converged_exits_4(self, tmp_path, capsys):
        path = write_problem(tmp_path,
                             C=matjson(np.diag([0.311 + 0.013j, -0.573 + 0.771j])),
                             rect={"a": -2, "b": 2, "c": -2, "d": 2})
        code, out, _ = run(capsys, ["integrate", path, "--function",
                                    "affine:1,2", "--grid-levels", "3",
                                    "--tol", "1e-14"])
        assert code == 4
        assert out.strip().splitlines()[-1] == "# not-converged"

    def test_defaults_converge_off_dyadic_points(self, tmp_path, capsys):
        # no eigenvalue coordinate is a dyadic point of the rectangle, so
        # the tags only reach the atoms to 1e-10 after some 36 levels
        path = write_problem(tmp_path,
                             C=matjson(np.diag([0.311 + 0.013j, -0.573 + 0.771j])),
                             rect={"a": -2, "b": 2, "c": -2, "d": 2})
        code, out, _ = run(capsys, ["integrate", path, "--function", "affine:1,2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "# converged"
        assert len(lines) - 2 > 20
        assert float(lines[-2].split(",")[5]) <= 1e-9

    def test_holds_two_level_sums_at_most(self, tmp_path, capsys, monkeypatch):
        # every n x n sum of an affine integrand is one _weighted: alive at
        # once are the exact integral and the level being printed
        arrays, alive = [], []
        weighted = SpectralMeasure._weighted

        def tracked(sm, values):
            out = weighted(sm, values)
            arrays.append(weakref.ref(out))
            alive.append(sum(ref() is not None for ref in arrays))
            return out

        monkeypatch.setattr(SpectralMeasure, "_weighted", tracked)
        path = write_problem(tmp_path,
                             C=matjson(np.diag([0.311 + 0.013j, -0.573 + 0.771j, 0.5])),
                             rect={"a": -2, "b": 2, "c": -2, "d": 2})
        code, out, _ = run(capsys, ["integrate", path, "--function", "affine:1,2"])
        assert code == 0
        assert max(alive) == 2
        # and each level's sum is formed once
        assert len(arrays) == 1 + len(out.strip().splitlines()) - 2 > 20

    def test_bad_function_exits_2(self, tmp_path, capsys):
        path = write_problem(tmp_path, C=matjson(np.eye(2)),
                             rect={"a": -2, "b": 2, "c": -2, "d": 2})
        code, _, _ = run(capsys, ["integrate", path, "--function", "sin:1"])
        assert code == 2

    def test_non_finite_function_exits_2(self, tmp_path, capsys):
        path = write_problem(tmp_path, C=matjson(np.diag([1.0, 1j])),
                             rect={"a": -2, "b": 2, "c": -2, "d": 2})
        code, out, err = run(capsys, ["integrate", path, "--function",
                                      "poly:1e308,1e308,1e308"])
        assert code == 2
        assert out == ""
        # the exact integral meets f(1) = inf + nan i first
        assert "integrand value (inf+nanj) at tag (1.0, 0.0) is not finite" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_exits_2(self, tmp_path, capsys, tol):
        path = write_problem(tmp_path, C=matjson(np.diag([1.0, 1j])),
                             rect={"a": -2, "b": 2, "c": -2, "d": 2})
        code, out, err = run(capsys, ["integrate", path, "--function",
                                      "affine:1,2", "--tol", tol])
        assert code == 2
        assert out == ""
        assert "tol must be finite and nonnegative" in err

    def test_grid_levels_past_62_exit_2(self, tmp_path, capsys):
        path = write_problem(tmp_path,
                             C=matjson(np.diag([0.311 + 0.013j, -0.573 + 0.771j])),
                             rect={"a": -2, "b": 2, "c": -2, "d": 2})
        argv = ["integrate", path, "--function", "affine:1,2", "--tol", "0"]
        code, out, err = run(capsys, argv + ["--grid-levels", "63"])
        assert code == 2 and out == ""
        assert "largest supported dyadic level, 62" in err
        code, out, _ = run(capsys, argv + ["--grid-levels", "62"])
        assert code == 4 and out.splitlines()[-2].startswith("62,")

    # Recorded byte for byte before the explicit-grid and dyadic cell
    # rules were merged.  Atoms sit on dyadic lines of [-2, 2)^2 (one
    # off them in the last case), and 0.3 + 2.7i lies outside the
    # rectangle, clear of every line it could otherwise move.
    GOLDEN = [
        ([0.5 + 0.25j, -1.0 - 1.5j, 1.25 + 0.75j, 0.3 + 2.7j],
         ["--function", "affine:1,2"], 0,
         "level,m,n,mesh,diff_prev,err_vs_exact\n"
         "1,2,2,4.0,nan,2.75\n"
         "2,4,4,2.0,1.0,1.75\n"
         "3,8,8,1.0,1.0,0.75\n"
         "4,16,16,0.5,0.75,0.0\n"
         "5,32,32,0.25,0.0,0.0\n"
         "# converged\n"),
        ([0.5 + 0.25j, -1.0 - 1.5j, 1.25 + 0.75j, 0.3 + 2.7j],
         ["--function", "poly:0.5,-1,0.25"], 0,
         "level,m,n,mesh,diff_prev,err_vs_exact\n"
         "1,2,2,4.0,nan,2.1875\n"
         "2,4,4,2.0,2.0155644370746373,0.8682777493406129\n"
         "3,8,8,1.0,0.8682777493406129,0.19008632907181933\n"
         "4,16,16,0.5,0.19008632907181933,0.0\n"
         "5,32,32,0.25,0.0,0.0\n"
         "# converged\n"),
        ([0.5 + 0.25j, -1.0 - 1.5j, 0.311 + 0.013j, 0.3 + 2.7j],
         ["--function", "affine:1,2", "--grid-levels", "6", "--tol", "1e-14"], 4,
         "level,m,n,mesh,diff_prev,err_vs_exact\n"
         "1,2,2,4.0,nan,2.0\n"
         "2,4,4,2.0,1.0,1.0\n"
         "3,8,8,1.0,1.0,0.5\n"
         "4,16,16,0.5,0.5,0.08700000000000002\n"
         "5,32,32,0.25,0.0,0.08700000000000002\n"
         "6,64,64,0.125,0.0,0.08700000000000002\n"
         "# not-converged\n"),
    ]

    @pytest.mark.parametrize("atoms,argv,exit_code,csv", GOLDEN)
    def test_output_is_byte_stable(self, tmp_path, capsys, atoms, argv, exit_code, csv):
        path = write_problem(tmp_path, C=matjson(np.diag(atoms)),
                             rect={"a": -2, "b": 2, "c": -2, "d": 2})
        code, out, _ = run(capsys, ["integrate", path] + argv)
        assert code == exit_code
        assert out == csv

    @pytest.mark.parametrize("atoms,argv,exit_code,csv", GOLDEN)
    def test_output_is_byte_stable_under_optimized_python(self, tmp_path, atoms, argv,
                                                          exit_code, csv):
        path = write_problem(tmp_path, C=matjson(np.diag(atoms)),
                             rect={"a": -2, "b": 2, "c": -2, "d": 2})
        src = os.path.dirname(os.path.dirname(os.path.abspath(opint.__file__)))
        cmd = [sys.executable, "-O", "-m", "opint", "integrate", path] + argv
        out = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == exit_code, out.stderr
        assert out.stdout == csv

    SPREAD = [0.25 + 0.5j, -0.3 + 0.1j, 0.7 - 0.2j]

    def test_overflowing_error_reads_inf(self, tmp_path, capsys):
        # level 1 is about 2e308 from the exact integral: J - exact overflowed,
        # which printed nan and raised a RuntimeWarning
        path = write_problem(tmp_path, C=matjson(np.diag(self.SPREAD)),
                             rect={"a": -1.5, "b": 1.5, "c": -1.5, "d": 1.5})
        code, out, err = run(capsys, ["integrate", path, "--function", "affine:1e308,1e308"])
        rows = out.splitlines()
        assert code == 4 and err == "" and rows[1] == "1,2,2,3.0,nan,inf"
        assert all(np.isfinite(float(row.split(",")[5])) for row in rows[2:-1])

    def test_huge_grid_levels_converge(self, tmp_path, capsys):
        path = write_problem(tmp_path, C=matjson(np.diag(self.SPREAD)),
                             rect={"a": -1.5, "b": 1.5, "c": -1.5, "d": 1.5})
        code, out, _ = run(capsys, ["integrate", path, "--function", "affine:1,2",
                                    "--grid-levels", "1000000000000"])
        rows = out.splitlines()
        assert code == 0 and rows[-1] == "# converged" and rows[-2].startswith("36,")

    def test_overflowing_rect_exits_2(self, tmp_path, capsys):
        # the width of [-1e308, 1e308) is inf: an IndexError exited 1
        path = write_problem(tmp_path, C=matjson(np.diag([0.5 + 0.25j, -1.0])),
                             rect={"a": -1e308, "b": 1e308, "c": -2, "d": 2})
        code, out, err = run(capsys, ["integrate", path, "--function", "affine:1,2"])
        assert code == 2 and out == ""
        assert "line spacing (inf, 2.0), which is not finite and positive" in err

    def test_missing_rect_exits_2(self, tmp_path, capsys):
        path = write_problem(tmp_path, C=matjson(np.eye(2)))
        code, _, _ = run(capsys, ["integrate", path, "--function", "poly:1"])
        assert code == 2


class TestSeedEcho:
    def test_seed_recorded(self, tmp_path, capsys):
        path = write_problem(tmp_path, C=matjson(np.eye(2)), seed=12345)
        code, out, _ = run(capsys, ["spectral", path])
        assert code == 0
        assert json.loads(out)["seed"] == 12345


class TestFrontEnd:
    """`main` reads each problem file and writes each report once."""

    ARGVS = [["spectral"], ["enorm"], ["riccati"],
             ["integrate", "--function", "affine:1,2"]] + [
        ["sylvester", "--method", m] for m in ("spectral", "kronecker", "contour", "double")]

    def problem(self, tmp_path):
        return write_problem(tmp_path, A=matjson([[3.0]]), B=matjson([[1.0]]),
                             C=matjson([[0.0]]), D=matjson([[1.0]]), Y=matjson([[2.0]]),
                             rect={"a": -1.0, "b": 1.0, "c": -1.0, "d": 1.0}, seed=5)

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: "-".join(argv[::2]))
    def test_loads_the_problem_once(self, tmp_path, capsys, monkeypatch, argv):
        calls = []

        def counting_load(path):
            calls.append(path)
            return load_problem(path)

        monkeypatch.setattr(cli, "load_problem", counting_load)
        path = self.problem(tmp_path)
        code, out, err = run(capsys, argv[:1] + [path] + argv[1:])
        assert (code, err) == (0, "")
        assert calls == [path]
        if argv[0] != "integrate":
            assert json.loads(out)["seed"] == 5

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: "-".join(argv[::2]))
    def test_unwritable_output_exits_2(self, tmp_path, capsys, argv):
        path = self.problem(tmp_path)
        out_path = str(tmp_path / "missing" / "report.out")
        code, out, err = run(capsys, argv[:1] + [path] + argv[1:] + ["--output", out_path])
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write report: ")
        assert out_path in err


def error_classes(cls=opint.OpintError):
    return [cls] + [c for sub in cls.__subclasses__() for c in error_classes(sub)]


class TestExitCodes:
    """Each error class carries the exit code `main` returns for it."""

    EXPECTED = dict.fromkeys(
        ["OpintError", "InvalidProblemError", "ShapeMismatchError",
         "InsufficientMemoryError"], 2) | dict.fromkeys(
        ["NotNormalError", "GapViolationError", "SingularSystemError",
         "ZeroQuadraticTermError", "BoundaryEigenvalueError",
         "ContourConstructionError", "BoundViolationError",
         "CertificateViolationError"], 3) | dict.fromkeys(
        ["NoConvergenceError", "MaxIterationsError", "SingularResolventError"], 4)

    def raise_from_command(self, tmp_path, capsys, monkeypatch, exc):
        def failing(problem, args):
            raise exc

        monkeypatch.setattr(cli, "cmd_spectral", failing)
        path = write_problem(tmp_path, C=matjson(np.eye(2)))
        return run(capsys, ["spectral", path])

    @pytest.mark.parametrize("cls", error_classes(), ids=lambda cls: cls.__name__)
    def test_error_exits_with_its_code(self, tmp_path, capsys, monkeypatch, cls):
        code, out, err = self.raise_from_command(tmp_path, capsys, monkeypatch,
                                                 cls("stub failure"))
        assert code == cls.exit_code == self.EXPECTED[cls.__name__]
        assert out == ""
        assert err == "error: stub failure\n"

    def test_value_error_exits_2(self, tmp_path, capsys, monkeypatch):
        code, out, err = self.raise_from_command(tmp_path, capsys, monkeypatch,
                                                 ValueError("stub failure"))
        assert (code, out, err) == (2, "", "error: stub failure\n")


@pytest.mark.parametrize("module", ["errors", "linalg", "spectral", "stieltjes",
                                    "enorm", "sylvester", "riccati"])
def test_namespace_holds_each_modules_public_names(module):
    mod = importlib.import_module(f"opint.{module}")
    names = getattr(mod, "__all__",
                    [n for n in vars(mod) if not n.startswith("_")])
    assert names
    for name in names:
        assert getattr(opint, name) is getattr(mod, name), name


def test_import_seeds_thread_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(opint.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
    env.update(PYTHONPATH=src, OPINT_THREADS="2")
    out = subprocess.run(
        [sys.executable, "-c", "import opint, os; print(os.environ['OMP_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "2"


# Spectra of n = 8 whose values Re(_PHASE z) lie 2/7 (C) and 1/7 (A) apart:
# eigh leaves no rows of them coupled, so `_normal_form` does not take its
# scipy fallback, and the test reads which calls load scipy, not how often
# the fallback fires
def _scipy_free_problem(tmp_path):
    r = np.random.default_rng(8)
    x = np.linspace(-1.0, 1.0, 8)
    z_c = np.conj(_PHASE) * (x + 1j * r.uniform(-1.0, 1.0, 8))
    z_a = 4.0 + 0.5 * np.conj(_PHASE) * (x[::-1] + 1j * r.uniform(-1.0, 1.0, 8))
    U, V = random_unitary(r, 8), random_unitary(r, 8)
    C, A = (U * z_c) @ U.conj().T, (V * z_a) @ V.conj().T
    return C, A, write_problem(tmp_path, C=matjson(C), A=matjson(A),
                               D=matjson(r.standard_normal((8, 8))),
                               Y=matjson(r.standard_normal((8, 3))),
                               rect={"a": -2, "b": 2, "c": -2, "d": 2})


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_normal_problems_leave_scipy_unloaded(tmp_path, monkeypatch, flags):
    C, A, path = _scipy_free_problem(tmp_path)
    schurs, _ = count_decompositions(monkeypatch)
    _normal_form(C), _normal_form(A)
    assert not schurs  # the premise: no fallback on these inputs
    calls = [["spectral", path], ["enorm", path],
             ["integrate", path, "--function", "affine:1,2"]]
    calls += [["sylvester", path, "--method", m]
              for m in ("spectral", "kronecker", "contour", "double")]
    script = textwrap.dedent("""
        import json, os, sys
        import opint
        from opint.cli import main
        seen = {"import opint": [0, "scipy.linalg" in sys.modules]}
        for argv in json.loads(sys.argv[1]):
            code = main(argv + ["--output", os.devnull])
            seen[" ".join(argv[:1] + argv[2:])] = [code, "scipy.linalg" in sys.modules]
        print(json.dumps(seen))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(opint.__file__)))
    out = subprocess.run([sys.executable, *flags, "-c", script, json.dumps(calls)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout)
    assert len(seen) == 1 + len(calls)
    assert all(v == [0, False] for v in seen.values()), seen


def test_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["opint"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: one thread anyway")
@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="loaded libraries are listed from /proc/self/maps")
def test_opint_threads_caps_openblas():
    # the count each loaded OpenBLAS reports after `import opint`
    script = textwrap.dedent("""
        import ctypes, json, os
        import opint
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
        found = {}
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    found[os.path.basename(path)] = fn()
                    break
        print(json.dumps(found))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(opint.__file__)))
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS") and k != "VECLIB_MAXIMUM_THREADS"}
    env.update(PYTHONPATH=src, OPINT_THREADS="1")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    found = json.loads(out.stdout)
    if not found:
        pytest.skip("no OpenBLAS thread-count symbol in this process")
    assert set(found.values()) == {1}, found
