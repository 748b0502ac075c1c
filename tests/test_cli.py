"""CLI subcommands, grid parsers, and file round trips."""

import argparse
import json
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from conepath import fileio
from conepath.cli import _arith_grid, _geom_grid, _min_eigenvalue, main
from conepath.cones import ConeProduct, ConeSpec
from conepath.errors import ParseError
from conepath.ipm import ConicProblem, cold_start, solve
from conepath.problems import PerturbationSpec, gen_svm_l1, perturb, synth_samples


def lp_problem(n=3, shift=0.0):
    # min e'x s.t. x >= 1 + shift
    return ConicProblem(
        P=sp.csc_matrix((n, n)),
        q=np.ones(n),
        A=sp.csc_matrix(-np.eye(n)),
        b=np.full(n, -1.0 - shift),
        cones=ConeProduct((ConeSpec.nonnegative(n),)),
    )


def infeasible_problem():
    A = sp.csc_matrix(np.array([[1.0], [-1.0]]))
    return ConicProblem(
        P=sp.csc_matrix((1, 1)),
        q=np.array([0.0]),
        A=A,
        b=np.array([-1.0, 0.0]),
        cones=ConeProduct((ConeSpec.nonnegative(2),)),
    )


def unbounded_problem():
    # min -x1 over x >= 0 with b = 0: dual infeasible
    return ConicProblem(
        P=sp.csc_matrix((2, 2)),
        q=np.array([-1.0, 0.0]),
        A=sp.csc_matrix(-np.eye(2)),
        b=np.zeros(2),
        cones=ConeProduct((ConeSpec.nonnegative(2),)),
    )


def all_kinds_problem():
    cones = ConeProduct(
        (
            ConeSpec.zero(1),
            ConeSpec.nonnegative(2),
            ConeSpec.second_order(3),
            ConeSpec.psd_triangle(2),
            ConeSpec.exponential(),
            ConeSpec.power(0.3),
        )
    )
    rng = np.random.default_rng(0)
    m, n = cones.dim, 2
    A = rng.standard_normal((m, n))
    A[rng.uniform(size=A.shape) < 0.3] = 0.0
    return ConicProblem(
        P=sp.csc_matrix(np.array([[2.0, 0.5], [0.5, 1.0]])),
        q=rng.standard_normal(n),
        A=sp.csc_matrix(A),
        b=rng.standard_normal(m),
        cones=cones,
    )


def iterations_from(stdout):
    return int(re.search(r"iterations: (\d+)", stdout).group(1))


class TestGridParsers:
    def test_arith_grid(self):
        grid = _arith_grid("0.02:0.01:0.11")
        assert len(grid) == 10
        assert grid[0] == 0.02 and grid[-1] == 0.11
        assert _arith_grid("0.5:0.25:1.0") == (0.5, 0.75, 1.0)

    def test_arith_grid_rejects(self):
        for text in ("abc", "1:2", "1:0:2", "2:1:1"):
            with pytest.raises(argparse.ArgumentTypeError):
                _arith_grid(text)

    def test_geom_grid(self):
        grid = _geom_grid("1e-6:10:1e-1")
        assert len(grid) == 6
        assert math.isclose(grid[0], 1e-6)
        assert math.isclose(grid[-1], 1e-1)

    def test_geom_grid_rejects(self):
        for text in ("0:10:1", "1e-3:1:1e-1", "1e-1:10:1e-3", "x:y:z"):
            with pytest.raises(argparse.ArgumentTypeError):
                _geom_grid(text)


class TestProblemFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        prob = all_kinds_problem()
        path = tmp_path / "p.prob"
        fileio.write_problem(prob, path)
        back = fileio.read_problem(path)
        assert np.array_equal(back.P.toarray(), prob.P.toarray())
        assert np.array_equal(back.A.toarray(), prob.A.toarray())
        assert np.array_equal(back.q, prob.q)
        assert np.array_equal(back.b, prob.b)
        kinds = [(s.kind, s.dim) for s in back.cones.blocks]
        assert kinds == [(s.kind, s.dim) for s in prob.cones.blocks]
        assert back.cones.blocks[5].alpha == prob.cones.blocks[5].alpha
        assert fileio.problem_hash(back) == fileio.problem_hash(prob)

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "p.prob"
        fileio.write_problem(lp_problem(), path)
        lines = path.read_text().splitlines()
        for bad in ("cone mystery 3", "cone pow 3", "cone exp 4", "cone psd 5",
                    "cone nonneg 2.5"):
            lines[4] = bad
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ParseError, match="line 5") as info:
                fileio.read_problem(path)
            assert info.value.line == 5, bad

    def test_repeated_triplet_rejected(self, tmp_path):
        path = tmp_path / "p.prob"
        fileio.write_problem(all_kinds_problem(), path)
        lines = path.read_text().splitlines()
        for tag in ("P", "A"):
            at = next(k for k, line in enumerate(lines) if line.startswith(tag + " "))
            bad = lines[: at + 2] + [lines[at + 1]] + lines[at + 3 :]
            path.write_text("\n".join(bad) + "\n")
            with pytest.raises(ParseError, match="repeated triplet") as info:
                fileio.read_problem(path)
            assert info.value.line == at + 3, tag

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "p.prob"
        path.write_text("something else\n")
        with pytest.raises(ParseError, match="header"):
            fileio.read_problem(path)

    def test_solution_round_trip(self, tmp_path):
        prob = lp_problem()
        report = solve(prob, cold_start(prob))
        path = tmp_path / "p.sol.json"
        fileio.write_solution(path, prob, report, 3.0)
        sol = fileio.read_solution(path)
        assert sol["status"] == "Optimal"
        assert sol["n"] == 3 and sol["m"] == 3
        x, _, _ = report.solution
        assert np.array_equal(sol["x"], x)
        assert sol["problem_hash"] == fileio.problem_hash(prob)

    def test_solution_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            fileio.read_solution(path)
        path.write_text(json.dumps({"format": "conepath-solution 1", "n": 1}))
        with pytest.raises(ParseError, match="missing"):
            fileio.read_solution(path)


class TestSolveCommand:
    def test_solve_optimal(self, tmp_path, capsys):
        path = tmp_path / "p.prob"
        fileio.write_problem(lp_problem(), path)
        code = main(["solve", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: Optimal" in out
        assert "objective:" in out
        sol = fileio.read_solution(str(path) + ".sol.json")
        assert math.isclose(sol["objective"], 3.0, abs_tol=1e-6)

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope.prob")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_infeasible_exit_code(self, tmp_path, capsys):
        cases = (
            ("inf", infeasible_problem(), 3, "PrimalInfeasible"),
            ("unbounded", unbounded_problem(), 4, "DualInfeasible"),
        )
        for name, problem, exit_code, status in cases:
            path = tmp_path / f"{name}.prob"
            fileio.write_problem(problem, path)
            code = main(["solve", str(path)])
            out = capsys.readouterr().out
            assert code == exit_code, name
            assert f"status: {status}" in out
            assert "objective:" not in out
            # a certificate ray has no objective value; JSON stores null
            assert fileio.read_solution(str(path) + ".sol.json")["objective"] is None

    def test_max_iters_exit_code(self, tmp_path, capsys):
        path = tmp_path / "p.prob"
        fileio.write_problem(lp_problem(), path)
        code = main(["solve", str(path), "--max-iters", "1"])
        assert code == 5
        assert "status: MaxIters" in capsys.readouterr().out

    def test_numerical_error_prints_its_reason(self, tmp_path, capsys):
        path = tmp_path / "svm.prob"
        fileio.write_problem(gen_svm_l1(synth_samples(480, 10, seed=0), 0.04), path)
        code = main(["solve", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 6
        assert lines[:2] == [
            "status: NumericalError",
            "reason: step stalled: proximity rejected every trial",
        ]

    def test_reason_only_for_numerical_error(self, tmp_path, capsys):
        path = tmp_path / "p.prob"
        fileio.write_problem(lp_problem(), path)
        main(["solve", str(path)])
        assert "reason:" not in capsys.readouterr().out

    def test_trace_csv(self, tmp_path, capsys):
        path = tmp_path / "p.prob"
        trace = tmp_path / "trace.csv"
        fileio.write_problem(lp_problem(), path)
        code = main(["solve", str(path), "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        rows = trace.read_text().splitlines()
        assert rows[0] == "iteration,mu,r_p,r_d,step"
        assert len(rows) - 1 >= iterations_from(out)
        first = rows[1].split(",")
        assert first[0] == "0" and float(first[1]) == 1.0  # cold start mu


class TestWarmFlag:
    def write_pair(self, tmp_path, delta=1e-4):
        base = lp_problem(n=4)
        shifted = perturb(base, PerturbationSpec(delta, targets=("b",), seed=1))
        base_path = tmp_path / "base.prob"
        next_path = tmp_path / "next.prob"
        fileio.write_problem(base, base_path)
        fileio.write_problem(shifted, next_path)
        return base_path, next_path

    def test_warm_uses_fewer_or_equal_iterations(self, tmp_path, capsys):
        base_path, next_path = self.write_pair(tmp_path)
        assert main(["solve", str(base_path)]) == 0
        sol_path = str(base_path) + ".sol.json"

        assert main(["solve", str(next_path)]) == 0
        cold_iters = iterations_from(capsys.readouterr().out)

        code = main(["solve", str(next_path), "--warm", sol_path])
        out = capsys.readouterr().out
        assert code == 0
        assert iterations_from(out) <= cold_iters

    def test_warm_solution_reusable_and_deterministic(self, tmp_path, capsys):
        base_path, next_path = self.write_pair(tmp_path)
        assert main(["solve", str(base_path)]) == 0
        sol_path = str(base_path) + ".sol.json"
        capsys.readouterr()

        assert main(["solve", str(next_path), "--warm", sol_path]) == 0
        first = iterations_from(capsys.readouterr().out)
        assert main(["solve", str(next_path), "--warm", sol_path]) == 0
        second = iterations_from(capsys.readouterr().out)
        assert first == second

    def test_warm_dimension_mismatch(self, tmp_path, capsys):
        base_path, _ = self.write_pair(tmp_path)
        assert main(["solve", str(base_path)]) == 0
        sol_path = str(base_path) + ".sol.json"
        other = tmp_path / "other.prob"
        fileio.write_problem(lp_problem(n=2), other)
        capsys.readouterr()

        code = main(["solve", str(other), "--warm", sol_path])
        err = capsys.readouterr().err
        assert code == 2
        assert "do not match" in err

    def test_warm_from_non_optimal_rejected(self, tmp_path, capsys):
        path = tmp_path / "inf.prob"
        fileio.write_problem(infeasible_problem(), path)
        assert main(["solve", str(path)]) == 3
        sol_path = str(path) + ".sol.json"
        capsys.readouterr()

        code = main(["solve", str(path), "--warm", sol_path])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot warm-start" in err

    def test_foreign_solution_notes_hash_mismatch(self, tmp_path, capsys):
        base_path, next_path = self.write_pair(tmp_path)
        assert main(["solve", str(base_path)]) == 0
        sol_path = str(base_path) + ".sol.json"
        capsys.readouterr()
        assert main(["solve", str(next_path), "--warm", sol_path]) == 0
        assert "different problem instance" in capsys.readouterr().err


class TestCheckCommand:
    def test_valid_problem_passes(self, tmp_path, capsys):
        path = tmp_path / "p.prob"
        fileio.write_problem(all_kinds_problem(), path)
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS  parse" in out
        assert "PASS  cone dimensions sum to m" in out
        assert "PASS  P positive semidefinite" in out
        assert out.strip().endswith("RESULT: PASS")

    def test_corrupt_problem_fails_but_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "p.prob"
        path.write_text("conepath-problem 1\nn x\n")
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL  parse" in out
        assert out.strip().endswith("RESULT: FAIL")

    def test_indefinite_p_reported(self, tmp_path, capsys):
        prob = ConicProblem(
            P=sp.csc_matrix(np.diag([-1.0, 1.0])),
            q=np.ones(2),
            A=sp.csc_matrix(-np.eye(2)),
            b=np.full(2, -1.0),
            cones=ConeProduct((ConeSpec.nonnegative(2),)),
        )
        path = tmp_path / "p.prob"
        fileio.write_problem(prob, path)
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL  P positive semidefinite" in out
        assert out.strip().endswith("RESULT: FAIL")

    def large_p_problem(self, block):
        # a 3000x3000 P whose only stored entries are one 3x3 block
        n = 3000
        P = sp.lil_matrix((n, n))
        P[1000:1003, 1000:1003] = block
        return ConicProblem(
            P=P.tocsc(),
            q=np.ones(n),
            A=-sp.identity(n, format="csc"),
            b=np.full(n, -1.0),
            cones=ConeProduct((ConeSpec.nonnegative(n),)),
        )

    def test_large_indefinite_block_reported(self, tmp_path, capsys):
        path = tmp_path / "p.prob"
        block = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # eigenvalue -1
        fileio.write_problem(self.large_p_problem(block), path)
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL  P positive semidefinite: min eigenvalue -1.000e+00" in out
        assert out.strip().endswith("RESULT: FAIL")

    def test_large_psd_block_passes(self, tmp_path, capsys):
        path = tmp_path / "p.prob"
        block = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        fileio.write_problem(self.large_p_problem(block), path)
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        # the empty rows give eigenvalue 0, below the block's smallest (1)
        assert "PASS  P positive semidefinite: min eigenvalue 0.000e+00" in out
        assert out.strip().endswith("RESULT: PASS")

    @pytest.mark.parametrize("psd", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_min_eigenvalue_matches_dense(self, seed, psd):
        # seeds 0, 2 and 3 leave rows of P empty; seed 1 stores every row
        rng = np.random.default_rng(seed)
        M = sp.random(12, 12, density=0.08, random_state=rng).toarray()
        P = sp.csc_matrix(M @ M.T if psd else M + M.T)
        assert _min_eigenvalue(P) == pytest.approx(np.linalg.eigvalsh(P.toarray()).min(), abs=1e-12)


class TestBenchCommand:
    def test_svm_sweep(self, tmp_path, capsys):
        code = main(
            ["bench", "svm-l1", "--schedule", "0.05:0.01:0.07",
             "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "family=svm-l1" in out
        assert "R_iter=" in out
        assert (tmp_path / "svm-l1_runs.csv").exists()
        assert (tmp_path / "svm-l1_table.txt").exists()

    def test_unknown_family_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["bench", "nope"])
