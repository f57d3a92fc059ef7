import csv

import numpy as np
import pytest

from eigentow import (
    JCParams,
    SparseSymmetricOperator,
    StateVector,
    build_hamiltonian,
)
from eigentow.cli import main
from eigentow.io import load_matrix, load_state, read_scan_csv, save_matrix, save_state


@pytest.fixture
def jc_matrix(tmp_path):
    path = tmp_path / "jc.txt"
    save_matrix(build_hamiltonian(JCParams(20, 0.1)), path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestExitCodes:
    def test_missing_matrix_file_is_usage_error(self, tmp_path):
        assert run("collapse", "--op", tmp_path / "nope.txt") == 2

    def test_malformed_matrix_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 1\n")
        assert run("collapse", "--op", bad) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("fold")
        assert exc.value.code == 2

    def test_bad_init_spec(self, jc_matrix, tmp_path):
        assert run(
            "collapse", "--op", jc_matrix, "--init", "psychic:3",
            "--out-dir", tmp_path,
        ) == 2

    def test_bad_jc_parameters(self, tmp_path):
        assert run("jc", "build", "--n", "7", "--out", tmp_path / "h.txt") == 2

    def test_nonconvergence_is_numerical_failure(self, tmp_path):
        # exactly tied two-state start never converges
        op = tmp_path / "op.txt"
        save_matrix(SparseSymmetricOperator.diagonal([0.0, 2.0]), op)
        init = tmp_path / "init.txt"
        save_state(StateVector(np.array([1.0, 1.0])), init)
        code = run(
            "collapse", "--op", op, "--init", f"file:{init}",
            "--max-iter", "40", "--out-dir", tmp_path,
        )
        assert code == 1


class TestCollapseCommand:
    def test_happy_path_outputs(self, jc_matrix, tmp_path, capsys):
        out = tmp_path / "run1"
        code = run(
            "collapse", "--op", jc_matrix, "--init", "basis:3",
            "--out-dir", out,
        )
        assert code == 0
        assert (out / "trace.csv").exists()
        final = load_state(out / "final_state.txt")
        assert abs(final.norm - 1.0) < 1e-8
        assert "converged=True" in capsys.readouterr().out

    def test_bitwise_reproducible(self, jc_matrix, tmp_path):
        # seeded random start gives identical bytes run to run
        outs, codes = [], []
        for name in ("a", "b"):
            out = tmp_path / name
            codes.append(
                run(
                    "collapse", "--op", jc_matrix, "--init", "random:42",
                    "--max-iter", "300", "--out-dir", out,
                )
            )
            outs.append((out / "final_state.txt").read_bytes())
            outs.append((out / "trace.csv").read_bytes())
        assert codes[0] == codes[1]
        assert outs[0] == outs[2]
        assert outs[1] == outs[3]

    def test_multiple_operators(self, tmp_path):
        op1 = tmp_path / "op1.txt"
        op2 = tmp_path / "op2.txt"
        save_matrix(SparseSymmetricOperator.diagonal([1.0, 1.0, 0.0]), op1)
        save_matrix(SparseSymmetricOperator.diagonal([0.0, 2.0, 3.0]), op2)
        out = tmp_path / "multi"
        code = run(
            "collapse", "--op", op1, "--op", op2, "--init", "basis:1",
            "--dt", "0.3", "--out-dir", out,
        )
        assert code == 0
        with open(out / "trace.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["iter", "norm", "residual", "e1_0", "e1_1", "var_0", "var_1"]


class TestTowCommand:
    def test_tow_with_refine(self, tmp_path):
        base, target = tmp_path / "base.txt", tmp_path / "target.txt"
        save_matrix(build_hamiltonian(JCParams(16, 0.0)), base)
        save_matrix(build_hamiltonian(JCParams(16, 0.15)), target)
        out = tmp_path / "tow"
        code = run(
            "tow", "--base", base, "--target", target,
            "--steps", "2", "--target-index", "1", "4",
            "--refine", "1e-6", "--out-dir", out,
        )
        assert code == 0
        assert (out / "state_0_1.txt").exists()
        assert (out / "state_1_4.txt").exists()
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "target"
        assert [r[0] for r in rows[1:]] == ["1", "4"]
        assert all(int(r[1]) >= 4 for r in rows[1:])  # refine doubled the rungs
        assert all(float(r[2]) < 1e-9 for r in rows[1:])

    def test_tow_requires_targets(self, tmp_path):
        base = tmp_path / "base.txt"
        save_matrix(build_hamiltonian(JCParams(8, 0.0)), base)
        assert run("tow", "--base", base, "--target", base, "--out-dir", tmp_path) == 2

    def test_tow_state_file_target(self, tmp_path):
        base, target = tmp_path / "base.txt", tmp_path / "target.txt"
        save_matrix(build_hamiltonian(JCParams(10, 0.0)), base)
        save_matrix(build_hamiltonian(JCParams(10, 0.1)), target)
        seed = tmp_path / "seed.txt"
        save_state(StateVector.basis(11, 2), seed)
        out = tmp_path / "tow"
        code = run(
            "tow", "--base", base, "--target", target, "--steps", "2",
            "--target-state", seed, "--out-dir", out,
        )
        assert code == 0
        assert (out / "state_0_custom.txt").exists()


class TestJcCommands:
    def test_build_writes_loadable_matrix(self, tmp_path):
        out = tmp_path / "h.txt"
        assert run("jc", "build", "--n", "12", "--kappa", "0.25", "--out", out) == 0
        op = load_matrix(out)
        assert op.dim == 13
        assert op.bandwidth == 1

    def test_scan_exponent_chain(self, tmp_path, capsys):
        scans = []
        for n in (20, 40, 60):
            out = tmp_path / f"scan_{n}.csv"
            code = run(
                "jc", "scan", "--n", n, "--q", "0.1", "--points", "9",
                "--method", "oracle", "--out", out,
            )
            assert code == 0
            scans.append(out)
        exp_out = tmp_path / "exponent.csv"
        code = run("jc", "exponent", "--scans", *scans, "--out", exp_out)
        assert code == 0
        with open(exp_out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["q", "slope", "ci95", "n_points"]
        assert rows[1][3] == "3"
        captured = capsys.readouterr().out
        assert "slope=" in captured

    def test_scan_explicit_kappa_max(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(
            "jc", "scan", "--n", "20", "--q", "0.0", "--kappa-max", "1.2",
            "--points", "7", "--method", "oracle", "--out", out,
        )
        assert code == 0
        res = read_scan_csv(out)
        assert res.rows[0].kappa == 0.0
        assert res.rows[-1].kappa == pytest.approx(1.2)

    def test_scan_towing_method(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(
            "jc", "scan", "--n", "16", "--q", "0.0", "--kappa-max", "0.8",
            "--points", "5", "--out", out,
        )
        assert code == 0
        res = read_scan_csv(out)
        assert res.method == "towing"
        assert all(r.converged for r in res.rows)

    def test_exponent_rejects_mixed_q(self, tmp_path):
        paths = []
        for i, (n, q) in enumerate(((20, 0.1), (40, 0.1), (60, 0.2))):
            out = tmp_path / f"s{i}.csv"
            assert run(
                "jc", "scan", "--n", n, "--q", q, "--points", "5",
                "--method", "oracle", "--out", out,
            ) == 0
            paths.append(out)
        assert run(
            "jc", "exponent", "--scans", *paths, "--out", tmp_path / "e.csv"
        ) == 2


class TestOracleCommand:
    def test_dense_subset(self, jc_matrix, tmp_path):
        out = tmp_path / "eig.csv"
        vec_dir = tmp_path / "vecs"
        code = run(
            "oracle", "eig", "--matrix", jc_matrix, "--indices", "0", "5",
            "--out", out, "--out-dir", vec_dir,
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "eigenvalue"]
        assert [r[0] for r in rows[1:]] == ["0", "5"]
        v0 = load_state(vec_dir / "state_0.txt")
        assert abs(v0.norm - 1.0) < 1e-10

    def test_tridiag_path_matches_dense(self, jc_matrix, tmp_path):
        out_d = tmp_path / "dense.csv"
        out_t = tmp_path / "tridiag.csv"
        assert run(
            "oracle", "eig", "--matrix", jc_matrix, "--out", out_d,
            "--out-dir", tmp_path / "vd",
        ) == 0
        assert run(
            "oracle", "eig", "--matrix", jc_matrix, "--tridiag", "--out", out_t,
            "--out-dir", tmp_path / "vt",
        ) == 0

        def read_vals(path):
            with open(path, newline="") as fh:
                return [float(r[1]) for r in list(csv.reader(fh))[1:]]

        np.testing.assert_allclose(read_vals(out_t), read_vals(out_d), atol=1e-9)

    def test_tridiag_rejects_wide_band(self, tmp_path):
        wide = tmp_path / "wide.txt"
        a = np.zeros((3, 3))
        a[0, 2] = a[2, 0] = 1.0
        save_matrix(SparseSymmetricOperator.from_dense(a), wide)
        assert run(
            "oracle", "eig", "--matrix", wide, "--tridiag",
            "--out", tmp_path / "e.csv",
        ) == 2


class TestBenchCommand:
    def test_oracle_suite_tiny(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run(
            "bench", "--suite", "oracle_scaling", "--ns", "32", "64",
            "--out", out,
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "n", "method", "wall_time", "iterations", "timed_out", "converged",
        ]
        assert len(rows) == 5
        assert all(r[4] == "0" and r[5] == "1" for r in rows[1:])
        assert "log-log slope" in capsys.readouterr().out

    def test_non_converged_cells_flagged(self, tmp_path, capsys, monkeypatch):
        import eigentow.cli as cli
        from eigentow.bench import tow_end_to_end

        # a one-iteration budget makes the ladder's first rung fail
        monkeypatch.setattr(
            cli, "bench", lambda suite, ns, timeout: [tow_end_to_end(n, max_iter=1) for n in ns]
        )
        out = tmp_path / "bench.csv"
        code = run("bench", "--suite", "collapse_scaling", "--ns", "20", "--out", out)
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][1] == "tow" and rows[1][5] == "0"
        assert "tow n=20 did not converge" in capsys.readouterr().err

    def test_timeout_exit_code(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(
            "bench", "--suite", "oracle_scaling", "--ns", "32",
            "--timeout", "0", "--out", out,
        )
        assert code == 1
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1
        assert all(r[4] == "1" for r in rows[1:])


class TestCoeffsimCommand:
    def test_three_state_competition(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run(
            "coeffsim", "--probs", 13 / 30, 10 / 30, 7 / 30, "--out", out,
        )
        assert code == 0
        assert "winner=state 1" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "p_0", "p_1", "p_2"]
        assert float(rows[-1][2]) > 0.999

    def test_explicit_eigval_grid(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run(
            "coeffsim", "--probs", "0.6", "0.4",
            "--eigvals", "0 0; 3 4", "--t-end", "1", "--out", out,
        )
        assert code == 0

    def test_negative_prob_rejected(self, tmp_path):
        assert run(
            "coeffsim", "--probs", "0.5", "-0.5", "--out", tmp_path / "t.csv"
        ) == 2
