import csv

import numpy as np
import pytest

from eigentow import (
    CollapseConfig,
    JCParams,
    OperatorSet,
    ParameterError,
    ScanResult,
    ScanRow,
    SparseSymmetricOperator,
    StateVector,
    build_hamiltonian,
    collapse,
    scan_kappa,
)
from eigentow.bench import BenchRecord
from eigentow.io import (
    load_matrix,
    load_state,
    read_scan_csv,
    save_bench_csv,
    save_coefficient_csv,
    save_eigenvalue_csv,
    save_exponent_csv,
    save_matrix,
    save_scan_csv,
    save_state,
    save_tow_summary_csv,
    save_trace_csv,
)
from eigentow.jaynes_cummings import ScalingTable


class TestMatrixRoundTrip:
    def test_bit_identical(self, tmp_path, rng):
        a = rng.standard_normal((7, 7))
        op = SparseSymmetricOperator.from_dense((a + a.T) / 2)
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_matrix(op, p1)
        loaded = load_matrix(p1)
        np.testing.assert_array_equal(loaded.to_dense(), op.to_dense())
        save_matrix(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_format_shape(self, tmp_path):
        op = SparseSymmetricOperator.from_tridiagonal([1.5, -0.25], [0.125])
        path = tmp_path / "m.txt"
        save_matrix(op, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "2 3"
        assert lines[1].split() == ["0", "0", "1.5"]
        assert lines[2].split() == ["0", "1", "0.125"]
        assert lines[3].split() == ["1", "1", "-0.25"]

    def test_jc_round_trip(self, tmp_path):
        op = build_hamiltonian(JCParams(20, 0.3))
        path = tmp_path / "jc.txt"
        save_matrix(op, path)
        np.testing.assert_array_equal(load_matrix(path).to_dense(), op.to_dense())

    @pytest.mark.parametrize(
        "content, lineno",
        [
            ("", 1),
            ("2", 1),
            ("x 3", 1),
            ("2 1\n0 1 nanana", 2),
            ("2 1\n0 1", 2),
            ("2 2\n0 1 0.5", 2),
            ("2 1\n1 0 0.5", 2),
            ("2 1\n0 2 0.5", 2),
            ("2 1\n0 0 1.0\n0 1 2.0", 3),
        ],
    )
    def test_parse_errors_carry_location(self, tmp_path, content, lineno):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(ParameterError) as err:
            load_matrix(path)
        assert f"{path}:{lineno}" in str(err.value)


class TestStateRoundTrip:
    def test_bit_identical(self, tmp_path, rng):
        v = StateVector(rng.standard_normal(9))
        p1, p2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
        save_state(v, p1)
        loaded = load_state(p1)
        np.testing.assert_array_equal(loaded.amps, v.amps)
        save_state(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_one_amplitude_per_line(self, tmp_path):
        path = tmp_path / "s.txt"
        save_state(StateVector(np.array([0.5, -1.25])), path)
        assert path.read_text().splitlines() == ["0.5", "-1.25"]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1.0\n\n2.0\n")
        np.testing.assert_array_equal(load_state(path).amps, [1.0, 2.0])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("\n\n")
        with pytest.raises(ParameterError):
            load_state(path)

    def test_bad_amplitude_location(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1.0\nnope\n")
        with pytest.raises(ParameterError) as err:
            load_state(path)
        assert f"{path}:2" in str(err.value)


class TestTraceCsv:
    def test_schema_and_length(self, tmp_path):
        opset = OperatorSet([SparseSymmetricOperator.diagonal([0.0, 1.0, 3.0])])
        v = StateVector(np.array([0.2, 0.9, 0.3]))
        _, report = collapse(opset, v, CollapseConfig(max_iter=20, tol=1e-300))
        path = tmp_path / "trace.csv"
        save_trace_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "norm", "residual", "e1_0", "var_0"]
        assert len(rows) == report.iterations + 2  # header + rows 0..iterations
        assert [int(r[0]) for r in rows[1:]] == list(range(report.iterations + 1))
        np.testing.assert_allclose(
            [float(r[2]) for r in rows[1:]], report.residual_trace
        )


class TestScanCsv:
    def make_result(self):
        rows = [
            ScanRow(kappa=0.5, inversion=0.25, scaled_energy=1.5, converged=True),
            ScanRow(kappa=0.75, inversion=-0.125, scaled_energy=2.0, converged=False),
        ]
        return ScanResult(
            n_molecules=40,
            q=0.1,
            c=20.0,
            omega0=1.0,
            omega=2.0,
            method="oracle",
            kappa_center=0.625,
            rows=rows,
        )

    def test_round_trip(self, tmp_path):
        res = self.make_result()
        path = tmp_path / "scan.csv"
        save_scan_csv(res, path)
        back = read_scan_csv(path)
        assert back.n_molecules == res.n_molecules
        assert back.q == res.q
        assert back.c == res.c
        assert back.omega0 == res.omega0
        assert back.omega == res.omega
        assert back.method == res.method
        assert back.kappa_center == res.kappa_center
        assert back.rows == res.rows

    def test_metadata_comment_first(self, tmp_path):
        path = tmp_path / "scan.csv"
        save_scan_csv(self.make_result(), path)
        first = path.read_text().splitlines()[0]
        assert first.startswith("# ")
        assert "n=40" in first
        assert "method=oracle" in first

    def test_converged_column_is_int(self, tmp_path):
        path = tmp_path / "scan.csv"
        save_scan_csv(self.make_result(), path)
        lines = path.read_text().splitlines()
        assert lines[2].endswith(",1")
        assert lines[3].endswith(",0")

    def test_real_scan_round_trip(self, tmp_path):
        res = scan_kappa(JCParams(20, 0.0), 0.1, points=5)
        path = tmp_path / "scan.csv"
        save_scan_csv(res, path)
        back = read_scan_csv(path)
        assert back.rows == res.rows
        assert back.kappa_center == res.kappa_center

    def test_missing_metadata_rejected(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("kappa,inversion,scaled_energy,converged\n")
        with pytest.raises(ParameterError) as err:
            read_scan_csv(path)
        assert f"{path}:1" in str(err.value)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("# n=2 q=0.0 c=1.0 omega0=1.0 omega=2.0 method=oracle kappa_center=0.5\nkappa,foo\n")
        with pytest.raises(ParameterError) as err:
            read_scan_csv(path)
        assert f"{path}:2" in str(err.value)

    def test_malformed_row_location(self, tmp_path):
        path = tmp_path / "scan.csv"
        save_scan_csv(self.make_result(), path)
        with open(path, "a", newline="") as fh:
            fh.write("0.9,oops,2.0,1\n")
        with pytest.raises(ParameterError) as err:
            read_scan_csv(path)
        assert f"{path}:5" in str(err.value)


class TestSmallCsvWriters:
    def test_exponent_schema(self, tmp_path):
        table = ScalingTable(
            q=0.1, slope=1.03, intercept=-0.5, ci95=0.005, n_points=6, rows=()
        )
        path = tmp_path / "exp.csv"
        save_exponent_csv([table], path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["q", "slope", "ci95", "n_points"]
        assert rows[1] == ["0.1", "1.03", "0.005", "6"]

    def test_tow_summary_schema(self, tmp_path):
        path = tmp_path / "summary.csv"
        save_tow_summary_csv([(3, 4, 1e-11, 2.5, 0.97)], path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "target", "refined_steps", "final_residual", "rayleigh", "overlap_min",
        ]
        assert rows[1][0] == "3"
        assert float(rows[1][2]) == 1e-11

    def test_bench_schema(self, tmp_path):
        recs = [
            BenchRecord(n=100, method="collapse", wall_time=0.125, iterations=20),
            BenchRecord(
                n=400, method="collapse", wall_time=9.5, iterations=7, timed_out=True
            ),
        ]
        path = tmp_path / "bench.csv"
        save_bench_csv(recs, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "method", "wall_time", "iterations", "timed_out"]
        assert rows[1] == ["100", "collapse", "0.125", "20", "0"]
        assert rows[2] == ["400", "collapse", "9.5", "7", "1"]

    def test_eigenvalue_schema_keeps_indices(self, tmp_path):
        path = tmp_path / "eig.csv"
        save_eigenvalue_csv([(3, -1.5), (17, 2.25)], path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "eigenvalue"]
        assert rows[1] == ["3", "-1.5"]
        assert rows[2] == ["17", "2.25"]

    def test_coefficient_schema(self, tmp_path):
        path = tmp_path / "coeff.csv"
        probs = np.array([[0.5, 0.5], [0.75, 0.25]])
        save_coefficient_csv([0.0, 0.5], probs, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "p_0", "p_1"]
        assert rows[1] == ["0.0", "0.5", "0.5"]
        assert rows[2] == ["0.5", "0.75", "0.25"]
