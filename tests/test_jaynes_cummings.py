import numpy as np
import pytest

from eigentow import (
    CollapseConfig,
    ContractViolationError,
    JCParams,
    ParameterError,
    ScanResult,
    ScanRow,
    StateVector,
    atomic_inversion,
    auto_kappa_grid,
    build_hamiltonian,
    critical_coupling,
    critical_coupling_at_ratio,
    fit_critical_exponent,
    scan_kappa,
)
from eigentow.jaynes_cummings import _target_index, _tridiag_arrays
from eigentow.oracle import tridiag_eig


class TestParams:
    def test_defaults(self):
        p = JCParams(10, 0.5)
        assert p.j == 5.0
        assert p.dim == 11
        assert p.c == 5.0
        assert p.omega0 == 1.0
        assert p.omega == 2.0

    def test_rejects_odd_or_nonpositive_n(self):
        with pytest.raises(ParameterError):
            JCParams(5, 0.1)
        with pytest.raises(ParameterError):
            JCParams(0, 0.1)

    def test_rejects_negative_kappa(self):
        with pytest.raises(ParameterError):
            JCParams(4, -0.1)

    def test_rejects_small_c(self):
        with pytest.raises(ParameterError):
            JCParams(4, 0.1, c=1.0)  # below j = 2
        assert JCParams(4, 0.1, c=3.5).c == 3.5


class TestHamiltonian:
    def test_two_molecule_matrix(self):
        # N = 2: diagonal (1, 2, 3), off-diagonal (kappa*sqrt(2)/2, kappa)
        kappa = 0.37
        h = build_hamiltonian(JCParams(2, kappa)).to_dense()
        np.testing.assert_allclose(np.diag(h), [1.0, 2.0, 3.0], atol=1e-15)
        np.testing.assert_allclose(
            np.diag(h, 1), [kappa * np.sqrt(2) / 2, kappa], atol=1e-15
        )
        np.testing.assert_allclose(h, h.T, atol=0)

    def test_decoupled_spectrum_is_diagonal(self):
        p = JCParams(8, 0.0)
        h = build_hamiltonian(p)
        assert h.bandwidth == 0
        diag, off = _tridiag_arrays(p)
        np.testing.assert_array_equal(off, np.zeros(8))
        # equally spaced rungs separated by omega - omega0
        np.testing.assert_allclose(np.diff(diag), np.full(8, 1.0), atol=1e-14)

    def test_tridiagonal_bandwidth(self):
        h = build_hamiltonian(JCParams(8, 0.3))
        assert h.bandwidth == 1
        assert h.dim == 9

    def test_photon_rich_sector(self):
        # c above j shifts the diagonal up by (c - j) omega and keeps
        # every off-diagonal radicand positive
        p = JCParams(4, 0.5, c=4.0)
        diag, off = _tridiag_arrays(p)
        base_diag, _ = _tridiag_arrays(JCParams(4, 0.5))
        np.testing.assert_allclose(diag, base_diag + 2.0 * 2.0, atol=1e-14)
        assert np.all(off > 0)


class TestAtomicInversion:
    def test_extreme_basis_states(self):
        p = JCParams(10, 0.1)
        top = StateVector.basis(p.dim, 0)
        bottom = StateVector.basis(p.dim, p.n_molecules)
        assert atomic_inversion(top, p.j) == pytest.approx(1.0)
        assert atomic_inversion(bottom, p.j) == pytest.approx(-1.0)

    def test_uniform_state_is_balanced(self):
        p = JCParams(10, 0.1)
        v = StateVector(np.full(p.dim, 1.0 / np.sqrt(p.dim)))
        assert atomic_inversion(v, p.j) == pytest.approx(0.0, abs=1e-14)

    def test_requires_unit_norm(self):
        with pytest.raises(ContractViolationError):
            atomic_inversion(StateVector(np.array([1.0, 1.0])), 1.0)


class TestCriticalCoupling:
    def test_reference_values(self):
        assert critical_coupling(1.0, 2.0) == pytest.approx(np.sqrt(0.5), abs=1e-15)
        assert critical_coupling(2.0, 2.0) == 0.0
        assert critical_coupling(0.0, 2.0) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_symmetric_in_detuning_sign(self):
        assert critical_coupling(1.0, 3.0) == critical_coupling(3.0, 1.0)


class TestTargetIndex:
    def test_integral_products(self):
        p = JCParams(100, 0.1)
        assert _target_index(p, 0.0) == 0
        assert _target_index(p, 0.1) == 10
        assert _target_index(p, 1.0) == 100

    def test_rejects_fractional_product(self):
        with pytest.raises(ParameterError):
            _target_index(JCParams(14, 0.1), 0.1)  # 1.4 is not an index

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            _target_index(JCParams(10, 0.1), 1.5)
        with pytest.raises(ParameterError):
            _target_index(JCParams(10, 0.1), -0.1)


class TestLevelCrossing:
    def test_crossing_level_hits_separatrix_energy(self):
        # the returned coupling makes level k cross j*omega0 to near rounding
        q = 0.1
        for n in (100, 800):
            p = JCParams(n, 0.0)
            kq = critical_coupling_at_ratio(p, q)
            diag, off = _tridiag_arrays(JCParams(n, kq))
            lam = tridiag_eig(diag, off, indices=[round(q * n)]).eigenvalues[0]
            assert lam == pytest.approx(p.j * p.omega0, rel=1e-12)

    def test_grows_with_q(self):
        p = JCParams(60, 0.0)
        k1 = critical_coupling_at_ratio(p, 0.1)
        k2 = critical_coupling_at_ratio(p, 0.4)
        assert 0 < k1 < k2

    def test_ground_level_rejected(self):
        with pytest.raises(ParameterError):
            critical_coupling_at_ratio(JCParams(60, 0.0), 0.0)

    def test_requires_positive_detuning(self):
        with pytest.raises(ParameterError):
            critical_coupling_at_ratio(JCParams(60, 0.0, omega0=2.0, omega=2.0), 0.1)


class TestAutoGrid:
    def test_ground_sweep_spans_twice_kc(self):
        p = JCParams(40, 0.0)
        grid = auto_kappa_grid(p, 0.0)
        assert grid.size == 61
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(2.0 * critical_coupling(1.0, 2.0))

    def test_excited_window_brackets_crossing(self):
        p = JCParams(40, 0.0)
        kq = critical_coupling_at_ratio(p, 0.1)
        grid = auto_kappa_grid(p, 0.1)
        assert grid[0] == pytest.approx(0.8 * kq)
        assert grid[-1] == pytest.approx(1.2 * kq)

    def test_resonant_ground_grid_rejected(self):
        with pytest.raises(ParameterError):
            auto_kappa_grid(JCParams(40, 0.0, omega0=2.0, omega=2.0), 0.0)

    def test_point_count_validated(self):
        with pytest.raises(ParameterError):
            auto_kappa_grid(JCParams(40, 0.0), 0.1, points=1)


class TestScan:
    def test_two_pass_merge_properties(self):
        res = scan_kappa(JCParams(60, 0.0), 0.1, points=13)
        kappas = [r.kappa for r in res.rows]
        assert kappas == sorted(kappas)
        assert len(set(kappas)) == len(kappas)
        assert len(res.rows) > 13  # the fine pass added points
        assert all(r.converged for r in res.rows)
        assert res.method == "oracle"
        assert res.n_molecules == 60

    def test_center_matches_crossing(self):
        p = JCParams(60, 0.0)
        res = scan_kappa(p, 0.1, points=7)
        assert res.kappa_center == pytest.approx(critical_coupling_at_ratio(p, 0.1))

    def test_explicit_grid_validation(self):
        p = JCParams(20, 0.0)
        with pytest.raises(ParameterError):
            scan_kappa(p, 0.1, kappas=[0.5])
        with pytest.raises(ParameterError):
            scan_kappa(p, 0.1, kappas=[0.5, 0.4])
        with pytest.raises(ParameterError):
            scan_kappa(p, 0.1, kappas=[-0.1, 0.4])

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError):
            scan_kappa(JCParams(20, 0.0), 0.1, method="guess")

    def test_rows_behave_as_read_only_sequence(self):
        given = [ScanRow(0.5, 0.25, 1.5, True), ScanRow(0.75, -0.125, 2.0, False)]
        res = ScanResult(10, 0.1, 5.0, 1.0, 2.0, "oracle", 1.0, rows=given)
        assert len(res.rows) == 2
        assert res.rows[1] == given[1]
        assert res.rows[-1] == given[1]
        assert list(res.rows) == given
        assert res.rows == given
        assert res.rows[:1] == given[:1]
        assert res.converged_rows() == given[:1]
        assert isinstance(res.rows[0].converged, bool)
        with pytest.raises(IndexError):
            res.rows[2]
        with pytest.raises(TypeError):
            res.rows[0] = given[0]

    def test_max_row_without_convergence(self):
        res = ScanResult(10, 0.1, 5.0, 1.0, 2.0, "oracle", 1.0, rows=[])
        with pytest.raises(ParameterError):
            res.max_row()

    def test_towing_matches_oracle(self):
        # dual route: nonlinear towing reproduces the brute-force rows
        p = JCParams(60, 0.0)
        kq = critical_coupling_at_ratio(p, 0.1)
        kappas = np.linspace(0.9 * kq, 1.1 * kq, 5)
        res_o = scan_kappa(p, 0.1, kappas=kappas)
        res_t = scan_kappa(p, 0.1, kappas=kappas, method="towing")
        assert all(r.converged for r in res_t.rows)
        for ro, rt in zip(res_o.rows, res_t.rows):
            assert ro.kappa == rt.kappa
            assert rt.inversion == pytest.approx(ro.inversion, abs=1e-8)
            assert rt.scaled_energy == pytest.approx(ro.scaled_energy, abs=1e-8)

    def test_towing_ground_sweep_from_zero(self):
        p = JCParams(30, 0.0)
        res = scan_kappa(
            p, 0.0, kappas=np.linspace(0.0, 1.0, 6), method="towing"
        )
        assert all(r.converged for r in res.rows)
        # decoupled ground state is fully inverted down
        assert res.rows[0].inversion == pytest.approx(1.0, abs=1e-8)


class TestExponentFit:
    @staticmethod
    def synthetic_result(n, q, peak):
        j = n / 2.0
        rows = [
            ScanRow(kappa=1.0, inversion=peak / j * 0.5, scaled_energy=0.0, converged=True),
            ScanRow(kappa=1.5, inversion=peak / j, scaled_energy=0.0, converged=True),
            ScanRow(kappa=2.0, inversion=peak / j * 0.7, scaled_energy=0.0, converged=True),
        ]
        return ScanResult(n, q, j, 1.0, 2.0, "oracle", 1.5, rows)

    def test_recovers_exact_power_law(self):
        results = [
            self.synthetic_result(n, 0.1, 0.37 * n**1.5) for n in (100, 200, 400, 800)
        ]
        table = fit_critical_exponent(results)
        assert table.slope == pytest.approx(1.5, abs=1e-12)
        assert table.ci95 == pytest.approx(0.0, abs=1e-9)
        assert table.n_points == 4
        assert table.intercept == pytest.approx(np.log(0.37), abs=1e-11)
        assert [r.n_molecules for r in table.rows] == [100, 200, 400, 800]
        assert table.rows[0].kappa_at_max == 1.5

    def test_rejects_mixed_q(self):
        results = [
            self.synthetic_result(100, 0.1, 50.0),
            self.synthetic_result(200, 0.2, 80.0),
            self.synthetic_result(400, 0.1, 120.0),
        ]
        with pytest.raises(ParameterError):
            fit_critical_exponent(results)

    def test_rejects_duplicate_n(self):
        results = [
            self.synthetic_result(100, 0.1, 50.0),
            self.synthetic_result(100, 0.1, 52.0),
            self.synthetic_result(200, 0.1, 80.0),
        ]
        with pytest.raises(ParameterError):
            fit_critical_exponent(results)

    def test_needs_three_points(self):
        results = [
            self.synthetic_result(100, 0.1, 50.0),
            self.synthetic_result(200, 0.1, 80.0),
        ]
        with pytest.raises(ParameterError):
            fit_critical_exponent(results)

    def test_skips_unconverged_and_nonpositive(self):
        good = [
            self.synthetic_result(n, 0.1, 0.37 * n**1.5) for n in (100, 200, 400)
        ]
        dead = ScanResult(
            800, 0.1, 400.0, 1.0, 2.0, "oracle", 1.5,
            rows=[ScanRow(1.0, 0.5, 0.0, converged=False)],
        )
        negative = ScanResult(
            1600, 0.1, 800.0, 1.0, 2.0, "oracle", 1.5,
            rows=[ScanRow(1.0, -0.2, 0.0, converged=True)],
        )
        table = fit_critical_exponent(good + [dead, negative])
        assert table.n_points == 3
        assert table.slope == pytest.approx(1.5, abs=1e-12)

    def test_q_argument_must_match(self):
        results = [self.synthetic_result(n, 0.1, 50.0 * n) for n in (100, 200, 400)]
        with pytest.raises(ParameterError):
            fit_critical_exponent(results, q=0.2)
