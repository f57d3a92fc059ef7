import pytest

from eigentow import ParameterError
from eigentow.bench import (
    BenchRecord,
    bench,
    collapse_per_iteration,
    loglog_slope,
    oracle_all_timing,
    oracle_single_timing,
    tow_end_to_end,
)


class TestBenchValidation:
    def test_unknown_suite(self):
        with pytest.raises(ParameterError):
            bench("warp_drive", [10, 20])

    def test_requires_ascending_sizes(self):
        with pytest.raises(ParameterError):
            bench("collapse_scaling", [100, 100])
        with pytest.raises(ParameterError):
            bench("oracle_scaling", [200, 100])

    def test_empty_size_list(self):
        assert bench("collapse_scaling", []) == []


class TestSingleTimers:
    def test_collapse_per_iteration_record(self):
        rec = collapse_per_iteration(50, warm=5, span=20, repeats=1)
        assert rec.method == "collapse"
        assert rec.n == 50
        assert rec.iterations == 20
        assert rec.wall_time > 0
        assert not rec.timed_out
        assert rec.converged

    def test_tow_record(self):
        rec = tow_end_to_end(50)
        assert rec.method == "tow"
        assert rec.wall_time > 0
        assert rec.iterations > 0
        assert rec.converged

    def test_tow_converges_at_n1000(self):
        # the ladder from zero coupling to 0.1 in three rungs: every rung
        # converges within the default budget
        rec = tow_end_to_end(1000)
        assert rec.converged
        assert not rec.timed_out

    def test_tow_record_keeps_failed_ladder(self):
        # a one-iteration budget fails the first rung; the cell stays, flagged
        rec = tow_end_to_end(50, max_iter=1)
        assert not rec.converged
        assert rec.iterations == 1
        assert rec.wall_time > 0

    def test_oracle_records(self):
        rec_all = oracle_all_timing(64)
        rec_one = oracle_single_timing(64)
        assert rec_all.method == "oracle_all"
        assert rec_one.method == "oracle_single"
        assert rec_all.wall_time > 0
        assert rec_one.wall_time > 0
        # solving for one eigenpair beats solving for all of them
        assert rec_one.wall_time < rec_all.wall_time


class TestSuites:
    def test_collapse_suite_layout(self):
        records = bench("collapse_scaling", [40, 80], timeout=300.0)
        assert [r.method for r in records] == ["collapse", "tow"] * 2
        assert [r.n for r in records] == [40, 40, 80, 80]
        assert all(not r.timed_out for r in records)

    def test_timeout_flagging(self):
        records = bench("oracle_scaling", [64], timeout=0.0)
        assert all(r.timed_out for r in records)


class TestLogLogSlope:
    @staticmethod
    def synthetic(exponent, method="collapse", coeff=1e-6):
        return [
            BenchRecord(n=n, method=method, wall_time=coeff * n**exponent, iterations=n)
            for n in (100, 200, 400, 800)
        ]

    def test_recovers_exponent(self):
        assert loglog_slope(self.synthetic(1.0), "collapse") == pytest.approx(1.0, abs=1e-12)
        assert loglog_slope(self.synthetic(2.0), "collapse") == pytest.approx(2.0, abs=1e-12)

    def test_per_iteration_divides_counts(self):
        # wall ~ n^2 with iterations ~ n leaves a per-iteration slope of 1
        recs = self.synthetic(2.0)
        assert loglog_slope(recs, "collapse", per_iteration=True) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_filters_by_method(self):
        recs = self.synthetic(1.0) + self.synthetic(3.0, method="tow")
        assert loglog_slope(recs, "tow") == pytest.approx(3.0, abs=1e-12)

    def test_skips_timed_out(self):
        recs = self.synthetic(1.0)
        recs.append(
            BenchRecord(n=1600, method="collapse", wall_time=99.0, iterations=1, timed_out=True)
        )
        assert loglog_slope(recs, "collapse") == pytest.approx(1.0, abs=1e-12)

    def test_needs_two_records(self):
        with pytest.raises(ParameterError):
            loglog_slope(self.synthetic(1.0)[:1], "collapse")
        with pytest.raises(ParameterError):
            loglog_slope(self.synthetic(1.0), "oracle_all")
