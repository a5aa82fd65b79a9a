"""Attack experiments: direct inversion, exhaustive baseline, sweeps."""

import io
from array import array
from fractions import Fraction

import pytest

from circlelog import (
    InvalidOrder,
    OrderTooLarge,
    UsageError,
    cryptanalysis,
    element,
    make_params,
    to_numeric,
)
from circlelog.cryptanalysis import (
    CSV_HEADER,
    SweepRow,
    _draw_block,
    accumulation_experiment,
    attack_direct,
    attack_exhaustive,
    derive_uniform,
    direct_attack_report,
    format_report,
    precision_sweep,
    write_csv,
)


class TestDirect:
    def test_exact_input_leaks_exponent(self):
        p = make_params(1000, 3, 12)
        report = attack_direct(element(p, 123), p)
        assert report.successes == 1
        assert report.mean_ops == 0
        assert report.recovered == 123

    def test_numeric_single_recovery(self):
        p = make_params(1000, 3, 12)
        report = attack_direct(to_numeric(element(p, 777)), p)
        assert report.successes == 1 and report.mean_ops == 1
        assert report.recovered == 777

    def test_aggregate_all_succeed_above_bound(self):
        p = make_params(1 << 20, 1, 22)
        report = direct_attack_report(p, 10_000, seed=1)
        assert report.successes == report.trials == 10_000
        assert report.mean_ops == 1

    def test_pigeonhole_failures_below_bound(self):
        p = make_params(16, 1, 3)
        successes = sum(
            attack_direct(to_numeric(element(p, k)), p, true_exponent=k).successes
            for k in range(16)
        )
        assert successes < 16


class TestExhaustive:
    def test_trivial_group(self):
        p = make_params(1, 0, 4)
        report = attack_exhaustive(to_numeric(element(p, 0)), p)
        assert report.successes == 1 and report.mean_ops == 1

    def test_matches_direct_on_representable_angles(self):
        n = 4096
        p = make_params(n, 1, (n - 1).bit_length() + 2)
        for k in range(0, n, 17):
            q = to_numeric(element(p, k))
            assert attack_exhaustive(q, p).recovered == attack_direct(q, p).recovered == k

    def test_order_guard(self):
        p = make_params(1 << 25, 1, 28)
        with pytest.raises(OrderTooLarge):
            attack_exhaustive(to_numeric(element(p, 1)), p)

    def test_agrees_with_direct_exhaustively_small(self):
        for n in (17, 64, 100, 257):
            p = make_params(n, 1, (n - 1).bit_length() + 2)
            for k in range(n):
                q = to_numeric(element(p, k))
                direct = attack_direct(q, p)
                if direct.successes:
                    assert attack_exhaustive(q, p).recovered == direct.recovered


class TestPrecisionSweep:
    def test_rows_ordered_and_sized(self):
        rows = precision_sweep(256, range(2, 13), 100, seed=1)
        assert [r.variable for r in rows] == list(range(2, 13))
        assert all(r.trials == 100 for r in rows)

    def test_full_success_above_bound(self):
        rows = precision_sweep(256, [10, 11, 12], 1000, seed=1)
        assert all(r.success_rate == 1 for r in rows)

    def test_degraded_below_bound(self):
        (row,) = precision_sweep(256, [4], 1000, seed=1)
        assert row.success_rate < Fraction(1, 2)

    def test_two_points_always_recoverable(self):
        rows = precision_sweep(2, range(1, 8), 200, seed=1)
        assert all(r.success_rate == 1 for r in rows)

    def test_monotone_after_smoothing(self):
        rows = precision_sweep(256, range(2, 13), 1000, seed=3)
        for a, b in zip(rows, rows[1:]):
            assert b.success_rate >= a.success_rate - Fraction(2, 100)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            precision_sweep(256, [], 10)

    def test_deterministic_in_seed(self):
        assert precision_sweep(256, [6, 7], 500, seed=9) == precision_sweep(
            256, [6, 7], 500, seed=9
        )


class TestAccumulation:
    def test_single_element_matches_sweep_row_exactly(self):
        # same code path and same derived randomness
        (acc,) = accumulation_experiment(300, 11, [1], 1000, seed=4)
        (swp,) = precision_sweep(300, [11], 1000, seed=4)
        assert acc.successes == swp.successes

    def test_known_drift_case_recovers_anyway(self):
        # three copies of k=1 at n=3, p=8: numeric product lands at t=255,
        # whose nearest exponent multiple is 3 = 0 mod 3, matching the exact
        # product (rational oracle: 255*3/256 = 2.988... rounds to 3)
        p = make_params(3, 1, 8)
        q = to_numeric(element(p, 1))
        assert q.t == 85
        rows = accumulation_experiment(3, 8, [3], 1, seed=0)
        assert rows[0].trials == 1

    def test_failure_onset_when_order_not_dyadic(self):
        rows = accumulation_experiment(1000, 12, range(1, 17), 1000, seed=1)
        assert rows[0].success_rate == 1  # m=1 is the plain round trip
        onset = next(r.variable for r in rows if r.success_rate < 1)
        assert 1 <= onset <= 16  # predicted near 2^p/n ~ 4

    def test_dyadic_order_is_error_free(self):
        # n divides 2^p: representation is exact, chains never fail
        rows = accumulation_experiment(1024, 12, range(1, 17), 200, seed=1)
        assert all(r.success_rate == 1 for r in rows)


class TestReporting:
    def test_csv_format(self):
        rows = [SweepRow(2, 16, 1000), SweepRow(3, 1000, 1000)]
        buf = io.StringIO()
        write_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER == "variable,successes,trials,success_rate"
        assert lines[1] == "2,16,1000,2/125"
        assert lines[2] == "3,1000,1000,1/1"

    def test_rates_are_exact_rationals(self):
        row = SweepRow(5, 1, 3)
        assert row.success_rate == Fraction(1, 3)

    def test_report_text_states_measured_cost(self):
        p = make_params(1 << 20, 1, 22)
        report = direct_attack_report(p, 100, seed=1)
        text = format_report(report)
        assert "100/100 recoveries" in text
        assert "1 recovery operation" in text
        assert "hard" in report.notes  # claim stated next to the measurement

    def test_derive_uniform_in_range_and_stable(self):
        vs = [derive_uniform(7, (3, 1, t, 0), 1000) for t in range(200)]
        assert all(0 <= v < 1000 for v in vs)
        assert vs == [derive_uniform(7, (3, 1, t, 0), 1000) for t in range(200)]


class TestDrawBlock:
    @pytest.mark.parametrize("seed, head, n, trials, m", [
        (1, 12, 1000, 60, 16),
        (7, 3, 1, 5, 2),
        (-4, 22, 1 << 20, 300, 1),
        (0, 9, 2**61 - 1, 40, 3),
        (3, 30, 1 << 63, 25, 2),  # largest n whose draws all fit int64
        (5, 250, 2**255 + 1, 60, 3),  # ~half of first digests rejected
        (2, 70, 2**64 + 13, 20, 4),  # draws beyond int64: list
        (9, 4, 17, 0, 5),
        (9, 4, 17, 6, 0),
    ])
    def test_matches_derive_uniform(self, monkeypatch, seed, head, n, trials, m):
        expected = [
            derive_uniform(seed, (head, m, t, j), n) for t in range(trials) for j in range(m)
        ]
        redraws = []

        def counting(*args):
            redraws.append(args)
            return derive_uniform(*args)

        monkeypatch.setattr(cryptanalysis, "derive_uniform", counting)
        draws = _draw_block(seed, head, n, trials, m)
        assert list(draws) == expected
        assert isinstance(draws, array if n <= 1 << 63 else list)
        # only digests rejected at counter 0 go back to derive_uniform
        if n == 2**255 + 1:
            assert len(redraws) > len(expected) // 4
        else:
            assert redraws == []


class TestInputValidation:
    @pytest.mark.parametrize("call", [
        lambda: precision_sweep(256, [4], 0),
        lambda: precision_sweep(256, [4], 10, delta=Fraction(1, 2)),
        lambda: accumulation_experiment(1000, 12, [1], -1),
        lambda: accumulation_experiment(1000, 12, [1], 10, delta=Fraction(-1, 5)),
        lambda: direct_attack_report(make_params(16, 1, 6), 0),
    ])
    def test_request_shape_is_usage_error(self, call):
        with pytest.raises(UsageError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: accumulation_experiment(0, 12, [1], 10),
        lambda: accumulation_experiment(1000, -1, [1], 10),
        lambda: precision_sweep(-5, [2, 3], 10),
        lambda: precision_sweep(256, [0, 1], 10),
    ])
    def test_order_and_precision_are_domain_errors(self, call):
        with pytest.raises(InvalidOrder):
            call()
