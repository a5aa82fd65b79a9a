"""Attack experiments: direct inversion, exhaustive baseline, sweeps."""

import hashlib
import importlib
import io
import multiprocessing
import os
import platform
import sys
import threading
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from circlelog import (
    GroupParams,
    InvalidOrder,
    NumericElement,
    OrderTooLarge,
    ParamsMismatch,
    UsageError,
    _kernels,
    cryptanalysis,
    element,
    make_params,
    to_numeric,
)
from circlelog.cryptanalysis import (
    CSV_HEADER,
    SweepRow,
    _draw_chunks,
    _reduce,
    accumulation_experiment,
    attack_direct,
    attack_exhaustive,
    derive_uniform,
    direct_attack_report,
    format_report,
    precision_sweep,
    write_csv,
)
from circlelog.group import MAX_PRECISION


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
            attack_direct(to_numeric(element(p, k)), p).recovered == k for k in range(16)
        )
        assert successes < 16

    @pytest.mark.parametrize("numeric", [False, True])
    def test_public_from_another_group_refused(self, numeric):
        other, params = make_params(1000, 1, 12), make_params(4096, 1, 14)
        public = element(other, 777)
        with pytest.raises(ParamsMismatch):
            attack_direct(to_numeric(public) if numeric else public, params)

    @pytest.mark.parametrize("numeric", [False, True])
    def test_tolerance_checked_for_both_kinds(self, numeric):
        # the exact branch used to accept delta = 1/2, which the numeric branch refuses
        p = make_params(1000, 1, 12)
        public = to_numeric(element(p, 5)) if numeric else element(p, 5)
        with pytest.raises(UsageError, match=r"delta must lie in \[0, 1/2\), got 1/2"):
            attack_direct(public, p, Fraction(1, 2))

    @pytest.mark.parametrize("public", [409, None])
    def test_public_not_an_element_refused(self, public):
        # used to end in AttributeError on .params
        name = type(public).__name__
        message = f"^public must be an ExactElement or NumericElement, got {name}$"
        with pytest.raises(UsageError, match=message):
            attack_direct(public, make_params(1000, 1, 12))


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

    @pytest.mark.parametrize("n, bits", [(1000, 12), (4096, 14), (10007, 16), (12, 3)])
    def test_report_matches_the_exact_loop(self, n, bits):
        # targets between the rounded roots as well as on them
        p = make_params(n, 1, bits)
        full = 1 << bits
        angles = [_kernels.to_numeric_t(k, n, bits) for k in range(n)]
        for t in range(0, full, full // 97 or 1):
            # the smallest k wins ties
            best_dist, best_k = min((min(abs(a - t), full - abs(a - t)), k)
                                    for k, a in enumerate(angles))
            report = attack_exhaustive(NumericElement(p, t), p)
            assert report.recovered == best_k
            assert report.notes == f"nearest angle at distance {best_dist}/2^{bits} turn-units"
            assert report.mean_ops == n

    @pytest.mark.parametrize("t", [256, 775, -1])
    def test_angle_outside_the_turn_rejected(self, t):
        p = make_params(10, 1, 8)
        with pytest.raises(UsageError, match=f"t={t} outside \\[0, 2\\^8\\)"):
            attack_exhaustive(NumericElement(p, t), p)

    def test_public_from_another_group_refused(self):
        other, params = make_params(1000, 1, 12), make_params(4096, 1, 14)
        with pytest.raises(ParamsMismatch):
            attack_exhaustive(to_numeric(element(other, 777)), params)

    def test_order_at_the_guard_accepted(self, monkeypatch):
        monkeypatch.setattr(_kernels, "nearest_angle", lambda t, n, p: (5, 0))  # no 2^24 scan
        p = make_params(1 << 24, 1, 26)
        report = attack_exhaustive(to_numeric(element(p, 5)), p)
        assert report.recovered == 5 and report.mean_ops == 1 << 24

    def test_order_guard(self):
        p = make_params(1 << 25, 1, 28)
        with pytest.raises(OrderTooLarge):
            attack_exhaustive(to_numeric(element(p, 1)), p)

    @pytest.mark.parametrize("public", [element(make_params(1000, 1, 12), 5), 409, None])
    def test_public_not_numeric_refused(self, public):
        # an ExactElement of the same group used to end in AttributeError on .t
        name = type(public).__name__
        with pytest.raises(UsageError, match=f"^public must be a NumericElement, got {name}$"):
            attack_exhaustive(public, make_params(1000, 1, 12))

    def test_success_only_for_an_exact_preimage(self):
        # the nearest exponent's angle must be the public angle itself, as in
        # attack_direct; t = 13 used to report success at distance 13/2^8
        p = make_params(10, 1, 8)
        roots = {_kernels.to_numeric_t(k, 10, 8) for k in range(10)}
        report = attack_exhaustive(NumericElement(p, 13), p)
        assert (report.successes, report.recovered) == (0, 0)
        assert report.notes == "nearest angle at distance 13/2^8 turn-units"
        for t in range(1 << 8):
            public = NumericElement(p, t)
            success = attack_exhaustive(public, p).successes
            assert success == attack_direct(public, p).successes == (t in roots), t

    def test_agrees_with_direct_exhaustively_small(self):
        for n in (17, 64, 100, 257):
            p = make_params(n, 1, (n - 1).bit_length() + 2)
            for k in range(n):
                q = to_numeric(element(p, k))
                direct = attack_direct(q, p)
                if direct.successes:
                    assert attack_exhaustive(q, p).recovered == direct.recovered


@pytest.mark.parametrize("attack", [attack_direct, attack_exhaustive])
@pytest.mark.parametrize("t, message", [
    (-3, r"angle t=-3 outside \[0, 2\^16\)"),
    (1 << 16, r"angle t=65536 outside \[0, 2\^16\)"),
    (True, "t must be an int, got bool"),
    (3.5, "t must be an int, got float"),
], ids=["-3", "2^16", "True", "3.5"])
def test_both_attacks_refuse_the_same_angles(attack, t, message):
    # attack_direct reported 0 successes for the first three and ended in a
    # bare TypeError for 3.5; NumericElement now refuses each before either attack
    params = make_params(101, 2, 16)
    with pytest.raises(UsageError, match=f"^{message}$"):
        attack(NumericElement(params, t), params)


@pytest.mark.parametrize("attack", [
    lambda params: attack_direct(to_numeric(element(make_params(101, 2, 16), 5)), params),
    lambda params: attack_exhaustive(to_numeric(element(make_params(101, 2, 16), 5)), params),
    lambda params: direct_attack_report(params, 10),
], ids=["attack_direct", "attack_exhaustive", "direct_attack_report"])
@pytest.mark.parametrize("params", [5, "x", None, to_numeric(element(make_params(101, 2, 16), 5))],
                         ids=["int", "str", "None", "NumericElement"])
def test_params_not_a_group_refused(attack, params):
    # the attacks raised ParamsMismatch ("... vs 5") and the report AttributeError
    shown = f"^params must be a GroupParams, got {type(params).__name__}$"
    with pytest.raises(UsageError, match=shown):
        attack(params)


def test_attack_direct_reads_the_angle_its_element_checked(monkeypatch):
    # NumericElement checked t when it was built; the attack does not check it again
    params = make_params(101, 2, 16)
    q = to_numeric(element(params, 5))

    def refuse(t, p):
        raise AssertionError("attack_direct re-checked the angle")

    monkeypatch.setattr(_kernels, "angle", refuse)
    report = attack_direct(q, params)
    assert (report.successes, report.recovered) == (1, 5)


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
    def test_report_holds_its_group(self):
        p = make_params(1000, 3, 12)
        public = element(p, 123)
        reports = [attack_direct(public, p), attack_direct(to_numeric(public), p),
                   attack_exhaustive(to_numeric(public), p), direct_attack_report(p, 10)]
        assert all(report.params == p for report in reports)
        assert format_report(reports[0]).splitlines()[1] == "params: n=1000 g=3 p=12 delta=1/5"

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

    def test_recovered_line_only_for_a_single_target(self):
        p = make_params(1000, 3, 12)
        one = attack_direct(to_numeric(element(p, 5)), p)
        assert format_report(one).splitlines()[5] == f"recovered: {one.recovered}"
        assert "recovered:" not in format_report(direct_attack_report(p, 10, seed=1))

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

    def test_derive_uniform_takes_every_digest_at_order_2_256(self):
        # the limit is 2^256 itself: no digest is redrawn
        v = int.from_bytes(hashlib.sha256(b"7/3/0").digest(), "big")
        assert derive_uniform(7, (3,), 1 << 256) == v

    def test_derive_uniform_redraws_at_counter_1(self):
        # at n = 2^255 + 1 the limit is n: about half the counter-0 digests are rejected
        n = 2**255 + 1

        def v(path):
            return int.from_bytes(hashlib.sha256(path).digest(), "big")

        t = next(t for t in range(100) if v(b"7/%d/0" % t) >= n > v(b"7/%d/1" % t))
        assert derive_uniform(7, (t,), n) == v(b"7/%d/1" % t)

    def test_derive_uniform_redraws_a_digest_at_the_limit(self, monkeypatch):
        rigged = _rigged_sha256(b"7/3/0", _limit(1000).to_bytes(32, "big"))
        monkeypatch.setattr(cryptanalysis, "hashlib", SimpleNamespace(sha256=rigged))
        redrawn = int.from_bytes(hashlib.sha256(b"7/3/1").digest(), "big")
        assert redrawn < _limit(1000) and derive_uniform(7, (3,), 1000) == redrawn % 1000


def _limit(n):
    return (1 << 256) - (1 << 256) % n


def _rigged_sha256(path: bytes, digest: bytes):
    """A SHA-256 constructor whose digest of the message ``path`` is ``digest``."""

    class Rigged:
        def __init__(self, data=b""):
            self.data = bytes(data)

        def copy(self):
            return Rigged(self.data)

        def update(self, more):
            self.data += more

        def digest(self):
            return digest if self.data == path else hashlib.sha256(self.data).digest()

    return Rigged


def _expected_draws(seed, head, n, trials, m):
    return [derive_uniform(seed, (head, m, t, j), n) for t in range(trials) for j in range(m)]


def _unreachable(*args):
    raise AssertionError("a draw was attempted")


@pytest.fixture
def redraws(monkeypatch):
    """The argument tuples ``_draw_chunks`` hands back to ``derive_uniform``."""
    calls = []

    def counting(*args):
        calls.append(args)
        return derive_uniform(*args)

    monkeypatch.setattr(cryptanalysis, "derive_uniform", counting)
    return calls


def _chunks(seed, head, n, trials, m, first=0):
    """``_draw_chunks`` as lists, each chunk checked: whole trials, bounded, its container."""
    chunks = list(_draw_chunks(seed, head, n, trials, m, first))
    for chunk in chunks:
        if n <= 1 << 32:  # the array the kernel computes on
            assert isinstance(chunk, np.ndarray) and chunk.dtype == np.int64
        else:
            assert isinstance(chunk, list)
        assert len(chunk) <= max(cryptanalysis._CHUNK, m)
        assert m == 0 or len(chunk) % m == 0
    return [list(chunk) for chunk in chunks]


def _flat(chunks):
    return [v for chunk in chunks for v in chunk]


class TestDrawBlock:
    """A row's block of draws, as ``_draw_chunks`` streams it."""

    @pytest.mark.parametrize("seed, head, n, trials, m", [
        (1, 12, 1000, 60, 16),
        (7, 3, 1, 5, 2),
        (-4, 22, 1 << 20, 300, 1),
        (6, 10, 1000, 700, 16),  # three reduction chunks, the last one partial
        (8, 5, 97, 2, 5000),  # a trial longer than a chunk
        (4, 7, 1 << 32, 50, 3),  # largest n reduced in numpy; limit = 2^256
        (4, 7, (1 << 32) + 1, 50, 3),  # smallest n reduced with Python ints
        (0, 9, 2**61 - 1, 40, 3),
        (3, 30, 1 << 63, 25, 2),  # largest n whose draws all fit int64
        (5, 250, 2**255 + 1, 60, 3),  # ~half of first digests rejected
        (2, 70, 2**64 + 13, 20, 4),  # draws beyond int64: list
        (10**60 + 7, 12, 1000, 40, 3),  # each path spans two SHA-256 blocks
        (9, 4, 17, 0, 5),
        (9, 4, 17, 6, 0),
    ])
    def test_matches_derive_uniform(self, redraws, seed, head, n, trials, m):
        expected = _expected_draws(seed, head, n, trials, m)
        assert _flat(_chunks(seed, head, n, trials, m)) == expected
        # only digests rejected at counter 0 go back to derive_uniform
        if n == 2**255 + 1:
            assert len(redraws) > len(expected) // 4
        else:
            assert redraws == []

    @pytest.mark.parametrize("first", [0, 1, 255, 256, 257, 700])
    @pytest.mark.parametrize("n", [1000, 2**61 - 1])
    def test_draws_from_a_first_trial(self, n, first):
        # the chunks of trials [first, trials) are cut from first: on the row's
        # grid (256 trials a chunk at m = 16) they are the row's own chunks
        seed, head, trials, m = 3, 12, 700, 16
        whole = _chunks(seed, head, n, trials, m)
        part = _chunks(*(seed, head, n, trials, m), first)
        assert _flat(part) == _expected_draws(seed, head, n, trials, m)[first * m:]
        if first % 256 == 0:
            assert part == whole[first // 256:]

    @pytest.mark.parametrize("n", [1000, (1 << 40) + 15, 2**255 + 12345])
    @pytest.mark.parametrize("v, rejected", [
        ("ff" * 32, True),
        ("limit", True),
        ("limit - 1", False),  # a candidate for rejection, yet accepted
    ])
    def test_rejection_at_the_limit(self, monkeypatch, redraws, n, v, rejected):
        seed, head, trials, m, t, j = 1, 12, 3000, 3, 2000, 2  # (t, j) in the second chunk
        v = {"ff" * 32: (1 << 256) - 1, "limit": _limit(n), "limit - 1": _limit(n) - 1}[v]
        if n <= 1 << 224:  # the candidates: the top 32-bit word all ones
            assert v >> 224 == (1 << 32) - 1
        rigged = _rigged_sha256(b"%d/%d/%d/%d/%d/0" % (seed, head, m, t, j), v.to_bytes(32, "big"))
        monkeypatch.setattr(cryptanalysis, "_sha256", rigged)
        draws = _flat(_chunks(seed, head, n, trials, m))
        expected = _expected_draws(seed, head, n, trials, m)
        assert redraws.count((seed, (head, m, t, j), n)) == rejected
        if n < 1 << 255:
            assert len(redraws) == rejected
        else:  # the limit is n: about half of all first digests are redrawn
            assert len(redraws) > trials * m // 4
        if not rejected:
            expected[t * m + j] = v % n
        assert draws == expected

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 1 << 32), st.integers(1, 1 << 256)),
        values=st.lists(st.integers(0, (1 << 256) - 1), max_size=40),
        near=st.lists(st.integers(-(1 << 33), 1 << 33), max_size=20),  # offsets from the limit
    )
    @example(n=1 << 32, values=[(1 << 256) - 1], near=[-1])  # limit = 2^256: no candidates
    @example(n=(1 << 32) + 1, values=[(1 << 256) - 1], near=[-1, 0])
    @example(n=(1 << 224) + 1, values=[], near=[-1, 0])
    @example(n=2**255 + 12345, values=[2**255], near=[-1, 0, 1])  # limit = n
    def test_numpy_reduction_matches_ints(self, n, values, near):
        limit = _limit(n)
        values = values + [limit + d for d in near if 0 <= limit + d < 1 << 256]
        reduced, rejected = _reduce([v.to_bytes(32, "big") for v in values], n, limit)
        if n <= 1 << 32:  # the array the kernel computes on
            assert isinstance(reduced, np.ndarray) and reduced.dtype == np.int64
        else:
            assert isinstance(reduced, list)
        assert list(reduced) == [v % n for v in values]
        assert rejected == [i for i, v in enumerate(values) if v >= limit]

    @pytest.mark.skipif(platform.python_implementation() != "CPython",
                        reason="the built-in SHA-256 module is CPython's")
    def test_draws_use_the_builtin_sha256(self):
        # one call of the built-in on a short path is cheaper than OpenSSL's
        name = "_sha256" if sys.version_info < (3, 12) else "_sha2"
        builtin = importlib.import_module(name).sha256
        assert cryptanalysis._sha256 is builtin
        assert cryptanalysis._sha256 is not hashlib.sha256

    @pytest.mark.parametrize("args", [(1, 12, 1000, 600, 16), (5, 250, 2**255 + 1, 60, 3)])
    def test_same_draws_with_hashlib_sha256(self, monkeypatch, args):
        builtin = _chunks(*args)
        monkeypatch.setattr(cryptanalysis, "_sha256", hashlib.sha256)
        assert _chunks(*args) == builtin

    @pytest.mark.parametrize("m", [1, 3, "_CHUNK + 1"])
    def test_kernel_sees_one_chunk_at_a_time(self, monkeypatch, m):
        # a small _CHUNK keeps m = _CHUNK + 1 cheap; the counts must not depend on it
        chunk = 16
        trials, m = 3 * chunk + 5, chunk + 1 if m == "_CHUNK + 1" else m

        def run():
            return (precision_sweep(1000, [11, 12], trials, seed=5),
                    accumulation_experiment(1000, 12, [m], trials, seed=5))

        one_chunk = run()  # at the default _CHUNK every row is one chunk
        monkeypatch.setattr(cryptanalysis, "_CHUNK", chunk)
        seen = []
        count = _kernels.chain_success_count

        def recording(n, p, dnum, dden, ks, m):
            seen.append(len(ks))
            return count(n, p, dnum, dden, ks, m)

        monkeypatch.setattr(_kernels, "chain_success_count", recording)
        assert run() == one_chunk
        assert max(seen) <= max(chunk, m)
        assert sum(seen) == trials * (2 + m)


class TestInputValidation:
    @pytest.mark.parametrize("call", [
        lambda: precision_sweep(256, [4], 0),
        lambda: precision_sweep(256, [4], 10, delta=Fraction(1, 2)),
        lambda: accumulation_experiment(1000, 12, [1], -1),
        lambda: accumulation_experiment(1000, 12, [1], 10, delta=Fraction(-1, 5)),
        lambda: direct_attack_report(make_params(16, 1, 6), 0),
        lambda: accumulation_experiment(1000, 12, [], 10),
        lambda: accumulation_experiment(1000, 12, [0, 2], 10),
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

    @pytest.mark.parametrize("n, p_values, first_bad", [
        (0, [12], 12),
        (-5, [12], 12),
        (256, [0], 0),
        (256, [MAX_PRECISION + 1], MAX_PRECISION + 1),
        (256, [5, 0, 70000], 0),  # the first bad p in the order given
    ])
    def test_order_and_precision_refused_as_the_group_refuses(self, n, p_values, first_bad):
        with pytest.raises(InvalidOrder) as group:
            GroupParams(n, 1 if n > 1 else 0, first_bad)
        calls = [lambda: precision_sweep(n, p_values, 10)]
        if len(p_values) == 1:
            calls.append(lambda: accumulation_experiment(n, p_values[0], [1, 2], 10))
        for call in calls:
            with pytest.raises(InvalidOrder) as refused:
                call()
            assert type(refused.value) is type(group.value)
            assert str(refused.value) == str(group.value)
            assert str(refused.value).endswith(f"got {n if n < 1 else first_bad}")

    @pytest.mark.parametrize("call", [
        lambda n: direct_attack_report(make_params(n, 2, 300), 1),
        lambda n: precision_sweep(n, [299, 300], 1),
        lambda n: accumulation_experiment(n, 300, [1, 2], 1),
    ])
    def test_order_above_2_256_refused_before_any_draw(self, monkeypatch, call):
        # at such n the limit is 0: every digest would be redrawn forever
        monkeypatch.setattr(cryptanalysis, "derive_uniform", _unreachable)
        with pytest.raises(InvalidOrder, match=r"n <= 2\^256"):
            call((1 << 256) + 1)

    def test_derive_uniform_refuses_order_above_2_256(self, monkeypatch):
        monkeypatch.setattr(cryptanalysis, "hashlib", SimpleNamespace(sha256=_unreachable))
        with pytest.raises(InvalidOrder, match=r"n <= 2\^256"):
            derive_uniform(0, (1,), (1 << 256) + 1)

    @pytest.mark.parametrize("n", [0, -5])
    def test_derive_uniform_refuses_order_below_1(self, n):
        with pytest.raises(InvalidOrder, match=r"n >= 1"):
            derive_uniform(0, (1,), n)

    def test_attack_direct_draws_nothing_and_takes_any_order(self):
        params = make_params((1 << 256) + 1, 2, 300)
        report = attack_direct(to_numeric(element(params, 5)), params)
        assert report.successes == 1 and report.recovered == 5


def _ranges(trials, ms, chunk=cryptanalysis._CHUNK, range_chunks=cryptanalysis._RANGE_CHUNKS):
    """How many trial ranges a call cuts its rows of chain lengths ``ms`` into."""
    return sum(-(-trials // (range_chunks * max(1, chunk // m))) for m in ms)


def _forks(mp):
    """Count the forks made in this process from here on (``mp`` patches ``os.fork``)."""
    forks = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    mp.setattr(os, "fork", counting)
    return forks


@pytest.mark.skipif(cryptanalysis._pool_workers(1 << 62) < 2,
                    reason="needs two usable CPUs and fork as the start method")
class TestPool:
    """Trial ranges counted in forked workers: the rows of the in-process count."""

    @staticmethod
    def experiments(n, p, m, trials, seed):
        return (precision_sweep(n, [p, p + 1], trials, seed=seed),
                accumulation_experiment(n, p, range(1, m + 1), trials, seed=seed))

    # no explain phase: it only annotates a failure, and its traced re-run waited
    # for ever on a forked worker, so a wrong count showed as a hang
    @settings(max_examples=12, deadline=None,
              phases=[phase for phase in Phase if phase is not Phase.explain])
    @given(
        n=st.one_of(st.integers(1, 5000), st.integers(1, 1 << 70)),
        p=st.integers(1, 40),
        m=st.integers(1, 6),
        trials=st.integers(1, 700),
        seed=st.integers(-(1 << 64), 1 << 64),
        chunk=st.sampled_from([1, 5, 64, 1 << 12]),
        range_chunks=st.sampled_from([1, 3, 8]),
    )
    def test_pool_counts_equal_in_process_counts(self, n, p, m, trials, seed, chunk,
                                                 range_chunks):
        # a small _CHUNK cuts each row into many ranges of several chunks each;
        # the forked workers inherit the patches
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cryptanalysis, "_CHUNK", chunk)
            mp.setattr(cryptanalysis, "_RANGE_CHUNKS", range_chunks)
            serial = self.experiments(n, p, m, trials, seed)
            mp.setattr(cryptanalysis, "_POOL_DRAWS", 1)
            forks = _forks(mp)
            assert self.experiments(n, p, m, trials, seed) == serial
            # one worker per usable CPU, but no more than the call has ranges
            workers = cryptanalysis._pool_workers(1 << 62)
            assert len(forks) == sum(
                min(workers, _ranges(trials, ms, chunk, range_chunks))
                for ms in ([1, 1], range(1, m + 1)))
        assert multiprocessing.active_children() == []

    def test_redraws_inside_workers(self, monkeypatch):
        # at n = 2^255 + 1 about half of all first digests are redrawn
        n, p = 2**255 + 1, 300
        serial = self.experiments(n, p, 3, 150, 5)
        monkeypatch.setattr(cryptanalysis, "_POOL_DRAWS", 1)
        monkeypatch.setattr(cryptanalysis, "_CHUNK", 16)
        forks = _forks(monkeypatch)
        assert self.experiments(n, p, 3, 150, 5) == serial
        assert forks and multiprocessing.active_children() == []

    def test_default_sweep_is_pooled_and_attack_is_not(self):
        # sweep: 10 000 trials in each of eleven rows; attack: 10 000 draws
        workers = cryptanalysis._pool_workers(1 << 62)
        assert cryptanalysis._pool_workers(10_000 * 11) == workers
        assert cryptanalysis._pool_workers(10_000) == 0

    def test_no_more_workers_than_ranges(self, monkeypatch):
        # three rows of 100 trials are three ranges: eight usable CPUs fork three
        serial = precision_sweep(1000, [10, 11, 12], 100, seed=3)
        assert _ranges(100, [1, 1, 1]) == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        monkeypatch.setattr(cryptanalysis, "_POOL_DRAWS", 1)
        forks = _forks(monkeypatch)
        assert precision_sweep(1000, [10, 11, 12], 100, seed=3) == serial
        assert len(forks) == 3 and multiprocessing.active_children() == []

    @pytest.mark.parametrize("call", [
        lambda: accumulation_experiment((1 << 256) + 1, 300, [1, 2], 10**6),
        lambda: precision_sweep((1 << 256) + 1, [299, 300], 10**6),
        lambda: accumulation_experiment(1000, 12, [1, 2], 0),
        lambda: accumulation_experiment(1000, 0, [1, 2], 10**6),
        lambda: precision_sweep(1000, [12], 10**6, delta=Fraction(1, 2)),
    ])
    def test_refused_input_starts_no_worker(self, monkeypatch, call):
        monkeypatch.setattr(cryptanalysis, "_POOL_DRAWS", 1)
        monkeypatch.setattr(os, "fork", _unreachable)
        with pytest.raises((InvalidOrder, UsageError)):
            call()
        assert multiprocessing.active_children() == []


class TestPoolGate:
    """When a call forks: never below the threshold, beside a thread, on one CPU or without fork."""

    def test_below_the_threshold(self):
        assert cryptanalysis._pool_workers(cryptanalysis._POOL_DRAWS - 1) == 0

    def test_one_usable_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cryptanalysis._pool_workers(1 << 62) == 0

    def test_another_start_method(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none: "spawn")
        assert cryptanalysis._pool_workers(1 << 62) == 0
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none: "fork")
        assert cryptanalysis._pool_workers(1 << 62) == 2

    def test_a_second_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none: "fork")
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert cryptanalysis._pool_workers(1 << 62) == 0
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive() and cryptanalysis._pool_workers(1 << 62) == 2
