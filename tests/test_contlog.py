"""Continuous logarithm: principal value, branches, exponent recovery."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelog import (
    AmbiguousAngle,
    InvalidOrder,
    UsageError,
    _kernels,
    element,
    exponent_recovery_bound,
    log_branches,
    make_params,
    mul_numeric,
    principal_log,
    recover_exponent,
    to_numeric,
)
from circlelog.contlog import DEFAULT_TOLERANCE, ContinuousLogValue
from circlelog.group import NumericElement


class TestPrincipalLog:
    def test_minus_one_gives_half_turn(self):
        p = make_params(2, 1, 8)
        v = principal_log(to_numeric(element(p, 1)))
        assert v.principal_t == 128 and v.branch == 0

    def test_identity_gives_zero(self):
        p = make_params(2, 1, 8)
        v = principal_log(NumericElement(p, 0))
        assert v.principal_t == 0 and v.imag() == 0.0

    def test_three_quarter_of_eighth_roots(self):
        p = make_params(8, 1, 16)
        v = principal_log(to_numeric(element(p, 3)))
        assert v.principal_t == 3 * 65536 // 8 == 24576


class TestOneRepresentation:
    P = make_params(101, 2, 16)

    def test_whole_turns_of_the_angle_go_to_the_branch(self):
        v = ContinuousLogValue(self.P, 65541, 0)
        assert v == ContinuousLogValue(self.P, 5, 1)
        assert (v.principal_t, v.branch) == (5, 1)

    def test_negative_angle_reads_on_branch_minus_one(self):
        v = ContinuousLogValue(self.P, -3, 0)
        assert (v.principal_t, v.branch) == (65533, -1)
        assert v.turn_units() == -3 and v.imag() == math.tau * (-3 / 65536)

    @given(st.integers(-2**40, 2**40), st.integers(-100, 100))
    def test_turn_units_and_imag_unchanged(self, t, branch):
        v = ContinuousLogValue(self.P, t, branch)
        assert 0 <= v.principal_t < 1 << 16
        assert v.turn_units() == t + (branch << 16)
        assert v.imag() == math.tau * ((t + (branch << 16)) / (1 << 16))


class TestLogBranches:
    def test_zero_window_is_principal(self):
        p = make_params(4, 1, 8)
        q = to_numeric(element(p, 1))
        assert log_branches(q, 0) == [principal_log(q)]

    def test_window_one(self):
        p = make_params(4, 1, 8)
        vs = log_branches(NumericElement(p, 128), 1)
        assert [v.branch for v in vs] == [-1, 0, 1]
        assert all(v.principal_t == 128 for v in vs)

    def test_spacing_is_exactly_one_turn(self):
        p = make_params(4, 1, 8)
        vs = log_branches(NumericElement(p, 64), 3)
        assert len(vs) == 7
        diffs = {b.turn_units() - a.turn_units() for a, b in zip(vs, vs[1:])}
        assert diffs == {1 << 8}

    @pytest.mark.parametrize("window", [-1, -5])
    def test_negative_window_refused(self, window):
        q = NumericElement(make_params(4, 1, 8), 64)
        with pytest.raises(UsageError, match="window"):
            log_branches(q, window)


class TestRecoverExponent:
    def test_exact_representable(self):
        p = make_params(8, 1, 16)
        q = to_numeric(element(p, 3))
        assert recover_exponent(q) == _kernels.recover_t(q.t, 8, 16, 1, 100) == 3

    def test_near_boundary_rational_oracle(self):
        # x = 65*4/256 = 1.015625 by exact rationals; distance 1/64 <= 0.4
        x = Fraction(65 * 4, 256)
        assert abs(x - round(x)) <= Fraction(1, 2) - Fraction(1, 10)
        p = make_params(4, 1, 8)
        assert _kernels.recover_t(65, 4, 8, 1, 10) == recover_exponent(NumericElement(p, 65)) == 1

    def test_exact_midpoint_is_ambiguous(self):
        p = make_params(4, 1, 3)
        with pytest.raises(AmbiguousAngle):
            recover_exponent(NumericElement(p, 3))

    def test_tolerance_domain(self):
        with pytest.raises(ValueError):
            _kernels.tolerance(Fraction(1, 2))

    def test_tolerance_domain_is_usage_error(self):
        # the one range check of a tolerance handed to _kernels.recover_t
        # raises UsageError, which existing ``except ValueError`` callers catch
        with pytest.raises(UsageError) as exc:
            _kernels.tolerance(Fraction(1, 2))
        assert isinstance(exc.value, ValueError)

    def test_wraps_past_full_turn(self):
        p = make_params(4, 1, 8)
        assert recover_exponent(NumericElement(p, 255)) == 0


class TestDefaultTolerance:
    """recover_exponent decodes with DEFAULT_TOLERANCE; other tolerances go to the kernel."""

    @pytest.mark.parametrize("n, bits", [(1000, 12), (4096, 14), (10007, 16)])
    def test_default_and_equal_fraction_agree(self, n, bits):
        equal = Fraction(1, 5)
        assert equal == DEFAULT_TOLERANCE and equal is not DEFAULT_TOLERANCE
        dnum, dden = _kernels.tolerance(equal)
        params = make_params(n, 1, bits)
        for k in range(n):
            q = to_numeric(element(params, k))
            assert recover_exponent(q) == _kernels.recover_t(q.t, n, bits, dnum, dden) == k

    @pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(-1, 5)])
    def test_out_of_range_still_refused(self, delta):
        with pytest.raises(UsageError, match="delta must lie in"):
            _kernels.tolerance(delta)

    @pytest.mark.parametrize("delta", [Fraction(0), Fraction(49, 100)])
    @pytest.mark.parametrize("n, bits", [(1000, 8), (12, 6), (1000, 12)])
    def test_other_tolerances_match_the_kernel(self, delta, n, bits):
        # recover_t at delta against the exact rational rule, and
        # recover_exponent against recover_t at the default tolerance
        params = make_params(n, 1, bits)
        ambiguous = 0
        for t in range(1 << bits):
            x = Fraction(t * n, 1 << bits)
            nearest = round(x)  # half to even, as the kernel rounds
            fits = abs(x - nearest) <= Fraction(1, 2) - delta
            k = _kernels.recover_t(t, n, bits, delta.numerator, delta.denominator)
            assert k == (nearest % n if fits else -1)
            ambiguous += k < 0
            default = _kernels.recover_t(t, n, bits, 1, 5)
            if default < 0:
                with pytest.raises(AmbiguousAngle):
                    recover_exponent(NumericElement(params, t))
            else:
                assert recover_exponent(NumericElement(params, t)) == default
        assert (ambiguous > 0) == (delta > 0)  # delta = 0 accepts every angle


class TestRecoveryBound:
    def test_examples(self):
        assert exponent_recovery_bound(256, 10)
        assert not exponent_recovery_bound(256, 8)
        assert exponent_recovery_bound(1000, 12)

    def test_trivial_group_is_a_group(self):
        # n = 1 has one exponent: the bound is p >= 2, not InvalidOrder
        assert exponent_recovery_bound(1, 2) and not exponent_recovery_bound(1, 1)

    @pytest.mark.parametrize("n", [0, -7])
    def test_order_no_group_has_refused(self, n):
        # both answered True: p = 8 is at least (n - 1).bit_length() + 2
        with pytest.raises(InvalidOrder, match=rf"^group order must be >= 1, got {n}$"):
            exponent_recovery_bound(n, 8)

    def test_bound_backed_by_exhaustive_recovery(self):
        n = 1000
        p = make_params(n, 1, 12)
        assert all(
            recover_exponent(to_numeric(element(p, k))) == k for k in range(n)
        )


def test_roundtrip_exhaustive_small_orders():
    for n in range(1, 200):
        p_bits = (n - 1).bit_length() + 2
        params = make_params(n, 1 if n > 1 else 0, p_bits)
        for k in range(n):
            assert recover_exponent(to_numeric(element(params, k))) == k


@settings(max_examples=300)
@given(st.integers(1, 4096), st.integers())
def test_roundtrip_property(n, k):
    params = make_params(n, 1 if n > 1 else 0, (n - 1).bit_length() + 2)
    assert recover_exponent(to_numeric(element(params, k))) == k % n


@settings(max_examples=200)
@given(st.integers(1, 1024), st.integers(), st.integers())
def test_principal_log_homomorphism_mod_turn(n, t1, t2):
    params = make_params(n, 1 if n > 1 else 0, 10)
    a = NumericElement(params, t1 % 1024)
    b = NumericElement(params, t2 % 1024)
    assert principal_log(mul_numeric(a, b)).principal_t == (a.t + b.t) % 1024


def test_ambiguity_below_bound_by_pigeonhole():
    # 2^3 angle slots cannot separate 16 roots
    params = make_params(16, 1, 3)
    seen = {}
    collision = False
    for k in range(16):
        t = to_numeric(element(params, k)).t
        collision |= t in seen and seen[t] != k
        seen.setdefault(t, k)
    assert collision


def test_branch_spacing_bit_exact_random_inputs():
    rng = random.Random(12345)
    for _ in range(100):
        n = rng.randrange(1, 1 << 16)
        p_bits = rng.randrange(1, 40)
        params = make_params(n, 1 if n > 1 else 0, p_bits)
        q = NumericElement(params, rng.randrange(1 << p_bits))
        vs = log_branches(q, rng.randrange(1, 6))
        for a, b in zip(vs, vs[1:]):
            assert b.turn_units() - a.turn_units() == 1 << p_bits
