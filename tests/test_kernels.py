"""The numpy kernels, in int64 and in exact Python ints, against the scalar kernels."""

import random
import re
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlelog import (
    KERNEL_BACKEND, OrderTooLarge, UsageError, _kernels, element, make_params, to_numeric,
)
from circlelog.cryptanalysis import accumulation_experiment, attack_direct, precision_sweep


def oracle(n, p, dnum, dden, ks, m):
    """``chain_success_count`` from the scalar kernels, one chain at a time."""
    ks = [int(k) for k in ks]
    successes = 0
    for i in range(0, len(ks), m):
        chain = ks[i:i + m]
        t = sum(_kernels.to_numeric_t(k, n, p) for k in chain) & ((1 << p) - 1)
        successes += _kernels.recover_t(t, n, p, dnum, dden) == sum(chain) % n
    return successes


def scan_oracle(t, n, p):
    """``nearest_angle`` from ``to_numeric_t``, one exponent at a time."""
    full = 1 << p
    best = (full, 0)  # (distance, k): the smallest k wins ties; n = 0 keeps (0, 2^p)
    for k in range(n):
        d = abs(_kernels.to_numeric_t(k, n, p) - t)
        best = min(best, (min(d, full - d), k))
    return best[1], best[0]


@st.composite
def domain_params(draw):
    """(n, p, dnum, dden) on both sides of the int64 rule's edge, delta < 1/2.

    n * 2^p < 2^63 holds for n below ``edge``, and 2 dden * 2^p < 2^63 for
    dden below half of it.
    """
    p = draw(st.integers(0, 64))
    edge = 1 << max(0, 63 - p)
    n = draw(st.integers(1, 2 * edge))
    dden = draw(st.integers(1, edge))
    dnum = draw(st.integers(0, (dden - 1) // 2))
    return n, p, dnum, dden


def exponents(n):
    """Canonical, negative and >= n exponents."""
    return st.one_of(st.integers(0, n - 1), st.integers(-(1 << 40), 1 << 40))


def checked_rounding(monkeypatch, check):
    """Route ``to_numeric_t`` through ``check`` on array arguments; ints pass
    straight through, since the scalar oracles call the same function."""
    rounding = _kernels.to_numeric_t

    def checked(k, n, p):
        if isinstance(k, np.ndarray):
            check(k)
        return rounding(k, n, p)
    monkeypatch.setattr(_kernels, "to_numeric_t", checked)


@pytest.fixture
def int64_only(monkeypatch):
    """Fail if a call rounds any array but an int64 one."""
    def check(k):
        assert k.dtype == np.int64, f"a call that fits int64 rounded a {k.dtype} array"
    checked_rounding(monkeypatch, check)


@pytest.fixture
def no_rounding(monkeypatch):
    """Fail if a call rounds an array at all."""
    def check(k):
        raise AssertionError("a refused call reached the rounding")
    checked_rounding(monkeypatch, check)


@pytest.fixture
def exact_only(monkeypatch):
    """Fail if a call rounds any array but an object array of Python ints."""
    def check(k):
        assert k.dtype == object, f"a call past int64 rounded a {k.dtype} array"
        assert all(type(x) is int for x in k.flat), "an exact array holds a numpy scalar"
    checked_rounding(monkeypatch, check)


def test_backend_is_always_available():
    assert KERNEL_BACKEND == "numpy"


@settings(max_examples=300, deadline=None)
@given(domain_params(), st.data())
@example((7, 5, 1, 5), None)
def test_sweep_agrees(params, data):
    n, p, dnum, dden = params
    ks = [-3] if data is None else data.draw(st.lists(exponents(n), max_size=40))
    assert _kernels.sweep_success_count(n, p, dnum, dden, ks) == oracle(n, p, dnum, dden, ks, 1)


@settings(max_examples=300, deadline=None)
@given(domain_params(), st.integers(1, 16), st.integers(0, 8), st.data())
def test_chain_agrees(params, m, trials, data):
    n, p, dnum, dden = params
    ks = data.draw(st.lists(exponents(n), min_size=m * trials, max_size=m * trials))
    assert _kernels.chain_success_count(n, p, dnum, dden, ks, m) == oracle(n, p, dnum, dden, ks, m)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 1 << 70), st.integers(0, 140), st.integers(1, 1 << 20),
       st.integers(1, 8), st.integers(0, 4), st.data())
def test_chain_agrees_in_exact_ints(n, p, dden, m, trials, data):
    # mostly past the int64 rule: the same body on object arrays
    dnum = data.draw(st.integers(0, (dden - 1) // 2))
    ks = data.draw(st.lists(st.integers(-(1 << 80), 1 << 80), min_size=m * trials,
                            max_size=m * trials))
    assert _kernels.chain_success_count(n, p, dnum, dden, ks, m) == oracle(n, p, dnum, dden, ks, m)


@pytest.mark.parametrize("n, p", [(7, 5), (2**61 - 1, 128)])
@pytest.mark.parametrize("ks, m", [([1, 2, 3], 2), ([1, 2, 3], 0), ([], 0), ([1, 2, 3], -1)])
def test_ragged_block_refused_on_both_paths(no_rounding, n, p, ks, m):
    # (7, 5) fits int64, (2^61 - 1, 128) does not; neither dtype may round
    with pytest.raises(UsageError, match=f"not whole chains of m={m}$"):
        _kernels.chain_success_count(n, p, 1, 5, ks, m)


@pytest.mark.parametrize("n, p, dnum, dden", [
    (1, 1, 0, 1), (1, 30, 0, 1 << 16), (1 << 24, 30, 0, 1), (1 << 24, 1, 1, 3),
    (1 << 24, 30, (1 << 15) - 1, 1 << 16), ((1 << 24) - 1, 30, 1, 1 << 16),
    (1000, 12, 1, 5), (3, 8, 49, 100), (1 << 20, 40, 0, 5),
])
def test_domain_edges_stay_on_numpy(int64_only, n, p, dnum, dden):
    # mid-size parameters run on int64, with exponents anywhere in int64 and
    # an empty block
    ks = [0, 1, n - 1, n, n + 1, -1, -n, 3 * n - 7, (1 << 62) - 1, -(1 << 62)]
    m = 5  # two chains
    expect = oracle(n, p, dnum, dden, ks, m)
    assert _kernels.chain_success_count(n, p, dnum, dden, ks, m) == expect
    assert _kernels.sweep_success_count(n, p, dnum, dden, ks) == oracle(n, p, dnum, dden, ks, 1)
    assert _kernels.chain_success_count(n, p, dnum, dden, [], m) == 0


@pytest.mark.parametrize("dnum, dden", [(0, 1), (1, 4), (1, 5)])
def test_small_orders_exhaustively(int64_only, dnum, dden):
    # small n and p reach the rounding ties (2r == n), the tolerance boundary
    # and recoveries that round up to n; random parameters rarely do
    for n in range(1, 25):
        ks = [k for k1 in range(-n, 2 * n) for k in (k1, k1, (5 * k1 + 2) % n)]
        for p in range(7):
            args = (n, p, dnum, dden, ks, 3)
            assert _kernels.chain_success_count(*args) == oracle(*args), (n, p)


@pytest.mark.parametrize("delta", [Fraction(0), Fraction(1, 5), Fraction(1, 3), Fraction(49, 100)])
def test_scalar_kernels_match_exact_fractions(delta):
    # the scalar kernels are the reference for both dtypes; round() is half-to-even
    dnum, dden = delta.numerator, delta.denominator
    for n in range(1, 25):
        for p in range(7):
            full = 1 << p
            for t in range(full):
                x = Fraction(t * n, full)
                k = round(x)
                expect = k % n if abs(x - k) <= Fraction(1, 2) - delta else -1
                assert _kernels.recover_t(t, n, p, dnum, dden) == expect, (n, p, t)
            for k in range(-n, 2 * n):
                assert _kernels.to_numeric_t(k, n, p) == round(Fraction(k * full, n)) % full


def periodic_cases():
    """(form, n, p, j): p = 0, p = 1, a p inside and one past the int64 rule;
    j negative and large, as large as int64 holds for int64 arrays."""
    for n, p in [(7, 0), (7, 1), (1000, 12), (2**61 - 1, 128)]:
        for form in ("int", "int64", "object"):
            if form != "int64":
                js = (-(1 << 70), -3, -1, 1, 5, 1 << 70)
            elif n << p < 1 << 63:
                big = ((1 << 62) >> p) // n - 1  # (k + j n) 2^p stays below 2^62
                js = (-big, -3, -1, 1, 5, big)
            else:
                continue
            for j in js:
                yield form, n, p, j


@pytest.mark.parametrize("form, n, p, j", periodic_cases())
def test_rounding_is_periodic_in_n(form, n, p, j):
    # (k + j n) 2^p rounds to the angle of k mod 2^p, with no k % n step:
    # j 2^p is even for p >= 1, and the mask gives 0 at p = 0
    ks = [0, 1, n // 2, n // 3 + 1, n - 1]
    expect = [_kernels.to_numeric_t(k, n, p) for k in ks]
    assert expect == [round(Fraction(k << p, n)) % (1 << p) for k in ks]  # half-to-even
    shifted = [k + j * n for k in ks]
    if form == "int":
        assert [_kernels.to_numeric_t(k, n, p) for k in shifted] == expect
    else:
        dtype = np.int64 if form == "int64" else object
        got = _kernels.to_numeric_t(np.array(shifted, dtype=dtype), n, p)
        assert got.dtype == dtype and got.tolist() == expect


def test_negative_exponent_case():
    # -3 = 4 mod 7; a C-style truncating modulo once made this 0
    assert _kernels.sweep_success_count(7, 5, 1, 5, [-3]) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 100, 127, 1000, 1024, 4096])
@pytest.mark.parametrize("extra_bits", [-2, 0, 2])
def test_roundtrip_all_agrees(int64_only, n, extra_bits):
    p = max(1, (n - 1).bit_length() + extra_bits)
    assert _kernels.roundtrip_all(n, p, 1, 5) == oracle(n, p, 1, 5, range(n), 1)


@pytest.mark.parametrize("n", [2**63 - 1, 2**63, 2**62, 2**40])
def test_roundtrip_all_refuses_an_order_past_the_guard(n):
    # np.arange(n) gave an empty block (count 0; at p = 0 the true count is 1),
    # a bare ValueError, or a MemoryError for 8 TiB
    with pytest.raises(OrderTooLarge, match=f"^exhaustive round trip refused for n={n} > 2\\^24$"):
        _kernels.roundtrip_all(n, 0, 0, 1)


def test_roundtrip_all_runs_up_to_the_guard(monkeypatch):
    # the bound of the other whole-group scan, nearest_angle
    assert _kernels.EXHAUSTIVE_ORDER_GUARD == 1 << 24
    monkeypatch.setattr(_kernels, "EXHAUSTIVE_ORDER_GUARD", 100)
    assert _kernels.roundtrip_all(100, 0, 0, 1) == 1  # at p = 0 only k = 0 comes back
    # the text names the guard the check used
    with pytest.raises(OrderTooLarge, match="^exhaustive round trip refused for n=101 > 100$"):
        _kernels.roundtrip_all(101, 0, 0, 1)


def test_nearest_angle_runs_up_to_the_guard(monkeypatch):
    # the scan refuses an order past the guard itself, whoever calls it
    monkeypatch.setattr(_kernels, "EXHAUSTIVE_ORDER_GUARD", 100)
    assert _kernels.nearest_angle(0, 100, 8) == (0, 0)
    with pytest.raises(OrderTooLarge, match="^exhaustive search refused for n=101 > 100$"):
        _kernels.nearest_angle(0, 101, 8)


def test_inputs_are_not_modified():
    ks = np.arange(-50, 50, dtype=np.int64)
    flat = array("q", range(-50, 50))
    _kernels.chain_success_count(7, 9, 1, 5, ks, 4)
    _kernels.sweep_success_count(7, 9, 1, 5, flat)
    assert list(ks) == list(flat) == list(range(-50, 50))


def test_exponent_beyond_int64_runs_on_exact_ints(exact_only):
    ks = [1 << 70, -(1 << 70) - 1, 5]
    assert _kernels.sweep_success_count(1000, 12, 1, 5, ks) == oracle(1000, 12, 1, 5, ks, 1) == 3


def test_protocol_default_runs_on_exact_ints(exact_only):
    # n = 2^61 - 1 with p = 128 must run on exact Python ints (object arrays)
    n = 2**61 - 1
    k = 123456789012345678
    t = _kernels.to_numeric_t(k, n, 128)
    assert _kernels.recover_t(t, n, 128, 1, 5) == k
    assert t == round(Fraction(k << 128, n)) % (1 << 128)  # round() is half-to-even
    ks = [k, k + 1, -k, 3 * n]
    assert _kernels.sweep_success_count(n, 128, 1, 5, ks) == oracle(n, 128, 1, 5, ks, 1) == 4


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 64), st.integers(1, 64), st.data())
@example(1, 0, 1, None)
def test_nearest_angle_agrees(n, p, chunk, data):
    # targets anywhere in [0, 2^p), mostly not rounded roots; a small chunk
    # puts minima and ties on chunk boundaries; n * 2^p >= 2^63 scans object arrays
    t = 0 if data is None else data.draw(st.integers(0, (1 << p) - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_SCAN_CHUNK", chunk)
        assert _kernels.nearest_angle(t, n, p) == scan_oracle(t, n, p)


@pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 20])
def test_nearest_angle_ties_exhaustively(int64_only, monkeypatch, chunk):
    # every target at small n and p: equidistant angles, wrap-around ties and
    # exponents sharing one angle
    monkeypatch.setattr(_kernels, "_SCAN_CHUNK", chunk)
    for n in range(1, 20):
        for p in range(6):
            for t in range(1 << p):
                assert _kernels.nearest_angle(t, n, p) == scan_oracle(t, n, p), (n, p, t)


@pytest.mark.parametrize("n, p, t", [
    (1, 31, 5), (7, 40, (1 << 40) - 1),  # int64: n * 2^p < 2^63
    (100, 64, 1 << 63),  # exact ints: n * 2^p >= 2^63
])
def test_nearest_angle_outside_domain_is_the_exact_loop(n, p, t):
    # sizes that the int64 rule sends either way agree with the scalar loop
    assert _kernels.nearest_angle(t, n, p) == scan_oracle(t, n, p)


@pytest.mark.parametrize("n, p, t", [
    (10, 8, -1), (10, 8, 256), (10, 8, 3 * 256 + 7), (10, 8, -1000),  # t outside [0, 2^p)
    (10, 8, 1 << 70), (10, 8, -(1 << 70)),  # ... and beyond int64
    (3, 61, -1), (3, 61, 1 << 61),  # at either end of [0, 2^p)
    (0, 8, 256),  # no exponent to scan, still no angle
])
def test_nearest_angle_refuses_a_target_off_the_turn(no_rounding, n, p, t):
    with pytest.raises(UsageError, match=f"^angle t={t} outside \\[0, 2\\^{p}\\)$"):
        _kernels.nearest_angle(t, n, p)


@pytest.mark.parametrize("n", [0, 10])
def test_nearest_angle_refuses_a_negative_precision(no_rounding, n):
    with pytest.raises(UsageError, match="^angles need a precision p >= 0, got p=-1$"):
        _kernels.nearest_angle(0, n, -1)


@pytest.mark.parametrize("n", [0, -5])
def test_nearest_angle_refuses_a_group_with_no_exponent(no_rounding, n):
    # the scan answered (0, 2^p) here, where the count refuses n < 1
    with pytest.raises(UsageError, match=f"^the scan needs n >= 1, got n={n}$"):
        _kernels.nearest_angle(3, n, 8)


def test_nearest_angle_at_domain_edges_stays_on_numpy(int64_only):
    assert _kernels.nearest_angle(0, 1, 0) == (0, 0)
    assert _kernels.nearest_angle((1 << 30) - 1, 3, 30) == (0, 1)
    n = 10007  # prime: no angle repeats, so the target's own exponent wins
    k = 4321
    assert _kernels.nearest_angle(_kernels.to_numeric_t(k, n, 30), n, 30) == (k, 0)


# Each term of the int64 rule at its edge: the largest input that runs on
# int64, then the smallest that does not. (n, p, dnum, dden, m) for the count.
CHAIN_EDGES = [
    ((2**63 - 1, 0, 0, 1, 1), (2**63, 0, 0, 1, 1)),  # n * 2^p < 2^63 at p = 0
    ((2**62 - 1, 1, 0, 1, 1), (2**62, 1, 0, 1, 1)),  # ... at p = 1
    (((1 << 23) - 1, 40, 0, 1, 1), (1 << 23, 40, 0, 1, 1)),  # ... at p = 40
    ((1, 61, 0, 1, 1), (1, 62, 0, 1, 1)),  # 2 dden * 2^p < 2^63 at dden = 1
    ((1 << 20, 40, 1, (1 << 22) - 1, 1), (1 << 20, 40, 1, 1 << 22, 1)),  # ... at p = 40
    ((3, 0, 1, 2**62 - 1, 1), (3, 0, 1, 2**62, 1)),  # ... at p = 0
    ((7, 60, 0, 1, 7), (7, 60, 0, 1, 8)),  # m * 2^p < 2^63
    ((2**59, 2, 0, 1, 15), (2**59, 2, 0, 1, 16)),  # m * n < 2^63
]
# (t, n, p) for the scan: n * 2^p < 2^63
SCAN_EDGES = [
    ((5, 1, 62), (5, 2, 62)),
    ((5, 3, 61), (5, 3, 62)),
    ((2**60 - 1, 7, 60), (2**61 - 1, 7, 61)),  # the target at the top of [0, 2^p)
    ((0, 4, 60), (0, 4, 61)),  # n * 2^p = 2^63 exactly
]


def edge_block(n, m):
    """Whole chains of m exponents, all within int64: residues near 0, n/2 and n, and past n."""
    ks = [0, 1, n - 1, n // 2, n // 3 + 1, -1, -n, (1 << 62) - 1, -(1 << 63)]
    return ks * m


@pytest.mark.parametrize("args", [fits for fits, _ in CHAIN_EDGES])
def test_chain_count_at_the_edge_runs_on_int64(int64_only, args):
    n, p, dnum, dden, m = args
    ks = edge_block(n, m)
    assert _kernels.chain_success_count(n, p, dnum, dden, ks, m) == oracle(n, p, dnum, dden, ks, m)


@pytest.mark.parametrize("args", [past for _, past in CHAIN_EDGES])
def test_chain_count_past_the_edge_runs_on_exact_ints(exact_only, args):
    n, p, dnum, dden, m = args
    ks = edge_block(n, m)
    assert _kernels.chain_success_count(n, p, dnum, dden, ks, m) == oracle(n, p, dnum, dden, ks, m)


@pytest.mark.parametrize("n, p, dnum, dden", [
    (0, 61, 0, 1), (-7, 5, 1, 5),  # n >= 1
    (7, -1, 0, 1),  # p >= 0
    (1 << 20, 40, -1, 5),  # 0 <= dnum
    (1 << 20, 40, 4, 5), (1 << 20, 40, 5, 5), (3, 8, 1, 2),  # 2 dnum < dden
    (1 << 20, 40, 0, 0), (1 << 20, 40, 0, -1),  # no denominator
])
def test_chain_count_refuses_invalid_parameters(no_rounding, n, p, dnum, dden):
    # the scalar kernels would raise a bare ZeroDivisionError or ValueError
    # here, or count with a tolerance no one can ask for
    shown = f"got n={n}, p={p}, dnum={dnum}, dden={dden}$"
    for call in (lambda: _kernels.chain_success_count(n, p, dnum, dden, [1, 2, 3, 4], 2),
                 lambda: _kernels.sweep_success_count(n, p, dnum, dden, []),
                 lambda: _kernels.roundtrip_all(n, p, dnum, dden)):
        with pytest.raises(UsageError, match=shown):
            call()


def test_uint64_block_counts_like_python_ints(exact_only):
    # a uint64 block at or above 2^63 does not cast safely to int64: it must
    # count the exponents it holds, not their wrapped int64 values
    rng = random.Random(63)
    ks = [2**63 + 4] + [rng.randrange(1 << 63, 1 << 64) for _ in range(2000)]
    block = np.array(ks, dtype=np.uint64)
    args = (1000, 10, 1, 5)
    assert _kernels.sweep_success_count(*args, block[:1]) == oracle(*args, ks[:1], 1) == 0
    assert _kernels.sweep_success_count(*args, block) == oracle(*args, ks, 1)
    assert _kernels.chain_success_count(*args, block[1:], 4) == oracle(*args, ks[1:], 4)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint32, np.int8, np.bool_])
def test_block_that_casts_safely_runs_on_int64(int64_only, dtype):
    ks = np.array([0, 1, 5, 127, 9, 1], dtype=dtype)
    assert _kernels.chain_success_count(1000, 12, 1, 5, ks, 2) == oracle(1000, 12, 1, 5, ks, 2)


@pytest.mark.parametrize("args", [fits for fits, _ in SCAN_EDGES])
def test_scan_at_the_edge_runs_on_int64(int64_only, args):
    assert _kernels.nearest_angle(*args) == scan_oracle(*args)


@pytest.mark.parametrize("args", [past for _, past in SCAN_EDGES])
def test_scan_past_the_edge_runs_on_exact_ints(exact_only, args):
    assert _kernels.nearest_angle(*args) == scan_oracle(*args)


@pytest.mark.parametrize("n, p", [(1 << 40, 62), ((1 << 30) + 7, 40), (2**61 - 1, 128)])
def test_numpy_integer_exponents_count_exactly(exact_only, n, p):
    # an object array built from numpy int64 scalars keeps them, and they wrap
    rng = random.Random(p)
    ks = [rng.randrange(n) for _ in range(200)]
    assert oracle(n, p, 1, 5, ks, 1) == 200
    assert _kernels.sweep_success_count(n, p, 1, 5, [np.int64(k) for k in ks]) == 200


@pytest.mark.parametrize("n, p", [(1 << 40, 62), ((1 << 30) + 7, 40), (3, 62)])
def test_numpy_integer_parameters_count_exactly(n, p):
    # the rule and both dtypes see the parameters as Python ints
    ks = [0, 1, n - 1, n // 2, 12345]
    i64 = np.int64
    assert (_kernels.sweep_success_count(i64(n), i64(p), i64(1), i64(5), ks)
            == oracle(n, p, 1, 5, ks, 1))
    t = _kernels.to_numeric_t(2, 3, p)
    assert _kernels.nearest_angle(i64(t), i64(3), i64(p)) == scan_oracle(t, 3, p) == (2, 0)


@pytest.mark.parametrize("forms, pair", [
    ((Fraction(1, 4), 0.25, "1/4", "0.25"), (1, 4)),
    ((Fraction(0), 0, 0.0, "0"), (0, 1)),
    ((Fraction(2, 10), "2/10", "1/5"), (1, 5)),
])
def test_tolerance_same_pair_for_every_form(forms, pair):
    for delta in forms:
        assert _kernels.tolerance(delta) == pair, delta


@pytest.mark.parametrize("forms, shown", [
    ((Fraction(1, 2), 0.5, "1/2"), "1/2"),
    ((Fraction(-1, 5), "-1/5"), "-1/5"),
    ((Fraction(1), 1), "1"),
])
def test_tolerance_same_usage_error_for_every_form(forms, shown):
    for delta in forms:
        with pytest.raises(UsageError) as info:
            _kernels.tolerance(delta)
        assert str(info.value) == f"delta must lie in [0, 1/2), got {shown}", delta


@pytest.mark.parametrize("delta", [
    "abc", float("nan"), None, 1j, [1], float("inf"), float("-inf"), "1/0",
])
def test_tolerance_refuses_what_is_not_a_finite_rational(delta):
    # Fraction() would leak a bare ValueError, TypeError, OverflowError or
    # ZeroDivisionError through every entry that takes a tolerance
    params = make_params(1000, 1, 12)
    public = to_numeric(element(params, 5))
    shown = f"^delta must be a finite rational, got {re.escape(repr(delta))}$"
    for call in (lambda: _kernels.tolerance(delta),
                 lambda: attack_direct(public, params, delta),
                 lambda: precision_sweep(1000, [12], 5, delta),
                 lambda: accumulation_experiment(1000, 12, [2], 5, delta)):
        with pytest.raises(UsageError, match=shown):
            call()


@pytest.mark.parametrize("delta", [False, True])
def test_tolerance_refuses_a_bool_by_name(delta):
    # Fraction read False as 0 and True as 1, where the integer rule refuses a bool
    params = make_params(1000, 1, 12)
    public = to_numeric(element(params, 5))
    for call in (lambda: _kernels.tolerance(delta),
                 lambda: attack_direct(public, params, delta)):
        with pytest.raises(UsageError, match=f"^delta must be a finite rational, got {delta}$"):
            call()
