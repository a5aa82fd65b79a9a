"""The numpy kernels against the exact big-int loops of ``_kernels``."""

from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlelog import KERNEL_BACKEND, UsageError, _kernels

# saved before ``no_fallback``/``no_scan_fallback`` patch them out of the module
oracle = _kernels._exact_chain_successes
scan_oracle = _kernels._exact_nearest_angle

N_MAX = 1 << 24
DDEN_MAX = 1 << 16


@st.composite
def domain_params(draw):
    """(n, p, dnum, dden) inside the numpy kernel's int64 domain, delta < 1/2."""
    n = draw(st.integers(1, N_MAX))
    p = draw(st.integers(0, 30))
    dden = draw(st.integers(1, DDEN_MAX))
    dnum = draw(st.integers(0, (dden - 1) // 2))
    return n, p, dnum, dden


def exponents(n):
    """Canonical, negative and >= n exponents."""
    return st.one_of(st.integers(0, n - 1), st.integers(-(1 << 40), 1 << 40))


@pytest.fixture
def no_fallback(monkeypatch):
    """Fail if a call meant for the numpy kernel reaches the exact big-int loop."""
    def refuse(*args):
        raise AssertionError("numpy-domain call fell back to the exact loop")
    monkeypatch.setattr(_kernels, "_exact_chain_successes", refuse)


@pytest.fixture
def no_scan_fallback(monkeypatch):
    """Fail if a scan meant for numpy reaches the exact loop."""
    def refuse(*args):
        raise AssertionError("numpy-domain scan fell back to the exact loop")
    monkeypatch.setattr(_kernels, "_exact_nearest_angle", refuse)


def test_backend_is_always_available():
    assert KERNEL_BACKEND == "numpy"


@settings(max_examples=300, deadline=None)
@given(domain_params(), st.data())
@example((7, 5, 1, 5), None)
def test_sweep_agrees(params, data):
    n, p, dnum, dden = params
    ks = [-3] if data is None else data.draw(st.lists(exponents(n), max_size=40))
    assert _kernels.sweep_success_count(n, p, dnum, dden, ks) == oracle(
        n, p, dnum, dden, ks, 1, len(ks)
    )


@settings(max_examples=300, deadline=None)
@given(domain_params(), st.integers(0, 16), st.integers(0, 8), st.data())
def test_chain_agrees(params, m, trials, data):
    n, p, dnum, dden = params
    ks = data.draw(st.lists(exponents(n), min_size=m * trials, max_size=m * trials))
    assert _kernels.chain_success_count(
        n, p, dnum, dden, ks, m, trials
    ) == oracle(n, p, dnum, dden, ks, m, trials)


@pytest.mark.parametrize("n, p, dnum, dden", [
    (1, 1, 0, 1), (1, 30, 0, DDEN_MAX), (N_MAX, 30, 0, 1), (N_MAX, 1, 1, 3),
    (N_MAX, 30, (DDEN_MAX - 1) // 2, DDEN_MAX), (N_MAX - 1, 30, 1, DDEN_MAX),
    (1000, 12, 1, 5), (3, 8, 49, 100),
])
def test_domain_edges_stay_on_numpy(no_fallback, n, p, dnum, dden):
    ks = [0, 1, n - 1, n, n + 1, -1, -n, 3 * n - 7, (1 << 62) - 1, -(1 << 62)]
    m, trials = 5, 2
    expect = oracle(n, p, dnum, dden, ks, m, trials)
    assert _kernels.chain_success_count(n, p, dnum, dden, ks, m, trials) == expect
    assert _kernels.sweep_success_count(n, p, dnum, dden, ks) == oracle(
        n, p, dnum, dden, ks, 1, len(ks)
    )
    assert _kernels.chain_success_count(n, p, dnum, dden, [], m, 0) == 0


@pytest.mark.parametrize("dnum, dden", [(0, 1), (1, 4), (1, 5)])
def test_small_orders_exhaustively(no_fallback, dnum, dden):
    # small n and p reach the rounding ties (2r == n), the tolerance boundary
    # and recoveries that round up to n; random parameters rarely do
    for n in range(1, 25):
        ks = [k for k1 in range(-n, 2 * n) for k in (k1, k1, (5 * k1 + 2) % n)]
        for p in range(7):
            args = (n, p, dnum, dden, ks, 3, 3 * n)
            assert _kernels.chain_success_count(*args) == oracle(*args), (n, p)


def test_negative_exponent_case():
    # -3 = 4 mod 7; a C-style truncating modulo once made this 0
    assert _kernels.sweep_success_count(7, 5, 1, 5, [-3]) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 100, 127, 1000, 1024, 4096])
@pytest.mark.parametrize("extra_bits", [-2, 0, 2])
def test_roundtrip_all_agrees(no_fallback, n, extra_bits):
    p = max(1, (n - 1).bit_length() + extra_bits)
    assert _kernels.roundtrip_all(n, p, 1, 5) == oracle(n, p, 1, 5, range(n), 1, n)


def test_inputs_are_not_modified():
    ks = np.arange(-50, 50, dtype=np.int64)
    flat = array("q", range(-50, 50))
    _kernels.chain_success_count(7, 9, 1, 5, ks, 4, 25)
    _kernels.sweep_success_count(7, 9, 1, 5, flat)
    assert list(ks) == list(flat) == list(range(-50, 50))


def test_exponent_beyond_int64_takes_exact_path():
    ks = [1 << 70, -(1 << 70) - 1, 5]
    assert _kernels.sweep_success_count(1000, 12, 1, 5, ks) == oracle(1000, 12, 1, 5, ks, 1, 3) == 3


def test_dispatch_falls_back_above_int64_range():
    # n = 2^61 - 1 with p = 128 must route to the exact big-int path
    n = 2**61 - 1
    k = 123456789012345678
    t = _kernels.to_numeric_t(k, n, 128)
    assert _kernels.recover_t(t, n, 128, 1, 5) == k
    assert t == round(Fraction(k << 128, n)) % (1 << 128)  # round() is half-to-even
    ks = [k, k + 1, -k, 3 * n]
    assert _kernels.sweep_success_count(n, 128, 1, 5, ks) == oracle(n, 128, 1, 5, ks, 1, 4) == 4


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 30), st.integers(1, 64), st.data())
@example(1, 0, 1, None)
def test_nearest_angle_agrees(n, p, chunk, data):
    # targets anywhere in [0, 2^p), mostly not rounded roots; a small chunk
    # puts minima and ties on chunk boundaries
    t = 0 if data is None else data.draw(st.integers(0, (1 << p) - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_SCAN_CHUNK", chunk)
        assert _kernels.nearest_angle(t, n, p) == scan_oracle(t, n, p)


@pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 20])
def test_nearest_angle_ties_exhaustively(no_scan_fallback, monkeypatch, chunk):
    # every target at small n and p: equidistant angles, wrap-around ties and
    # exponents sharing one angle
    monkeypatch.setattr(_kernels, "_SCAN_CHUNK", chunk)
    for n in range(1, 20):
        for p in range(6):
            for t in range(1 << p):
                assert _kernels.nearest_angle(t, n, p) == scan_oracle(t, n, p), (n, p, t)


@pytest.mark.parametrize("n, p, t", [
    (1, 31, 5), (7, 40, (1 << 40) - 1), (100, 64, 1 << 63),  # p > 30
    (10, 8, -1), (10, 8, 256), (10, 8, 3 * 256 + 7), (10, 8, -1000),  # t outside [0, 2^p)
    (10, 8, 1 << 70), (10, 8, -(1 << 70)),  # ... and beyond int64
    (0, 8, 3),  # no exponent at all
])
def test_nearest_angle_outside_domain_is_the_exact_loop(n, p, t):
    assert _kernels.nearest_angle(t, n, p) == scan_oracle(t, n, p)


def test_nearest_angle_at_domain_edges_stays_on_numpy(no_scan_fallback):
    assert _kernels.nearest_angle(0, 1, 0) == (0, 0)
    assert _kernels.nearest_angle((1 << 30) - 1, 3, 30) == (0, 1)
    n = 10007  # prime: no angle repeats, so the target's own exponent wins
    k = 4321
    assert _kernels.nearest_angle(_kernels.to_numeric_t(k, n, 30), n, 30) == (k, 0)


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
