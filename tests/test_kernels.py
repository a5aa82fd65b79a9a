"""The numpy batch kernel against the exact big-int loop of ``_kernels``."""

from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlelog import KERNEL_BACKEND, _kernels

# saved before ``no_fallback`` patches it out of the module
oracle = _kernels._exact_chain_successes

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
