"""Operator model: shift, DFT, spectrum, log operator."""

import io
import math

import numpy as np
import pytest

from circlelog import (
    InvalidOrder,
    OrderTooLarge,
    UsageError,
    complex_value,
    element,
    make_params,
    spectral,
    to_numeric,
)
from circlelog.spectral import (
    CHECK_ORDER_GUARD,
    DENSE_ORDER_GUARD,
    OPERATORS,
    DenseOperator,
    check,
    dft_matrix,
    dump_operator,
    eigenvalues_of_shift,
    exp_operator,
    log_operator,
    shift_operator,
)


def exact_roots(n):
    """Unit-circle roots straight from the fixed-point angle path."""
    params = make_params(n, 1 if n > 1 else 0, 64)
    return np.array(
        [complex(*complex_value(to_numeric(element(params, k)))) for k in range(n)]
    )


def test_shift_small_cases():
    assert np.array_equal(shift_operator(1).entries, [[1]])
    assert np.array_equal(shift_operator(2).entries, [[0, 1], [1, 0]])
    s4 = shift_operator(4).entries
    assert s4[0, 1] == s4[1, 2] == s4[2, 3] == s4[3, 0] == 1
    assert s4.sum() == 4


def test_dft_small_cases():
    assert np.allclose(dft_matrix(1).entries, [[1]])
    h = dft_matrix(2).entries
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    f4 = dft_matrix(4).entries
    assert np.abs(f4 @ f4.conj().T - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 128, 512])
def test_unitarity(n):
    for op in (shift_operator(n), dft_matrix(n)):
        u = op.entries
        assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-10


@pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 256, 360])
def test_eigenvalues_are_the_roots(n):
    eig = eigenvalues_of_shift(n)
    roots = exact_roots(n)
    # roots are >= 2*pi/n apart: nearest-match pairing is a bijection
    dist = np.abs(eig[:, None] - roots[None, :])
    assert dist.min(axis=1).max() < 1e-9
    assert sorted(dist.argmin(axis=1)) == list(range(n))  # multiset equality


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 360, 1000])
def test_eigenvalue_k_is_root_k(n):
    # mode k of the FFT is the root with exponent k: no pairing needed
    assert np.abs(eigenvalues_of_shift(n) - exact_roots(n)).max() < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 64])
def test_dft_matrix_is_the_ortho_fft(n):
    x = np.random.default_rng(n).standard_normal(n) + 1j
    assert np.abs(dft_matrix(n).entries @ x - np.fft.fft(x, norm="ortho")).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 16, 256])
def test_spectral_theorem_reconstruction(n):
    f = dft_matrix(n).entries
    rebuilt = f.conj().T @ np.diag(eigenvalues_of_shift(n)) @ f
    assert np.abs(rebuilt - shift_operator(n).entries).max() < 1e-9


def test_log_operator_small_cases():
    assert np.array_equal(log_operator(1).entries, [[0]])
    eig = np.linalg.eigvals(log_operator(2).entries)
    assert min(abs(eig - 0)) < 1e-12
    assert min(abs(eig - 1j * math.pi)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 8, 64, 128])
def test_exp_of_log_is_shift(n):
    rebuilt = exp_operator(log_operator(n)).entries
    assert np.abs(rebuilt - shift_operator(n).entries).max() < 1e-8


def test_exp_refuses_non_circulant():
    # the DFT does not diagonalize a nilpotent Jordan block; expm would be [[1, 1], [0, 1]]
    jordan = DenseOperator(2, np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(UsageError, match="circulant"):
        exp_operator(jordan)


def test_log_eigenvalues_principal_branch():
    n = 16
    f = dft_matrix(n).entries
    diag = np.diag(f @ log_operator(n).entries @ f.conj().T)
    expected = 2j * np.pi * np.arange(n) / n
    assert np.abs(diag - expected).max() < 1e-12  # branch 0 everywhere


def test_dump_format():
    buf = io.StringIO()
    dump_operator(shift_operator(2), buf)
    assert buf.getvalue() == "0+0i 1+0i\n1+0i 0+0i\n"
    buf = io.StringIO()
    dump_operator(DenseOperator(1, np.array([[0.5 - 0.25j]])), buf)
    assert buf.getvalue() == "0.5-0.25i\n"


@pytest.mark.parametrize("n", [1, 2, 5, 64, 1000, 4096])
def test_check_rows_pass(n):
    rows = check(n)
    assert [name for name, _, _ in rows] == [
        "dft unitary", "shift eigenvalues vs exact roots", "exp(log) vs shift",
    ]
    assert all(deviation < bound for _, deviation, bound in rows)


@pytest.mark.parametrize("n", [0, -3])
def test_nonpositive_order_rejected(n):
    for build in (check, eigenvalues_of_shift, *OPERATORS.values()):
        with pytest.raises(InvalidOrder):
            build(n)


def test_order_guards():
    # the guard fires before anything of size n is allocated
    with pytest.raises(OrderTooLarge):
        check(CHECK_ORDER_GUARD + 1)
    for build in OPERATORS.values():
        with pytest.raises(OrderTooLarge):
            build(DENSE_ORDER_GUARD + 1)
    assert shift_operator(DENSE_ORDER_GUARD).dim == DENSE_ORDER_GUARD


def test_order_guard_text_names_the_guard(monkeypatch):
    # the shipped guards are powers of two, written 2^k; any other guard is written out
    with pytest.raises(OrderTooLarge, match="^spectral check refused for n=1048577 > 2\\^20$"):
        check(CHECK_ORDER_GUARD + 1)
    with pytest.raises(OrderTooLarge, match="^dense operator refused for n=1025 > 2\\^10$"):
        shift_operator(DENSE_ORDER_GUARD + 1)
    monkeypatch.setattr(spectral, "DENSE_ORDER_GUARD", 100)
    assert shift_operator(100).dim == 100
    with pytest.raises(OrderTooLarge, match="^dense operator refused for n=101 > 100$"):
        shift_operator(101)


def test_shape_validation():
    with pytest.raises(ValueError):
        DenseOperator(2, np.zeros((2, 3), dtype=complex))


def test_shape_error_is_a_usage_error():
    with pytest.raises(UsageError, match="^expected a 2x2 matrix$"):
        DenseOperator(2, np.zeros((2, 3)))
