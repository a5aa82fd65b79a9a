"""Operator model of the circle group at desk scale.

The cyclic shift on C^n is a unitary operator whose eigenvalues are exactly
the n-th roots of unity; the discrete Fourier matrix diagonalizes it, and the
continuous logarithm becomes the operator that is diagonal in the Fourier
basis with entries i*2*pi*k/n. Shift, logarithm and exponential are all
circulant, so each is fixed by one eigenvalue vector: ``check`` verifies the
model on those vectors with the FFT, in O(n log n) time and O(n) memory, for
1 <= n <= ``CHECK_ORDER_GUARD``. The dense n x n builders (``OPERATORS``,
``exp_operator``) are double precision, built by direct construction from the
known diagonalization (no eigensolver), and refuse n > ``DENSE_ORDER_GUARD``;
they exist to dump and inspect small operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from ._kernels import _integer, _refuse_above
from .errors import InvalidOrder, UsageError
from .group import _check_type, complex_value, element, make_params, to_numeric

DENSE_ORDER_GUARD = 1 << 10  # n x n complex matrices: 16 MB each at the guard
CHECK_ORDER_GUARD = 1 << 20  # the exact roots are built one Python call per k


def _require_order(n: int, guard: int, what: str) -> int:
    """n as ``_integer`` reads it; InvalidOrder below 1, OrderTooLarge above ``guard``."""
    n = _integer("n", n)
    if n < 1:
        raise InvalidOrder(f"operator order must be >= 1, got {n}")
    _refuse_above(n, guard, what)
    return n


@dataclass(frozen=True)
class DenseOperator:
    dim: int
    entries: np.ndarray  # (dim, dim) complex128

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer("dim", self.dim))
        _check_type("entries", self.entries, np.ndarray, "an ndarray")
        if self.dim < 1 or self.entries.shape != (self.dim, self.dim):
            raise UsageError(f"expected a {self.dim}x{self.dim} matrix")


def shift_operator(n: int) -> DenseOperator:
    """Cyclic shift: entry (i, (i+1) mod n) = 1; a permutation, hence unitary."""
    n = _require_order(n, DENSE_ORDER_GUARD, "dense operator")
    s = np.zeros((n, n), dtype=np.complex128)
    s[np.arange(n), (np.arange(n) + 1) % n] = 1
    return DenseOperator(n, s)


def dft_matrix(n: int) -> DenseOperator:
    """Unitary DFT: entry (j, k) = exp(-2*pi*i*j*k/n)/sqrt(n)."""
    n = _require_order(n, DENSE_ORDER_GUARD, "dense operator")
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    f = np.exp(-2j * np.pi * j * k / n) / np.sqrt(n)
    return DenseOperator(n, f)


def eigenvalues_of_shift(n: int) -> np.ndarray:
    """diag(F S F*): the root e^(2*pi*i*k/n) at mode k.

    The shift is circulant, so this is the FFT of its first column, e_(n-1).
    """
    n = _require_order(n, CHECK_ORDER_GUARD, "shift eigenvalues")
    return np.fft.fft(np.eye(1, n, n - 1)[0])


def _log_eigenvalues(n: int) -> np.ndarray:
    """i*2*pi*k/n at mode k: the principal logarithm of each shift eigenvalue."""
    return 2j * np.pi * np.arange(n) / n


def log_operator(n: int) -> DenseOperator:
    """The logarithm as a linear operator: diagonal i*2*pi*k/n in the Fourier basis.

    Principal branch throughout (branch index 0 on every eigenvalue), so
    exponentiating the diagonal recovers the shift operator.
    """
    n = _require_order(n, DENSE_ORDER_GUARD, "dense operator")
    f = dft_matrix(n).entries
    d = np.diag(_log_eigenvalues(n))
    return DenseOperator(n, f.conj().T @ d @ f)


def exp_operator(op: DenseOperator) -> DenseOperator:
    """Matrix exponential via the Fourier diagonal; a non-circulant op raises UsageError."""
    _check_type("op", op, DenseOperator, "a DenseOperator")
    f = dft_matrix(op.dim).entries
    d = f @ op.entries @ f.conj().T
    diag = np.diag(d)
    if np.abs(d - np.diag(diag)).max() > 1e-9 * max(1.0, np.abs(diag).max()):
        raise UsageError("exp_operator needs a circulant operator: F op F* is not diagonal")
    return DenseOperator(op.dim, f.conj().T @ np.diag(np.exp(diag)) @ f)


def dump_operator(op: DenseOperator, stream: TextIO) -> None:
    """Plain text, one row per line, entries as re+imi with 17 significant digits."""
    _check_type("op", op, DenseOperator, "a DenseOperator")
    for row in op.entries:
        stream.write(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) + "\n")


OPERATORS = {"shift": shift_operator, "dft": dft_matrix, "log": log_operator}


def _dft_unitarity(n: int) -> float:
    """Largest error of ortho FFT round trips and of Parseval on two fixed unit vectors."""
    rng = np.random.default_rng(0)
    vs = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    x, y = vs
    fx, fy = np.fft.fft(x, norm="ortho"), np.fft.fft(y, norm="ortho")
    parseval = max(
        abs(np.vdot(fx, fy) - np.vdot(x, y)),
        abs(np.vdot(fx, fx) - 1),
        abs(np.vdot(fy, fy) - 1),
    )
    roundtrip = max(np.abs(np.fft.ifft(f, norm="ortho") - v).max() for f, v in ((fx, x), (fy, y)))
    return float(max(parseval, roundtrip))


def check(n: int) -> list[tuple[str, float, float]]:
    """The operator model at order n, as (name, max deviation, bound) rows.

    The unitary DFT round-trips two fixed unit vectors and keeps their inner
    products; the shift's eigenvalues equal the exact roots from ``group``
    index by index; exp of the logarithm's diagonal equals those eigenvalues.
    A row passes when its deviation is below its bound.
    """
    n = _require_order(n, CHECK_ORDER_GUARD, "spectral check")
    unitary = _dft_unitarity(n)
    params = make_params(n, 1 if n > 1 else 0, 64)  # 64 bits: angle error far below 1e-9
    exact = np.fromiter(
        (complex(*complex_value(to_numeric(element(params, k)))) for k in range(n)),
        dtype=np.complex128, count=n,
    )
    eig = eigenvalues_of_shift(n)
    eig_dev = np.abs(eig - exact).max()
    exp_dev = np.abs(np.exp(_log_eigenvalues(n)) - eig).max()
    return [
        ("dft unitary", unitary, 1e-10),
        ("shift eigenvalues vs exact roots", float(eig_dev), 1e-9),
        ("exp(log) vs shift", float(exp_dev), 1e-8),
    ]
