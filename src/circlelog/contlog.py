"""The continuous logarithm on the unit circle.

The logarithm of a point at angle theta is i*(theta + 2*pi*b) for every
integer branch b, so a single point has infinitely many logarithm values.
``principal_log`` picks branch 0, ``log_branches`` enumerates a finite window
of branches, and ``recover_exponent`` inverts the map k -> angle, which is
the operation whose difficulty the whole scheme rests on.

``recover_exponent``, the honest decoder of ``sign`` and ``verify``, uses only
``DEFAULT_TOLERANCE``, split once at import; the attacks and experiments pass
the tolerance they are given to ``_kernels.recover_t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .errors import AmbiguousAngle, InvalidOrder, UsageError
from .group import GroupParams, NumericElement, _check_type

DEFAULT_TOLERANCE = Fraction(1, 5)
_DNUM, _DDEN = _kernels.tolerance(DEFAULT_TOLERANCE)


@dataclass(frozen=True)
class ContinuousLogValue:
    """One logarithm value i*(2*pi*principal_t/2^p + 2*pi*branch)."""

    params: GroupParams
    principal_t: int
    branch: int

    def turn_units(self) -> int:
        """The imaginary part in units of 2*pi/2^p, branch included."""
        return self.principal_t + (self.branch << self.params.p)

    def imag(self) -> float:
        """The imaginary part of the logarithm as a float."""
        return math.tau * (self.turn_units() / (1 << self.params.p))


def principal_log(q: NumericElement) -> ContinuousLogValue:
    """The branch-0 logarithm; a relabeling of the angle as i*theta."""
    _check_type("q", q, NumericElement, "a NumericElement")
    return ContinuousLogValue(q.params, q.t, 0)


def log_branches(q: NumericElement, window: int) -> list[ContinuousLogValue]:
    """Branches -window..+window of the logarithm, 2*window+1 values.

    Consecutive values differ by exactly one full turn (2^p turn-units); the
    full solution set is infinite, the caller picks the window. The window is
    read by ``_kernels._integer``; a negative one raises ``UsageError``.
    """
    _check_type("q", q, NumericElement, "a NumericElement")
    window = _kernels._integer("window", window)
    if window < 0:
        raise UsageError(f"branch window must be >= 0, got {window}")
    return [ContinuousLogValue(q.params, q.t, b) for b in range(-window, window + 1)]


def recover_exponent(q: NumericElement) -> int:
    """Invert the exponent map: nearest k to q.t * n / 2^p, reduced mod n.

    Succeeds iff the distance to the nearest integer is <= 1/2 -
    ``DEFAULT_TOLERANCE``, else raises ``AmbiguousAngle``; the comparison is
    exact rational arithmetic, never floating division.
    """
    try:
        params, t = q.params, q.t
    except AttributeError:
        _check_type("q", q, NumericElement, "a NumericElement")
        raise
    n, p = params.n, params.p
    k = _kernels.recover_t(t, n, p, _DNUM, _DDEN)
    if k < 0:
        raise AmbiguousAngle(
            f"angle t={t} sits within {_DNUM / _DDEN:g} of the decision boundary "
            f"between two exponents (n={n}, p={p})"
        )
    return k


def exponent_recovery_bound(n: int, p: int) -> bool:
    """True iff p is high enough that recovery is guaranteed after one rounding.

    One rounding contributes angular error <= pi/2^p; with p >= ceil(log2 n)+2
    that is at most a quarter of the root spacing 2*pi/n, which keeps every
    rounded angle within 1/2 - 0.25 of its exponent, inside the delta <= 0.2
    success region. n and p are read by ``_kernels._integer``; n < 1 is no
    group's order (``InvalidOrder``, as ``GroupParams`` refuses it).
    """
    n, p = _kernels._integer("n", n), _kernels._integer("p", p)
    if n < 1:
        raise InvalidOrder(f"group order must be >= 1, got {n}")
    return p >= (n - 1).bit_length() + 2
