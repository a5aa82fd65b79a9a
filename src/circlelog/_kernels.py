"""Fixed-point kernels: the one home of the angle rules.

Conventions:

- angles are integers t in [0, 2^p), meaning theta = 2*pi*t/2^p;
- rounding is round-half-to-even everywhere;
- the recovery tolerance delta is an exact rational dnum/dden with
  0 <= dnum/dden < 1/2 (``tolerance`` checks and splits it); recovery
  succeeds iff the distance from t*n/2^p to the nearest integer is
  <= 1/2 - delta;
- recovery returns the exponent in [0, n), or -1 for an ambiguous angle.

Rounding has one body, ``to_numeric_t``: the same steps round an exact Python
int (``group.to_numeric``, ``attack_direct``) and an int64 or object array (the
count and the scan below). Recovery keeps two bodies, the scalar ``recover_t``
on exact ints and the count's vector tail: one branch-free body shared by both
made the exhaustive benchmark pass 14-18 % slower. Each array kernel reads its
parameters with ``_integer`` and names invalid input in a ``UsageError``:

- ``chain_success_count(n, p, dnum, dden, ks_flat, m)``, called once per draw
  chunk, counts the whole chains of m exponents in ``ks_flat``; it refuses
  m < 1, a ragged block, n < 1, p < 0 and 2*dnum outside [0, dden) (what
  ``tolerance`` returns). ``sweep_success_count`` and ``roundtrip_all`` call
  it for the tests and the benchmark's probes (a traced call counts twice);
  ``roundtrip_all`` first refuses n > ``EXHAUSTIVE_ORDER_GUARD``
  (``OrderTooLarge``), the bound of the scan below.
- ``nearest_angle(t, n, p)``, the exhaustive-search baseline, scans every
  exponent, ``_SCAN_CHUNK`` at a time; it refuses p < 0, then, through
  ``angle`` (as ``group.NumericElement``), t outside [0, 2^p), then n < 1
  (``UsageError``), then n > ``EXHAUSTIVE_ORDER_GUARD`` (``OrderTooLarge``).

The dtype is chosen by the overflow condition alone, since int64 arrays wrap
silently: ``int64`` when no intermediate can reach 2^63, else exact Python ints
(``object``, built with ``int()`` so that no numpy scalar wraps in them), as at
n = 2^61 - 1, p = 128. The count needs max(n, m, 2*dden) * 2^p < 2^63 (n bounds
the shifted residues and ``t *= n``, m the sum of m angles, 2*dden the tolerance
test and ``2 * rem``), m*n < 2^63 (the sum of m residues) and a block whose
dtype casts safely to int64 (an empty one does); the scan needs n * 2^p < 2^63.

numpy is imported inside the functions that compute with it, so every batch or
scan call loads it and the scalar path that the protocols use never does.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import OrderTooLarge, UsageError

EXHAUSTIVE_ORDER_GUARD = 1 << 24  # largest n whose every exponent a scan examines
_SCAN_CHUNK = 1 << 16  # exponents per scan step: bounds memory, object arrays included


def _integer(name: str, value) -> int:
    """``value`` as the exact int it holds, read through ``operator.index``: the
    package's one integer rule. A numpy integer counts as its value; anything else,
    a bool included, raises ``UsageError`` "<name> must be an int, got <type>"."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise UsageError(f"{name} must be an int, got {type(value).__name__}")


def _refuse_above(n: int, guard: int, what: str, name: str = "n") -> None:
    """OrderTooLarge "<what> refused for <name>=<n> > <guard>" if n > guard; a power of two
    reads 2^k."""
    if n > guard:
        bound = f"2^{guard.bit_length() - 1}" if guard & (guard - 1) == 0 else guard
        raise OrderTooLarge(f"{what} refused for {name}={n} > {bound}")


def tolerance(delta) -> tuple[int, int]:
    """The recovery tolerance as (dnum, dden); ``UsageError`` unless a rational in [0, 1/2)."""
    try:
        if isinstance(delta, bool):  # Fraction reads True as 1; the integer rule refuses a bool
            raise TypeError
        d = Fraction(delta)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise UsageError(f"delta must be a finite rational, got {delta!r}") from None
    dnum, dden = d.numerator, d.denominator
    if not 0 <= 2 * dnum < dden:
        raise UsageError(f"delta must lie in [0, 1/2), got {d}")
    return dnum, dden


def angle(t, p: int) -> int:
    """t as ``_integer`` reads it; ``UsageError`` unless it lies in [0, 2^p)."""
    t, p = _integer("t", t), _integer("p", p)
    if not 0 <= t < 1 << p:
        raise UsageError(f"angle t={t} outside [0, 2^{p})")
    return t


def to_numeric_t(k, n: int, p: int):
    """Fixed-point angle of the n-th root with exponent k: round(2^p * k / n) mod 2^p.

    The one body of the rounding step, for an int k and, elementwise, for an
    int64 or object array of them (not modified). k need not lie in [0, n):
    (k + j*n) * 2^p rounds to the same angle mod 2^p, as j * 2^p is even for
    p >= 1 and the mask gives 0 at p = 0, where 2r may wrap in int64.
    """
    r = k << p
    q = r // n  # not divmod, which has no object-array loop
    r -= q * n
    r <<= 1  # q rounds up iff 2r + (q & 1) > n
    r |= q & 1
    q += r > n
    q &= (1 << p) - 1
    return q


def recover_t(t: int, n: int, p: int, dnum: int, dden: int) -> int:
    """Invert ``to_numeric_t``: nearest integer to t*n/2^p, reduced mod n.

    Returns -1 when the fractional distance exceeds 1/2 - dnum/dden.
    """
    half_turns = 1 << p
    q, r = divmod(t * n, half_turns)
    if 2 * r + (q & 1) > half_turns:
        k = q + 1
        dist_num = half_turns - r
    else:
        k = q
        dist_num = r
    # dist_num/2^p <= 1/2 - dnum/dden  <=>  2*dden*dist_num <= 2^p*(dden - 2*dnum)
    if 2 * dden * dist_num > half_turns * (dden - 2 * dnum):
        return -1
    return k % n


def chain_success_count(n, p, dnum, dden, ks_flat, m) -> int:
    """Chains of m exponents in ``ks_flat`` whose numeric product recovers the exact one.

    ``ks_flat`` holds whole chains, chain by chain; their count is
    ``len(ks_flat) // m``. For every chain the product is computed exactly
    (sum of exponents mod n) and numerically (sum of rounded angles mod 2^p);
    the chain succeeds iff the exponent recovered from the numeric product
    equals the exact one.
    """
    n, p, dnum, dden, m = map(_integer, ("n", "p", "dnum", "dden", "m"), (n, p, dnum, dden, m))
    if m < 1 or len(ks_flat) % m:
        raise UsageError(f"a block of {len(ks_flat)} exponents is not whole chains of m={m}")
    if n < 1 or p < 0 or not 0 <= 2 * dnum < dden:
        raise UsageError(f"chains need n >= 1, p >= 0 and 0 <= 2*dnum < dden, "
                         f"got n={n}, p={p}, dnum={dnum}, dden={dden}")
    import numpy as np

    ks = np.asarray(ks_flat)
    if (max(max(n, m, 2 * dden) << p, m * n) < 1 << 63
            and (ks.size == 0 or np.can_cast(ks.dtype, np.int64))):
        ks = ks.astype(np.int64, copy=False)
    else:
        ks = np.array([int(k) for k in ks_flat], dtype=object)
    # exact product: sum of exponents mod n; reducing first keeps sums small
    r = np.remainder(ks.reshape(-1, m), n)
    k_sum = r.sum(axis=1)
    # numeric product: sum of rounded angles mod 2^p
    t = to_numeric_t(r, n, p).sum(axis=1)
    del r
    # recover: nearest integer to t * n / 2^p, within 1/2 - dnum/dden of it
    half = 1 << p
    t &= half - 1
    t *= n
    k = t >> p
    rem = t & (half - 1)
    up = 2 * rem + (k & 1) > half
    k += up
    dist = np.where(up, half - rem, rem)
    ok = 2 * dden * dist <= half * (dden - 2 * dnum)
    ok &= k % n == k_sum % n
    return int(np.count_nonzero(ok))


def sweep_success_count(n: int, p: int, dnum: int, dden: int, ks) -> int:
    """Round-trip success count over an explicit list of exponents."""
    return chain_success_count(n, p, dnum, dden, ks, 1)


def roundtrip_all(n: int, p: int, dnum: int, dden: int) -> int:
    """Count exponents k in [0, n) surviving to_numeric -> recover intact."""
    _refuse_above(_integer("n", n), EXHAUSTIVE_ORDER_GUARD, "exhaustive round trip")  # 8n bytes
    import numpy as np

    return chain_success_count(n, p, dnum, dden, np.arange(n, dtype=np.int64), 1)


def nearest_angle(t: int, n: int, p: int) -> tuple[int, int]:
    """The exponent k in [0, n) whose angle lies nearest t, and that distance.

    The distance is taken around the circle, in units of 2^-p turn; the
    smallest k wins ties. Every exponent is examined, so n above
    ``EXHAUSTIVE_ORDER_GUARD`` is refused (``OrderTooLarge``).
    """
    n, p = _integer("n", n), _integer("p", p)
    if p < 0:
        raise UsageError(f"angles need a precision p >= 0, got p={p}")
    t = angle(t, p)
    if n < 1:
        raise UsageError(f"the scan needs n >= 1, got n={n}")
    _refuse_above(n, EXHAUSTIVE_ORDER_GUARD, "exhaustive search")
    full = 1 << p
    import numpy as np

    dtype = np.int64 if n << p < 1 << 63 else object
    best_k, best_dist = 0, full
    for first in range(0, n, _SCAN_CHUNK):
        d = to_numeric_t(np.arange(first, min(first + _SCAN_CHUNK, n), dtype=dtype), n, p)
        d -= t
        np.abs(d, out=d)
        np.minimum(d, full - d, out=d)
        i = int(d.argmin())  # the first minimum: the smallest k of this chunk
        if d[i] < best_dist:  # strictly smaller: an earlier chunk keeps a tie
            best_k, best_dist = first + i, int(d[i])
    return best_k, best_dist
