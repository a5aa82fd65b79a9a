"""Fixed-point kernels: the one home of the angle rules.

Conventions:

- angles are integers t in [0, 2^p), meaning theta = 2*pi*t/2^p;
- rounding is round-half-to-even everywhere;
- the recovery tolerance delta is an exact rational dnum/dden with
  0 <= dnum/dden < 1/2 (``tolerance`` checks and splits it); recovery
  succeeds iff the distance from t*n/2^p to the nearest integer is
  <= 1/2 - delta;
- recovery returns the exponent in [0, n), or -1 for an ambiguous angle.

The scalar ``to_numeric_t``/``recover_t`` use exact Python ints: per call
they beat numpy scalars. ``chain_success_count(n, p, dnum, dden, ks_flat, m)``
is the one batch entry, called once per draw chunk of an experiment. Its block
``ks_flat`` holds whole chains of m exponents, chain by chain; the chain count
is ``len(ks_flat) // m``, and a ragged block or m < 1 is ``UsageError`` on
either path. ``sweep_success_count`` and ``roundtrip_all`` remain for the tests
and the benchmark's probes and call it, so a traced direct call to either
counts as two batch calls. Inside the int64-safe domain (1 <= n <= 2^24,
p <= 30, dden <= 2^16, 0 <= dnum < dden) every intermediate stays below 2^55,
so one vectorised numpy body counts them. Outside it, for instance at the
protocol default n = 2^61 - 1, p = 128, the count takes the exact loop
``_exact_chain_successes``, which tests also use as the oracle for the numpy
body.

``nearest_angle`` is the exhaustive-search baseline: the exponent whose angle
lies nearest a target. For 1 <= n <= 2^24, p <= 30 and a target in [0, 2^p) it
scans all angles in numpy, ``_SCAN_CHUNK`` exponents at a time; otherwise it
takes the exact loop ``_exact_nearest_angle``, its test oracle. Both kernels
round through ``_angles``, the one numpy copy of the rounding rule.

numpy is imported inside the functions that compute with it (``_angles``,
``chain_success_count``, ``roundtrip_all``, ``nearest_angle``), so it is
loaded at the first batch or scan call and never by the scalar path that the
protocols use.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UsageError

_N_MAX = 1 << 24
_P_MAX = 30
_DDEN_MAX = 1 << 16
_SCAN_CHUNK = 1 << 20  # exponents per numpy scan step: bounds memory at n = 2^24


def tolerance(delta) -> tuple[int, int]:
    """The recovery tolerance delta as (dnum, dden); ``UsageError`` unless 0 <= delta < 1/2."""
    d = Fraction(delta)
    dnum, dden = d.numerator, d.denominator
    if not 0 <= 2 * dnum < dden:
        raise UsageError(f"delta must lie in [0, 1/2), got {d}")
    return dnum, dden


def to_numeric_t(k: int, n: int, p: int) -> int:
    """Fixed-point angle of the n-th root with exponent k: round(2^p * k / n)."""
    q, r = divmod((k % n) << p, n)
    r2 = r * 2
    if r2 > n or (r2 == n and q & 1):
        q += 1
    return q & ((1 << p) - 1)


def recover_t(t: int, n: int, p: int, dnum: int, dden: int) -> int:
    """Invert ``to_numeric_t``: nearest integer to t*n/2^p, reduced mod n.

    Returns -1 when the fractional distance exceeds 1/2 - dnum/dden.
    """
    half_turns = 1 << p
    q, r = divmod(t * n, half_turns)
    r2 = r * 2
    if r2 > half_turns or (r2 == half_turns and q & 1):
        k = q + 1
        dist_num = half_turns - r
    else:
        k = q
        dist_num = r
    # dist_num/2^p <= 1/2 - dnum/dden  <=>  2*dden*dist_num <= 2^p*(dden - 2*dnum)
    if 2 * dden * dist_num > half_turns * (dden - 2 * dnum):
        return -1
    return k % n


def _exact_chain_successes(n, p, dnum, dden, ks_flat, m) -> int:
    """Exact Python-int loop over the chains of m exponents in ``ks_flat``, any (n, p)."""
    mask = (1 << p) - 1
    successes = 0
    idx = 0
    for _ in range(len(ks_flat) // m):
        k_sum = 0
        t_sum = 0
        for _ in range(m):
            k = ks_flat[idx]
            idx += 1
            k_sum += k
            t_sum += to_numeric_t(k, n, p)
        if recover_t(t_sum & mask, n, p, dnum, dden) == k_sum % n:
            successes += 1
    return successes


def _angles(r: np.ndarray, n: int, p: int) -> np.ndarray:
    """round(2^p * r / n) mod 2^p, half to even, for an int64 array r in [0, n).

    Overwrites r; in the int64 domain every intermediate stays below 2^55.
    """
    import numpy as np

    r <<= p
    q = np.empty_like(r)
    np.divmod(r, n, out=(q, r))
    r <<= 1  # q rounds up iff 2r + (q & 1) > n
    r |= q & 1
    q += r > n
    q &= (1 << p) - 1
    return q


def chain_success_count(n, p, dnum, dden, ks_flat, m) -> int:
    """Chains of m exponents in ``ks_flat`` whose numeric product recovers the exact one.

    ``ks_flat`` holds whole chains, chain by chain; their count is
    ``len(ks_flat) // m``. For every chain the product is computed exactly
    (sum of exponents mod n) and numerically (sum of rounded angles mod 2^p);
    the chain succeeds iff the exponent recovered from the numeric product
    equals the exact one. m < 1 or a block that is not whole chains is
    ``UsageError``.
    """
    if m < 1 or len(ks_flat) % m:
        raise UsageError(f"a block of {len(ks_flat)} exponents is not whole chains of m={m}")
    if not (1 <= n <= _N_MAX and 0 <= p <= _P_MAX and 0 <= dnum < dden <= _DDEN_MAX):
        return _exact_chain_successes(n, p, dnum, dden, ks_flat, m)
    import numpy as np

    try:
        ks = np.asarray(ks_flat, dtype=np.int64)
    except OverflowError:  # an exponent beyond int64: exact path
        return _exact_chain_successes(n, p, dnum, dden, ks_flat, m)
    # exact product: sum of exponents mod n; reducing first keeps sums small
    r = np.remainder(ks.reshape(-1, m), n)
    k_sum = r.sum(axis=1)
    # numeric product: sum of rounded angles mod 2^p
    t = _angles(r, n, p).sum(axis=1)
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
    import numpy as np

    ks = np.arange(n, dtype=np.int64) if n <= _N_MAX else range(n)
    return chain_success_count(n, p, dnum, dden, ks, 1)


def _exact_nearest_angle(t: int, n: int, p: int) -> tuple[int, int]:
    """Exact Python-int loop behind ``nearest_angle``, any (n, p, t)."""
    full = 1 << p
    best_k, best_dist = 0, full
    for k in range(n):
        d = abs(to_numeric_t(k, n, p) - t)
        d = min(d, full - d)
        if d < best_dist:  # smallest k wins ties
            best_k, best_dist = k, d
    return best_k, best_dist


def nearest_angle(t: int, n: int, p: int) -> tuple[int, int]:
    """The exponent k in [0, n) whose angle lies nearest t, and that distance.

    The distance is taken around the circle, in units of 2^-p turn; the
    smallest k wins ties. Every exponent is examined.
    """
    if not (1 <= n <= _N_MAX and 0 <= p <= _P_MAX and 0 <= t < 1 << p):
        return _exact_nearest_angle(t, n, p)
    import numpy as np

    full = 1 << p
    best_k, best_dist = 0, full
    for first in range(0, n, _SCAN_CHUNK):
        d = _angles(np.arange(first, min(first + _SCAN_CHUNK, n), dtype=np.int64), n, p)
        d -= t
        np.abs(d, out=d)
        np.minimum(d, full - d, out=d)
        i = int(d.argmin())  # the first minimum: the smallest k of this chunk
        if d[i] < best_dist:  # strictly smaller: an earlier chunk keeps a tie
            best_k, best_dist = first + i, int(d[i])
    return best_k, best_dist
