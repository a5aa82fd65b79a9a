"""Fixed-point kernels: one numpy batch kernel, exact Python ints elsewhere.

The batch entry points (``roundtrip_all``, ``sweep_success_count``,
``chain_success_count``) all count round-trip successes over a
``(trials, m)`` block of exponents. Inside the int64-safe domain
(1 <= n <= 2^24, p <= 30, dden <= 2^16, 0 <= dnum < dden) every intermediate
stays below 2^55, so one vectorised numpy kernel computes them. Outside it,
for instance at the protocol default n = 2^61 - 1, p = 128, they go to the
exact big-int loops of ``_kernels_py``, which tests also use as the oracle
for the numpy kernel. The scalar ``to_numeric_t``/``recover_t`` are the
``_kernels_py`` functions themselves: per call, Python ints beat numpy
scalars.

Conventions (angles, rounding, tolerance) are documented in ``_kernels_py``.
"""

import numpy as np

from . import _kernels_py as _py

BACKEND = "numpy"

to_numeric_t = _py.to_numeric_t
recover_t = _py.recover_t

_N_MAX = 1 << 24
_P_MAX = 30
_DDEN_MAX = 1 << 16


def _chain_successes(n: int, p: int, dnum: int, dden: int, ks: np.ndarray) -> int:
    """Numpy kernel over an int64 (trials, m) array of exponents, in the domain."""
    # exact product: sum of exponents mod n; reducing first keeps sums small
    r = np.remainder(ks, n)
    k_sum = r.sum(axis=1)
    # numeric product: sum of round(2^p * k / n) mod 2^p, half to even
    half = 1 << p
    r <<= p
    q = np.empty_like(r)
    np.divmod(r, n, out=(q, r))
    r <<= 1  # q rounds up iff 2r + (q & 1) > n
    r |= q & 1
    q += r > n
    del r
    q &= half - 1
    t = q.sum(axis=1)
    del q
    # recover: nearest integer to t * n / 2^p, within 1/2 - dnum/dden of it
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


def _batch(n: int, p: int, dnum: int, dden: int, ks_flat, m: int, trials: int) -> int:
    """The one batch kernel behind the three public entry points.

    They call it rather than each other, so a wrapper around the public
    names (as ``perfbench/tracing.py`` installs) counts each batch once.
    """
    if 1 <= n <= _N_MAX and 0 <= p <= _P_MAX and 0 <= dnum < dden <= _DDEN_MAX:
        try:
            ks = np.asarray(ks_flat, dtype=np.int64)
        except OverflowError:  # an exponent beyond int64: exact path
            pass
        else:
            return _chain_successes(n, p, dnum, dden, ks.reshape(trials, m))
    return _py.chain_success_count(n, p, dnum, dden, ks_flat, m, trials)


def chain_success_count(n, p, dnum, dden, ks_flat, m, trials) -> int:
    """Trials whose m-fold numeric product recovers the exact one.

    ``ks_flat`` holds ``trials`` chains of ``m`` exponents each, chain by
    chain; ``_kernels_py.chain_success_count`` states the contract.
    """
    return _batch(n, p, dnum, dden, ks_flat, m, trials)


def sweep_success_count(n: int, p: int, dnum: int, dden: int, ks) -> int:
    """Round-trip success count over an explicit list of exponents."""
    return _batch(n, p, dnum, dden, ks, 1, len(ks))


def roundtrip_all(n: int, p: int, dnum: int, dden: int) -> int:
    """Count exponents k in [0, n) surviving to_numeric -> recover intact."""
    ks = np.arange(n, dtype=np.int64) if n <= _N_MAX else range(n)
    return _batch(n, p, dnum, dden, ks, 1, n)
