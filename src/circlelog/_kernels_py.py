"""Pure-Python fixed-point kernels.

These are the hot inner loops of the package: converting exact exponents to
fixed-point angles, recovering exponents from angles, and batched round-trip
trials. All arithmetic is exact integer arithmetic (Python big ints), so these
loops are correct for any (n, p). ``_kernels`` serves the scalar functions
from here, sends batches inside the int64-safe range to its numpy kernel and
the rest here; tests hold the numpy kernel to these loops.

Conventions shared by both:

- angles are integers t in [0, 2^p), meaning theta = 2*pi*t/2^p;
- rounding is round-half-to-even everywhere;
- the recovery tolerance delta is passed as an exact rational dnum/dden with
  0 <= dnum/dden < 1/2; recovery succeeds iff the distance from t*n/2^p to the
  nearest integer is <= 1/2 - delta;
- recovery returns the exponent in [0, n), or -1 for an ambiguous angle.
"""


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


def roundtrip_all(n: int, p: int, dnum: int, dden: int) -> int:
    """Count exponents k in [0, n) surviving to_numeric -> recover intact."""
    successes = 0
    for k in range(n):
        if recover_t(to_numeric_t(k, n, p), n, p, dnum, dden) == k:
            successes += 1
    return successes


def sweep_success_count(n: int, p: int, dnum: int, dden: int, ks) -> int:
    """Round-trip success count over an explicit list of exponents."""
    successes = 0
    for k in ks:
        if recover_t(to_numeric_t(k, n, p), n, p, dnum, dden) == k % n:
            successes += 1
    return successes


def chain_success_count(
    n: int, p: int, dnum: int, dden: int, ks_flat, m: int, trials: int
) -> int:
    """Batched accumulation trials.

    ``ks_flat`` holds ``trials`` chains of ``m`` exponents each. For every
    chain the product is computed exactly (sum of exponents mod n) and
    numerically (sum of rounded angles mod 2^p); the trial succeeds iff the
    exponent recovered from the numeric product equals the exact one.
    """
    mask = (1 << p) - 1
    successes = 0
    idx = 0
    for _ in range(trials):
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
