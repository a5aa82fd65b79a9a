"""Attack experiments against the angle representation.

The scheme's stated hardness claim is that recovering the exponent k from a
point on the circle is computationally difficult because the logarithm is
multi-valued, the angle is ambiguous, and rounding errors accumulate. The
experiments here measure that claim: a direct single-step inversion attack,
an exhaustive-search baseline, a precision sweep locating where ambiguity
actually begins, and a chained-product experiment measuring how rounding
errors accumulate.

All randomness derives from a master seed through SHA-256 of the index path
"seed/p/m/trial/element/counter" with rejection sampling, so every report is
bit-identical no matter how trials are ordered or parallelized.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

from . import _kernels
from .contlog import DEFAULT_TOLERANCE
from .errors import InvalidOrder, OrderTooLarge, ParamsMismatch, UsageError
from .group import ExactElement, GroupParams, NumericElement, check_order_precision

try:  # CPython's built-in SHA-256: its copy() is a struct copy, not an OpenSSL one
    from _sha256 import sha256 as _sha256
except ImportError:
    try:
        from _sha2 import sha256 as _sha256  # the module's name from Python 3.12
    except ImportError:
        _sha256 = hashlib.sha256

EXHAUSTIVE_ORDER_GUARD = 1 << 24
_CHUNK = 1 << 12  # most draws hashed before one reduction, unless a trial has more

CSV_HEADER = "variable,successes,trials,success_rate"


@dataclass(frozen=True)
class AttackReport:
    attack_name: str
    n: int
    g: int
    p: int
    delta: Fraction
    trials: int
    successes: int
    mean_ops: Fraction
    notes: str
    recovered: int | None = None


@dataclass(frozen=True)
class SweepRow:
    variable: int
    successes: int
    trials: int

    @property
    def success_rate(self) -> Fraction:
        return Fraction(self.successes, self.trials)


def derive_uniform(seed: int, indices: tuple[int, ...], n: int) -> int:
    """Deterministic uniform draw in [0, n) keyed by the index path.

    The contract is the byte string: the draw is v mod n for the first
    counter = 0, 1, ... at which v, the SHA-256 digest of the ASCII path
    "seed/i1/.../ik/counter" read big-endian, falls below the largest multiple
    of n at or under 2^256 (n outside [1, 2^256] is ``InvalidOrder``). SHA-256
    is a streaming hash, so a copy of the state after a path prefix gives the
    same digest: ``_draw_chunks`` relies on this to stream draws, at most
    ``max(_CHUNK, m)`` held at once, without rebuilding and rehashing each path.
    """
    limit = _limit(n)
    counter = 0
    path = "/".join(str(i) for i in (seed, *indices))
    while True:
        digest = hashlib.sha256(f"{path}/{counter}".encode("ascii")).digest()
        v = int.from_bytes(digest, "big")
        if v < limit:
            return v % n
        counter += 1


def _limit(n: int) -> int:
    """The largest multiple of n at or under 2^256; n < 1 or n > 2^256 is InvalidOrder."""
    if n < 1:  # no draw lies in [0, n)
        raise InvalidOrder(f"seeded draws need a group order n >= 1, got n={n}")
    if n > 1 << 256:  # the limit would be 0: every digest would be redrawn forever
        raise InvalidOrder(f"seeded draws need a group order n <= 2^256, got n={n}")
    return (1 << 256) - (1 << 256) % n


def _reduce_ints(digests: list[bytes], n: int, limit: int) -> tuple[list[int], list[int]]:
    """v mod n for every digest v (read big-endian), and where v >= limit.

    The exact reduction, for any n: rejected positions are returned by index
    (their value is meaningless). ``_reduce_words`` must agree with it.
    """
    vs = [int.from_bytes(d, "big") for d in digests]
    return [v % n for v in vs], [i for i, v in enumerate(vs) if v >= limit]


def _reduce_words(digests: list[bytes], n: int, limit: int) -> tuple[np.ndarray, list[int]]:
    """``_reduce_ints`` in numpy for n <= 2^32, the values as an int64 array."""
    import numpy as np

    words = np.frombuffer(b"".join(digests), dtype=">u4").reshape(-1, 8)
    # Horner over the eight 32-bit words: acc < n <= 2^32, so acc << 32 | w fits.
    # Every operand is uint64 by its own dtype, so the result does not hang on
    # NumPy's scalar promotion rules (NumPy 1.x would keep uint32 for n < 2^32)
    acc = words[:, 0].astype(np.uint64)
    n64, shift = np.uint64(n), np.uint64(32)
    acc %= n64
    for i in range(1, 8):
        acc <<= shift
        acc |= words[:, i]
        acc %= n64
    # limit > 2^256 - 2^32, so only a digest whose top word is all ones can
    # reach it; those rare candidates are checked exactly
    candidates = np.flatnonzero(words[:, 0] == 0xFFFFFFFF).tolist()
    rejected = [i for i in candidates if int.from_bytes(digests[i], "big") >= limit]
    return acc.view(np.int64), rejected  # acc < 2^32: the same values as int64


def _draw_chunks(seed: int, head: int, n: int, trials: int, m: int):
    """``derive_uniform(seed, (head, m, t, j), n)`` for every trial t and element j.

    Yields them in (t, j) order, in chunks of whole trials and at most
    ``max(_CHUNK, m)`` draws. "seed/head/m/" is hashed once and "t/" once per
    trial; each draw then hashes only "j/0" into a copy of the trial state. A
    chunk is reduced mod n at once: in numpy for n <= 2^32, yielding the int64
    array that the kernel computes on, with Python ints above (a list). A
    digest rejected at counter 0 is redrawn by ``derive_uniform``.
    """
    limit = _limit(n)
    reduce = _reduce_words if n <= 1 << 32 else _reduce_ints
    block = _sha256(f"{seed}/{head}/{m}/".encode("ascii"))
    tails = [b"%d/0" % j for j in range(m)]
    per_chunk = max(1, _CHUNK // max(m, 1))
    for first in range(0, trials, per_chunk):
        digests: list[bytes] = []
        append = digests.append
        for t in range(first, min(first + per_chunk, trials)):
            trial = block.copy()
            trial.update(b"%d/" % t)
            copy = trial.copy
            for tail in tails:
                h = copy()
                h.update(tail)
                append(h.digest())
        values, rejected = reduce(digests, n, limit)
        for i in rejected:
            t, j = divmod(i, m)
            values[i] = derive_uniform(seed, (head, m, first + t, j), n)
        yield values


def _row(variable: int, n: int, p: int, m: int, trials: int, dnum: int, dden: int,
         seed: int) -> SweepRow:
    """Seeded m-fold chains at precision p that recover intact, one draw chunk at a time."""
    successes = sum(_kernels.chain_success_count(n, p, dnum, dden, ks, m)
                    for ks in _draw_chunks(seed, p, n, trials, m))
    return SweepRow(variable=variable, successes=successes, trials=trials)


def _experiment_inputs(
    n: int,
    p_values: Sequence[int],
    trials: int,
    delta: Fraction,
    chain_lengths: Sequence[int] = (1,),
) -> tuple[int, int]:
    """Check an experiment's inputs before any draw or kernel sees them.

    A request of impossible shape (fewer than one trial, an empty precision
    or chain-length range, a chain length m < 1, a tolerance outside
    [0, 1/2)) raises ``UsageError``; an order or precision no group has
    raises ``InvalidOrder``, at the first p out of range. Returns delta as
    (numerator, denominator).
    """
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    if not p_values:
        raise UsageError("precision range is empty (p-min > p-max?)")
    if not chain_lengths or min(chain_lengths) < 1:
        raise UsageError("chain lengths must be a non-empty range of m >= 1 (m-max < 1?)")
    dnum, dden = _kernels.tolerance(delta)
    check_order_precision(n, p_values)
    return dnum, dden


def _check_public(public: ExactElement | NumericElement, params: GroupParams) -> None:
    if public.params != params:
        raise ParamsMismatch(f"public element from another group: {public.params} vs {params}")


def attack_direct(
    public: ExactElement | NumericElement,
    params: GroupParams,
    delta: Fraction = DEFAULT_TOLERANCE,
) -> AttackReport:
    """Single-step inversion of one public element.

    An exact element stores its exponent outright: zero group operations. A
    numeric element takes one recovery operation and succeeds iff the
    recovered exponent reproduces its angle; below the recovery bound distinct
    exponents share an angle, so a caller that knows k compares ``recovered``.
    Refuses, in this order, a public value of neither kind (``UsageError``),
    one of another group (``ParamsMismatch``) and delta outside [0, 1/2)
    (``UsageError``).
    """
    if not isinstance(public, (ExactElement, NumericElement)):
        raise UsageError(
            f"direct attack needs an ExactElement or NumericElement, got {type(public).__name__}"
        )
    _check_public(public, params)
    dnum, dden = _kernels.tolerance(delta)
    n, p = params.n, params.p
    if isinstance(public, ExactElement):
        recovered, success, ops = public.k, True, 0
        notes = "exact representation leaks the exponent outright; read k directly"
    else:
        k = _kernels.recover_t(public.t, n, p, dnum, dden)
        recovered = k if k >= 0 else None
        success = recovered is not None and _kernels.to_numeric_t(k, n, p) == public.t
        ops, notes = 1, "one recovery operation inverts the angle"
    return AttackReport(
        attack_name="direct",
        n=n, g=params.g, p=p, delta=Fraction(delta),
        trials=1, successes=int(success), mean_ops=Fraction(ops),
        notes=notes, recovered=recovered,
    )


def direct_attack_report(
    params: GroupParams,
    trials: int,
    delta: Fraction = DEFAULT_TOLERANCE,
    seed: int = 0,
) -> AttackReport:
    """Aggregate the direct attack over random exponents.

    Each trial draws a random k, publishes its rounded angle, runs one
    recovery, and counts success iff k comes back: one ``precision_sweep`` row.
    """
    n, p = params.n, params.p
    successes = precision_sweep(n, (p,), trials, delta, seed)[0].successes
    notes = (
        "claim under test: inverting the angle map (the continuous logarithm) "
        "is computationally hard. measured: "
        f"{successes}/{trials} recoveries, exactly 1 recovery operation per trial "
        f"at n={n}, p={p}."
    )
    return AttackReport(
        attack_name="direct",
        n=n, g=params.g, p=p, delta=Fraction(delta),
        trials=trials, successes=successes, mean_ops=Fraction(1),
        notes=notes,
    )


def attack_exhaustive(public: NumericElement, params: GroupParams) -> AttackReport:
    """Baseline: try every exponent, keep the nearest angle (wrap-around metric).

    Refuses a public value that is not a ``NumericElement`` (``UsageError``;
    an exact element leaks k, see ``attack_direct``), a public element of
    another group (``ParamsMismatch``) and n > ``EXHAUSTIVE_ORDER_GUARD``
    (``OrderTooLarge``); the kernel refuses t outside [0, 2^p) (``UsageError``).
    """
    if not isinstance(public, NumericElement):
        raise UsageError(
            f"exhaustive search needs a NumericElement, got {type(public).__name__}"
        )
    _check_public(public, params)
    n, p = params.n, params.p
    if n > EXHAUSTIVE_ORDER_GUARD:
        raise OrderTooLarge(f"exhaustive search refused for n={n} > 2^24")
    best_k, best_dist = _kernels.nearest_angle(public.t, n, p)
    return AttackReport(
        attack_name="exhaustive",
        n=n, g=params.g, p=p, delta=Fraction(0),
        trials=1, successes=1, mean_ops=Fraction(n),
        notes=f"nearest angle at distance {best_dist}/2^{p} turn-units",
        recovered=best_k,
    )


def precision_sweep(
    n: int,
    p_range: Sequence[int],
    trials_per_p: int,
    delta: Fraction = DEFAULT_TOLERANCE,
    seed: int = 0,
) -> list[SweepRow]:
    """Round-trip success rate vs angular precision, one row per p."""
    dnum, dden = _experiment_inputs(n, p_range, trials_per_p, delta)
    return [_row(p, n, p, 1, trials_per_p, dnum, dden, seed) for p in sorted(p_range)]


def accumulation_experiment(
    n: int,
    p: int,
    chain_lengths: Sequence[int],
    trials: int,
    delta: Fraction = DEFAULT_TOLERANCE,
    seed: int = 0,
) -> list[SweepRow]:
    """Success rate of recovering the exponent of an m-fold numeric product.

    Each trial draws m random exact elements, multiplies them exactly (sum of
    exponents mod n) and numerically (sum of rounded angles mod 2^p), then
    recovers the exponent from the numeric product. Per-element rounding
    errors add up: with e(k) = t(k)*n - k*2^p, t(k) the rounded angle before
    the mod-2^p step, a chain fails once |sum of e(k_i)| exceeds
    (1/2 - delta)*2^p, so the worst case first fails at
    m = floor((1/2 - delta)*2^p / max|e|) + 1 (never if n divides 2^p, where
    e = 0). At n = 1000, p = 12, delta = 1/5, max|e| = 496 and that m is 3.
    """
    dnum, dden = _experiment_inputs(n, (p,), trials, delta, chain_lengths)
    return [_row(m, n, p, m, trials, dnum, dden, seed) for m in chain_lengths]


def write_csv(rows: Iterable[SweepRow], stream: TextIO) -> None:
    """One row per SweepRow; success_rate as the exact fraction a/b."""
    stream.write(CSV_HEADER + "\n")
    for row in rows:
        rate = row.success_rate
        stream.write(
            f"{row.variable},{row.successes},{row.trials},"
            f"{rate.numerator}/{rate.denominator}\n"
        )


def format_report(report: AttackReport) -> str:
    lines = [
        f"attack: {report.attack_name}",
        f"params: n={report.n} g={report.g} p={report.p} delta={report.delta}",
        f"trials: {report.trials}",
        f"successes: {report.successes}",
        f"success_rate: {Fraction(report.successes, report.trials)}",
        f"mean_ops: {report.mean_ops}",
        f"notes: {report.notes}",
    ]
    if report.recovered is not None:
        lines.insert(5, f"recovered: {report.recovered}")
    return "\n".join(lines) + "\n"
