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
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

from . import _kernels
from .contlog import DEFAULT_TOLERANCE
from .errors import InvalidOrder, OrderTooLarge, UsageError
from .group import ExactElement, GroupParams, NumericElement

EXHAUSTIVE_ORDER_GUARD = 1 << 24

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
    of n at or under 2^256. SHA-256 is a streaming hash, so hashing a prefix of
    the path once and feeding the rest to copies of that state gives the same
    digest: ``_draw_block`` relies on this to draw whole blocks without
    rebuilding and rehashing each path.
    """
    limit = (1 << 256) - (1 << 256) % n
    counter = 0
    path = "/".join(str(i) for i in (seed, *indices))
    while True:
        digest = hashlib.sha256(f"{path}/{counter}".encode("ascii")).digest()
        v = int.from_bytes(digest, "big")
        if v < limit:
            return v % n
        counter += 1


def _draw_block(seed: int, head: int, n: int, trials: int, m: int):
    """``derive_uniform(seed, (head, m, t, j), n)`` for every trial t and element j.

    Flat in (t, j) order. "seed/head/m/" is hashed once per block and "t/"
    once per trial; each draw then hashes only "j/0" into a copy of the trial
    state. A digest rejected at counter 0 is redrawn by ``derive_uniform``.
    Returns an int64 array, or a list when n > 2^63 lets a draw exceed int64.
    """
    limit = (1 << 256) - (1 << 256) % n
    out = array("q") if n <= 1 << 63 else []
    append, from_bytes = out.append, int.from_bytes
    block = hashlib.sha256(f"{seed}/{head}/{m}/".encode("ascii"))
    tails = [b"%d/0" % j for j in range(m)]
    for t in range(trials):
        trial = block.copy()
        trial.update(b"%d/" % t)
        copy = trial.copy
        for j, tail in enumerate(tails):
            h = copy()
            h.update(tail)
            v = from_bytes(h.digest(), "big")
            append(v % n if v < limit else derive_uniform(seed, (head, m, t, j), n))
    return out


def _experiment_inputs(
    n: int, p_values: Sequence[int], trials: int, delta: Fraction
) -> tuple[int, int]:
    """Check an experiment's inputs before any draw or kernel sees them.

    A request of impossible shape (fewer than one trial, an empty precision
    range, a tolerance outside [0, 1/2)) raises ``UsageError``; an order or
    precision no group has raises ``InvalidOrder``. Returns delta as
    (numerator, denominator).
    """
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    if not p_values:
        raise UsageError("precision range is empty (p-min > p-max?)")
    d = Fraction(delta)
    if not 0 <= d < Fraction(1, 2):
        raise UsageError(f"delta must lie in [0, 1/2), got {d}")
    if n < 1:
        raise InvalidOrder(f"group order must be >= 1, got {n}")
    if min(p_values) < 1:
        raise InvalidOrder(f"angular precision must be >= 1 bit, got {min(p_values)}")
    return d.numerator, d.denominator


def attack_direct(
    public: ExactElement | NumericElement,
    params: GroupParams,
    delta: Fraction = DEFAULT_TOLERANCE,
    true_exponent: int | None = None,
) -> AttackReport:
    """Single-step inversion of one public element.

    For a numeric element this is one recovery operation; success means the
    recovered exponent reproduces the element's angle (or, when the caller
    knows ``true_exponent``, that it matches it: below the recovery bound
    distinct exponents collide on one angle and reproducing the angle is not
    the same as identifying the exponent). For an exact element the exponent
    is stored outright, costing zero group operations.
    """
    if isinstance(public, ExactElement):
        return AttackReport(
            attack_name="direct",
            n=params.n, g=params.g, p=params.p, delta=Fraction(delta),
            trials=1, successes=1, mean_ops=Fraction(0),
            notes="exact representation leaks the exponent outright; read k directly",
            recovered=public.k,
        )
    dnum, dden = _experiment_inputs(params.n, (params.p,), 1, delta)
    k = _kernels.recover_t(public.t, params.n, params.p, dnum, dden)
    if true_exponent is not None:
        success = k == true_exponent % params.n
    else:
        success = k >= 0 and _kernels.to_numeric_t(k, params.n, params.p) == public.t
    return AttackReport(
        attack_name="direct",
        n=params.n, g=params.g, p=params.p, delta=Fraction(delta),
        trials=1, successes=int(success), mean_ops=Fraction(1),
        notes="one recovery operation inverts the angle",
        recovered=k if k >= 0 else None,
    )


def direct_attack_report(
    params: GroupParams,
    trials: int,
    delta: Fraction = DEFAULT_TOLERANCE,
    seed: int = 0,
) -> AttackReport:
    """Aggregate the direct attack over random exponents.

    Each trial draws a random k, publishes its rounded angle, runs one
    recovery, and counts success iff the original k comes back.
    """
    n, p = params.n, params.p
    dnum, dden = _experiment_inputs(n, (p,), trials, delta)
    ks = _draw_block(seed, p, n, trials, 1)
    successes = _kernels.sweep_success_count(n, p, dnum, dden, ks)
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
    """Baseline: try every exponent, keep the nearest angle (wrap-around metric)."""
    n, p = params.n, params.p
    if n > EXHAUSTIVE_ORDER_GUARD:
        raise OrderTooLarge(f"exhaustive search refused for n={n} > 2^24")
    full = 1 << p
    best_k, best_dist = 0, full
    for k in range(n):
        d = abs(_kernels.to_numeric_t(k, n, p) - public.t)
        d = min(d, full - d)
        if d < best_dist:  # smallest k wins ties
            best_k, best_dist = k, d
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
    rows = []
    for p in sorted(p_range):
        ks = _draw_block(seed, p, n, trials_per_p, 1)
        successes = _kernels.chain_success_count(n, p, dnum, dden, ks, 1, trials_per_p)
        rows.append(SweepRow(variable=p, successes=successes, trials=trials_per_p))
    return rows


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
    errors add up, so failures set in once the accumulated error approaches
    half the root spacing, around m ~ 2^p/n (zero error if n divides 2^p).
    """
    dnum, dden = _experiment_inputs(n, (p,), trials, delta)
    rows = []
    for m in chain_lengths:
        ks = _draw_block(seed, p, n, trials, m)
        successes = _kernels.chain_success_count(n, p, dnum, dden, ks, m, trials)
        rows.append(SweepRow(variable=m, successes=successes, trials=trials))
    return rows


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
