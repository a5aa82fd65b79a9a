"""Attack experiments against the angle representation.

The scheme's stated hardness claim is that recovering the exponent k from a
point on the circle is computationally difficult because the logarithm is
multi-valued, the angle is ambiguous, and rounding errors accumulate. The
experiments here measure that claim: a direct single-step inversion attack,
an exhaustive-search baseline, a precision sweep locating where ambiguity
actually begins, and a chained-product experiment measuring how rounding
errors accumulate.

All randomness derives from a master seed through SHA-256 of the index path
"seed/p/m/trial/element/counter", reduced by ``_reduce`` with one rejection
rule for every n, so every report is bit-identical however trials are split.

The sweep and the accumulation experiment cut each row's trials into ranges
of ``_RANGE_CHUNKS`` draw chunks and sum the ranges' success counts per
row. A call of ``_POOL_DRAWS`` draws or more counts its ranges in a
``ProcessPoolExecutor`` of forked workers, one per usable CPU but no more
than there are ranges, which lives only for that call and whose initializer
makes each worker ignore SIGINT (a Ctrl-C ends the parent, which shuts the
pool down); a smaller call, and any call in a process with one usable CPU, a
second Python thread or a start method other than fork, counts them
in-process. Each worker draws and counts whole ranges and sends back only
their counts, so the rows, and the CSVs written from them, are the same
bytes either way.

``exact_successes(n, p, m, delta)`` is the law those rows sample: how many
of the n^m chains of m exponents recover, counted from the histogram of the
rounding errors instead of drawn. It takes the experiments' inputs (p >= 1)
and refuses, with ``OrderTooLarge``, a chain length whose work (m times the
number of values its sums take) exceeds ``_kernels.EXHAUSTIVE_ORDER_GUARD``.
The tests check every seeded row of the default ``accumulate`` and ``sweep``
against it within |z| <= 4.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence, TextIO

from . import _kernels
from ._kernels import _integer
from .contlog import DEFAULT_TOLERANCE
from .errors import InvalidOrder, ParamsMismatch, UsageError
from .group import ExactElement, GroupParams, NumericElement, _check_type

try:  # CPython's built-in SHA-256: one call on a short path is cheaper than OpenSSL's
    from _sha256 import sha256 as _sha256
except ImportError:
    try:
        from _sha2 import sha256 as _sha256  # the module's name from Python 3.12
    except ImportError:
        _sha256 = hashlib.sha256

_CHUNK = 1 << 12  # most draws hashed before one reduction, unless a trial has more
# Draws from which a call counts its trial ranges in forked workers. A pool
# of two took 9-19 ms to start, map and shut down (2 CPUs, Python 3.11.7),
# and a draw about 0.7 us, so two workers, which halve the draw time, repay
# it from about 2 * 13 ms / 0.7 us = 37 000 draws. The first pool in a
# process also imports multiprocessing and concurrent.futures (14-27 ms),
# which a cold command repays from about 2 * 32 ms / 0.7 us = 90 000 draws.
# At 2^16 draws a warm call gains and a cold one loses at most ~10 ms; the
# default sweep (110 000 draws) forks and the default attack (10 000) does not.
_POOL_DRAWS = 1 << 16
# Draw chunks in one trial range, the unit a worker counts: up to 32 768
# draws, ~25 ms. Handing out ranges of one chunk took the parent ~0.1 s of
# CPU per pooled accumulate (330 ranges), slowing the workers it shares the
# CPUs with; at 8 chunks (~50 ranges) it takes ~0.02 s, and the last ranges
# and a Ctrl-C still wait only tens of milliseconds.
_RANGE_CHUNKS = 8

CSV_HEADER = "variable,successes,trials,success_rate"


@dataclass(frozen=True)
class AttackReport:
    """One attack on the group ``params``; ``recovered`` is a single target's exponent."""

    attack_name: str
    params: GroupParams
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
    of n at or under 2^256 (n outside [1, 2^256] is ``InvalidOrder``). A numpy
    seed, index or n hashes as its int.
    ``_draw_chunks`` streams the same draws, at most ``max(_CHUNK, m)`` held at
    once, building each counter-0 path as bytes and hashing it in one call;
    only a digest that ``_reduce`` rejects there comes back here.
    """
    n = _integer("n", n)
    limit = _limit(n)
    counter = 0
    path = "/".join(map(str, (_integer("seed", seed), *(_integer("index", i) for i in indices))))
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


def _reduce(digests: list[bytes], n: int, limit: int) -> tuple[np.ndarray | list[int], list[int]]:
    """v mod n for every digest v (read big-endian), and the positions where v >= limit.

    The values are an int64 array for n <= 2^32 (numpy Horner over the eight
    32-bit words), else exact Python ints (a list). One rule for every n: only
    a digest whose top word is at least limit >> 224 can reach the limit, and
    only those are compared exactly; as limit > 2^256 - n, for n <= 2^224 that
    is a top word of all ones, or none when n divides 2^256.
    """
    import numpy as np

    words = np.frombuffer(b"".join(digests), dtype=">u4").reshape(-1, 8)
    candidates = np.flatnonzero(words[:, 0] >= limit >> 224).tolist()
    rejected = [i for i in candidates if int.from_bytes(digests[i], "big") >= limit]
    if n > 1 << 32:
        return [int.from_bytes(d, "big") % n for d in digests], rejected
    # acc < n <= 2^32, so acc << 32 | w fits; every operand is uint64 by its own dtype,
    # not by NumPy's scalar promotion rules (1.x would keep uint32 for n < 2^32)
    acc = words[:, 0].astype(np.uint64)
    n64, shift = np.uint64(n), np.uint64(32)
    acc %= n64
    for i in range(1, 8):
        acc <<= shift
        acc |= words[:, i]
        acc %= n64
    return acc.view(np.int64), rejected  # acc < 2^32: the same values as int64


def _per_chunk(m: int) -> int:
    """Trials per draw chunk of an m-fold row: the grid its trial ranges are cut on."""
    return max(1, _CHUNK // max(m, 1))


def _draw_chunks(seed: int, head: int, n: int, trials: int, m: int, first: int = 0):
    """``derive_uniform(seed, (head, m, t, j), n)`` for every trial t in
    [first, trials) and element j.

    Yields them in (t, j) order, in chunks of whole trials and at most
    ``max(_CHUNK, m)`` draws, cut every ``_per_chunk(m)`` trials from
    ``first``. Each draw's path "seed/head/m/t/j/0" is joined from bytes made
    once per row, trial and element and hashed in one call: under 56 bytes it
    is one SHA-256 block, no more than a copied prefix state would compress.
    A chunk is reduced mod n at once by ``_reduce``: the int64 array the kernel
    computes on for n <= 2^32, Python ints above (a list). Each digest it
    rejects at counter 0 is redrawn by ``derive_uniform``.
    """
    limit = _limit(n)
    prefix = f"{seed}/{head}/{m}/".encode("ascii")
    tails = [b"%d/0" % j for j in range(m)]
    per_chunk = _per_chunk(m)
    for start in range(first, trials, per_chunk):
        heads = [prefix + b"%d/" % t for t in range(start, min(start + per_chunk, trials))]
        paths = [trial + tail for trial in heads for tail in tails]
        values, rejected = _reduce([h.digest() for h in map(_sha256, paths)], n, limit)
        for i in rejected:
            t, j = divmod(i, m)
            values[i] = derive_uniform(seed, (head, m, start + t, j), n)
        yield values


def _count(n: int, p: int, m: int, dnum: int, dden: int, seed: int, first: int, stop: int) -> int:
    """How many of the seeded m-fold chains at precision p of trials [first,
    stop) recover intact: one of ``_rows``' trial ranges, in-process or pooled."""
    return sum(_kernels.chain_success_count(n, p, dnum, dden, ks, m)
               for ks in _draw_chunks(seed, p, n, stop, m, first))


def _rows(n: int, trials: int, dnum: int, dden: int, seed: int,
          rows: Sequence[tuple[int, int, int]]) -> list[SweepRow]:
    """One SweepRow per (variable, p, m): how many of ``trials`` seeded m-fold
    chains at precision p recover intact.

    Each row's trials are cut into ranges of ``_RANGE_CHUNKS`` draw chunks,
    which ``_count`` turns into success counts, summed per row. A call that
    ``_pool_workers`` gives workers counts its ranges in a pool of that many
    forked workers (one per range if there are fewer), made and shut down
    here, whose initializer makes each worker ignore SIGINT; every other call
    counts them in this process, with the same sums. An order without seeded
    draws (``InvalidOrder``) is refused before any worker starts.
    """
    _limit(n)

    firsts = [range(0, trials, _RANGE_CHUNKS * _per_chunk(m)) for _, _, m in rows]

    def spans():
        for row, ((_, p, m), starts) in enumerate(zip(rows, firsts)):
            for first in starts:
                yield row, (n, p, m, dnum, dden, seed, first, min(first + starts.step, trials))

    successes = [0] * len(rows)
    workers = min(_pool_workers(trials * sum(m for _, _, m in rows)), sum(map(len, firsts)))
    if not workers:
        for row, args in spans():
            successes[row] += _count(*args)
    else:
        import multiprocessing
        import signal
        from concurrent.futures import ProcessPoolExecutor

        import numpy  # noqa: F401  the kernel's; imported once here, not in each worker

        # fork, not spawn: a spawned worker imports circlelog and numpy afresh,
        # and a spawn pool of two took 0.3-0.47 s to start, most of what the
        # pool saves. _pool_workers forks only from a single Python thread
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                   # a Ctrl-C ends the parent, which shuts the pool down
                                   initializer=signal.signal,
                                   initargs=(signal.SIGINT, signal.SIG_IGN))
        try:
            # a few ranges per worker in flight: the workers never wait, and
            # memory does not grow with the trials
            window: deque = deque()
            for row, args in spans():
                window.append((row, pool.submit(_count, *args)))
                if len(window) > 4 * workers:
                    row, counted = window.popleft()
                    successes[row] += counted.result()
            for row, counted in window:
                successes[row] += counted.result()
        finally:  # after an error or a Ctrl-C, ranges not yet started are dropped
            pool.shutdown(cancel_futures=True)
    return [SweepRow(variable=variable, successes=s, trials=trials)
            for (variable, _, _), s in zip(rows, successes)]


def _pool_workers(draws: int) -> int:
    """How many forked workers count a call of ``draws`` draws: one per
    usable CPU, or 0 (count in this process) below ``_POOL_DRAWS``, on one
    usable CPU, beside a second Python thread or without fork as the start
    method."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if draws < _POOL_DRAWS or cpus < 2 or threading.active_count() > 1:
        return 0
    import multiprocessing

    method = (multiprocessing.get_start_method(allow_none=True)
              or multiprocessing.get_all_start_methods()[0])
    return cpus if method == "fork" else 0


def _experiment_inputs(
    n: int,
    p_values: Sequence[int],
    trials: int,
    delta: Fraction,
    seed: int,
    chain_lengths: Sequence[int] = (1,),
) -> tuple[tuple[int, int, int, int, int], list[int], list[int]]:
    """Read and check an experiment's inputs before any draw or kernel sees them.

    A request of impossible shape (fewer than one trial, an empty precision or
    chain-length range, an m < 1, named by the least, a tolerance outside
    [0, 1/2)) raises ``UsageError``; an order or precision no group has raises
    ``GroupParams``'s ``InvalidOrder`` for the first p out of range. Returns ``_rows``' leading
    arguments (n, trials, dnum, dden, seed), the p's in the order given and the m's.
    """
    n, trials, seed = _integer("n", n), _integer("trials", trials), _integer("seed", seed)
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    if not p_values:
        raise UsageError("precision range is empty (p-min > p-max?)")
    ms = [_integer("m", m) for m in chain_lengths]
    if not ms:
        raise UsageError("chain lengths must be a non-empty range of m >= 1 (m-max < 1?)")
    if min(ms) < 1:
        raise UsageError(f"m must be >= 1, got {min(ms)}")
    dnum, dden = _kernels.tolerance(delta)
    for p in p_values:  # generator 1 (0 if n = 1) is primitive: only n and p can fail
        GroupParams(n, 1 if n > 1 else 0, p)
    # listed only once every p is valid: a range up to p = 10^11 fails at 2^16 + 1
    return (n, trials, dnum, dden, seed), [_integer("p", p) for p in p_values], ms


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
    Refuses a public of another group (``ParamsMismatch``), then delta outside
    [0, 1/2) (``UsageError``); an element's k or t is valid already.
    """
    _check_type("public", public, (ExactElement, NumericElement),
                "an ExactElement or NumericElement")
    _check_type("params", params, GroupParams, "a GroupParams")
    if public.params != params:
        raise ParamsMismatch(f"public element from another group: {public.params} vs {params}")
    dnum, dden = _kernels.tolerance(delta)
    n, p = params.n, params.p
    if isinstance(public, ExactElement):
        recovered, success, ops = public.k, True, 0
        notes = "exact representation leaks the exponent outright; read k directly"
    else:
        t = public.t
        k = _kernels.recover_t(t, n, p, dnum, dden)
        recovered = k if k >= 0 else None
        success = recovered is not None and _kernels.to_numeric_t(k, n, p) == t
        ops, notes = 1, "one recovery operation inverts the angle"
    return AttackReport(
        attack_name="direct", params=params, delta=Fraction(delta),
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
    _check_type("params", params, GroupParams, "a GroupParams")
    n, p = params.n, params.p
    successes = precision_sweep(n, (p,), trials, delta, seed)[0].successes
    notes = (
        "claim under test: inverting the angle map (the continuous logarithm) "
        "is computationally hard. measured: "
        f"{successes}/{trials} recoveries, exactly 1 recovery operation per trial "
        f"at n={n}, p={p}."
    )
    return AttackReport(
        attack_name="direct", params=params, delta=Fraction(delta),
        trials=trials, successes=successes, mean_ops=Fraction(1),
        notes=notes,
    )


def attack_exhaustive(public: NumericElement, params: GroupParams) -> AttackReport:
    """Baseline: try every exponent, keep the nearest angle (wrap-around metric).

    Succeeds iff that angle is the public one itself (distance 0): the rule of
    ``attack_direct``, that the recovered exponent reproduces the angle. The
    public must be a ``NumericElement``: an exact one leaks k (see
    ``attack_direct``). Refuses a public of another group (``ParamsMismatch``);
    the scan then refuses n > ``_kernels.EXHAUSTIVE_ORDER_GUARD`` (``OrderTooLarge``).
    """
    _check_type("public", public, NumericElement, "a NumericElement")
    _check_type("params", params, GroupParams, "a GroupParams")
    if public.params != params:
        raise ParamsMismatch(f"public element from another group: {public.params} vs {params}")
    n, p = params.n, params.p
    best_k, best_dist = _kernels.nearest_angle(public.t, n, p)
    return AttackReport(
        attack_name="exhaustive", params=params, delta=Fraction(0),
        trials=1, successes=int(best_dist == 0), mean_ops=Fraction(n),
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
    inputs, ps, _ = _experiment_inputs(n, p_range, trials_per_p, delta, seed)
    return _rows(*inputs, [(p, p, 1) for p in sorted(ps)])


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
    errors add up: how many chains recover follows from E, the sum of their
    rounding errors e(k_i), by the law ``exact_successes`` states and counts.
    The worst chains repeat a k with |e(k)| = max|e|, so chains first fail at
    the least m with m*max|e| > (1/2 - delta)*2^p,
    m = floor((1/2 - delta)*2^p / max|e|) + 1; at delta = 0 a sum of
    exactly +-2^(p-1) is a round-half-even tie and only as many tied chains
    recover as sum to +2^(p-1), so there they first fail at the least m with
    m*max|e| >= 2^(p-1), m = ceil(2^(p-1) / max|e|). They never fail if
    n divides 2^p, where e = 0. At n = 1000, p = 12, delta = 1/5,
    max|e| = 496 and that m is 3.
    """
    inputs, (p,), ms = _experiment_inputs(n, (p,), trials, delta, seed, chain_lengths)
    return _rows(*inputs, [(m, p, m) for m in ms])


def exact_successes(n: int, p: int, m: int, delta: Fraction = DEFAULT_TOLERANCE) -> int:
    """How many of the n^m chains of m exponents in [0, n) recover intact at
    precision p: ``_kernels.chain_success_count`` over every chain, counted
    from the law of the angle map instead of the chains.

    With e(k) = t(k)*n - k*2^p, t(k) the rounded angle before the mod-2^p
    step, write a chain's sum E = e(k_1) + ... + e(k_m) as j*2^p + r with r in
    (-2^(p-1), 2^(p-1)]. The law is a count: as many chains recover as have
    n | j and 2*dden*|r| <= 2^p*(dden - 2*dnum). It holds chain by chain but
    for the round-half-even ties |r| = 2^(p-1) at delta = 0, where the parity
    of the rounded quotient decides which tied chains recover (at n = 3,
    p = 1 the chain (1), e = +1, fails and the chain (2), e = -1, recovers);
    they number the tied chains with r = +2^(p-1) and n | j all the same.

    k -> k*2^p mod n is g-to-one onto the multiples of g = gcd(n, 2^p), so
    e/g takes the N = n/g integers nearest 0, g exponents each: -(N-1)/2 to
    (N-1)/2 for odd N, and for even N (p < v2(n)) -N/2 to N/2, where the two
    ends share the g exponents whose angle is a half-way tie, g/2 each. The
    histogram of E/g is that histogram convolved m times, each step one
    prefix-sum difference on exact ints.

    The inputs are checked as the experiments check them
    (``_experiment_inputs``, so p >= 1). The work is m convolutions, each at
    most the m-fold histogram's size (m*(N-1) + 1 sums for odd N, m*N + 1 for
    even N); a call whose work, m times that size, exceeds
    ``_kernels.EXHAUSTIVE_ORDER_GUARD`` is refused with ``OrderTooLarge``
    before anything is allocated.
    """
    (n, _, dnum, dden, _), (p,), (m,) = _experiment_inputs(n, (p,), 1, delta, 0, (m,))
    g = math.gcd(n, 1 << p)
    half, odd = divmod(n // g, 2)  # e/g lies in [-half, half]
    width = 2 * half
    _kernels._refuse_above(m * (m * width + 1), _kernels.EXHAUSTIVE_ORDER_GUARD,
                           f"exact count at n={n}, p={p}, m={m}", name="work")
    end = g if odd else g // 2  # the weight of e/g = -half and of e/g = half
    pad = [0] * width
    counts = [1]  # counts[i]: the chains so far whose sum of e/g is i - half * their length
    for _ in range(m):
        padded = pad + counts + pad
        below = [0, *accumulate(padded)]
        counts = [g * (below[s + width + 1] - below[s])
                  + (end - g) * (padded[s] + padded[s + width])
                  for s in range(len(counts) + width)]
    h = 1 << p - 1
    successes = 0
    for i, chains in enumerate(counts):
        j, r = divmod(h - (i - m * half) * g, 1 << p)  # E = -j*2^p + h - r
        if j % n == 0 and 2 * dden * abs(h - r) <= (1 << p) * (dden - 2 * dnum):
            successes += chains
    return successes


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
    _check_type("report", report, AttackReport, "an AttackReport")
    params = report.params
    lines = [
        f"attack: {report.attack_name}",
        f"params: n={params.n} g={params.g} p={params.p} delta={report.delta}",
        f"trials: {report.trials}",
        f"successes: {report.successes}",
        f"success_rate: {Fraction(report.successes, report.trials)}",
        f"mean_ops: {report.mean_ops}",
        f"notes: {report.notes}",
    ]
    if report.recovered is not None:
        lines.insert(5, f"recovered: {report.recovered}")
    return "\n".join(lines) + "\n"
