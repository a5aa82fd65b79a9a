"""Span tracing for the traced benchmark run.

The wrappers installed here sit around calls into each circlelog module's
public functions. Nothing under ``src/`` changes: ``Installed`` rebinds each
wrapped function in every ``circlelog`` module namespace that holds it, which
is where callers look the name up (``protocols`` imports ``recover_exponent``
and ``to_numeric`` by name, ``wire`` and ``keyfile`` import
``generator_power``, ``group`` and ``contlog`` call ``_kernels.<name>``).

Self time. Every wall-clock instant between the first span opened and the
last one closed is charged to exactly one open span: the one opened most
recently, on whichever thread. On a single thread that is the innermost
call, so a span's self time is its duration minus the part its children
cover, and siblings never overlap. When a server thread's span overlaps a
client span, the overlap goes to whichever span opened later, so the self
times of all layers add up to the wall time of the traced pass. Time a
thread spends blocked on a socket inside ``dh_serve`` or ``dh_connect`` is
charged to that ``wire`` span unless a later span is open.

Spans are folded into per-layer sums as they close rather than stored: the
``exhaustive`` workload opens millions of them per run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

ROOT_LAYER = "remainder"


class Tracer:
    """Per-layer call counts, self times and inclusive times.

    ``enter``/``exit`` take an explicit timestamp for tests; by default they
    read ``time.perf_counter`` under the lock, so events from two threads are
    charged in the order they happened.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._open: list[list] = []  # open spans [layer, start], oldest first
        self._mark = 0.0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def enter(self, layer: str, now: float | None = None) -> list:
        with self._lock:
            if now is None:
                now = time.perf_counter()
            if self._open:
                self.self_s[self._open[-1][0]] += now - self._mark
            span = [layer, now]
            self._open.append(span)
            self._mark = now
            self.calls[layer] += 1
            return span

    def exit(self, span: list, now: float | None = None) -> None:
        with self._lock:
            if now is None:
                now = time.perf_counter()
            self.self_s[self._open[-1][0]] += now - self._mark
            self._mark = now
            for i in range(len(self._open) - 1, -1, -1):
                if self._open[i] is span:
                    del self._open[i]
                    break
            self.total_s[span[0]] += now - span[1]


@dataclass(frozen=True)
class Probe:
    """Public functions of one module that share a layer name.

    ``count`` maps ``(args, result)`` of a successful call to an amount added
    to the counter ``<layer>.<count_name>``.
    """

    module: str
    names: tuple[str, ...]
    layer: str
    count_name: str = ""
    count: Callable[[tuple, object], int] | None = None


def _utf8_len(text: str) -> int:
    return len(text.encode("utf-8"))


PROBES: tuple[Probe, ...] = (
    Probe("circlelog.cryptanalysis", ("derive_uniform",), "cryptanalysis.derive_uniform"),
    Probe("circlelog._kernels", ("to_numeric_t", "recover_t"), "kernels.scalar"),
    Probe("circlelog._kernels", ("roundtrip_all",), "kernels.batch", "items",
          lambda args, result: args[0]),
    Probe("circlelog._kernels", ("sweep_success_count", "chain_success_count"),
          "kernels.batch", "items", lambda args, result: len(args[4])),
    Probe("circlelog.group",
          ("make_params", "element", "generator", "identity", "mul", "inv", "power",
           "to_numeric", "mul_numeric", "complex_value"), "group"),
    Probe("circlelog.contlog", ("recover_exponent",), "contlog.recover"),
    Probe("circlelog.cryptanalysis",
          ("attack_direct", "direct_attack_report", "attack_exhaustive",
           "precision_sweep", "accumulation_experiment", "write_csv", "format_report"),
          "cryptanalysis"),
    Probe("circlelog.cli", ("main",), "cli"),
    Probe("circlelog.protocols", ("is_prime",), "protocols.is_prime"),
    Probe("circlelog.protocols", ("sign",), "protocols.sign"),
    Probe("circlelog.protocols", ("verify",), "protocols.verify"),
    Probe("circlelog.protocols", ("elgamal_encrypt", "elgamal_decrypt"), "protocols.elgamal"),
    Probe("circlelog.protocols",
          ("random_scalar", "generator_power", "keygen", "dh_public", "dh_shared",
           "encode_message", "decode_message", "hash_to_scalar"), "protocols"),
    Probe("circlelog.keyfile", ("serialize_key",), "keyfile", "bytes",
          lambda args, result: _utf8_len(result)),
    Probe("circlelog.keyfile", ("parse_key",), "keyfile", "bytes",
          lambda args, result: _utf8_len(args[0])),
    Probe("circlelog.wire", ("dh_serve",), "wire.serve"),
    Probe("circlelog.wire", ("dh_connect",), "wire.connect"),
)


def _wrap(tracer: Tracer, probe: Probe, fn: Callable) -> Callable:
    layer = probe.layer
    counter = f"{layer}.{probe.count_name}"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(span)
            tracer.counts[f"{layer}.failed"] += 1
            raise
        tracer.exit(span)
        if probe.count is not None:
            tracer.counts[counter] += probe.count(args, result)
        return result

    return traced


class Installed:
    """Context manager: the probes' wrappers are in place inside the block."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for probe in PROBES:
            importlib.import_module(probe.module)
        namespaces = [
            module for name, module in sorted(sys.modules.items())
            if name == "circlelog" or name.startswith("circlelog.")
        ]
        for probe in PROBES:
            home = sys.modules[probe.module]
            for name in probe.names:
                original = getattr(home, name)
                wrapper = _wrap(self._tracer, probe, original)
                for module in namespaces:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))
        return self._tracer

    def __exit__(self, *exc_info) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
