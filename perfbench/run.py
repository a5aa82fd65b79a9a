"""circlelog benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload experiments --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(see README.md in this directory). The report goes to stdout; its last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Exit status: 0 when every output check passed, 1 when one
failed, 2 when the circlelog sources are not next to this directory.

``--record`` runs one pass and stores its output digests in references.json
as the reference for that workload and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
from statistics import median
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
SETUP_REPEATS = 5
REFERENCE_IMPORT_S = 0.2  # nominal time of the reference set-up in probe_setup()
WORKLOAD_NAMES = ("experiments", "exhaustive", "protocols")

# Per-operation latency samples: report name, unit, scale, rate name.
LATENCIES = {
    "sign_verify": ("sign_verify", "us", 1e6, "sign_verify_per_s"),
    "dh_session": ("dh_session", "ms", 1e3, "dh_sessions_per_s"),
}

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("cryptanalysis.derive_uniform.calls", "count"),
    ("cryptanalysis.derive_uniform.self_s", "s"),
    ("cryptanalysis.derive_uniform.per_s", "1/s"),
    ("kernels.batch.calls", "count"),
    ("kernels.batch.items", "count"),
    ("kernels.batch.self_s", "s"),
    ("kernels.scalar.calls", "count"),
    ("kernels.scalar.self_s", "s"),
    ("group.self_s", "s"),
    ("contlog.recover.calls", "count"),
    ("contlog.recover.self_s", "s"),
    ("cryptanalysis.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("protocols.is_prime.calls", "count"),
    ("protocols.is_prime.self_s", "s"),
    ("protocols.sign.self_s", "s"),
    ("protocols.verify.self_s", "s"),
    ("protocols.elgamal.self_s", "s"),
    ("protocols.self_s", "s"),
    ("keyfile.self_s", "s"),
    ("keyfile.bytes", "bytes"),
    ("wire.serve.self_s", "s"),
    ("wire.connect.self_s", "s"),
    ("wire.sessions", "count"),
    ("wire.failed", "count"),
    ("remainder.self_s", "s"),
    ("tracing.run_s", "s"),
    ("tracing.overhead_frac", "frac"),
    ("share.derive_uniform", "frac"),
    ("share.kernels_scalar", "frac"),
    ("share.is_prime_in_sign_verify", "frac"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the measured window; passes run until it is over")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digests in references.json and exit")
    parser.add_argument("--setup-probe", choices=("reference", "workload"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q < 100."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Import plus input generation, each in a fresh interpreter.

    Each set-up is paired with a reference set-up in another fresh
    interpreter: importing numpy and a fixed set of standard modules, none
    from circlelog. Returns (wall seconds, reference seconds) per pair.
    """
    probe = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        ref, wall = (float(subprocess.run(probe + [kind], capture_output=True, text=True,
                                          check=True, timeout=120).stdout.split()[-1])
                     for kind in ("reference", "workload"))
        samples.append((wall, wall * REFERENCE_IMPORT_S / ref))
    return samples


def probe_setup(kind: str, workload: str, seed: int) -> float:
    """Seconds this fresh interpreter takes to set up ``kind``."""
    t0 = time.perf_counter()
    if kind == "reference":
        import decimal, email.mime.multipart, http.client, tarfile, unittest  # noqa: F401
        import xml.dom.minidom  # noqa: F401

        import numpy  # noqa: F401
    else:
        import workloads

        workloads.WORKLOADS[workload](seed)
    return time.perf_counter() - t0


def git_sha() -> str:
    """HEAD of the repository this file is in; "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():  # keeps git from searching parent directories
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(wl, seed: int) -> dict:
    import circlelog
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": circlelog.KERNEL_BACKEND,
        "circlelog": circlelog.__version__,
        "workload": wl.name,
        "seed": seed,
        "sizes": wl.sizes(),
        "reference_loop": wl.reference,
    }


def load_references(path: Path) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def interpreter_loop() -> int:
    """Bytecode-bound work: formatting, hashing, big-int division."""
    acc = 0
    sha = hashlib.sha256
    for i in range(3000):
        digest = sha(f"{i}/{acc}".encode()).digest()
        q, r = divmod(int.from_bytes(digest, "big") << 12, 1_000_003)
        acc = (acc + q + r) & 0xFFFFFFFF
    return acc


def bigint_loop() -> int:
    """Modular exponentiation at 61 bits, as in a Miller-Rabin round."""
    n = (1 << 61) - 1
    acc = 0
    for a in range(2, 250):
        acc ^= pow(a, (n - 1) >> 1, n)
    return acc


# Reference loops and their nominal times. They import nothing from
# circlelog, so their time tracks only the speed the machine gives this
# process at the moment. Reported times are in reference seconds: wall
# seconds divided by the slowness measured around them (see README.md).
REFERENCE_LOOPS = {
    "interpreter": (interpreter_loop, 0.005),
    "bigint": (bigint_loop, 0.005),
}
PROBE_RUNS = 3


def slowness(kind: str) -> float:
    """Wall time of a reference loop over its nominal time, median of PROBE_RUNS."""
    loop, nominal = REFERENCE_LOOPS[kind]
    times = []
    for _ in range(PROBE_RUNS):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return median(times) / nominal


def untraced_pass(wl):
    t0 = time.perf_counter()
    res = wl.run_pass()
    res.seconds = time.perf_counter() - t0
    return res


class ReferenceClock:
    """Wall time between marks, and the same time in reference seconds.

    ``mark`` probes the machine's speed with the reference loop on the main
    thread. The time since the previous mark is divided by the mean of the
    two probes around it; probe time itself is left out of both sums. With
    ``every_s`` set, a SIGALRM timer also marks every ``every_s`` seconds,
    in the middle of whatever the main thread is running.
    """

    def __init__(self, kind: str, every_s: float | None = None) -> None:
        self._kind = kind
        self._every_s = every_s
        self._busy = False
        self._slow = slowness(kind)
        self._t = time.perf_counter()
        self.wall = self.ref = 0.0

    def __enter__(self) -> "ReferenceClock":
        if self._every_s:
            self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self._every_s)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._every_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a mark already under way covers this one
            self.mark()
        signal.setitimer(signal.ITIMER_REAL, self._every_s)

    def mark(self) -> None:
        self._busy = True
        elapsed = time.perf_counter() - self._t
        slow = slowness(self._kind)
        self.wall += elapsed
        self.ref += elapsed * 2 / (self._slow + slow)
        self._slow = slow
        self._t = time.perf_counter()
        self._busy = False

    def take(self) -> tuple[float, float]:
        """Mark, then return and reset the wall and reference sums."""
        self.mark()
        taken = self.wall, self.ref
        self.wall = self.ref = 0.0
        return taken


def normalized_window(wl, seconds: float):
    """Untraced passes until ``seconds`` have gone by, in reference seconds.

    Every pass starts and ends with a mark of a ``ReferenceClock``. A
    workload whose passes last seconds sets ``probe_every_s`` to be probed
    inside its passes as well.
    """
    passes = []
    start = time.perf_counter()
    with ReferenceClock(wl.reference, wl.probe_every_s) as clock:
        while True:
            res = wl.run_pass()
            res.seconds, res.ref_seconds = clock.take()
            passes.append(res)
            if time.perf_counter() - start >= seconds:
                return passes


def traced_pass(wl, tracer):
    """One pass under the wrappers, inside a root span."""
    import tracing

    with tracing.Installed(tracer):
        before = tracer.total_s[tracing.ROOT_LAYER]
        span = tracer.enter(tracing.ROOT_LAYER)
        try:
            res = wl.run_pass()
        finally:
            tracer.exit(span)
    res.seconds = tracer.total_s[tracing.ROOT_LAYER] - before
    for name, amount in res.counts.items():
        tracer.counts[name] += amount
    return res


def traced_window(wl, seconds: float, tracer):
    """Passes until ``seconds`` have gone by; untraced and traced alternate."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        if len(traced) < len(untraced):
            traced.append(traced_pass(wl, tracer))
        else:
            untraced.append(untraced_pass(wl))
        if time.perf_counter() - start >= seconds and traced:
            return untraced, traced


def check_outputs(passes, reference: dict | None, log) -> tuple[int, int]:
    """Compare every pass's digests with the reference, else with pass one."""
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    for r in passes:
        for error in r.errors:
            log(f"FAILED: {error}")
    expected = reference if reference is not None else passes[0].digests
    for i, r in enumerate(passes):
        if reference is None and i == 0:
            continue
        for name in sorted(set(expected) | set(r.digests)):
            attempted += 1
            if r.digests.get(name) != expected.get(name):
                failed += 1
                log(f"FAILED: pass {i} digest {name} {r.digests.get(name)} "
                    f"!= expected {expected.get(name)}")
    return attempted, failed


def end_to_end_metrics(wl, setup_samples, passes, log) -> dict:
    # items per reference second: wall rate times the pass's wall/reference ratio
    rates = [r.items * r.seconds / ((r.items_s or r.seconds) * r.ref_seconds) for r in passes]
    wall = {
        "setup_s": median([wall for wall, _ in setup_samples]),
        "run_s": median([r.seconds for r in passes]),
    }
    values = {
        "setup_s": median([ref for _, ref in setup_samples]),
        "run_s": median([r.ref_seconds for r in passes]),
        "items_per_s": median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    log(f"setup_s        {values['setup_s']:.4f} s    median of {len(setup_samples)} set-ups "
        f"(import + input generation, fresh interpreter each); wall {wall['setup_s']:.4f} s")
    log(f"run_s          {values['run_s']:.4f} s    median of {len(passes)} passes; "
        f"wall {wall['run_s']:.4f} s")
    log(f"items_per_s    {values['items_per_s']:.1f} 1/s  {wl.item_unit} per second, "
        f"median of {len(passes)} passes  (= {wl.rate_name})")
    log(f"peak_rss_mb    {values['peak_rss_mb']:.1f} MB")
    log(f"slowness       {wall['run_s'] / values['run_s']:.3f}  wall over reference time; "
        "the percentiles below are wall time")
    parts = [kind for kind in passes[0].samples if kind not in LATENCIES]
    if parts:
        total = sum(r.seconds for r in passes)
        log("split          " + ", ".join(
            f"{kind} {sum(sum(r.samples[kind]) for r in passes) / total:.1%}" for kind in parts)
            + " of pass wall time")
    for kind, (label, unit, scale, rate_name) in LATENCIES.items():
        samples = [s for r in passes for s in r.samples.get(kind, ())]
        if not samples:
            continue
        log(f"{rate_name:<22} {len(samples) / sum(samples):.1f} 1/s  over {len(samples)} samples")
        for q in (50, 90, 99):
            if len(samples) * (100 - q) / 100 >= 10:
                log(f"{label}_p{q}_{unit:<5} {percentile(samples, q) * scale:.2f} {unit}  "
                    f"n={len(samples)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(tracer, untraced, traced, log) -> dict:
    k = len(traced)
    self_s = {layer: t / k for layer, t in tracer.self_s.items()}
    calls = {layer: c / k for layer, c in tracer.calls.items()}
    counts = {name: c / k for name, c in tracer.counts.items()}
    run_s = sum(r.seconds for r in traced) / k
    derive_s = self_s.get("cryptanalysis.derive_uniform", 0.0)
    derive_calls = calls.get("cryptanalysis.derive_uniform", 0)
    sign_verify_s = (tracer.total_s.get("protocols.sign", 0.0)
                     + tracer.total_s.get("protocols.verify", 0.0)) / k
    values = {
        "cryptanalysis.derive_uniform.calls": derive_calls,
        "cryptanalysis.derive_uniform.self_s": derive_s,
        "cryptanalysis.derive_uniform.per_s": derive_calls / derive_s if derive_s else 0.0,
        "kernels.batch.calls": calls.get("kernels.batch", 0),
        "kernels.batch.items": counts.get("kernels.batch.items", 0),
        "kernels.scalar.calls": calls.get("kernels.scalar", 0),
        "contlog.recover.calls": calls.get("contlog.recover", 0),
        "cli.output_bytes": counts.get("cli.output_bytes", 0),
        "protocols.is_prime.calls": calls.get("protocols.is_prime", 0),
        "keyfile.bytes": counts.get("keyfile.bytes", 0),
        "wire.sessions": counts.get("wire.sessions", 0),
        "wire.failed": counts.get("wire.serve.failed", 0) + counts.get("wire.connect.failed", 0),
        "tracing.run_s": run_s,
        "tracing.overhead_frac": (median([r.seconds for r in traced])
                                  / median([r.seconds for r in untraced]) - 1),
        "share.derive_uniform": derive_s / run_s,
        "share.kernels_scalar": self_s.get("kernels.scalar", 0.0) / run_s,
        "share.is_prime_in_sign_verify": (self_s.get("protocols.is_prime", 0.0) / sign_verify_s
                                          if sign_verify_s else 0.0),
    }
    for name, _ in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
    unlisted = set(self_s) - {name[: -len(".self_s")] for name, _ in PER_LAYER}
    if unlisted:
        raise RuntimeError(f"layers without a metric: {sorted(unlisted)}")

    total = sum(self_s.values())
    log(f"traced passes {k}, untraced passes {len(untraced)}; per traced pass:")
    for name, unit in PER_LAYER:
        log(f"  {name:<38} {values[name]:.6g} {unit}")
    log(f"self times + remainder = {total:.6f} s; traced run_s = {run_s:.6f} s")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def record(args, wl) -> int:
    res = wl.run_pass()
    if res.failed:
        for error in res.errors:
            print(f"FAILED: {error}", file=sys.stderr)
        return 1
    refs = load_references(REFERENCES)
    refs.setdefault(wl.name, {})[str(args.seed)] = res.digests
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {wl.name} seed {args.seed}: {res.digests}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "circlelog" / "__init__.py").is_file():
        print(f"perfbench: circlelog sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        print(probe_setup(args.setup_probe, args.workload, args.seed))
        return 0

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.record:
        return record(args, wl)

    def log(line: str) -> None:
        print(line, flush=True)

    log(f"perfbench workload={wl.name} seed={args.seed} trace={args.trace} "
        f"seconds={args.seconds:g}")
    log("provenance " + json.dumps(provenance(wl, args.seed), sort_keys=True))
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        untraced, traced = traced_window(wl, args.seconds, tracer)
    else:
        setup_samples = measure_setup(args.workload, args.seed)
        untraced, traced = normalized_window(wl, args.seconds), []
    reference = load_references(REFERENCES).get(wl.name, {}).get(str(args.seed))
    log("outputs checked against " + ("stored reference digests" if reference is not None
                                      else "invariants and pass-to-pass agreement (no reference "
                                      "for this seed)"))
    attempted, failed = check_outputs(untraced + traced, reference, log)
    log(f"failed_ops_frac {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    if args.trace:
        metrics = per_layer_metrics(tracer, untraced, traced, log)
    else:
        metrics = end_to_end_metrics(wl, setup_samples, untraced, log)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
