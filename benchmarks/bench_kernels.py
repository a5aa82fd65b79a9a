"""Compare the numpy batch kernel with the pure-Python kernel loops.

Times the batch kernels alone; ``perfbench/run.py`` measures the commands
end to end.

Run: PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

import time

from circlelog import _kernels
from circlelog import _kernels_py as py_backend
from circlelog.cryptanalysis import _draw_block


def bench(fn, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    backends = [("python", py_backend), ("numpy", _kernels)]

    print("== exhaustive round-trip, sum over n <= 2048 ==")
    for name, backend in backends:
        t, total = bench(
            lambda b=backend: sum(
                b.roundtrip_all(n, (n - 1).bit_length() + 2, 1, 5)
                for n in range(1, 2049)
            )
        )
        print(f"  {name:7s} {t:8.3f} s  ({total} recoveries)")

    n, p, trials = 1 << 20, 22, 100_000
    ks = _draw_block(1, p, n, trials, 1)
    print(f"== direct attack sweep, n=2^20 p=22, {trials} trials ==")
    for name, backend in backends:
        t, successes = bench(lambda b=backend: b.sweep_success_count(n, p, 1, 5, ks))
        print(f"  {name:7s} {t:8.3f} s  ({successes}/{trials} successes)")

    m, trials = 16, 20_000
    ks = _draw_block(1, 12, 1000, trials, m)
    print(f"== accumulation chains, n=1000 p=12 m={m}, {trials} trials ==")
    for name, backend in backends:
        t, successes = bench(
            lambda b=backend: b.chain_success_count(1000, 12, 1, 5, ks, m, trials)
        )
        print(f"  {name:7s} {t:8.3f} s  ({successes}/{trials} successes)")


if __name__ == "__main__":
    main()
