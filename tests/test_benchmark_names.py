"""The names that perfbench reads from the package still exist.

perfbench wraps public functions by name (``perfbench/tracing.py``) and reads
a few constants. A rename in ``src`` breaks ``--trace 1`` runs and the
benchmark's provenance line; ``perfbench/tests`` would catch that, but it is
not part of this suite. This module reads ``tracing.py`` by path and
installs nothing.
"""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

import circlelog
from circlelog import _kernels, cli, cryptanalysis, keyfile, protocols, wire

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PROBES = runpy.run_path(str(TRACING))["PROBES"]


@pytest.mark.parametrize("probe", PROBES, ids=lambda probe: f"{probe.module}.{probe.names[0]}")
def test_every_probed_name_is_a_function(probe):
    module = importlib.import_module(probe.module)
    for name in probe.names:
        # a function, not merely a callable: the tracer rebinds the probed object
        # wherever it is bound, so a class alias would wrap the class itself
        assert inspect.isfunction(getattr(module, name, None)), f"{probe.module}.{name}"


def test_batch_block_is_the_fifth_argument():
    # the kernels.batch.items probe counts len(args[4])
    for fn in (_kernels.chain_success_count, _kernels.sweep_success_count):
        assert list(inspect.signature(fn).parameters)[4] in ("ks_flat", "ks"), fn.__name__


def test_constants_the_benchmark_reads():
    for name in ("DEFAULT_N", "DEFAULT_G", "DEFAULT_P", "DEFAULT_TRIALS"):
        assert isinstance(getattr(cli, name), int), name
    assert cryptanalysis.CSV_HEADER == "variable,successes,trials,success_rate"
    assert circlelog.KERNEL_BACKEND == "numpy"
    assert isinstance(circlelog.__version__, str)


def test_generator_power_reexports():
    # the tracer's own test checks that wrapping reaches these two names
    assert wire.generator_power is keyfile.generator_power is protocols.generator_power
