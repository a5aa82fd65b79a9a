"""Commands in a fresh interpreter: what they import, what they announce,
and what a Ctrl-C leaves behind."""

import contextlib
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import circlelog
from circlelog import cryptanalysis
from circlelog.cli import main

SRC = str(Path(circlelog.__file__).resolve().parents[1])

# The protocol commands through cli.main, then whether numpy got loaded.
PROTOCOLS = """
import queue, sys, threading
from random import Random

import circlelog, circlelog.cli
from circlelog import make_params, wire
from circlelog.cli import main

tmp = sys.argv[1]
priv, pub, ct, sig = (f"{tmp}/{name}" for name in ("k.priv", "k.pub", "m.ct", "m.sig"))
for argv in (
    ["keygen", "--seed", "1", "--out", priv, "--pub", pub],
    ["encrypt", "--pub", pub, "--message", "hi", "--seed", "2", "--out", ct],
    ["decrypt", "--key", priv, "--ct", ct],
    ["sign", "--key", priv, "--message", "hi", "--seed", "3", "--out", sig],
    ["verify", "--pub", pub, "--message", "hi", "--sig", sig],
):
    assert main(argv) == 0, argv
ports = queue.Queue()
server = threading.Thread(target=wire.dh_serve, args=(0, make_params(101, 2, 16), Random(1)),
                          kwargs={"on_listen": ports.put})
server.start()
assert main(["dh-connect", "--port", str(ports.get(timeout=10)),
             "--n", "101", "--g", "2", "--p", "16", "--seed", "2"]) == 0
server.join()
print(sorted(name for name in LAZY if name in sys.modules))
"""

# One command through cli.main, after checking that the import loaded none of
# LAZY; then that it left no child process, running or unreaped.
COMMAND = """
import os, sys

from circlelog.cli import main

assert not any(name in sys.modules for name in LAZY)
assert main(sys.argv[1:]) == 0
try:
    child = os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    pass
else:
    raise AssertionError(f"a child process outlived the command: {child}")
print(sorted(name for name in LAZY if name in sys.modules))
"""

# Loaded on first use: numpy by a batch kernel, the pool by a large experiment.
LAZY = ("concurrent.futures", "multiprocessing", "numpy")
PREAMBLE = f"LAZY = {LAZY!r}\n"


def _python(*args: str, **popen) -> subprocess.Popen:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC if not path else SRC + os.pathsep + path}
    return subprocess.Popen([sys.executable, *args], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen)


def _last_line(*args: str) -> str:
    proc = _python(*args)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    return out.splitlines()[-1]


def test_protocol_commands_load_no_numpy(tmp_path):
    # nor the worker pool
    assert _last_line("-c", PREAMBLE + PROTOCOLS, str(tmp_path)) == "[]"


@pytest.mark.parametrize("argv", [
    ["attack", "--n", "1000", "--p", "12", "--trials", "10"],
    ["sweep", "--n", "256", "--p-min", "2", "--p-max", "3", "--trials", "10"],
    ["accumulate", "--m-max", "2", "--trials", "10"],
    ["spectral-check", "--n", "8"],
    ["info"],
    ["attack"],  # 10 000 draws at the defaults: below the pool's threshold
])
def test_kernel_commands_load_numpy_on_first_use(argv):
    # the guard above is not vacuous: a command that computes with numpy loads it
    assert _last_line("-c", PREAMBLE + COMMAND, *argv) == "['numpy']"


@pytest.mark.skipif(cryptanalysis._pool_workers(1 << 62) < 2,
                    reason="needs two usable CPUs and fork as the start method")
def test_large_experiment_loads_the_pool():
    # nor is the pool's: accumulate at 10 000 trials makes 1 360 000 draws
    argv = ["accumulate", "--n", "1000", "--p", "12", "--m-max", "16"]
    assert _last_line("-c", PREAMBLE + COMMAND, *argv) == repr(sorted(LAZY))


@pytest.mark.skipif(cryptanalysis._pool_workers(1 << 62) < 2,
                    reason="needs two usable CPUs and fork as the start method")
def test_default_sweep_loads_the_pool():
    # eleven rows of 10 000 trials: 110 000 draws, counted in the pool
    argv = ["sweep", "--n", "256", "--p-min", "2", "--p-max", "12"]
    assert _last_line("-c", PREAMBLE + COMMAND, *argv) == repr(sorted(LAZY))


def _children(pid: int) -> list[int]:
    """The processes whose parent is ``pid``, from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        with contextlib.suppress(OSError):
            if entry.isdigit() and int(
                    Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)[1].split()[1]) == pid:
                found.append(int(entry))
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists()
                    or cryptanalysis._pool_workers(1 << 62) < 2,
                    reason="needs /proc, two usable CPUs and fork as the start method")
def test_ctrl_c_ends_the_workers_with_the_command():
    proc = _python("-m", "circlelog.cli", "accumulate", "--n", "1000", "--p", "12",
                   "--trials", "1000000", start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while len(workers := _children(proc.pid)) < cryptanalysis._pool_workers(1 << 62):
            assert proc.poll() is None and time.monotonic() < deadline, proc.communicate()
            time.sleep(0.02)
        time.sleep(0.2)  # past each worker's initializer
        for worker in workers:  # ignored: a worker's KeyboardInterrupt would end the count
            os.kill(worker, signal.SIGINT)
        time.sleep(0.5)
        assert proc.poll() is None, proc.communicate()
        # a terminal's Ctrl-C signals the whole foreground process group
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode != 0 and out == ""
        # the parent's KeyboardInterrupt alone: no worker printed a traceback
        assert err.count("Traceback") == 1 and err.rstrip().endswith("KeyboardInterrupt"), err
        with pytest.raises(ProcessLookupError):  # no worker outlived the command
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()


def test_dh_serve_on_port_0_reports_the_bound_port(capsys):
    server = _python("-m", "circlelog.cli", "dh-serve", "--port", "0",
                     "--n", "101", "--g", "2", "--p", "16", "--seed", "1")
    try:
        # written once bound, before any client: a server that stays silent fails here
        assert select.select([server.stderr], [], [], 30)[0], "dh-serve did not report its port"
        listening = server.stderr.readline()
        match = re.fullmatch(r"listening on 127\.0\.0\.1:(\d+)\n", listening)
        assert match, listening
        rc = main(["dh-connect", "--port", match[1], "--n", "101", "--g", "2", "--p", "16",
                   "--seed", "2"])
        out, err = server.communicate(timeout=30)
    finally:
        server.kill()
    assert rc == 0 and server.returncode == 0 and err == ""
    client = capsys.readouterr().out
    assert out == client  # the same transcript, ending in the same CONFIRM line
    assert out.splitlines()[-1].startswith("CONFIRM ")
