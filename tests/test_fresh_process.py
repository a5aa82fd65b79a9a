"""Commands in a fresh interpreter: what they import, and what they announce."""

import os
import re
import select
import subprocess
import sys
from pathlib import Path

import pytest

import circlelog
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
print("numpy" in sys.modules)
"""

# One command through cli.main, after checking that the import loaded no numpy.
COMMAND = """
import sys

from circlelog.cli import main

assert "numpy" not in sys.modules
assert main(sys.argv[1:]) == 0
print("numpy" in sys.modules)
"""


def _python(*args: str) -> subprocess.Popen:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC if not path else SRC + os.pathsep + path}
    return subprocess.Popen([sys.executable, *args], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _last_line(*args: str) -> str:
    proc = _python(*args)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    return out.splitlines()[-1]


def test_protocol_commands_load_no_numpy(tmp_path):
    assert _last_line("-c", PROTOCOLS, str(tmp_path)) == "False"


@pytest.mark.parametrize("argv", [
    ["attack", "--n", "1000", "--p", "12", "--trials", "10"],
    ["sweep", "--n", "256", "--p-min", "2", "--p-max", "3", "--trials", "10"],
    ["accumulate", "--m-max", "2", "--trials", "10"],
    ["spectral-check", "--n", "8"],
    ["info"],
])
def test_kernel_commands_load_numpy_on_first_use(argv):
    # the guard above is not vacuous: a command that computes with numpy loads it
    assert _last_line("-c", COMMAND, *argv) == "True"


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
