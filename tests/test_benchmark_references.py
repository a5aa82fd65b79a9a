"""One pass of each benchmark workload reproduces its stored reference digests.

``perfbench/run.py`` compares every pass with ``perfbench/references.json``;
this suite runs one pass per workload at seed 0 against the same file, so a
change to seeded output fails here first. It reads both files by path and
writes nothing.
"""

import json
import runpy
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]
REFERENCES = json.loads((BENCH / "references.json").read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_pass_matches_the_stored_digests(name):
    result = WORKLOADS[name](0).run_pass()
    assert (result.failed, result.errors) == (0, [])
    assert result.digests == REFERENCES[name]["0"]
