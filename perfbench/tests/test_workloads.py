"""Workload outputs, the traced/untraced equivalence and run.py's contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_outputs_identical_with_and_without_tracing(name):
    wl = workloads.WORKLOADS[name](5)
    plain = wl.run_pass()
    tracer = tracing.Tracer()
    traced = run.traced_pass(wl, tracer)
    assert plain.failed == traced.failed == 0
    assert plain.attempted == traced.attempted > 0
    assert plain.items == traced.items > 0
    assert plain.digests == traced.digests
    assert sum(tracer.self_s.values()) == pytest.approx(traced.seconds)
    draws = tracer.calls["cryptanalysis.derive_uniform"]
    assert (draws > 0) == (name == "experiments")


def test_seeds_change_inputs_and_outputs():
    assert workloads.Protocols(1).run_pass().digests != workloads.Protocols(2).run_pass().digests


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_reference_checked_and_tampering_detected(tmp_path, monkeypatch, capsys):
    refs = json.loads((BENCH / "references.json").read_text())
    assert "1" in refs["exhaustive"]
    args = ["--workload", "exhaustive", "--seed", "1", "--seconds", "1", "--trace", "0"]

    assert run.main(args) == 0
    out = capsys.readouterr().out
    assert "checked against stored reference digests" in out
    assert json.loads(out.splitlines()[-1])["correct"] is True

    refs["exhaustive"]["1"]["recovered"] = "0" * 64
    tampered = tmp_path / "references.json"
    tampered.write_text(json.dumps(refs))
    monkeypatch.setattr(run, "REFERENCES", tampered)
    assert run.main(args) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "protocols", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
