"""The benchmark's own test: every workload at a tiny size, the traced run,
and wrong answers counted as failed.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import exact
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
KNOWN_FAULTS = {"catalog-cli": 0, "verify-dual-route": 0, "thermo-spectral": 3}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct(workload):
    report = run.measure(workload, seed=5, seconds=0, trace=False, size="tiny")
    assert report["correct"] is True
    assert report["passes"] == 1
    assert report["failed"] == KNOWN_FAULTS[workload]
    assert set(report["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in report["metrics"].values())


def test_traced_counts_repeat():
    first = run.measure("catalog-cli", seed=5, seconds=0, trace=True, size="tiny")
    second = run.measure("catalog-cli", seed=5, seconds=0, trace=True, size="tiny")
    assert set(first["metrics"]) == set(tracing.PER_LAYER) | {"trace.pass_s"}
    counts = [name for name, unit in tracing.PER_LAYER.items() if unit == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}
    assert first["metrics"]["symmetric.reduce_calls"]["value"] > 0
    assert first["metrics"]["genera.poly_hits"]["value"] > 0


def _outcome(stdout, rc=0):
    return {"rc": rc, "traceback": None, "stderr": "", "stdout": stdout}


def test_wrong_answers_are_judged_wrong(tmp_path):
    cp2 = [("cp", 2)]
    index = {"check": "index", "fmt": "text", "expect": str(exact.signature(cp2))}
    assert checks.verdict(index, _outcome("1\n")) == "ok"
    assert checks.verdict(index, _outcome("0\n")) == "wrong"
    assert checks.verdict(index, _outcome("", rc=2)) == "error"

    verify = {"check": "verify", "fmt": "text", "kind": "fb", "l": 1, "truncation": 6}
    text = "pairing dictionary (l = 1, D = 6)\n fb  dual-route     PASS\n"
    assert checks.verdict(verify, _outcome(text)) == "ok"
    assert checks.verdict(verify, _outcome(text.replace("PASS", "FAIL"))) == "wrong"

    path = tmp_path / "levels.json"
    path.write_text(json.dumps({"levels": [1.0, 2.0], "mu": 0.0, "beta": 1.0,
                                "statistics": "FD"}))
    stats = {"check": "stats", "fmt": "text", "input": str(path), "correspondence": False}
    good = ("statistics        FD\nlevels            2\nln Xi             0.44018969856119539\n"
            "Xi                1.553001792775919\nOmega             -0.44018969856119539\n"
            "mean N            0.38814434339211268\n")
    assert checks.verdict(stats, _outcome(good)) == "ok"
    assert checks.verdict(stats, _outcome(good.replace("0.3881443", "0.3881444"))) == "wrong"


def test_known_fault_passes_once_it_exits_cleanly():
    fault = {"check": "zeta_finite", "fmt": "text", "eigenvalues": [2.0], "fault": "x"}
    crash = {"rc": None, "traceback": "Traceback ...", "stderr": "", "stdout": ""}
    assert checks.verdict(fault, crash) == "error"
    clean = {"rc": 2, "traceback": None, "stderr": "error: overflow\n", "stdout": ""}
    assert checks.verdict(fault, clean) == "ok"


def test_wrong_answer_is_counted_as_failed(monkeypatch):
    judged = checks.verdict

    def tamper(request, outcome):
        if request["id"] == 0:
            outcome = dict(outcome, stdout="0\n")
        return judged(request, outcome)

    monkeypatch.setattr(checks, "verdict", tamper)
    report = run.measure("verify-dual-route", seed=5, seconds=0, trace=False, size="tiny")
    assert report["failed"] == 1
    assert report["correct"] is False


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
