"""statindex benchmark: end-to-end and per-layer metrics of the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  The run builds the workload's seeded request
list and input files, then repeats passes over the whole list until S
seconds have gone by, each pass in a fresh worker interpreter run one at a
time (closed loop, one client).  Every output is checked against closed
forms computed apart from the program.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def run_pass(job_path: Path, out_dir: Path) -> Dict:
    """Start one worker on the job, wait for it, return its result."""
    spawned = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), repr(spawned)],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=WORKER_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    with open(out_dir / "result.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


class Judge:
    """Verdicts per request; a byte-identical outcome is judged once."""

    def __init__(self, requests: List[Dict]):
        self.requests = {request["id"]: request for request in requests}
        self._memo: Dict[tuple, str] = {}

    def __call__(self, result: Dict, out_dir: Path) -> str:
        stdout = (out_dir / f"{result['id']}.out").read_text(encoding="utf-8")
        key = (result["id"], result["rc"], result["traceback"], result["stderr"],
               hashlib.sha256(stdout.encode()).hexdigest())
        if key not in self._memo:
            outcome = dict(result, stdout=stdout)
            self._memo[key] = checks.verdict(self.requests[result["id"]], outcome)
        return self._memo[key]


def _library_failures(workload: str) -> List[str]:
    """Checks that call the library directly rather than the CLI."""
    if workload != "verify-dual-route":
        return []
    sys.path.insert(0, str(SRC))
    from statindex.pairings import density_series

    return checks.density_mismatches(density_series, workloads.DENSITY_CASES)


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> Dict:
    if not (SRC / "statindex" / "cli.py").is_file():
        raise BenchError(f"no statindex sources under {SRC}; run from a source checkout")
    work = HERE / "_out" / f"run-{workload}-{seed}-{int(time.time() * 1e6)}"
    try:
        requests = workloads.build(workload, seed, work / "inputs", size)
        out_dir = work / "outputs"
        out_dir.mkdir(parents=True)
        job_path = work / "job.json"
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump({"requests": [{"id": r["id"], "argv": r["argv"]} for r in requests],
                       "out_dir": str(out_dir), "trace": trace}, handle)
        problems = _library_failures(workload)
        judge = Judge(requests)
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            result = run_pass(job_path, out_dir)
            result["verdicts"] = [judge(r, out_dir) for r in result["requests"]]
            passes.append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = 0
    for result in passes:
        for r, verdict in zip(result["requests"], result["verdicts"]):
            if verdict == "ok":
                continue
            failed += 1
            request = judge.requests[r["id"]]
            if verdict == "wrong" or not request.get("fault"):
                problems.append(f"{verdict}: {' '.join(request['argv'])[:200]}")
    pass_sums = [sum(r["elapsed_s"] for r in result["requests"]) for result in passes]
    if trace:
        metrics = {name: {"value": statistics.median([p["layers"].get(name, 0.0) for p in passes]),
                          "unit": unit}
                   for name, unit in tracing.PER_LAYER.items()}
        metrics["trace.pass_s"] = {"value": statistics.median(pass_sums), "unit": "s"}
    else:
        latencies_ms = [r["elapsed_s"] * 1e3 for result in passes for r in result["requests"]]
        values = {
            "setup_s": statistics.median([p["setup_s"] for p in passes]),
            "pass_s": statistics.median(pass_sums),
            "req_p50_ms": statistics.median(latencies_ms),
            "req_p90_ms": statistics.quantiles(latencies_ms, n=10)[-1],
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for problem in dict.fromkeys(problems):
        print(problem, file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(requests) * len(passes),
        "failed": failed,
        "metrics": metrics,
        "passes": len(passes),
    }


def main(argv: List[str]) -> int:
    args = _parse(argv)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    passes = report.pop("passes")
    print(f"{args.workload}: {passes} passes, {report['attempted'] // passes} requests each")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
