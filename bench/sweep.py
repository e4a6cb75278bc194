"""Reference scaling sweep of the two slowest symbolic requests.

    python3 bench/sweep.py

Runs ``index fb cpN`` for N = 2..8 and ``genus todd --degree d`` for
d = 2..9, each once in a fresh worker (so the genus cache is cold), checks
each answer and prints its latency.  The whole sweep takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import checks
import exact
import run


def cases():
    for n in range(2, 9):
        yield {"argv": ["index", "fb", f"cp{n}"], "fmt": "text", "check": "index",
               "expect": str(exact.signature([("cp", n)]))}
    for d in range(2, 10):
        yield {"argv": ["--format", "json", "genus", "todd", "--degree", str(d)], "fmt": "json",
               "check": "genus_degree", "kind": "todd", "degree": d, "split": 1}


def main() -> int:
    work = run.HERE / "_out" / f"sweep-{int(time.time() * 1e6)}"
    out_dir = work / "outputs"
    out_dir.mkdir(parents=True)
    try:
        for request in cases():
            request["id"] = 0
            job = work / "job.json"
            with open(job, "w", encoding="utf-8") as handle:
                json.dump({"requests": [request], "out_dir": str(out_dir), "trace": False}, handle)
            (result,) = run.run_pass(job, out_dir)["requests"]
            stdout = (out_dir / "0.out").read_text(encoding="utf-8")
            verdict = checks.verdict(request, dict(result, stdout=stdout))
            label = " ".join(a for a in request["argv"] if a not in ("--format", "json"))
            print(f"{label:28s} {result['elapsed_s']:9.3f} s  {verdict}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
