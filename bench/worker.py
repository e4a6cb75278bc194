"""One pass of a workload in a fresh interpreter.

    python3 bench/worker.py JOB_JSON SPAWN_TIME

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process (a system-wide monotonic clock on Linux), so set-up time runs
from interpreter start until ``statindex.cli`` is imported.  Each request
calls ``statindex.cli.main(argv)`` with stdout sent to a file; the parent
checks those files after the worker has exited.
"""

import sys
import time

SPAWNED = float(sys.argv[2])

import os  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import statindex.cli  # noqa: E402

SETUP_S = time.perf_counter() - SPAWNED

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402


def _call(argv):
    """(exit code, traceback text or None) of one in-process CLI call."""
    try:
        return statindex.cli.main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), None
    except Exception:
        return None, traceback.format_exc()


def _peak_rss_mb() -> float:
    """High-water resident set of this process.  VmHWM starts afresh at exec;
    ru_maxrss would also carry the parent's size from before the fork."""
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    with open(sys.argv[1], "r", encoding="utf-8") as handle:
        job = json.load(handle)
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.install(statindex)
    results = []
    for request in job["requests"]:
        path = os.path.join(job["out_dir"], f"{request['id']}.out")
        err = io.StringIO()
        with open(path, "w", encoding="utf-8") as out:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                rc, tb = _call(request["argv"])
                out.flush()
                elapsed = time.perf_counter() - start
        results.append({"id": request["id"], "rc": rc, "traceback": tb,
                        "stderr": err.getvalue(), "elapsed_s": elapsed})
    peak_rss_mb = _peak_rss_mb()
    result = {
        "setup_s": SETUP_S,
        "peak_rss_mb": peak_rss_mb,
        "requests": results,
        "layers": dict(tracer.values) if tracer else None,
    }
    with open(os.path.join(job["out_dir"], "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
