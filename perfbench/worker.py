"""Closed-loop client: one process that calls ``gradlocus.cli.main``
one command at a time, times each call, and checks each call's output
against the workload's closed-form oracle.

    python3 perfbench/worker.py JOB.json SECONDS TRACE RESULT.json TRACE_OUT.json

run.py starts it with the checkout's ``src`` on PYTHONPATH and without
GRADLOCUS_THREADS.  After one warm-up call it calls until SECONDS have
passed (at least three measured calls).  With TRACE 1 it alternates
untraced and traced calls, so the two can be compared, and writes the
spans of the last traced call to TRACE_OUT.json.  A traced call fails
when a trace target is missing from the code or a layer the workload
runs (every span name of tracing.TARGETS outside the workload's skips)
recorded no span.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import torus
from tracing import Tracer, layer_metrics, lost

MIN_CALLS = 3
CALIBRATION_LOOP = 200_000
CALIBRATION_REPS = 5


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop; a slow spell of the
    machine shows as a larger value."""
    times = []
    for _ in range(CALIBRATION_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_threads": threads}


def call(main, argv):
    """(exit code, traceback or None, wall seconds) of one call, with its
    terminal output discarded."""
    sink = io.StringIO()
    tb = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        tb = traceback.format_exc()
    wall = time.perf_counter() - t0
    return rc, tb, wall


def main():
    job_path, seconds, trace, result_path, trace_path = sys.argv[1:6]
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    seconds, trace = float(seconds), trace == "1"

    import gradlocus
    from gradlocus.cli import main as cli_main
    src = Path(job["src"]).resolve()
    if src not in Path(gradlocus.__file__).resolve().parents:
        sys.exit(f"worker: imported gradlocus from {gradlocus.__file__}, "
                 f"not from {src}")

    oracle = torus.ORACLES[job["verb"]]
    skips = torus.WORKLOADS[job["workload"]].skips
    out_dir = Path(job["out"])
    tracer = Tracer()
    calls, last_spans = [], None
    info = machine_info()
    info["calibration_s_before"] = calibrate()

    def one(traced: bool, measured: bool):
        nonlocal last_spans
        for stale in out_dir.glob("*"):  # each call must write its own output
            stale.unlink()
        if traced:
            tracer.install()
        try:
            rc, tb, wall = call(cli_main, job["argv"])
        finally:
            tracer.uninstall()
        record = {"wall": wall, "traced": traced, "measured": measured,
                  "rc": rc, "yield": 0.0, "info": None}
        if tb is not None:
            problems = [tb.strip().splitlines()[-1]]
        else:
            try:
                verdict = oracle(job, rc)
                problems = verdict.problems
                record["yield"], record["info"] = verdict.yield_ratio, verdict.info
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"output unreadable: {exc!r}"]
        if traced:
            last_spans = tracer.take()
            record["layers"] = layer_metrics(last_spans, wall)
            problems += lost(last_spans, tracer.missing, skips)
        record["problems"] = problems[:5]
        record["n_problems"] = len(problems)
        calls.append(record)

    one(traced=False, measured=False)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < (2 * MIN_CALLS if trace else MIN_CALLS):
        one(traced=trace and i % 2 == 1, measured=True)
        i += 1

    info["calibration_s_after"] = calibrate()
    result = {
        "machine": info,
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    if last_spans is not None:
        Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
        Path(trace_path).write_text(json.dumps({
            "workload": job["workload"], "seed": job["seed"],
            "fields": ["name", "start", "end", "parent", "ok", "note"],
            "spans": last_spans}), encoding="utf-8")


if __name__ == "__main__":
    main()
