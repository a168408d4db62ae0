"""Benchmark of the gradlocus command line on the torus-m{m} family.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it benchmarks the package
under ./src and reads metric names and units from ./BENCHMARK.json.
Each workload is one gradlocus verb on inputs drawn from --seed (see
torus.py).  One closed-loop client (worker.py, a single process, one
command at a time, no thread pool) calls the verb for --seconds and
checks every output against a closed-form oracle.

With --trace 0 the last line of output is the end-to-end result: the
median setup time, the mean wall time per call, items per second at
that time, the yield of certified items, and peak memory.  With
--trace 1 it is the per-layer result, from calls that alternate with
untraced ones.  Lines before it describe the run for a reader: the
workload, the machine, the median, quartiles and minimum of the call
times, the sample counts and the first failures.

The wall time is the mean over the run's calls rather than the median,
because other tenants of a shared machine slow calls down by up to
1.9 times, in spells of seconds to minutes, and the mean averages over
them most smoothly.  On a 2-vCPU Xeon virtual machine, five sets of
ten runs of each workload spread (interquartile range over median) by
at most 0.155 in their mean, 0.20 in their median and 0.26 in their
fastest call.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import torus

TIME_LIMIT = 170.0   # seconds, for the whole run
SETUP_REPS = 15
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import gradlocus.cli
from gradlocus.scenarios import load_scenario
load_scenario(sys.argv[1])
print(time.perf_counter() - t0)
"""


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("GRADLOCUS_THREADS", None)
    env["PYTHONPATH"] = str(src)
    return env


def measure_setup(job, env, deadline) -> list[float]:
    """Seconds to import gradlocus in a fresh interpreter and load and
    validate the workload's scenario, once per repetition."""
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, job["scenario"]], env=env,
            capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()))
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(torus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT

    root = Path.cwd()
    src = root / "src"
    if not (src / "gradlocus" / "cli.py").is_file():
        sys.stderr.write(f"run.py: no gradlocus sources under {src}; run "
                         f"from the root of a source checkout\n")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    w = torus.WORKLOADS[args.workload]
    work = root / ".perfbench-work" / f"{w.name}-{args.seed}-{os.getpid()}"
    env = child_env(src)
    try:
        job = torus.prepare(w, args.seed, work)
        job["src"] = str(src)
        job_path = work / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        setup = [] if args.trace else measure_setup(job, env, deadline)
        result_path = work / "result.json"
        trace_path = root / ".perfbench-out" / f"{w.name}-seed{args.seed}-spans.json"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")),
             str(job_path), str(args.seconds), str(args.trace),
             str(result_path), str(trace_path)],
            env=env, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            sys.stderr.write(f"run.py: worker exited with {proc.returncode}\n")
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: over the {TIME_LIMIT:.0f} s limit\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = result["calls"]
    measured = [c for c in calls if c["measured"]]
    plain = [c["wall"] for c in measured if not c["traced"]]
    traced = [c for c in measured if c["traced"]]
    failed = [c for c in calls if c["n_problems"]]
    q1, median, q3 = statistics.quantiles(plain, n=4)
    wall = statistics.fmean(plain)
    mach = result["machine"]

    print(f"workload {w.name}: gradlocus {w.verb} on torus-m{w.m}, {job['size']} "
          f"{w.unit} per call, seed {args.seed}, trace {args.trace}")
    why = {x["name"]: x["why"] for x in spec["workloads"]}
    print(f"  why: {why.get(w.name)}")
    print(f"  machine: nproc {mach['nproc']}, Python {mach['python']}, numpy "
          f"{mach['numpy']}, {mach['blas']} with {mach['blas_threads']} threads, "
          f"calibration loop {1e3 * mach['calibration_s_before']:.1f} ms before "
          f"and {1e3 * mach['calibration_s_after']:.1f} ms after")
    print(f"  wall per untraced call: mean {wall:.4f} s, median {median:.4f} s, "
          f"quartiles {q1:.4f} and {q3:.4f} s, minimum {min(plain):.4f} s, "
          f"over {len(plain)} calls")
    print(f"  untraced calls, ms: {' '.join(f'{1e3 * t:.0f}' for t in plain)}")
    if setup:
        print(f"  setup: median {statistics.median(setup):.4f} s, fastest "
              f"{min(setup):.4f} s, over {len(setup)} fresh interpreters")
    infos = [c["info"] for c in calls if c["info"]]
    if infos and "dimension_estimate" in infos[-1]:
        print(f"  dimension_estimate {infos[-1]['dimension_estimate']} "
              f"(reported, not checked)")
    if args.trace:
        print(f"  layers {w.verb} never reaches, whose metrics read 0: "
              f"{', '.join(sorted(w.skips))}")
    print(f"  {len(failed)} of {len(calls)} calls failed")
    for c in failed[:3]:
        print(f"    exit code {c['rc']}: {'; '.join(c['problems'])}")

    if args.trace:
        values = {name: statistics.median(c["layers"][name] for c in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead"] = statistics.fmean(c["wall"] for c in traced) / wall
        print(f"  per-layer figures: medians over {len(traced)} traced calls; "
              f"spans of the last one in {trace_path.relative_to(root)}")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "items_per_s": job["size"] / wall,
            "yield_ratio": statistics.median(c["yield"] for c in measured),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
