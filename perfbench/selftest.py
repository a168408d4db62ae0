"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Run it from the root of a source checkout.  For every workload it
  1. runs the closed-loop worker briefly with tracing on, and requires
     every call to pass its oracle and every per-layer metric named in
     BENCHMARK.json to be produced; then drops the spans of one layer
     the workload runs from a traced call, and requires that loss to
     be reported;
  2. runs the command once more, requires the oracle to accept the
     output, then corrupts one output row or value and requires the
     oracle to reject it.
Last, it runs run.py in a directory holding only BENCHMARK.json and
perfbench/, where it must fail without printing a result.  Exits 0
when every check passes.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import torus
from run import child_env
from tracing import lost

TINY = {"locus": 60, "check": 300}


def _rewrite_csv(path: Path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _rewrite_json(path: Path, edit):
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def corrupt(job):
    """Damage one value of the command's output, as a wrong answer would."""
    out = Path(job["out"])
    verb = job["verb"]
    if verb == "locus":      # move the first sample off the locus
        def edit(rows):
            rows[1][0] = repr(float(rows[1][0]) + 1e-3)
        _rewrite_csv(out / "points.csv", edit)
    elif verb == "check":
        _rewrite_json(out / "check.json", lambda d: d["obstruction"].update(
            max_relative=d["obstruction"]["max_relative"] * (1 + 1e-6)))


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = {m["name"] for m in spec["per_layer"]} - {"trace.overhead"}
    scratch = root / ".perfbench-work" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    env = child_env(src)
    failures = []

    def expect(ok, what):
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    try:
        for w in torus.WORKLOADS.values():
            job = torus.prepare(w, 3, scratch / w.name, size=TINY[w.verb])
            job["src"] = str(src)
            job_path = scratch / w.name / "job.json"
            job_path.write_text(json.dumps(job), encoding="utf-8")
            result_path = scratch / w.name / "result.json"
            subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")),
                            str(job_path), "0", "1", str(result_path),
                            str(scratch / w.name / "spans.json")],
                           env=env, check=True, timeout=300)
            result = json.loads(result_path.read_text(encoding="utf-8"))
            calls = result["calls"]
            expect(all(c["n_problems"] == 0 for c in calls),
                   f"{w.name}: {len(calls)} calls pass the oracle")
            traced = [c for c in calls if c["traced"]]
            expect(bool(traced) and layers <= set(traced[0]["layers"]),
                   f"{w.name}: every per-layer metric is traced")
            spans = json.loads((scratch / w.name / "spans.json").read_text(
                encoding="utf-8"))["spans"]
            gone = spans[-1][0]
            kept = [s for s in spans if s[0] != gone]
            expect(lost(kept, [], w.skips) == [f"layer {gone} recorded no span"]
                   and lost(spans, ["locus.x"], w.skips) != [],
                   f"{w.name}: a lost layer ({gone}) or trace target fails "
                   f"the call")

            proc = subprocess.run([sys.executable, "-m", "gradlocus.cli"] + job["argv"],
                                  env=env, capture_output=True, text=True,
                                  timeout=300)
            oracle = torus.ORACLES[job["verb"]]
            verdict = oracle(job, proc.returncode)
            expect(not verdict.problems, f"{w.name}: oracle accepts the output")
            corrupt(job)
            verdict = oracle(job, proc.returncode)
            expect(bool(verdict.problems),
                   f"{w.name}: oracle rejects a corrupted output "
                   f"({verdict.problems[:1]})")

        bare = scratch / "bare"
        shutil.copytree(Path(__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare)
        proc = subprocess.run(
            spec["command"] + ["--workload", w.name, "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               f"without sources run.py exits {proc.returncode} and prints "
               f"no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(failures)} checks failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
