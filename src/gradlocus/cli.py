"""Command-line front end.

Verbs::

    gradlocus check     --scenario s.json [--points N] [--seed N] [--out DIR]
    gradlocus locus     --scenario s.json [--out DIR] [--points N] [--seed N]
    gradlocus demo      NAME [--out DIR] [--points N] [--seed N]
    gradlocus dimension CSV [--out DIR]
    gradlocus charts    CSV --scenario s.json [--out DIR]

All randomness flows from ``scenario.options.rng_seed`` (set by
--seed), through ``box_halton`` for both check points and locus seeds;
with a fixed seed the CSV output is byte-stable and the JSON output is
byte-stable apart from its ``generated_at`` timestamp.  Floats are
serialized with their shortest round-trip decimal representation.
The verbs load a scenario, call the library and write files; every
pointwise rule is the library's (an odd dimension fails in
``build_phi``; too few certified samples for ``box_counting_dimension``
skip the dimension estimate).  ``locus`` exits 0 exactly when
``verify_cover`` reports ok.  ``check`` writes the numbers and the
verdict of ``integrability.check`` with the scenario, the tolerances
and a note on the gray zone.
``--points`` must be at least 1; the ``--tol-*`` values and ``--seed``
are checked by ``LocusOptions``, and a bad one exits 2 with one error
line.  A CSV file is read inside ``errors.reading``, so one that cannot
be read or parsed fails as ``csv: ...``, and an ``--out`` directory
that cannot be made or written fails as ``out: ...``.  ``main`` is the
only writer of ``gradlocus: error:`` lines: every ``GradlocusError``
exits 2 with one line.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import GradlocusError, TooFewPoints, reading
from .geometry import companion_map
from .integrability import GRAY_FACTOR, check
from .locus import (DIMENSION_CAVEAT, MIN_DIMENSION_POINTS,
                    box_counting_dimension, box_diameter, build_phi, certify,
                    default_scales, sample_locus, verify_cover)
from .scenarios import (TOLERANCE_KEYS, Scenario, builtin_demos,
                        load_scenario, scenario_to_dict)

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_ERROR = 2


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _out_dir(path: Path) -> Path:
    """path, made a directory unless it is one; a path that cannot be
    one (a file, or below a file) fails as ``out: ...``."""
    with reading("out"):
        path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(payload: dict, path: Path | None):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with reading("out"):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


# the three thresholds; the --tol-* flags are stored under their fields
_THRESHOLDS = {key: field for key, field in TOLERANCE_KEYS.items()
               if field.startswith("tol_")}


def _tolerance_block(opts) -> dict:
    return {key: getattr(opts, field) for key, field in _THRESHOLDS.items()}


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    opts = scenario.options.with_overrides(
        rng_seed=args.seed,
        **{field: getattr(args, field) for field in _THRESHOLDS.values()})
    n_seeds = scenario.n_seeds
    if args.points is not None and args.command in ("locus", "demo"):
        n_seeds = args.points
    return dataclasses.replace(scenario, n_seeds=n_seeds, options=opts)


# ---------------------------------------------------------------------------
# check


def cmd_check(scenario: Scenario, n_points: int, out_dir: Path | None) -> int:
    opts = scenario.options
    report = check(companion_map(scenario.form), scenario.F, scenario.side,
                   scenario.box_array(), n_points, opts.rng_seed, opts.tol_gamma)
    payload = {
        "scenario": scenario.name,
        "dim": scenario.dim,
        "side": scenario.side,
        "n_points": n_points,
        "rng_seed": opts.rng_seed,
        **report,
        "tolerances": _tolerance_block(opts),
        "note": ("nonzero decisions use |value| > tol * scale with a "
                 f"{GRAY_FACTOR:g}x gray zone"),
        "generated_at": _timestamp(),
    }
    _write_json(payload, out_dir / "check.json" if out_dir else None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# locus


def _write_points_csv(path: Path, samples):
    """One row per sample: the float columns by ``repr``, then the chart
    bitmask (bit k for chart ``all_charts(m)[k]``) and certified as 0/1."""
    floats = np.column_stack([samples.x, samples.phi_norm,
                              samples.gamma_value, samples.gamma_scale])
    masks = np.packbits(samples.charts, axis=1, bitorder="little")
    header = ([f"x{i + 1}" for i in range(samples.x.shape[1])]
              + ["phi_norm", "gamma_value", "gamma_scale", "chart_mask",
                 "certified"])
    with reading("out"), open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(
            f"{','.join(map(repr, row))},"
            f"{int.from_bytes(mask, 'little')},{int(ok)}\n"
            for row, mask, ok in zip(floats.tolist(), masks.tolist(),
                                     samples.certified.tolist()))


def cmd_locus(scenario: Scenario, out_dir: Path) -> int:
    pair = companion_map(scenario.form)
    phi = build_phi(pair, scenario.f, scenario.F, scenario.side)
    samples = sample_locus(phi, scenario.box_array(), scenario.n_seeds,
                           scenario.options)
    cover = verify_cover(samples)

    certified_pts = samples.x[samples.certified]
    box = scenario.box_array()
    scales = default_scales(box_diameter(box[:, 0], box[:, 1]))
    try:
        est = box_counting_dimension(certified_pts, scales)
    except TooFewPoints:
        dim_est = fit_r2 = dim_detail = None
        dim_note = (f"{DIMENSION_CAVEAT} (skipped: fewer than "
                    f"{MIN_DIMENSION_POINTS} certified samples)")
    else:
        dim_est, fit_r2, dim_note = est.estimate, est.fit_r2, est.note
        dim_detail = {"scales": list(est.scales),
                      "counts": list(est.counts),
                      "used": [bool(u) for u in est.used]}

    _write_points_csv(_out_dir(out_dir) / "points.csv", samples)

    payload = {
        "scenario": scenario.name,
        "dim": scenario.dim,
        "side": scenario.side,
        "n_seeds": scenario.n_seeds,
        "rng_seed": scenario.options.rng_seed,
        "sample_count": cover.total_samples,
        "certified_count": cover.certified_count,
        "uncovered_count": cover.uncovered_count,
        "charts_used": cover.charts_used,
        "chart_bound": cover.chart_bound,
        "per_chart_counts": {",".join(map(str, k)): v
                             for k, v in sorted(cover.per_chart.items())},
        "dimension_estimate": dim_est,
        "dimension_fit_r2": fit_r2,
        "dimension_detail": dim_detail,
        "dimension_note": dim_note,
        "tolerances": _tolerance_block(scenario.options),
        "generated_at": _timestamp(),
    }
    _write_json(payload, out_dir / "summary.json")
    return EXIT_OK if cover.ok else EXIT_CONTRACT


# ---------------------------------------------------------------------------
# dimension / charts on existing CSVs


def _read_points_csv(path: Path) -> np.ndarray:
    """The coordinate columns of a CSV as a finite array: the headers
    x<digits> must read x1, x2, ..., xk in order (other columns may sit
    between them)."""
    with reading("csv"), open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows.pop(0) if rows else []
    cols = [i for i, name in enumerate(header)
            if name.startswith("x") and name[1:].isdigit()]
    if not cols:
        raise GradlocusError(f"csv: no coordinate columns found in {path}")
    names = [header[i] for i in cols]
    if names != [f"x{k + 1}" for k in range(len(cols))]:
        raise GradlocusError(f"csv: coordinate columns {','.join(names)}, "
                             f"expected x1..x{len(cols)} in order")
    try:  # every cell through float() in one call
        cells = [row[i] for row in rows for i in cols]
        X = np.fromiter(map(float, cells), float, len(cells))
    except (ValueError, IndexError):
        _raise_bad_row(rows, cols, len(header))
    X = X.reshape(len(rows), len(cols))
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise GradlocusError(f"csv: row {bad[0] + 1}: non-finite coordinate")
    return X


def _raise_bad_row(rows, cols, width: int):
    """The error of the first row whose coordinates do not all read as
    floats, from its first cell that fails, left to right."""
    for r, row in enumerate(rows):
        try:
            for i in cols:
                float(row[i])
        except ValueError as exc:
            raise GradlocusError(f"csv: row {r + 1}: {exc}") from None
        except IndexError:
            raise GradlocusError(f"csv: row {r + 1}: {len(row)} fields, "
                                 f"header has {width}") from None


def cmd_dimension(csv_path: Path, out_dir: Path | None) -> int:
    pts = _read_points_csv(csv_path)
    est = box_counting_dimension(pts)
    payload = {
        "csv": str(csv_path),
        "points": int(pts.shape[0]),
        "dimension_estimate": est.estimate,
        "fit_r2": est.fit_r2,
        "scales": list(est.scales),
        "counts": list(est.counts),
        "used": [bool(u) for u in est.used],
        "note": est.note,
        "generated_at": _timestamp(),
    }
    _write_json(payload, out_dir / "dimension.json" if out_dir else None)
    return EXIT_OK


def cmd_charts(csv_path: Path, scenario: Scenario, out_dir: Path | None) -> int:
    pair = companion_map(scenario.form)
    phi = build_phi(pair, scenario.f, scenario.F, scenario.side)
    X = _read_points_csv(csv_path)
    if X.shape[1] != scenario.dim:
        raise GradlocusError(
            f"csv: {X.shape[1]} coordinate columns, scenario dim "
            f"{scenario.dim}")
    samples = certify(phi, X, scenario.options)

    target = (_out_dir(out_dir if out_dir else csv_path.parent)
              / (csv_path.stem + "_charts.csv"))
    _write_points_csv(target, samples)
    _write_json({
        "csv": str(csv_path),
        "output": str(target),
        "rows": len(samples),
        "recomputed_memberships": int(samples.charts.any(1).sum()),
        "chart_bound": verify_cover(samples).chart_bound,
        "tolerances": _tolerance_block(scenario.options),
        "generated_at": _timestamp(),
    }, None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


# built once per process: parse_args leaves the parser unchanged and
# returns a new namespace on every call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradlocus",
        description="Integrability checks and non-integrable locus "
                    "extraction for gradient-like fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required=True):
        p.add_argument("--scenario", type=Path, required=scenario_required,
                       help="scenario JSON file")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory")
        p.add_argument("--points", type=int, default=None,
                       help="sample points (check) or seed count (locus/demo)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario rng_seed")
        p.add_argument("--tol-residual", type=float, default=None)
        p.add_argument("--tol-gamma", type=float, default=None)
        p.add_argument("--tol-rank", type=float, default=None)

    common(sub.add_parser("check", help="pointwise integrability report"))
    common(sub.add_parser("locus", help="extract and certify the locus"))

    p_dim = sub.add_parser("dimension", help="box-count an existing CSV")
    p_dim.add_argument("csv", type=Path)
    p_dim.add_argument("--out", type=Path, default=None)

    p_charts = sub.add_parser("charts",
                              help="recompute chart memberships for a CSV")
    p_charts.add_argument("csv", type=Path)
    common(p_charts)

    p_demo = sub.add_parser("demo", help="run a built-in demo scenario")
    p_demo.add_argument("name", nargs="?", default=None)
    common(p_demo, scenario_required=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "points", None) is not None and args.points < 1:
            raise GradlocusError(f"points: must be >= 1, got {args.points}")
        if args.command == "dimension":
            return cmd_dimension(args.csv, args.out)
        if args.command == "demo":
            demos = builtin_demos()
            if args.name not in demos:
                raise GradlocusError(f"name: unknown demo {args.name!r}; "
                                     f"available: {', '.join(sorted(demos))}")
            scenario = _apply_overrides(demos[args.name], args)
            out = _out_dir(args.out if args.out else Path(args.name))
            _write_json(scenario_to_dict(scenario), out / "scenario.json")
            return cmd_locus(scenario, out)
        scenario = _apply_overrides(load_scenario(args.scenario), args)
        if args.command == "check":
            return cmd_check(scenario, args.points or 200, args.out)
        if args.command == "locus":
            return cmd_locus(scenario, args.out or Path("."))
        return cmd_charts(args.csv, scenario, args.out)
    except GradlocusError as exc:
        sys.stderr.write(f"gradlocus: error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
