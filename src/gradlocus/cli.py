"""Command-line front end.

Verbs::

    gradlocus check     --scenario s.json [--points N] [--seed N] [--out DIR]
    gradlocus locus     --scenario s.json [--out DIR] [--points N] [--seed N]
    gradlocus demo      NAME [--out DIR] [--points N] [--seed N]
    gradlocus dimension CSV [--out DIR]
    gradlocus charts    CSV --scenario s.json [--out DIR]

All randomness flows from the scenario's (or --seed's) rng_seed; with
a fixed seed the CSV output is byte-stable and the JSON output is
byte-stable apart from its ``generated_at`` timestamp.  Floats are
serialized with their shortest round-trip decimal representation.
``locus`` exits 0 exactly when no certified sample lacks a chart and
the number of distinct charts stays within the binomial bound.
``--points`` must be at least 1.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import GradlocusError, TooFewPoints
from .geometry import FormKind, companion_map
from .integrability import (equivalence_probe, gamma_obstruction,
                            obstruction_matrix, residual)
from .locus import (DIMENSION_CAVEAT, all_charts, box_counting_dimension,
                    build_phi, certify, default_scales, halton_sequence,
                    sample_locus, verify_cover)
from .scenarios import (Scenario, builtin_demos, load_scenario,
                        scenario_to_dict)

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_ERROR = 2


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _fmt_float(v) -> str:
    return repr(float(v))


def _write_json(payload: dict, path: Path | None):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, encoding="utf-8")


def _tolerance_block(opts) -> dict:
    return {"residual": opts.tol_residual, "gamma": opts.tol_gamma,
            "rank": opts.tol_rank}


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    opts = scenario.options.with_overrides(
        tol_residual=args.tol_residual,
        tol_gamma=args.tol_gamma,
        tol_rank=getattr(args, "tol_rank", None),
    )
    rng_seed = scenario.rng_seed if args.seed is None else args.seed
    opts = opts.with_overrides(rng_seed=rng_seed)
    n_seeds = scenario.n_seeds
    if args.points is not None and args.command in ("locus", "demo"):
        n_seeds = args.points
    return dataclasses.replace(scenario, n_seeds=n_seeds, rng_seed=rng_seed,
                               options=opts)


# ---------------------------------------------------------------------------
# check


def cmd_check(scenario: Scenario, n_points: int, out_dir: Path | None) -> int:
    pair = companion_map(scenario.form)
    box = scenario.box_array()
    rng = np.random.default_rng(scenario.rng_seed)
    shift = rng.random(scenario.dim)
    pts = halton_sequence(n_points, scenario.dim, shift)
    pts = box[:, 0] + pts * (box[:, 1] - box[:, 0])

    sides = ["left", "right"]
    if scenario.form.kind is FormKind.SYMMETRIC:
        sides.append("symmetric")
    if scenario.form.kind is FormKind.SKEW_SYMMETRIC and scenario.dim % 2 == 0:
        sides.append("symplectic")

    tol = scenario.options.tol_gamma
    conditions = {}
    matched_rel_max = None
    for side in sides:
        res = np.atleast_1d(residual(pair, scenario.F, pts, side))
        C = obstruction_matrix(pair, side)
        scale = 1.0 + np.sqrt(np.sum((C @ scenario.F.jacobian(pts)) ** 2,
                                     axis=(1, 2)))
        rel = res / scale
        conditions[side] = {
            "max": float(res.max()),
            "mean": float(res.mean()),
            "max_relative": float(rel.max()),
        }
        if side == scenario.side:
            matched_rel_max = float(rel.max())

    gamma_rel_max = 0.0
    decisive = 0
    if scenario.dim % 2 == 0:
        values, scales = gamma_obstruction(pair, scenario.F, pts,
                                           scenario.side)
        rel = np.abs(values) / scales
        gamma_rel_max = float(rel.max())
        decisive = int(np.sum(rel > 10.0 * tol))

    probe = equivalence_probe(pair, scenario.F, pts, tol=tol)

    if matched_rel_max is not None and matched_rel_max <= tol \
            and gamma_rel_max <= tol:
        verdict = "integrable everywhere sampled"
    elif decisive > 0:
        verdict = "non-integrable obstruction present"
    else:
        verdict = "indeterminate"

    payload = {
        "scenario": scenario.name,
        "dim": scenario.dim,
        "side": scenario.side,
        "n_points": n_points,
        "rng_seed": scenario.rng_seed,
        "conditions": conditions,
        "obstruction": {
            "max_relative": gamma_rel_max,
            "decisive_nonzero_points": decisive,
        },
        "equivalence_probe": {
            "points": probe.points,
            "checks": probe.checks,
            "violations": probe.violations,
            "gray_excluded": probe.gray_excluded,
        },
        "verdict": verdict,
        "tolerances": _tolerance_block(scenario.options),
        "note": "nonzero decisions use |value| > tol * scale with a 10x gray zone",
        "generated_at": _timestamp(),
    }
    _write_json(payload, out_dir / "check.json" if out_dir else None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# locus


def _write_points_csv(path: Path, dim: int, m: int, samples):
    charts = all_charts(m)
    chart_pos = {c: i for i, c in enumerate(charts)}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{i + 1}" for i in range(dim)]
                        + ["phi_norm", "gamma_value", "gamma_scale",
                           "chart_mask", "certified"])
        for s in samples:
            mask = 0
            for c in s.charts:
                mask |= 1 << chart_pos[c]
            writer.writerow([_fmt_float(v) for v in s.x]
                            + [_fmt_float(s.phi_norm),
                               _fmt_float(s.gamma_value),
                               _fmt_float(s.gamma_scale),
                               str(mask), "1" if s.certified else "0"])


def cmd_locus(scenario: Scenario, out_dir: Path) -> int:
    if scenario.dim % 2:
        raise GradlocusError(
            f"dim: locus extraction needs even dimension, got {scenario.dim}")
    pair = companion_map(scenario.form)
    phi = build_phi(pair, scenario.f, scenario.F, scenario.side)
    samples = sample_locus(phi, scenario.box_array(), scenario.n_seeds,
                           scenario.options)
    cover = verify_cover(samples, phi.m,
                         tol_residual=scenario.options.tol_residual,
                         tol_gamma=scenario.options.tol_gamma)

    certified_pts = np.array([s.x for s in samples if s.certified])
    dim_est = fit_r2 = None
    dim_note = DIMENSION_CAVEAT
    dim_detail = None
    if certified_pts.shape[0] >= 50:
        box = scenario.box_array()
        scales = default_scales(float(np.linalg.norm(box[:, 1] - box[:, 0])))
        est = box_counting_dimension(certified_pts, scales)
        dim_est, fit_r2 = est.estimate, est.fit_r2
        dim_detail = {"scales": list(est.scales),
                      "counts": list(est.counts),
                      "used": [bool(u) for u in est.used]}
    else:
        dim_note += " (skipped: fewer than 50 certified samples)"

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_points_csv(out_dir / "points.csv", scenario.dim, phi.m, samples)

    payload = {
        "scenario": scenario.name,
        "dim": scenario.dim,
        "side": scenario.side,
        "n_seeds": scenario.n_seeds,
        "rng_seed": scenario.rng_seed,
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


def _read_points_csv(path: Path):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    coord_cols = [i for i, name in enumerate(header) if name.startswith("x")
                  and name[1:].isdigit()]
    if not coord_cols:
        raise GradlocusError(f"csv: no coordinate columns found in {path}")
    return header, rows, coord_cols


def cmd_dimension(csv_path: Path, out_dir: Path | None) -> int:
    header, rows, coord_cols = _read_points_csv(csv_path)
    if not rows:
        raise TooFewPoints("csv: no data rows")
    pts = np.array([[float(row[i]) for i in coord_cols] for row in rows])
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
    if scenario.dim % 2:
        raise GradlocusError(
            f"dim: chart membership needs even dimension, got {scenario.dim}")
    header, rows, coord_cols = _read_points_csv(csv_path)
    if len(coord_cols) != scenario.dim:
        raise GradlocusError(
            f"csv: {len(coord_cols)} coordinate columns, scenario dim "
            f"{scenario.dim}")
    pair = companion_map(scenario.form)
    phi = build_phi(pair, scenario.f, scenario.F, scenario.side)
    X = np.array([[float(row[i]) for i in coord_cols] for row in rows])
    samples = certify(phi, X.reshape(len(rows), scenario.dim),
                      scenario.options)

    target_dir = out_dir if out_dir else csv_path.parent
    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / (csv_path.stem + "_charts.csv")
    _write_points_csv(target, scenario.dim, phi.m, samples)
    _write_json({
        "csv": str(csv_path),
        "output": str(target),
        "rows": len(samples),
        "recomputed_memberships": sum(
            s.phi_norm <= scenario.options.tol_residual for s in samples),
        "chart_bound": math.comb(scenario.dim, scenario.dim // 2),
        "tolerances": _tolerance_block(scenario.options),
        "generated_at": _timestamp(),
    }, None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


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
        if args.command == "check":
            scenario = _apply_overrides(load_scenario(args.scenario), args)
            n_points = args.points if args.points is not None else 200
            return cmd_check(scenario, n_points, args.out)
        if args.command == "locus":
            scenario = _apply_overrides(load_scenario(args.scenario), args)
            out = args.out if args.out else Path(".")
            return cmd_locus(scenario, out)
        if args.command == "dimension":
            return cmd_dimension(args.csv, args.out)
        if args.command == "charts":
            scenario = _apply_overrides(load_scenario(args.scenario), args)
            return cmd_charts(args.csv, scenario, args.out)
        if args.command == "demo":
            demos = builtin_demos()
            if args.name not in demos:
                available = ", ".join(sorted(demos))
                sys.stderr.write(
                    f"gradlocus: error: name: unknown demo "
                    f"{args.name!r}; available: {available}\n")
                return EXIT_ERROR
            scenario = _apply_overrides(demos[args.name], args)
            out = args.out if args.out else Path(args.name)
            out.mkdir(parents=True, exist_ok=True)
            _write_json(scenario_to_dict(scenario), out / "scenario.json")
            return cmd_locus(scenario, out)
        raise AssertionError(f"unhandled command {args.command}")
    except GradlocusError as exc:
        sys.stderr.write(f"gradlocus: error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
