import copy
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gradlocus import (LocusOptions, ScenarioError, build_phi,
                       builtin_demos, certify, companion_map, load_scenario,
                       sample_locus, scenario_from_dict, verify_cover)
from gradlocus import cli, integrability
from gradlocus.cli import main
from gradlocus.integrability import (CHECK_STACK_BYTES, GRAY_FACTOR,
                                     conditions, distinct_sides)
from gradlocus.locus import box_halton, halton_sequence
from gradlocus.scenarios import scenario_to_dict, structure_from_dict

from oracles import (GENERAL_Q, check_by_side, point_report, sample_rows,
                     write_points_csv)


def circle_dict(**overrides):
    base = scenario_to_dict(builtin_demos()["circle-m1"])
    base.update(overrides)
    return base


def euclidean_dict(dim):
    """Euclidean R^dim with F = x, the identity field."""
    return circle_dict(name=f"euclidean-{dim}", dim=dim,
                       structure={"kind": "euclidean", "dim": dim},
                       F=[f"x{i + 1}" for i in range(dim)],
                       box=[[-1.0, 1.0]] * dim)


def _load_perfbench(name):
    """perfbench/{name}.py, loaded by path: torus, the benchmark's
    torus-m{m} scenario family and its closed-form output oracles, or
    tracing, the spans it times each layer with."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


perfbench_torus = _load_perfbench("torus")
perfbench_tracing = _load_perfbench("tracing")
_TORUS = {f"torus-m{m}": perfbench_torus.scenario(m, 100, 11) for m in (2, 4)}
# the three demos, the torus family, a general Q with Q^T != +-Q, where left
# and right have different obstruction matrices, in R^2 and in R^8 (the
# torus-m4 fields with Q = I + ones on the superdiagonal, so that both N
# stacks are large), a dense symmetric Q, where right's numbers now come
# from left's C = Q^T, and Euclidean R^3, with three conditions and no
# Gamma-power (odd dimension)
GENERAL_Q_SCENARIOS = ("general-q", "general-q-r8")
CHECK_SCENARIOS = {
    **{name: scenario_to_dict(s) for name, s in builtin_demos().items()},
    **_TORUS,
    "general-q": circle_dict(name="general-q", structure={
        "kind": "general", "Q": GENERAL_Q.tolist()}),
    "general-q-r8": {**_TORUS["torus-m4"], "name": "general-q-r8",
                     "structure": {"kind": "general", "Q": (
                         np.eye(8) + np.eye(8, k=1)).tolist()}},
    "general-symmetric": {
        "name": "general-symmetric", "dim": 4,
        "structure": {"kind": "general", "Q": [
            [2.0, 0.3, -0.7, 0.1], [0.3, 1.7, 0.2, 0.9],
            [-0.7, 0.2, 3.1, 0.4], [0.1, 0.9, 0.4, 2.3]]},
        "f": "x1 * x4 + x2^2",
        "F": ["x1 + x2 * x3", "x2 - x1^2", "sin(x3) + x4", "x1 * x4"],
        "box": [[-2.0, 2.0]] * 4, "rng_seed": 5},
    "euclidean-r3": {
        "name": "euclidean-r3", "dim": 3,
        "structure": {"kind": "euclidean", "dim": 3},
        "f": "(x1^2 + x2^2 + x3^2) / 2",
        "F": ["x1 + x2 * x3", "x2 - x1 * x3", "x3"],
        "box": [[-2.0, 2.0]] * 3},
}


def mixed_domain_dict(**overrides):
    """F = (log(x1) + x2, x1 x2) is undefined wherever x1 <= 0."""
    return circle_dict(name="mixed-domain", f="(x1^2+x2^2)/2",
                       F=["log(x1) + x2", "x1*x2"], **overrides)


class TestPointsCsv:
    """The columnar ``cli._write_points_csv`` writes the bytes of the
    per-row ``oracles.write_points_csv``."""

    def masks(self, tmp_path, samples):
        """The chart_mask column, after checking both writers agree."""
        n = samples.x.shape[1]
        cli._write_points_csv(tmp_path / "table.csv", samples)
        write_points_csv(tmp_path / "rows.csv", n, n // 2,
                         sample_rows(samples))
        table = (tmp_path / "table.csv").read_bytes()
        assert table == (tmp_path / "rows.csv").read_bytes()
        return [int(row.split(b",")[-2]) for row in table.splitlines()[1:]]

    @pytest.mark.parametrize("name", [*builtin_demos(), "torus-m4"])
    def test_sampled_loci(self, tmp_path, name):
        s = scenario_from_dict(CHECK_SCENARIOS[name])
        phi = build_phi(companion_map(s.form), s.f, s.F, s.side)
        samples = sample_locus(phi, s.box_array(), s.n_seeds, s.options)
        masks = self.masks(tmp_path, samples)
        assert len(masks) == len(samples)
        if name == "torus-m4":  # 70 charts: masks beyond 64 bits
            assert max(masks) >= 1 << 64

    def test_rows_outside_the_domain(self, tmp_path):
        # Phi is NaN where x1 <= 0; (1, 1) lies on the locus, on both charts
        s = scenario_from_dict(mixed_domain_dict())
        phi = build_phi(companion_map(s.form), s.f, s.F, s.side)
        X = np.array([[-1.0, 0.5], [0.0, 0.0], [1.0, 1.0], [0.5, 0.25]])
        samples = certify(phi, X, s.options)
        assert np.isnan(samples.phi_norm).tolist() == [True, True,
                                                       False, False]
        assert self.masks(tmp_path, samples) == [0, 0, 3, 0]


class TestStructureSpec:
    def test_all_kinds(self):
        euc, _ = structure_from_dict({"kind": "euclidean", "dim": 3})
        assert np.array_equal(euc.Q, np.eye(3))
        sym, _ = structure_from_dict({"kind": "symplectic", "dim": 4})
        assert sym.dim == 4
        pse, _ = structure_from_dict({"kind": "pseudo_euclidean", "p": 2, "q": 2})
        assert pse.signature == (2, 2)
        mink, _ = structure_from_dict({"kind": "minkowski", "dim": 4})
        assert mink.signature == (3, 1)
        gen, spec = structure_from_dict(
            {"kind": "general", "Q": [[1, 1], [0, 1]]})
        assert gen.dim == 2
        assert dict(spec)["kind"] == "general"

    def test_errors_name_the_field(self):
        with pytest.raises(ScenarioError, match="structure.kind"):
            structure_from_dict({"kind": "spherical"})
        with pytest.raises(ScenarioError, match="structure.dim"):
            structure_from_dict({"kind": "symplectic", "dim": 3})
        with pytest.raises(ScenarioError, match="structure.Q"):
            structure_from_dict({"kind": "general"})
        with pytest.raises(ScenarioError, match="structure.Q"):
            structure_from_dict({"kind": "general", "Q": [[1, 1], [1, 1]]})


class TestScenarioValidation:
    def test_round_trip_through_dict(self):
        s = builtin_demos()["plane-m2"]
        back = scenario_from_dict(scenario_to_dict(s))
        assert back.name == s.name
        assert back.dim == s.dim
        assert back.F.components == s.F.components
        assert back.box == s.box
        assert back.options == s.options

    def test_missing_potential(self):
        d = circle_dict()
        del d["f"]
        with pytest.raises(ScenarioError, match="f:"):
            scenario_from_dict(d)

    def test_bad_expression_names_component(self):
        with pytest.raises(ScenarioError, match=r"F\[1\]"):
            scenario_from_dict(circle_dict(F=["x1", "x3 +"]))

    def test_wrong_component_count(self):
        with pytest.raises(ScenarioError, match="F:"):
            scenario_from_dict(circle_dict(F=["x1"]))

    def test_bad_box(self):
        with pytest.raises(ScenarioError, match=r"box\[1\]"):
            scenario_from_dict(circle_dict(box=[[-1, 1], [2, -2]]))
        with pytest.raises(ScenarioError, match="box:"):
            scenario_from_dict(circle_dict(box=[[-1, 1]]))
        # lo < hi, both finite, but hi - lo overflows
        with pytest.raises(ScenarioError, match=r"box\[0\]: need finite"):
            scenario_from_dict(circle_dict(box=[[-1e308, 1e308], [0, 1]]))

    def test_bad_side(self):
        with pytest.raises(ScenarioError, match="side"):
            scenario_from_dict(circle_dict(side="up"))

    def test_unknown_tolerance_key(self):
        with pytest.raises(ScenarioError, match="tolerances.slack"):
            scenario_from_dict(circle_dict(tolerances={"slack": 1}))

    def test_tolerances_override_defaults(self):
        tolerances = {"residual": 1e-9, "gamma": 1e-7, "rank": 1e-5,
                      "max_iters": 30, "damping": 1e-2, "dedup_factor": 1e-4}
        s = scenario_from_dict(circle_dict(tolerances=tolerances,
                                           rng_seed=123))
        assert s.options == LocusOptions(
            tol_residual=1e-9, tol_gamma=1e-7, tol_rank=1e-5, max_iters=30,
            damping=1e-2, dedup_factor=1e-4, rng_seed=123)
        # the round trip keeps all six tolerances and the seed
        d = scenario_to_dict(s)
        assert d["tolerances"] == tolerances and d["rng_seed"] == 123
        assert scenario_from_dict(d).options == s.options

    def test_dim_structure_mismatch(self):
        with pytest.raises(ScenarioError, match="dim"):
            scenario_from_dict(circle_dict(dim=4))

    def test_dim_beyond_halton_bases(self):
        # one Halton base per coordinate, for check points and locus seeds
        assert scenario_from_dict(euclidean_dict(12)).dim == 12
        with pytest.raises(ScenarioError, match=r"^dim: at most 12, .* 14$"):
            scenario_from_dict(euclidean_dict(14))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if "generated_at" not in line)


class TestCli:
    def test_demo_writes_artifacts(self, tmp_path, capsys):
        code = main(["demo", "circle-m1", "--out", str(tmp_path),
                     "--points", "150"])
        assert code == 0
        assert (tmp_path / "scenario.json").exists()
        assert (tmp_path / "points.csv").exists()
        summary = read_json(tmp_path / "summary.json")
        assert summary["uncovered_count"] == 0
        assert summary["charts_used"] <= summary["chart_bound"]
        assert summary["tolerances"]["residual"] == 1e-10

    def test_unknown_demo_lists_names(self, capsys):
        assert main(["demo", "wobble"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "circle-m1" in err and "plane-m2" in err

    def test_check_reports_integrable_control(self, tmp_path, capsys):
        main(["demo", "minkowski-grad", "--out", str(tmp_path / "d"),
              "--points", "50"])
        capsys.readouterr()
        code = main(["check", "--scenario", str(tmp_path / "d/scenario.json"),
                     "--points", "100"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "integrable everywhere sampled"
        assert report["equivalence_probe"]["violations"] == 0
        assert max(c["max_relative"] for c in report["conditions"].values()) \
            <= 1e-8

    def test_check_flags_obstruction(self, tmp_path, capsys):
        main(["demo", "circle-m1", "--out", str(tmp_path / "d"),
              "--points", "60"])
        capsys.readouterr()
        code = main(["check", "--scenario", str(tmp_path / "d/scenario.json")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "non-integrable obstruction present"
        assert report["obstruction"]["decisive_nonzero_points"] > 0

    def test_check_excludes_points_outside_domain(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        spec = mixed_domain_dict()
        scenario.write_text(json.dumps(spec))
        code = main(["check", "--scenario", str(scenario), "--points", "50"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        shift = np.random.default_rng(spec["rng_seed"]).random(2)
        x1 = -2.0 + 4.0 * halton_sequence(50, 2, shift)[:, 0]
        excluded = int(np.sum(x1 <= 0.0))
        assert 0 < excluded < 50
        assert report["n_points"] == 50
        assert report["domain_excluded"] == excluded
        assert report["equivalence_probe"]["points"] == 50 - excluded

    def test_check_all_points_excluded(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(
            mixed_domain_dict(box=[[-2.0, -1.0], [-2.0, 2.0]])))
        code = main(["check", "--scenario", str(scenario), "--points", "20"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gradlocus: error: check: all 20 ")
        assert captured.err.count("\n") == 1

    def test_charts_keeps_rows_outside_domain(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(mixed_domain_dict()))
        points = tmp_path / "points.csv"
        points.write_text("x1,x2\n-1.0,0.5\n1.0,1.0\n")
        assert main(["charts", str(points), "--scenario", str(scenario),
                     "--out", str(tmp_path / "re")]) == 0
        rows = (tmp_path / "re/points_charts.csv").read_text().splitlines()
        assert rows[1].split(",")[2:] == ["nan", "nan", "nan", "0", "0"]
        assert np.all(np.isfinite(np.array(rows[2].split(",")[:5], float)))

    @pytest.mark.parametrize("verb", ["check", "locus"])
    def test_dim_beyond_halton_bases_exits_at_load(self, tmp_path, capsys,
                                                   verb):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(euclidean_dict(14)))
        assert main([verb, "--scenario", str(scenario), "--points", "5",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            "gradlocus: error: dim: at most 12")
        assert not (tmp_path / "out").exists()

    def _check_matches_oracle(self, tmp_path, spec, points):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(spec))
        assert main(["check", "--scenario", str(scenario), "--points",
                     str(points), "--out", str(tmp_path)]) == 0
        report = read_json(tmp_path / "check.json")
        del report["generated_at"]
        assert report == check_by_side(load_scenario(scenario), points)
        return report

    @pytest.mark.parametrize("name", sorted(CHECK_SCENARIOS))
    def test_check_matches_per_side_loop(self, tmp_path, name):
        report = self._check_matches_oracle(tmp_path, CHECK_SCENARIOS[name],
                                            2000)
        conditions = report["conditions"]
        assert (conditions["left"] != conditions["right"]) == \
            (name in GENERAL_Q_SCENARIOS)
        assert ("symmetric" in conditions) == (
            name not in GENERAL_Q_SCENARIOS + ("plane-m2",))

    # check runs in chunks of CHECK_STACK_BYTES // (8 n^2) points, 2048 at
    # n = 8: one point short of a chunk, one chunk, one past it, and four
    # chunks with a partial last one must all equal the one-batch oracle
    @pytest.mark.parametrize("points", [2047, 2048, 2049, 8000])
    @pytest.mark.parametrize("name", ["torus-m4", "general-q-r8",
                                      "mixed-domain"])
    def test_check_chunks_match_one_batch(self, tmp_path, name, points):
        spec = CHECK_SCENARIOS.get(name) or mixed_domain_dict()
        self._check_matches_oracle(tmp_path, spec, points)

    def test_check_with_a_chunk_outside_the_domain(self, tmp_path):
        # log(x1 - 1.999) leaves 2 of 8000 points in the domain, so that
        # the first and the last of the four chunks hold none
        spec = copy.deepcopy(CHECK_SCENARIOS["torus-m4"])
        spec["F"][0] += " + log(x1 - 1.999)"
        step = CHECK_STACK_BYTES // (8 * spec["dim"] ** 2)
        x1 = box_halton(spec["box"], 8000, spec["rng_seed"])[:, 0]
        per_chunk = [int(np.count_nonzero(x1[lo:lo + step] > 1.999))
                     for lo in range(0, 8000, step)]
        assert per_chunk == [0, 1, 1, 0]
        report = self._check_matches_oracle(tmp_path, spec, 8000)
        assert report["domain_excluded"] == 7998

    @pytest.mark.parametrize("name", sorted(
        name for name, spec in CHECK_SCENARIOS.items() if spec["dim"] % 2 == 0))
    def test_check_verdicts_agree_with_point_report(self, tmp_path, name):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(CHECK_SCENARIOS[name]))
        assert main(["check", "--scenario", str(scenario), "--points", "200",
                     "--out", str(tmp_path)]) == 0
        report = read_json(tmp_path / "check.json")
        s = load_scenario(scenario)
        pair = companion_map(s.form)
        points = [point_report(pair, s.F, x, s.side, s.options.tol_gamma)
                  for x in box_halton(s.box_array(), 200, s.options.rng_seed)]
        assert (report["verdict"] == "integrable everywhere sampled") == \
            all(p.verdict_integrable for p in points)
        assert report["obstruction"]["decisive_nonzero_points"] == \
            sum(p.verdict_nonintegrable for p in points)

    # numpy reports its allocations to tracemalloc.  Within a chunk, check
    # holds the Jacobians DF, one N = C DF and one scratch stack N * N for
    # the norm, each at most CHECK_STACK_BYTES; N - N^T is read as its
    # n(n-1)/2 coefficients above the diagonal, under half a stack (3.0
    # stacks with the rest on torus-m4).  On general-q-r8 the Gamma-power's
    # wedge rows add about one more (3.9).  Across
    # chunks it keeps only the points and, per point, three floats per
    # distinct C and two for the Gamma-power.  One call first fills the
    # process's one-time caches, which do not grow with the points.
    @pytest.mark.parametrize("name, stacks", [("torus-m4", 3.5),
                                              ("general-q-r8", 4.5)])
    def test_check_peak_memory(self, tmp_path, name, stacks):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(CHECK_SCENARIOS[name]))
        s = load_scenario(scenario)
        pair = companion_map(s.form)
        rows = 3 * len(set(distinct_sides(pair, conditions(pair)).values())) + 2
        assert main(["check", "--scenario", str(scenario), "--points", "2",
                     "--out", str(tmp_path)]) == 0
        for points in (8000, 64_000):
            tracemalloc.start()
            try:
                assert main(["check", "--scenario", str(scenario), "--points",
                             str(points), "--out", str(tmp_path)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= (stacks * CHECK_STACK_BYTES
                            + points * 8 * (s.dim + rows)), points

    def test_check_note_names_the_gray_factor(self, tmp_path, monkeypatch):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(circle_dict()))
        for factor in (GRAY_FACTOR, 4.0):
            monkeypatch.setattr(cli, "GRAY_FACTOR", factor)
            assert main(["check", "--scenario", str(scenario), "--points",
                         "20", "--out", str(tmp_path)]) == 0
            assert read_json(tmp_path / "check.json")["note"] == (
                "nonzero decisions use |value| > tol * scale with a "
                f"{int(factor)}x gray zone")

    def test_check_creates_out_dir(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(circle_dict()))
        assert main(["check", "--scenario", str(scenario), "--points", "20",
                     "--out", str(tmp_path / "new/dir")]) == 0
        assert read_json(tmp_path / "new/dir/check.json")["n_points"] == 20

    def test_dimension_creates_out_dir(self, tmp_path, capsys):
        main(["demo", "circle-m1", "--out", str(tmp_path / "d")])
        assert main(["dimension", str(tmp_path / "d/points.csv"),
                     "--out", str(tmp_path / "new/dir")]) == 0
        assert read_json(tmp_path / "new/dir/dimension.json")["points"] > 0

    def test_locus_determinism(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(circle_dict(n_seeds=200)))
        assert main(["locus", "--scenario", str(scenario),
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["locus", "--scenario", str(scenario),
                     "--out", str(tmp_path / "b")]) == 0
        csv_a = (tmp_path / "a/points.csv").read_bytes()
        csv_b = (tmp_path / "b/points.csv").read_bytes()
        assert csv_a == csv_b
        sum_a = strip_timestamp((tmp_path / "a/summary.json").read_text())
        sum_b = strip_timestamp((tmp_path / "b/summary.json").read_text())
        assert sum_a == sum_b

    def test_locus_seed_override_changes_cloud(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(circle_dict(n_seeds=100)))
        main(["locus", "--scenario", str(scenario), "--out",
              str(tmp_path / "a")])
        main(["locus", "--scenario", str(scenario), "--out",
              str(tmp_path / "b"), "--seed", "99"])
        assert (tmp_path / "a/points.csv").read_bytes() != \
            (tmp_path / "b/points.csv").read_bytes()
        for out, seed in (("a", 7), ("b", 99)):
            summary = json.loads((tmp_path / out / "summary.json").read_text())
            assert summary["rng_seed"] == seed

    def test_consecutive_calls_parse_independently(self, tmp_path, capsys):
        # the parser is built once per process: no flag of one call may
        # carry over to the next, whatever the verb, and a bad argument
        # still exits 2 without spoiling the calls after it
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(circle_dict(n_seeds=50)))
        s = str(scenario)
        calls = [
            (["locus", "--scenario", s, "--seed", "99", "--points", "40"],
             "summary.json", "n_seeds", 40, 99),
            (["locus", "--scenario", s], "summary.json", "n_seeds", 50, 7),
            (["check", "--scenario", s, "--points", "30", "--seed", "3"],
             "check.json", "n_points", 30, 3),
            (["check", "--scenario", s], "check.json", "n_points", 200, 7),
            (["demo", "circle-m1", "--points", "20"], "summary.json",
             "n_seeds", 20, 7),
        ]
        for k, (argv, name, key, count, seed) in enumerate(calls):
            out = tmp_path / str(k)
            assert main(argv + ["--out", str(out)]) == 0, argv
            report = read_json(out / name)
            assert (report[key], report["rng_seed"]) == (count, seed), argv
            with pytest.raises(SystemExit) as exc:
                main(["locus", "--scenario", s, "--points", "many"])
            assert exc.value.code == 2
            assert "--points" in capsys.readouterr().err

    def test_gray_gamma_is_neither_certified_nor_decisive(self, tmp_path):
        # F rotates grad f by 3e-8, so |Gamma| / scale = 4.24e-8 at every
        # point: above tol_gamma = 1e-8 but inside its 10x gray zone
        spec = circle_dict(name="rotation",
                           F=["x1 - 3e-8 * x2", "x2 + 3e-8 * x1"])
        s = scenario_from_dict(spec)
        phi = build_phi(companion_map(s.form), s.f, s.F, s.side)
        origin = certify(phi, np.zeros((1, 2)), s.options)
        assert origin.phi_norm[0] == 0.0 and origin.charts[0].any()
        assert abs(origin.gamma_value[0]) / origin.gamma_scale[0] > 1e-8
        assert not origin.certified[0]
        assert verify_cover(origin).uncovered_count == 0
        report = point_report(phi.pair, s.F, [0.0, 0.0])
        assert not report.verdict_nonintegrable
        assert not report.verdict_integrable
        scenario = tmp_path / "rotation.json"
        scenario.write_text(json.dumps(spec))
        assert main(["check", "--scenario", str(scenario),
                     "--out", str(tmp_path)]) == 0
        check = json.loads((tmp_path / "check.json").read_text())
        assert check["obstruction"]["decisive_nonzero_points"] == 0
        assert check["verdict"] == "indeterminate"

    def test_locus_rejects_odd_dimension(self, tmp_path, capsys):
        bad = {
            "name": "odd", "dim": 3,
            "structure": {"kind": "euclidean", "dim": 3},
            "f": "x1", "F": ["0", "0", "0"],
            "box": [[-1, 1]] * 3,
        }
        scenario = tmp_path / "odd.json"
        scenario.write_text(json.dumps(bad))
        assert main(["locus", "--scenario", str(scenario),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gradlocus: error: dim:") and err.count("\n") == 1
        points = tmp_path / "odd.csv"
        points.write_text("x1,x2,x3\n0.0,0.0,0.0\n")
        assert main(["charts", str(points), "--scenario", str(scenario)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gradlocus: error: dim:") and err.count("\n") == 1

    def test_empty_locus_exits_zero(self, tmp_path):
        # a constant nonzero field has no gradient-prescribed points
        empty = circle_dict(name="empty", f="0", F=["1", "0"], n_seeds=30)
        scenario = tmp_path / "empty.json"
        scenario.write_text(json.dumps(empty))
        assert main(["locus", "--scenario", str(scenario),
                     "--out", str(tmp_path / "out")]) == 0
        summary = read_json(tmp_path / "out/summary.json")
        assert summary["certified_count"] == 0
        csv_text = (tmp_path / "out/points.csv").read_text()
        assert csv_text.count("\n") == 1  # header only

    def test_dimension_command(self, tmp_path, capsys):
        main(["demo", "circle-m1", "--out", str(tmp_path / "d")])
        capsys.readouterr()
        assert main(["dimension", str(tmp_path / "d/points.csv")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.85 <= report["dimension_estimate"] <= 1.1

    def test_charts_command_reproduces_masks(self, tmp_path, capsys):
        main(["demo", "plane-m2", "--out", str(tmp_path / "d"),
              "--points", "120"])
        capsys.readouterr()
        code = main(["charts", str(tmp_path / "d/points.csv"),
                     "--scenario", str(tmp_path / "d/scenario.json"),
                     "--out", str(tmp_path / "re")])
        assert code == 0
        original = (tmp_path / "d/points.csv").read_bytes()
        recomputed = (tmp_path / "re/points_charts.csv").read_bytes()
        assert original == recomputed

    @pytest.mark.parametrize("m", [3, 4])
    def test_locus_masks_match_the_closed_form(self, tmp_path, m):
        # torus-m4 has 70 charts, so its masks run beyond 64 bits
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(perfbench_torus.scenario(m, 300, 11)))
        job = {"out": str(tmp_path / "out"), "m": m, "size": 300}
        rc = main(["locus", "--scenario", str(scenario), "--out", job["out"]])
        verdict = perfbench_torus.check_locus(job, rc)
        assert verdict.problems == []
        assert verdict.yield_ratio > 0.9
        if m == 4:
            masks = [int(row.split(",")[-2]) for row in
                     (tmp_path / "out/points.csv").read_text().splitlines()[1:]]
            assert max(masks) >= 1 << 64

    @pytest.mark.parametrize("workload, extra", [
        ("locus-torus-m2", []), ("check-torus-m4", ["--points", "300"])],
        ids=["locus-torus-m2", "check-torus-m4"])
    def test_trace_targets_record_their_layers(self, tmp_path, workload,
                                               extra):
        # the benchmark wraps the functions perfbench/tracing.py names and
        # fails a traced call when one is missing or a layer its workload
        # runs records no span; the solver's linearisations are dphi calls
        w = perfbench_torus.WORKLOADS[workload]
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(perfbench_torus.scenario(w.m, 30, 7)))
        tracer = perfbench_tracing.Tracer()
        tracer.install()
        try:
            assert main([w.verb, "--scenario", str(scenario), "--out",
                         str(tmp_path / "out"), *extra]) == 0
        finally:
            tracer.uninstall()
        spans = tracer.take()
        assert perfbench_tracing.lost(spans, tracer.missing, w.skips) == []
        if w.verb == "locus":
            assert any(name == "locus.dphi" and parent >= 0
                       and spans[parent][0] == "locus.solve"
                       for name, _, _, parent, _, _ in spans)

    def test_charts_stdout_counts_rows_on_the_locus(self, tmp_path, capsys):
        main(["demo", "circle-m1", "--out", str(tmp_path / "d")])
        points = tmp_path / "d/points.csv"
        rows = points.read_text().splitlines()
        x1, rest = rows[1].split(",", 1)  # move one sample off the locus
        rows[1] = f"{float(x1) + 1e-3!r},{rest}"
        points.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert main(["charts", str(points), "--scenario",
                     str(tmp_path / "d/scenario.json"),
                     "--out", str(tmp_path / "re")]) == 0
        report = json.loads(capsys.readouterr().out)
        n = len(rows) - 1
        assert (report["rows"], report["recomputed_memberships"],
                report["chart_bound"]) == (n, n - 1, 2)
        # DPhi = 0 on minkowski-grad, so its rows lie on the locus but on
        # no chart
        main(["demo", "minkowski-grad", "--out", str(tmp_path / "m")])
        capsys.readouterr()
        assert main(["charts", str(tmp_path / "m/points.csv"), "--scenario",
                     str(tmp_path / "m/scenario.json"),
                     "--out", str(tmp_path / "mre")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["rows"], report["recomputed_memberships"]) == (200, 0)

    # the error names the first row that fails, read left to right; a
    # non-finite coordinate is looked for once every row has been read
    @pytest.mark.parametrize("verb", ["dimension", "charts"])
    @pytest.mark.parametrize("rows, reason", [
        ("0.5,abc", "row 2: could not convert string to float: 'abc'"),
        ("0.5", "row 2: 1 fields, header has 2"),
        ("nan,0.5", "row 2: non-finite coordinate"),
        ("0.5\nabc,0.5", "row 2: 1 fields, header has 2"),
        ("abc\n0.5", "row 2: could not convert string to float: 'abc'"),
        ("inf,0.5\n0x10,0.5", "row 3: could not convert string to float: "
         "'0x10'")],
        ids=["non-numeric", "short-row", "nan", "short-then-non-numeric",
             "non-numeric-short-row", "inf-then-non-numeric"])
    def test_bad_csv_row_exits_two(self, tmp_path, capsys, verb, rows,
                                   reason):
        points = tmp_path / "points.csv"
        points.write_text(f"x1,x2\n0.0,1.0\n{rows}\n1.0,0.0\n")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(circle_dict()))
        argv = [verb, str(points)]
        if verb == "charts":
            argv += ["--scenario", str(scenario)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"gradlocus: error: csv: {reason}\n"

    def test_csv_cells_read_as_float_reads_them(self, tmp_path):
        cells = [" 1.5", "1_0", "\u0661\u0662", "-0.0", "1e-400", "5e-324",
                 "0.1", "1.7976931348623157e308", "-2.5E+3 ", "+7"]
        points = tmp_path / "points.csv"
        points.write_text("x1,note,x2\n" + "".join(
            f"{a},n,{b}\n" for a, b in zip(cells, cells[::-1])))
        X = cli._read_points_csv(points)
        expect = [[float(a), float(b)] for a, b in zip(cells, cells[::-1])]
        assert X.tobytes() == np.array(expect).tobytes()

    @pytest.mark.parametrize("verb, text, message", [
        ("dimension", "y1,y2\n0.0,1.0\n",
         "no coordinate columns found in "),
        ("charts", "x1,x2,x3\n0.0,1.0,2.0\n",
         "3 coordinate columns, scenario dim 2"),
        ("charts", "x2,x1,phi_norm\n0.0,1.0,0.0\n",
         "coordinate columns x2,x1, expected x1..x2 in order\n"),
        ("charts", "x1,x3\n0.0,1.0\n",
         "coordinate columns x1,x3, expected x1..x2 in order\n"),
        ("dimension", "x01,x2\n0.0,1.0\n",
         "coordinate columns x01,x2, expected x1..x2 in order\n")],
        ids=["no-x-column", "wrong-dim", "swapped", "gap", "leading-zero"])
    def test_csv_coordinates_must_fit(self, tmp_path, capsys, verb, text,
                                      message):
        points = tmp_path / "points.csv"
        points.write_text(text)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(circle_dict()))
        argv = [verb, str(points)]
        if verb == "charts":
            argv += ["--scenario", str(scenario)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gradlocus: error: csv: {message}")
        assert err.count("\n") == 1

    def test_csv_columns_between_coordinates(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        points.write_text("id,x1,note,x2\n7,0.0,a,1.0\n8,0.6,b,0.8\n")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(circle_dict()))
        assert main(["charts", str(points), "--scenario", str(scenario)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["rows"], report["recomputed_memberships"]) == (2, 2)
        rows = (tmp_path / "points_charts.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows[1:]] == [
            ["0.0", "1.0"], ["0.6", "0.8"]]

    def test_missing_csv_file(self, capsys):
        assert main(["dimension", "/nonexistent.csv"]) == 2
        assert capsys.readouterr().err.startswith("gradlocus: error: csv:")

    @pytest.mark.parametrize("verb", ["check", "locus"])
    @pytest.mark.parametrize("points", ["-5", "0"])
    def test_points_below_one_rejected(self, tmp_path, capsys, verb, points):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(circle_dict(n_seeds=30)))
        assert main([verb, "--scenario", str(scenario), "--out",
                     str(tmp_path / "out"), "--points", points]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gradlocus: error: points:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key, value", [
        ("residual", "x"), ("gamma", [1]), ("damping", -1),
        ("max_iters", 2.5), ("rank", True), ("dedup_factor", None)])
    def test_bad_tolerance_value_rejected(self, tmp_path, capsys, key, value):
        spec = circle_dict(n_seeds=30)
        spec["tolerances"][key] = value
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(spec))
        assert main(["locus", "--scenario", str(scenario), "--out",
                     str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gradlocus: error: tolerances.{key}: expected")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", [[], 0, "", False, None],
                             ids=["list", "zero", "string", "false", "null"])
    def test_falsy_tolerances_block_rejected(self, tmp_path, capsys, value):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(circle_dict(n_seeds=30,
                                                   tolerances=value)))
        assert main(["locus", "--scenario", str(scenario), "--out",
                     str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            "gradlocus: error: tolerances: expected an object\n"

    @pytest.mark.parametrize("flag, value, field", [
        ("--tol-residual", "-1", "tol_residual"),
        ("--tol-gamma", "nan", "tol_gamma"), ("--seed", "-1", "rng_seed")])
    def test_bad_option_flag_rejected(self, tmp_path, capsys, flag, value,
                                      field):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(circle_dict(n_seeds=30)))
        assert main(["locus", "--scenario", str(scenario), "--out",
                     str(tmp_path / "out"), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gradlocus: error: {field}: expected")
        assert err.count("\n") == 1

    def test_missing_scenario_file(self, capsys):
        assert main(["check", "--scenario", "/nonexistent.json"]) == 2
        assert capsys.readouterr().err.startswith("gradlocus: error:")

    def test_contract_failure_exit_code(self, tmp_path):
        # an absurd rank tolerance empties every chart set, so samples
        # that pass the analytic conditions go uncovered: exit 1
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(circle_dict(n_seeds=60)))
        code = main(["locus", "--scenario", str(scenario),
                     "--out", str(tmp_path / "out"), "--tol-rank", "10"])
        assert code == 1
        summary = read_json(tmp_path / "out/summary.json")
        assert summary["uncovered_count"] > 0
        assert summary["certified_count"] == 0


@pytest.mark.parametrize("name, negate", [("plane-m2", True),
                                           ("circle-m1", False),
                                           ("minkowski-grad", False)])
def test_left_locus_is_a_right_locus(tmp_path, name, negate):
    # left solves grad f = Q^T F and right grad f = Q F: for a skew Q
    # (plane-m2) the left locus of (f, F) is the right locus of (f, -F),
    # for a symmetric Q (the others) the right locus of (f, F), bit for bit
    spec = scenario_to_dict(builtin_demos()[name])
    assert spec["side"] == "left"
    right = {**spec, "side": "right",
             "F": [f"-({c})" for c in spec["F"]] if negate else spec["F"]}
    (tmp_path / "right.json").write_text(json.dumps(right))
    assert main(["demo", name, "--out", str(tmp_path / "left")]) == 0
    assert main(["locus", "--scenario", str(tmp_path / "right.json"),
                 "--out", str(tmp_path / "right")]) == 0
    assert (tmp_path / "left/points.csv").read_bytes() == \
        (tmp_path / "right/points.csv").read_bytes()
    left, got = (read_json(tmp_path / side / "summary.json")
                 for side in ("left", "right"))
    assert (left.pop("side"), got.pop("side")) == ("left", "right")
    del left["generated_at"], got["generated_at"]
    assert left == got


SRC = Path(__file__).resolve().parents[1] / "src"
# x1 + x2 + x1 + ... + x1 in 5000 terms, a tree 5000 levels deep: the
# parser reads a sum in a loop, and every walk of the tree is one too
DEEP_SUM = " + ".join(["x1", "x2"] + ["x1"] * 4998)

CIRCLE_CSV = "x1,x2\n" + "".join(f"{np.cos(t)},{np.sin(t)}\n" for t in
                                 np.linspace(0.0, 6.0, 200))

# one malformed piece of outside input per case, each of which ended in
# a traceback: (scenario file, CSV file or None, the field the error names,
# the --out path below tmp_path, where "afile" is a file)
MALFORMED = [
    pytest.param(circle_dict(box=[{}, [-2, 2]]), None, "box[0]", "out",
                 id="box-pair-object"),
    pytest.param(circle_dict(box=[[-1e308, 1e308], [0, 1]]), None, "box[0]",
                 "out", id="box-width-overflows"),
    pytest.param(circle_dict(structure={"kind": "general", "Q": {"a": 1}}),
                 None, "structure.Q", "out", id="q-object"),
    pytest.param(b"\x80\x81{}", None, "scenario file", "out",
                 id="scenario-not-utf8"),
    pytest.param(circle_dict(), b"x1,x2\n\x80,1\n", "csv", "out",
                 id="csv-not-utf8"),
    pytest.param(circle_dict(), b"x1,x2\n" + b"1" * 131073 + b",1\n", "csv",
                 "out", id="csv-cell-too-long"),
    pytest.param(circle_dict(f="(" * 300 + "x1" + ")" * 300), None, "f",
                 "out", id="deep-parentheses"),
    pytest.param(circle_dict(f="-" * 1500 + "x1"), None, "f", "out",
                 id="deep-minus"),
    pytest.param(circle_dict(n_seeds=30), None, "out", "afile",
                 id="out-is-a-file"),
    pytest.param(circle_dict(n_seeds=30), None, "out", "afile/sub",
                 id="out-below-a-file"),
    pytest.param(circle_dict(), CIRCLE_CSV.encode(), "out", "afile/x",
                 id="csv-out-below-a-file"),
]


def child_env(**extra):
    """The environment of a fresh interpreter that imports ./src, with
    the variables ``extra`` added."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def run_cli(*argv, **env):
    """``python -m gradlocus.cli`` in a fresh interpreter: its stack
    starts where a user's run does, unlike one inside pytest; ``env``
    adds variables to its environment."""
    return subprocess.run([sys.executable, "-m", "gradlocus.cli", *argv],
                          capture_output=True, text=True, timeout=300,
                          env=child_env(**env))


def test_verbs_leave_numpy_random_unloaded(tmp_path):
    # box_halton draws its shift without numpy.random, whose import
    # costs each process about 6 MB of resident memory
    scenario, out = tmp_path / "scenario.json", tmp_path / "out"
    scenario.write_text(json.dumps(circle_dict(n_seeds=120)))
    runs = [["locus", "--scenario", str(scenario), "--out", str(out)],
            ["check", "--scenario", str(scenario), "--out", str(out)],
            ["charts", str(out / "points.csv"), "--scenario", str(scenario),
             "--out", str(out)],
            ["dimension", str(out / "points.csv"), "--out", str(out)],
            ["demo", "circle-m1", "--points", "30", "--out", str(out)]]
    code = ("import sys\n"
            "from gradlocus.cli import main\n"
            f"codes = [main(argv) for argv in {runs!r}]\n"
            "print(codes, sorted(m for m in sys.modules\n"
            "                    if m.startswith('numpy.random')))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=child_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"


# Under PYTHONWARNINGS=error, as CI runs the CLI, a numpy overflow warning
# is an exception.  A point whose N = C DF overflows in the residual or the
# Gamma-power is left out of check, and certify gives it NaN Gamma columns
def test_overflowing_csv_row_gets_nan_gamma_columns(tmp_path):
    scenario_path, csv_path = write_inputs(
        tmp_path, mixed_domain_dict(), b"x1,x2\n1e200,0.5\n0.6,0.8\n")
    done = run_cli("charts", csv_path, "--scenario", scenario_path,
                   "--out", str(tmp_path / "re"), PYTHONWARNINGS="error")
    assert (done.returncode, done.stderr) == (0, "")
    rows = (tmp_path / "re/points_charts.csv").read_text().splitlines()
    assert rows[1] == "1e+200,0.5,nan,nan,nan,0,0"
    # the finite row reads as it does alone
    (tmp_path / "one.csv").write_text("x1,x2\n0.6,0.8\n")
    assert main(["charts", str(tmp_path / "one.csv"), "--scenario",
                 scenario_path, "--out", str(tmp_path / "one")]) == 0
    alone = (tmp_path / "one/one_charts.csv").read_text().splitlines()
    assert rows[2] == alone[1]


def test_locus_and_dimension_of_a_box_whose_squared_width_overflows(
        tmp_path):
    # the diameter of [0, 1e200] x [0, 1] is finite, its squared entries
    # and the squared dedup radius are not
    scenario_path, csv_path = write_inputs(tmp_path, circle_dict(
        F=["x1 * x2", "x2"], box=[[0.0, 1e200], [0.0, 1.0]]),
        b"x1,x2\n" + b"".join(f"{a!r},{b!r}\n".encode() for a, b in (
            np.random.default_rng(63).uniform(size=(60, 2))
            * [1e200, 1.0]).tolist()))
    done = run_cli("locus", "--points", "50", "--scenario", scenario_path,
                   "--out", str(tmp_path / "locus"), PYTHONWARNINGS="error")
    assert (done.returncode, done.stderr) == (0, "")
    done = run_cli("dimension", csv_path, "--out", str(tmp_path / "dim"))
    assert (done.returncode, done.stderr) == (0, "")
    report = read_json(tmp_path / "dim/dimension.json")
    assert report["points"] == 60
    assert all(np.isfinite([*report["scales"], report["dimension_estimate"]]))


def test_dimension_of_a_cloud_whose_extent_overflows_exits_two(tmp_path):
    # hi - lo of x1 is inf: the fit would fail in LAPACK, which prints to
    # stdout, so the cloud is refused before it
    (tmp_path / "far.csv").write_text("x1,x2\n" + "".join(
        f"{(-1) ** k * 1.7e308!r},{k / 60!r}\n" for k in range(60)))
    done = run_cli("dimension", str(tmp_path / "far.csv"),
                   "--out", str(tmp_path / "dim"), PYTHONWARNINGS="error")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("gradlocus: error: the extent hi - lo of the "
                           "point cloud is not finite\n")


def test_check_of_overflowing_points_exits_two_without_traceback(tmp_path):
    scenario_path, _ = write_inputs(tmp_path, circle_dict(
        F=["x1 * x2", "x2"], box=[[0.0, 1e200], [0.0, 1.0]]), None)
    done = run_cli("check", "--points", "50", "--scenario", scenario_path,
                   "--out", str(tmp_path / "out"), PYTHONWARNINGS="error")
    assert done.returncode == 2
    assert done.stderr == ("gradlocus: error: check: all 50 points are "
                           "outside the domain of the field or overflow\n")


def test_check_leaves_overflowing_points_out(tmp_path):
    # ||DF||_F^2 = exp(2 x1) (1 + x2^2) + 1 overflows from x1 = 354.5-354.9
    spec = circle_dict(F=["exp(x1) * x2", "x2"],
                       box=[[0.0, 400.0], [0.0, 1.0]])
    scenario_path, _ = write_inputs(tmp_path, spec, None)
    done = run_cli("check", "--points", "50", "--scenario", scenario_path,
                   "--out", str(tmp_path / "out"), PYTHONWARNINGS="error")
    assert (done.returncode, done.stderr) == (0, "")

    def reject(constant):
        raise ValueError(f"check.json holds {constant}")

    report = json.loads((tmp_path / "out/check.json").read_text(),
                        parse_constant=reject)
    x1, x2 = box_halton(spec["box"], 50, spec["rng_seed"]).T
    overflowing = int(np.count_nonzero(
        2 * x1 + np.log1p(x2 ** 2) > np.log(np.finfo(float).max)))
    assert 0 < overflowing < 50
    assert report["domain_excluded"] == overflowing
    assert report["equivalence_probe"]["points"] == 50 - overflowing
    assert report["equivalence_probe"]["violations"] == 0
    # |Gamma| / scale = 1 / sqrt(1 + x2^2 + exp(-2 x1)) on the others
    assert report["obstruction"]["decisive_nonzero_points"] == \
        50 - overflowing


def test_check_leaves_undefined_and_overflowing_points_out(tmp_path,
                                                          monkeypatch):
    # F = (log(x1) + x2, exp(x2)) is undefined where x1 <= 0, and
    # ||DF||_F^2 = x1^-2 + 1 + exp(2 x2) overflows from x2 = 354.9; one
    # chunk holds points of both kinds, and so does each of the chunks
    # of 37 points, which must give the same report
    spec = circle_dict(F=["log(x1) + x2", "exp(x2)"],
                       box=[[-1.0, 1.0], [300.0, 400.0]])
    scenario_path, _ = write_inputs(tmp_path, spec, None)
    done = run_cli("check", "--points", "200", "--scenario", scenario_path,
                   "--out", str(tmp_path / "out"), PYTHONWARNINGS="error")
    assert (done.returncode, done.stderr) == (0, "")

    def reject(constant):
        raise ValueError(f"check.json holds {constant}")

    text = (tmp_path / "out/check.json").read_text()
    report = json.loads(text, parse_constant=reject)
    x1, x2 = box_halton(spec["box"], 200, spec["rng_seed"]).T
    undefined = x1 <= 0
    log_norm_sq = np.logaddexp(2 * x2, np.log1p(1 / np.where(
        undefined, 1.0, x1) ** 2))
    overflowing = ~undefined & (log_norm_sq > np.log(np.finfo(float).max))
    assert undefined.any() and overflowing.any()
    excluded = int(np.count_nonzero(undefined | overflowing))
    assert report["domain_excluded"] == excluded
    assert report["equivalence_probe"]["points"] == 200 - excluded

    rows, residual = [], integrability.residual

    def counting(pair, N):
        rows.append(len(N))
        return residual(pair, N)

    monkeypatch.setattr(integrability, "CHECK_STACK_BYTES", 37 * 8 * 2 ** 2)
    monkeypatch.setattr(integrability, "residual", counting)
    assert main(["check", "--points", "200", "--scenario", scenario_path,
                 "--out", str(tmp_path / "chunked")]) == 0
    assert rows == [37] * 5 + [15]  # one C = Q, so one residual a chunk
    chunked = (tmp_path / "chunked/check.json").read_text()
    assert ([line for line in chunked.splitlines() if "generated_at" not in line]
            == [line for line in text.splitlines() if "generated_at" not in line])


def write_inputs(tmp_path, scenario, points):
    """The scenario (a dict, as JSON, or raw bytes) and the CSV bytes."""
    paths = tmp_path / "scenario.json", tmp_path / "points.csv"
    paths[0].write_bytes(scenario if isinstance(scenario, bytes)
                         else json.dumps(scenario).encode())
    if points is not None:
        paths[1].write_bytes(points)
    return str(paths[0]), str(paths[1])


@pytest.mark.parametrize("scenario, points, field, out", MALFORMED)
def test_malformed_input_exits_two_with_one_line(tmp_path, scenario, points,
                                                  field, out):
    scenario_path, csv_path = write_inputs(tmp_path, scenario, points)
    (tmp_path / "afile").write_text("")
    runs = ([["check", "--scenario", scenario_path],
             ["locus", "--scenario", scenario_path]] if points is None else
            [["dimension", csv_path],
             ["charts", csv_path, "--scenario", scenario_path]])
    if field == "out" and points is None:
        runs.append(["demo", "circle-m1", "--points", "30"])
    for argv in runs:
        done = run_cli(*argv, "--out", str(tmp_path / out))
        assert done.returncode == 2, (argv, done.stderr)
        assert "Traceback" not in done.stderr
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith(f"gradlocus: error: {field}: ")


def test_deep_expression_within_the_stack_limit_runs(tmp_path):
    scenario_path, _ = write_inputs(
        tmp_path, circle_dict(F=[" + ".join(["x1"] * 980), "x2"],
                              n_seeds=30), None)
    for argv in (["check", "--points", "2000"], ["locus"]):
        done = run_cli(*argv, "--scenario", scenario_path,
                       "--out", str(tmp_path / argv[0]))
        assert done.returncode == 0, (argv, done.stderr)


def test_large_expressions_run(tmp_path):
    # a 5000-term sum that adds nothing, in f (the solver's Hessians in
    # locus) and in F[0] (the Jacobians of check), loads and runs in both
    # verbs with the numbers of the scenario without it
    circle = circle_dict(n_seeds=30)
    zero = f" + 0 * ({DEEP_SUM})"
    runs = (["check", "--points", "2000"], ["locus"])
    plain = tmp_path / "plain"
    plain.mkdir()
    for argv in runs:
        assert main([*argv, "--scenario", write_inputs(plain, circle, None)[0],
                     "--out", str(plain / argv[0])]) == 0
    for field, big in (("f", {**circle, "f": circle["f"] + zero}),
                       ("F[0]", {**circle, "F": [circle["F"][0] + zero,
                                                 circle["F"][1]]})):
        scenario_path, _ = write_inputs(tmp_path, big, None)
        for argv in runs:
            done = run_cli(*argv, "--scenario", scenario_path, "--out",
                           str(tmp_path / field / argv[0]),
                           PYTHONWARNINGS="error")
            assert (done.returncode, done.stderr) == (0, ""), (field, argv)
        assert (tmp_path / field / "locus/points.csv").read_bytes() == \
            (plain / "locus/points.csv").read_bytes()
        report = read_json(tmp_path / field / "check/check.json")
        assert report == {**read_json(plain / "check/check.json"),
                          "generated_at": report["generated_at"]}
