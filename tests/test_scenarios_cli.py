import json

import numpy as np
import pytest

from gradlocus import ScenarioError, builtin_demos, scenario_from_dict
from gradlocus.cli import main
from gradlocus.scenarios import (scenario_to_dict, structure_from_dict)


def circle_dict(**overrides):
    base = scenario_to_dict(builtin_demos()["circle-m1"])
    base.update(overrides)
    return base


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

    def test_bad_side(self):
        with pytest.raises(ScenarioError, match="side"):
            scenario_from_dict(circle_dict(side="up"))

    def test_unknown_tolerance_key(self):
        with pytest.raises(ScenarioError, match="tolerances.slack"):
            scenario_from_dict(circle_dict(tolerances={"slack": 1}))

    def test_tolerances_override_defaults(self):
        s = scenario_from_dict(circle_dict(tolerances={"residual": 1e-9,
                                                       "gamma": 1e-7,
                                                       "rank": 1e-5}))
        assert s.options.tol_residual == 1e-9
        assert s.options.tol_gamma == 1e-7
        assert s.options.tol_rank == 1e-5

    def test_dim_structure_mismatch(self):
        with pytest.raises(ScenarioError, match="dim"):
            scenario_from_dict(circle_dict(dim=4))


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
        assert err.startswith("gradlocus: error:") and err.count("\n") == 1

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
