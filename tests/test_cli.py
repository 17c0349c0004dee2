import json
from pathlib import Path

import numpy as np
import pytest

from graspkit import cli
from graspkit.cli import EXIT_NO_CANDIDATES, EXIT_OK, EXIT_USAGE, cli_main
from graspkit.cloud import SpatialIndex
from graspkit.io import load_cloud, save_cloud_ply
from graspkit.planner import plan
from graspkit.shapes import ShapeSpec, corpus_standard, generate


BOX = ShapeSpec("box", (0.05, 0.075, 0.05), density=1.2e5)
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def box_ply(tmp_path_factory):
    path = tmp_path_factory.mktemp("clouds") / "box.ply"
    save_cloud_ply(generate(BOX), path)
    return path


@pytest.fixture(scope="module")
def box_xyz(tmp_path_factory):
    """The box's points only, so eval estimates the normals."""
    path = tmp_path_factory.mktemp("clouds") / "box.xyz"
    np.savetxt(path, generate(BOX).points, fmt="%.17g")
    return path


class TestPlanCommand:
    def test_plan_box(self, box_ply, tmp_path):
        out = tmp_path / "plan.json"
        code = cli_main(["plan", "--input", str(box_ply), "--output", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["best"]["closure"] is True
        assert data["result_code"] == "ok"

    def test_plan_no_candidates_exit_code(self, tmp_path):
        shell = tmp_path / "shell.ply"
        save_cloud_ply(generate(corpus_standard()["clamp_c_open"]), shell)
        out = tmp_path / "plan.json"
        code = cli_main(["plan", "--input", str(shell), "--output", str(out)])
        assert code == EXIT_NO_CANDIDATES
        assert json.loads(out.read_text())["result_code"] == "no-candidates"

    def test_plan_missing_file_is_error(self, tmp_path):
        code = cli_main(["plan", "--input", str(tmp_path / "nope.ply")])
        assert code == 1

    def test_voxel_beyond_the_int64_grid_is_error(self, box_ply, monkeypatch, capsys):
        monkeypatch.setenv("GRASPKIT_VOXEL_SIZE", "1e-25")
        assert cli_main(["plan", "--input", str(box_ply)]) == 1
        assert "voxel size 1e-25" in capsys.readouterr().err

    def test_repeat_runs_byte_identical(self, box_ply, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(["plan", "--input", str(box_ply), "--output", str(out_a)]) == EXIT_OK
        assert cli_main(["plan", "--input", str(box_ply), "--output", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()


class TestSegmentCommand:
    def test_region_export(self, box_ply, tmp_path):
        out = tmp_path / "regions.ply"
        code = cli_main(["segment", "--input", str(box_ply), "--output", str(out)])
        assert code == EXIT_OK
        text = out.read_text()
        assert "property int region" in text
        assert len(load_cloud(out)) > 0


class TestEvalCommand:
    def test_eval_deterministic(self, box_ply, tmp_path):
        plan_out = tmp_path / "plan.json"
        cli_main(["plan", "--input", str(box_ply), "--output", str(plan_out)])
        best = json.loads(plan_out.read_text())["best"]
        grasp = tmp_path / "grasp.json"
        grasp.write_text(json.dumps({"contact_a": best["contact_a"], "contact_b": best["contact_b"]}))
        outs = []
        for name in ("e1.json", "e2.json"):
            out = tmp_path / name
            code = cli_main(
                [
                    "eval", "--input", str(box_ply), "--grasp", str(grasp),
                    "--sigma", "0.02", "--trials", "100", "--seed", "7",
                    "--sigma-mode", "relative", "--output", str(out),
                ]
            )
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        report = json.loads(outs[0])
        assert set(report) == {
            "probability", "per_trial", "sigma", "effective_sigma", "sigma_mode", "trials", "seed", "threshold", "rng",
        }
        assert report["trials"] == 100
        assert report["seed"] == 7
        assert 0.0 <= report["probability"] <= 1.0
        assert report["rng"] == "philox"


    def test_eval_reads_a_plan_report(self, box_ply, tmp_path):
        plan_out = tmp_path / "plan.json"
        assert cli_main(["plan", "--input", str(box_ply), "--output", str(plan_out)]) == EXIT_OK
        report = json.loads(plan_out.read_text())
        best = report["best"]
        grasp = tmp_path / "grasp.json"
        grasp.write_text(json.dumps({"contact_a": best["contact_a"], "contact_b": best["contact_b"]}))
        # a schema-1 report: the same grasps plus the constant stability fields and the unset robustness slot
        report["schema_version"] = 1
        for r in [report["best"], *report["reports"]]:
            r.update(stability_cost=-8.0, converged=True, forces=[0.0] * 6, robustness_probability=None)
        plan_v1 = tmp_path / "plan_v1.json"
        plan_v1.write_text(json.dumps(report, indent=2, sort_keys=True))
        outs = []
        for source in (plan_out, plan_v1, grasp):
            out = tmp_path / f"eval-{source.stem}.json"
            code = cli_main(
                ["eval", "--input", str(box_ply), "--grasp", str(source), "--sigma", "0.02",
                 "--trials", "20", "--sigma-mode", "relative", "--output", str(out)]
            )
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_eval_of_a_plan_without_best_exits_no_candidates(self, tmp_path, capsys):
        shell = tmp_path / "shell.ply"
        save_cloud_ply(generate(corpus_standard()["clamp_c_open"]), shell)
        plan_out = tmp_path / "plan.json"
        assert cli_main(["plan", "--input", str(shell), "--output", str(plan_out)]) == EXIT_NO_CANDIDATES
        out = tmp_path / "eval.json"
        code = cli_main(
            ["eval", "--input", str(shell), "--grasp", str(plan_out), "--sigma", "0.02", "--output", str(out)]
        )
        assert code == EXIT_NO_CANDIDATES
        assert "no best grasp (result no-candidates)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "JSON object with 'contact_a'"),
            ("3", "JSON object with 'contact_a'"),
            ('{"foo": 1}', "grasp field 'contact_a' must be a list of 3 finite numbers"),
            ('{"contact_a": [NaN, 0, 0], "contact_b": [0.05, 0, 0]}', "grasp field 'contact_a' must be a list of 3 finite numbers"),
            ('{"contact_a": [0, 0, 0], "contact_b": [0.05, 0]}', "grasp field 'contact_b' must be a list of 3 finite numbers"),
            # normals are unused but still checked as input
            ('{"contact_a": [0, 0, 0], "contact_b": [0.05, 0, 0], "normal_a": [1, 0, 0]}', "grasp field 'normal_b' must be a list of 3 finite numbers"),
            ('{"contact_a": [0, 0, 0], "contact_b": [0.05, 0, 0], "normal_a": [1, 0, Infinity], "normal_b": [-1, 0, 0]}', "grasp field 'normal_a' must be a list of 3 finite numbers"),
        ],
        ids=["list", "number", "no-contacts", "nan-contact", "short-contact", "one-normal", "inf-normal"],
    )
    def test_malformed_grasp_is_an_error_naming_the_field(self, box_ply, tmp_path, capsys, text, message):
        grasp = tmp_path / "grasp.json"
        grasp.write_text(text)
        code = cli_main(["eval", "--input", str(box_ply), "--grasp", str(grasp), "--sigma", "0.02"])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "JSON object with 'contact_a'"),
            ('{"contact_a": [NaN, 0, 0], "contact_b": [0.05, 0, 0]}', "grasp field 'contact_a'"),
            ('{"best": {"contact_a": [0, 0, 0]}}', "grasp field 'contact_b'"),
        ],
        ids=["list", "nan-contact", "plan-without-contact-b"],
    )
    def test_malformed_grasp_exits_before_the_cloud_is_read(
        self, box_xyz, tmp_path, capsys, monkeypatch, text, message
    ):
        def spy(*args, **kwargs):
            pytest.fail("eval read the cloud before it checked the grasp")

        monkeypatch.setattr(cli, "load_cloud", spy)
        grasp = tmp_path / "grasp.json"
        grasp.write_text(text)
        code = cli_main(["eval", "--input", str(box_xyz), "--grasp", str(grasp), "--sigma", "0.02"])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["box_ply", "box_xyz"], ids=["ply", "xyz"])
    def test_eval_builds_one_index(self, request, source, tmp_path, index_builds, monkeypatch):
        """Normal estimation and the evaluation share one tree, and only the
        evaluator's one batched query snaps the contacts."""
        queries = []
        nearest_many = SpatialIndex.nearest_many

        def counted(index, q):
            queries.append(len(q))
            return nearest_many(index, q)

        monkeypatch.setattr(SpatialIndex, "nearest_many", counted)
        path = request.getfixturevalue(source)
        grasp = tmp_path / "grasp.json"
        grasp.write_text(json.dumps({"contact_a": [-0.025, 0.0, 0.0], "contact_b": [0.025, 0.0, 0.0]}))
        code = cli_main(
            ["eval", "--input", str(path), "--grasp", str(grasp), "--sigma", "0.02",
             "--trials", "20", "--sigma-mode", "relative", "--output", str(tmp_path / "e.json")]
        )
        assert code == EXIT_OK
        assert [len(b) for b in index_builds] == [len(load_cloud(path))]
        assert queries == [2 * 20]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "error: seed must be in [0, 2**64)"),
            ("--seed", str(2**64), "error: seed must be in [0, 2**64)"),
            ("--sigma", "nan", "error: sigma must be finite"),
            ("--sigma", "inf", "error: sigma must be finite"),
        ],
        ids=["seed-negative", "seed-2**64", "sigma-nan", "sigma-inf"],
    )
    def test_out_of_range_spec_is_an_error_naming_the_field(self, box_ply, tmp_path, capsys, flag, value, message):
        grasp = tmp_path / "grasp.json"
        grasp.write_text(json.dumps({"contact_a": [-0.025, 0.0, 0.0], "contact_b": [0.025, 0.0, 0.0]}))
        args = {"--sigma": "0.02", "--seed": "0", flag: value}
        argv = ["eval", "--input", str(box_ply), "--grasp", str(grasp), "--output", str(tmp_path / "e.json")]
        code = cli_main(argv + [f"{name}={v}" for name, v in args.items()])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "e.json").exists()


class TestBenchmarkCommand:
    def test_grid_structure(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = cli_main(
            ["benchmark", "--sigmas", "0.02,0.05,0.1", "--trials", "5", "--output", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "object,sigma_0.02,sigma_0.05,sigma_0.1"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == list(corpus_standard())
        by_name = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        # pathological object reports dashes, mirroring a no-grasp entry
        assert by_name["clamp_c_open"] == ["-", "-", "-"]
        for name, cells in by_name.items():
            if name == "clamp_c_open":
                continue
            assert all(0.0 <= float(c) <= 1.0 for c in cells)

    def test_grid_matches_the_golden_file(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert cli_main(["benchmark", "--trials", "20", "--sigmas", "0.02,0.05", "--output", str(out)]) == EXIT_OK
        assert out.read_bytes() == (GOLDEN / "benchmark_trials20_sigmas_0.02_0.05.csv").read_bytes()

    def test_each_object_is_preprocessed_once(self, corpus, tmp_path, monkeypatch, index_builds, table_builds):
        # the plan's outlier tree and its prepared cloud's tree and table,
        # whose index then snaps the trials of both sigmas
        monkeypatch.setattr("graspkit.cli.corpus_standard", lambda: {"box_foam_brick": corpus["box_foam_brick"]})
        out = tmp_path / "grid.csv"
        assert cli_main(["benchmark", "--trials", "5", "--sigmas", "0.02,0.05", "--output", str(out)]) == EXIT_OK
        assert len(index_builds) == 2
        assert table_builds == [16, 1, 1]

    def test_corpus_flag_is_a_usage_error(self, tmp_path):
        # the grid always covers the one standard corpus
        with pytest.raises(SystemExit) as err:
            cli_main(["benchmark", "--corpus", "standard", "--output", str(tmp_path / "g.csv")])
        assert err.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "args, message",
        [(["--seed=-1"], "error: seed must be"), (["--sigmas", "0.02,nan"], "error: sigma must be finite")],
        ids=["seed-negative", "sigma-nan"],
    )
    def test_out_of_range_spec_exits_before_planning(self, tmp_path, capsys, monkeypatch, args, message):
        monkeypatch.setattr("graspkit.planner._plan", lambda *a, **k: pytest.fail("planned before validating"))
        out = tmp_path / "grid.csv"
        assert cli_main(["benchmark", "--trials", "5", "--output", str(out)] + args) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSynthCommand:
    def test_list_names(self, capsys):
        assert cli_main(["synth", "--list"]) == EXIT_OK
        listed = capsys.readouterr().out.split()
        assert "box_foam_brick" in listed

    def test_write_and_load(self, tmp_path):
        out = tmp_path / "ball.ply"
        code = cli_main(["synth", "--name", "sphere_tennis_ball", "--output", str(out)])
        assert code == EXIT_OK
        cloud = load_cloud(out)
        assert len(cloud) > 1000
        assert cloud.normals is not None

    def test_synth_ply_plans_like_its_generated_cloud(self, corpus, tmp_path):
        # the PLY carries the analytic normals and curvatures, so nothing is re-estimated
        cloud_path, plan_path = tmp_path / "c.ply", tmp_path / "plan.json"
        for name, spec in corpus.items():
            assert cli_main(["synth", "--name", name, "--output", str(cloud_path)]) == EXIT_OK
            cli_main(["plan", "--input", str(cloud_path), "--output", str(plan_path)])
            assert plan_path.read_text() == plan(generate(spec)).to_json(), name

    def test_unknown_name(self, tmp_path):
        code = cli_main(["synth", "--name", "warp_core", "--output", str(tmp_path / "x.ply")])
        assert code == 1


class TestUsageErrors:
    def test_unknown_flag_exits_64(self, box_ply):
        with pytest.raises(SystemExit) as err:
            cli_main(["plan", "--input", str(box_ply), "--frobnicate"])
        assert err.value.code == EXIT_USAGE

    def test_unknown_command_exits_64(self):
        with pytest.raises(SystemExit) as err:
            cli_main(["dance"])
        assert err.value.code == EXIT_USAGE

    def test_missing_required_exits_64(self):
        with pytest.raises(SystemExit) as err:
            cli_main(["plan"])
        assert err.value.code == EXIT_USAGE
