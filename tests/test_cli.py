import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from occ4d import cli
from occ4d.artifact import read_json
from occ4d.cli import main
from occ4d.config import config_digest, load_config
from occ4d.scene import load_scene_json, random_scene, save_scene_json, scene_to_dict

SMOKE_OVERRIDES = {
    "suite": {"n_scenes": 2, "n_future": 6, "future_dt": 0.5, "d_raw": 12},
    "pca": {"d": 6, "fit_subset": 4000},
    "sampler": {"n_occ_pos": 700, "n_occ_neg": 700, "n_feat": 120, "n_ego_pos": 30, "n_ego_neg": 30},
    "field": {"channels": 8, "head_hidden": 16, "cell": 1.0},
    "train": {"total_steps": 60, "warmup_steps": 10, "batch_occ": 96, "batch_feat": 24, "batch_ego": 12},
    "eval": {"step": 0.8, "times": [0.6, 1.8], "z": [-0.4, 2.0], "ego_bev_step": 1.0},
}


def write_smoke_config(tmp_path) -> Path:
    p = tmp_path / "config.json"
    p.write_text(json.dumps(SMOKE_OVERRIDES))
    return p


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full simulate -> genqueries -> train -> eval run, shared by tests."""
    root = tmp_path_factory.mktemp("pipe")
    cfg_path = write_smoke_config(root)
    args = ["--config", str(cfg_path)]
    assert main(["simulate", *args, "--out", str(root / "data")]) == 0
    assert main(["genqueries", *args, "--dataset", str(root / "data"), "--out", str(root / "queries")]) == 0
    assert main(["train", *args, "--queries", str(root / "queries"), "--out", str(root / "run")]) == 0
    code = main(
        [
            "eval",
            *args,
            "--checkpoint",
            str(root / "run" / "checkpoint.bin"),
            "--dataset",
            str(root / "data"),
            "--out",
            str(root / "report.json"),
            "--rasters",
            str(root / "rasters"),
        ]
    )
    assert code == 0
    return root, cfg_path


class TestCliContract:
    @pytest.mark.parametrize("cmd", ["simulate", "genqueries", "train", "eval", "scaling", "report"])
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as e:
            main([cmd, "--help"])
        assert e.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["simulate", "--bogus-flag", "x", "--out", "y"])
        assert e.value.code == 2
        assert "--bogus-flag" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1", "two"])
    def test_workers_below_one_is_a_usage_error(self, workers, tmp_path, capsys):
        with pytest.raises(SystemExit) as e:
            main(["simulate", "--workers", workers, "--out", str(tmp_path / "data")])
        assert e.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("simulate", "genqueries", "train", "eval", "scaling", "report"):
            assert cmd in out


class TestJsonInputs:
    @pytest.mark.parametrize("fault", ["truncated", "NaN", "-Infinity", "1e999"])
    @pytest.mark.parametrize("kind", ["config", "scene", "report"])
    def test_broken_or_nonfinite_json_names_the_file(self, kind, fault, tmp_path, capsys):
        # "@" marks the number that the fault replaces
        if kind == "scene":
            doc = scene_to_dict(random_scene(seed=1))
            doc["ego_track"][1]["yaw"] = "@"
        else:
            doc = {"sampler": {"delta": "@"}} if kind == "config" else {"ap_occ": "@", "n_probes": 10}
        text = json.dumps(doc)
        p = tmp_path / f"{kind}.json"
        p.write_text(text[: len(text) // 2] if fault == "truncated" else text.replace('"@"', fault))
        if fault == "truncated":
            expected = re.escape(str(p)) + r":\d+:\d+: invalid JSON"
        else:
            expected = re.escape(f"{p}: {fault} is not allowed")
        if kind == "report":
            assert main(["report", str(p)]) == 1
            assert re.match(f"occ4d report: {expected}", capsys.readouterr().err)
        else:
            with pytest.raises(ValueError, match=expected):
                (load_config if kind == "config" else load_scene_json)(p)

    def test_non_utf8_json_names_the_file(self, tmp_path, capsys):
        p = tmp_path / "bin.json"
        p.write_bytes(b'\xff\xfe{"a": 1}')
        assert main(["report", str(p)]) == 1
        assert capsys.readouterr().err == f"occ4d report: {p}: not UTF-8 text (invalid start byte at byte 0)\n"
        with pytest.raises(ValueError, match=re.escape(f"{p}: not UTF-8 text")):
            load_scene_json(p)

    def test_loading_the_inputs_imports_no_jsonschema(self, tmp_path):
        (tmp_path / "config.json").write_text(json.dumps({"seed": 1}))
        save_scene_json(random_scene(seed=1), tmp_path / "scene.json")
        code = (
            "import sys, occ4d.cli\n"
            "occ4d.cli.load_config(sys.argv[1]); occ4d.cli.load_scene_json(sys.argv[2])\n"
            "assert 'jsonschema' not in sys.modules"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        args = [sys.executable, "-c", code, str(tmp_path / "config.json"), str(tmp_path / "scene.json")]
        subprocess.run(args, env=env, check=True, timeout=120)


def test_train_profile_runs_on_a_queries_dir(pipeline):
    # the profile of three steps: one summary line, then a row per timed
    # function that ran, with its calls and milliseconds per step
    root, cfg_path = pipeline
    repo = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")]))}
    args = [sys.executable, str(repo / "scripts" / "train_profile.py"), str(cfg_path), str(root / "queries"), "--steps", "3"]
    done = subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    head, header, *rows = done.stdout.splitlines()
    pattern = r"train_profile: 3 amortized steps on 2 samples, (1|None) BLAS thread\(s\): [0-9.]+ ms/step, [0-9.]+ minor faults/step"
    assert re.fullmatch(pattern, head), head
    assert header.split() == ["function", "calls/step", "ms/step"]
    calls = {row.split()[0]: row.split()[1] for row in rows}
    assert calls["_conv2d"] == "2.00" and calls["adam_step"] == calls["draw_batch"] == calls["encode"] == "1.00"
    assert 0 < float(calls["pillar_histogram"]) <= 0.67  # once per sample that a step drew


class TestPipeline:
    def test_dataset_layout(self, pipeline):
        root, _ = pipeline
        data = root / "data"
        assert sorted(p.name for p in (data / "scenes").iterdir()) == ["scene000.json", "scene001.json"]
        assert (data / "manifest.json").exists()
        man = read_json(data / "manifest.json")
        assert man["stage"] == "simulate"
        assert man["n_scenes"] == 2
        listed = {f["path"] for f in man["files"]}
        assert "scenes/scene000.json" in listed
        assert any(p.startswith("scans/") for p in listed)
        assert any(p.startswith("images/") for p in listed)
        for entry in man["files"]:
            assert entry["bytes"] > 0 and len(entry["sha256"]) == 64

    def test_queries_layout(self, pipeline):
        root, cfg_path = pipeline
        q = root / "queries"
        assert (q / "pca.bin").exists()
        assert (q / "sample000.bin").exists()
        assert (q / "sample000.enc.bin").exists()
        meta = json.loads((q / "sample000.meta.json").read_text())
        cfg = load_config(cfg_path)
        assert meta["config_digest"] == config_digest(cfg)
        assert meta["emitted"]["ray_negative"] == 700
        assert meta["emitted"]["ray_positive"] == 700

    def test_queries_manifest_counts(self, pipeline):
        root, _ = pipeline
        man = read_json(root / "queries" / "manifest.json")
        metas = [json.loads(p.read_text()) for p in sorted((root / "queries").glob("sample*.meta.json"))]
        assert man["requested"]["ray_negative"] == 2 * 700
        for kind, n in man["emitted"].items():
            assert n == sum(m["emitted"][kind] for m in metas)
        assert man["exhausted"] == sorted({k for m in metas for k in m["exhausted"]})
        assert not any(f["path"] == "manifest.json" for f in man["files"])

    def test_manifests_record_blas_threads_outside_files(self, pipeline):
        root, _ = pipeline
        calls = cli._blas_thread_calls()
        for stage in ("data", "queries", "run"):
            man = read_json(root / stage / "manifest.json")
            assert man["blas_threads"] == (None if calls is None else calls[0]())
            assert all(set(entry) == {"path", "bytes", "sha256"} for entry in man["files"])

    def test_genqueries_reads_each_feature_image_once(self, pipeline, tmp_path, monkeypatch):
        root, cfg_path = pipeline
        real, paths = cli.load_feature_image, []
        monkeypatch.setattr(cli, "load_feature_image", lambda path: paths.append(path) or real(path))
        args = ["--config", str(cfg_path), "--dataset", str(root / "data"), "--out", str(tmp_path / "q")]
        assert main(["genqueries", *args]) == 0
        suite = load_config(cfg_path)["suite"]
        assert len(paths) == len(set(paths)) == suite["n_scenes"] * len(suite["image_times"])
        assert read_json(tmp_path / "q" / "manifest.json")["files"] == read_json(root / "queries" / "manifest.json")["files"]

    def test_train_on_truncated_sample_fails_cleanly(self, pipeline, tmp_path, capsys):
        root, cfg_path = pipeline
        queries = tmp_path / "queries"
        shutil.copytree(root / "queries", queries)
        sample = queries / "sample000.bin"
        raw = sample.read_bytes()
        sample.write_bytes(raw[: len(raw) // 2])
        code = main(["train", "--config", str(cfg_path), "--queries", str(queries), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("occ4d train:") and "truncated" in err and str(sample) in err

    def test_genqueries_on_truncated_scan_fails_cleanly(self, pipeline, tmp_path, capsys):
        root, cfg_path = pipeline
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        scan = sorted((data / "scans").iterdir())[0]
        raw = scan.read_bytes()
        scan.write_bytes(raw[: len(raw) // 2])
        code = main(["genqueries", "--config", str(cfg_path), "--dataset", str(data), "--out", str(tmp_path / "queries")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("occ4d genqueries:") and "truncated" in err and str(scan) in err

    def test_genqueries_on_mistyped_sensor_field_fails_cleanly(self, pipeline, tmp_path, capsys):
        root, cfg_path = pipeline
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        scene_path = sorted((data / "scenes").iterdir())[0]
        doc = json.loads(scene_path.read_text())
        doc["sensors"]["lidar"]["az_count"] = "64"
        scene_path.write_text(json.dumps(doc))
        code = main(["genqueries", "--config", str(cfg_path), "--dataset", str(data), "--out", str(tmp_path / "queries")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("occ4d genqueries:") and "sensors/lidar/az_count" in err

    def test_genqueries_with_the_roi_inside_the_ego_tube_fails_cleanly(self, pipeline, tmp_path, capsys):
        # an ego tube 60 m wide covers the whole roi, so no negative can be drawn
        root, _ = pipeline
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**SMOKE_OVERRIDES, "sampler": {**SMOKE_OVERRIDES["sampler"], "w_ego": 60}}))
        out = tmp_path / "queries"
        code = main(["genqueries", "--config", str(cfg_path), "--dataset", str(root / "data"), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("occ4d genqueries: ego negative 0: exceeded 100 rejection attempts")
        assert err.count("\n") == 1 and not out.exists()

    def test_simulate_with_pca_wider_than_the_raw_features_fails_cleanly(self, tmp_path, capsys):
        # the default pca.d is 16: refused at config load, before any scene is written
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"suite": {"d_raw": 12}}))
        out = tmp_path / "data"
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("occ4d simulate:") and "pca.d" in err and "suite.d_raw" in err
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_train_outputs(self, pipeline):
        root, _ = pipeline
        run = root / "run"
        assert (run / "checkpoint.bin").exists()
        lines = (run / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "step,lr,total,occ,dino,ego"
        assert len(lines) == 61

    def test_train_prints_progress(self, pipeline, tmp_path, capsys):
        root, cfg_path = pipeline
        args = ["--config", str(cfg_path), "--queries", str(root / "queries"), "--out", str(tmp_path / "run")]
        assert main(["train", *args]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("train: step ")]
        # 60 steps: a line after every 6th
        assert [int(ln.split()[2].split("/")[0]) for ln in lines] == list(range(6, 61, 6))
        for part in ("/60 lr ", "loss", "occ", "feat", "ego", "steps/s", "eta"):
            assert part in lines[0], lines[0]
        # progress goes to stdout only: the run's files keep their bytes
        for name in ("checkpoint.bin", "loss.csv"):
            assert (tmp_path / "run" / name).read_bytes() == (root / "run" / name).read_bytes()

    def test_report_schema(self, pipeline):
        root, cfg_path = pipeline
        report = json.loads((root / "report.json").read_text())
        cfg = load_config(cfg_path)
        for key in (
            "config_digest",
            "r_at_p70",
            "r_at_p70_exact",
            "ap_occ_exact",
            "soft_iou",
            "ap_ego",
            "per_time_breakdown",
            "probe_counts",
        ):
            assert key in report, key
        assert report["config_digest"] == config_digest(cfg)
        assert len(report["per_time_breakdown"]) == 2
        assert set(report["probe_counts"]) == {"free", "occupied", "unknown"}
        rasters = sorted((root / "rasters").iterdir())
        assert rasters and rasters[0].suffix == ".pgm"

    def test_eval_digest_mismatch_refused(self, pipeline, tmp_path, capsys):
        root, cfg_path = pipeline
        other_cfg = tmp_path / "other.json"
        doc = json.loads(Path(cfg_path).read_text())
        doc["seed"] = 999
        other_cfg.write_text(json.dumps(doc))
        code = main(
            [
                "eval",
                "--config",
                str(other_cfg),
                "--checkpoint",
                str(root / "run" / "checkpoint.bin"),
                "--dataset",
                str(root / "data"),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert "digest" in capsys.readouterr().err

    def test_eval_reports_where_its_time_went(self, pipeline, tmp_path, capsys):
        root, cfg_path = pipeline
        args = ["--config", str(cfg_path), "--checkpoint", str(root / "run" / "checkpoint.bin")]
        assert main(["eval", *args, "--dataset", str(root / "data"), "--out", str(tmp_path / "r.json")]) == 0
        timing = capsys.readouterr().out.strip().splitlines()[-1]
        for part in ("score", "labels", "metrics", "probes/s"):
            assert part in timing, timing
        # the timings go to stdout only: the report is the pipeline's, byte for byte
        assert (tmp_path / "r.json").read_bytes() == (root / "report.json").read_bytes()

    def test_existing_output_refused_without_force(self, pipeline, capsys):
        root, cfg_path = pipeline
        code = main(["simulate", "--config", str(cfg_path), "--out", str(root / "data")])
        assert code == 1
        assert "already exists" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["train", "scaling"])
    def test_existing_output_refused_before_any_work(self, cmd, pipeline, monkeypatch, capsys):
        root, cfg_path = pipeline

        def forbidden(*args, **kwargs):
            raise AssertionError("called before the output check")

        monkeypatch.setattr(cli, "train", forbidden)
        monkeypatch.setattr(cli, "_load_samples", forbidden)
        args = [cmd, "--config", str(cfg_path), "--queries", str(root / "queries"), "--out", str(root / "run")]
        assert main(args + (["--eval-dataset", str(root / "data")] if cmd == "scaling" else [])) == 1
        out = root / "run"
        assert capsys.readouterr().err == (
            f"occ4d {cmd}: output directory {out} already exists (use --force to overwrite)\n"
        )

    def test_report_command(self, pipeline, tmp_path, capsys):
        root, _ = pipeline
        out = tmp_path / "summary.md"
        assert main(["report", str(root / "report.json"), "--out", str(out)]) == 0
        text = out.read_text()
        assert "r_at_p70" in text and "| metric | value |" in text


class TestDeterminism:
    def test_repeat_runs_identical_digests(self, tmp_path):
        cfg_path = write_smoke_config(tmp_path)
        digests = []
        for run in ("a", "b"):
            base = tmp_path / run
            args = ["--config", str(cfg_path)]
            assert main(["simulate", *args, "--out", str(base / "data")]) == 0
            assert main(["genqueries", *args, "--dataset", str(base / "data"), "--out", str(base / "queries")]) == 0
            assert main(["train", *args, "--queries", str(base / "queries"), "--out", str(base / "run")]) == 0
            assert (
                main(
                    [
                        "eval",
                        *args,
                        "--checkpoint",
                        str(base / "run" / "checkpoint.bin"),
                        "--dataset",
                        str(base / "data"),
                        "--out",
                        str(base / "report.json"),
                    ]
                )
                == 0
            )
            bundle = {
                "sim": read_json(base / "data" / "manifest.json")["files"],
                "queries": read_json(base / "queries" / "manifest.json")["files"],
                "run": read_json(base / "run" / "manifest.json")["files"],
                "report": (base / "report.json").read_text(),
            }
            digests.append(json.dumps(bundle, sort_keys=True))
        assert digests[0] == digests[1]

    def test_workers_do_not_change_outputs(self, tmp_path):
        cfg_path = write_smoke_config(tmp_path)
        manifests = []
        for run, workers in (("w1", "1"), ("w2", "2")):
            base = tmp_path / run
            assert (
                main(
                    [
                        "simulate",
                        "--config",
                        str(cfg_path),
                        "--workers",
                        workers,
                        "--out",
                        str(base / "data"),
                    ]
                )
                == 0
            )
            manifests.append(read_json(base / "data" / "manifest.json")["files"])
        assert manifests[0] == manifests[1]


    def test_genqueries_workers_do_not_change_outputs(self, tmp_path):
        cfg_path = write_smoke_config(tmp_path)
        args = ["--config", str(cfg_path)]
        assert main(["simulate", *args, "--out", str(tmp_path / "data")]) == 0
        manifests = []
        for workers in ("1", "2"):
            out = tmp_path / f"queries_w{workers}"
            assert main(["genqueries", *args, "--dataset", str(tmp_path / "data"), "--workers", workers, "--out", str(out)]) == 0
            manifests.append(read_json(out / "manifest.json")["files"])
        assert manifests[0] == manifests[1]

    def test_blas_threads_do_not_change_files(self, tmp_path):
        calls = cli._blas_thread_calls()
        if calls is None:
            pytest.skip("numpy's bundled OpenBLAS thread-count symbols are not available")
        cfg_path = write_smoke_config(tmp_path)
        args = ["--config", str(cfg_path)]
        assert main(["simulate", *args, "--out", str(tmp_path / "data")]) == 0
        before, manifests = calls[0](), []
        try:
            for threads in (1, 2):
                calls[1](threads)
                out = tmp_path / f"queries_t{threads}"
                assert main(["genqueries", *args, "--dataset", str(tmp_path / "data"), "--out", str(out)]) == 0
                manifests.append(read_json(out / "manifest.json"))
        finally:
            calls[1](before)
        assert [m["blas_threads"] for m in manifests] == [1, 2]
        assert manifests[0]["files"] == manifests[1]["files"]

    def test_pool_workers_run_one_blas_thread(self):
        if cli._blas_thread_calls() is None:
            pytest.skip("numpy's bundled OpenBLAS thread-count symbols are not available")
        assert cli._run_jobs(_blas_threads, [0, 1], workers=2) == ([1, 1], True)


def _blas_threads(_):
    return cli._blas_thread_calls()[0]()


class TestEvalEncoderInput:
    @staticmethod
    def run(tmp_path, monkeypatch, past_offsets):
        """simulate, genqueries and train one scene with ``past_offsets``, then
        eval; returns the EncoderInputs eval encoded, the one genqueries wrote
        and the scene times eval's box test took (one call per probe time)."""
        import occ4d.evaluation as evaluation
        from occ4d.queries import load_encoder_input

        cfg_path = tmp_path / "config.json"
        doc = json.loads(json.dumps(SMOKE_OVERRIDES))
        doc["suite"].update({"n_scenes": 1, "n_future": 2, "past_offsets": past_offsets})
        doc["train"].update({"total_steps": 3, "warmup_steps": 1})
        doc["augment"] = {"rotation_enabled": False}
        cfg_path.write_text(json.dumps(doc))
        args = ["--config", str(cfg_path)]
        assert main(["simulate", *args, "--out", str(tmp_path / "data")]) == 0
        assert main(["genqueries", *args, "--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "q")]) == 0
        assert main(["train", *args, "--queries", str(tmp_path / "q"), "--out", str(tmp_path / "run")]) == 0

        seen, oracle_times = [], []
        real_encode, real_boxes = evaluation.encode, evaluation.boxes_contain

        def recording_encode(fp, enc):
            seen.append(enc)
            return real_encode(fp, enc)

        def recording_boxes(sc, points, times):
            oracle_times.append(times)
            return real_boxes(sc, points, times)

        monkeypatch.setattr(evaluation, "encode", recording_encode)
        monkeypatch.setattr(evaluation, "boxes_contain", recording_boxes)
        code = main(
            ["eval", *args, "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
             "--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "report.json")]
        )
        assert code == 0
        return seen, load_encoder_input(tmp_path / "q" / "sample000.enc.bin"), oracle_times

    def test_eval_encodes_the_training_past_scans_once_per_scene(self, tmp_path, monkeypatch):
        # non-default past offsets: eval must encode the same scans, at the
        # same relative times, as the sample genqueries wrote (at theta = 0)
        seen, written, _ = self.run(tmp_path, monkeypatch, [-0.6, 0.0])
        assert len(seen) == 1
        assert seen[0].rel_times == written.rel_times == [-0.6, 0.0]
        assert len(seen[0].point_sets) == len(written.point_sets)
        for got, want in zip(seen[0].point_sets, written.point_sets):
            np.testing.assert_array_equal(got, want)

    def test_encoder_takes_one_input_per_past_scan(self, tmp_path, monkeypatch):
        # four past offsets: the field's k_past comes from the suite, so the
        # t0 scan reaches the encoder, and its embedding takes 2 * 4 channels
        from occ4d.training import load_checkpoint

        seen, written, _ = self.run(tmp_path, monkeypatch, [-1.5, -1.0, -0.5, 0.0])
        fp = load_checkpoint(tmp_path / "run" / "checkpoint.bin")[0]
        assert fp.config.k_past == 4
        assert fp.params["enc.embed.w"].shape == (8, SMOKE_OVERRIDES["field"]["channels"])
        assert len(seen[0].point_sets) == len(written.point_sets) == 4

    def test_eval_now_is_the_latest_past_scan(self, tmp_path, monkeypatch):
        # past offsets ending before 0: as in training's samples, eval's t0
        # is the latest past scan, -0.5, and probe time t is scene time t0 + t
        seen, written, oracle_times = self.run(tmp_path, monkeypatch, [-1.0, -0.5])
        assert len(seen) == 1
        assert seen[0].rel_times == written.rel_times == [-0.5, 0.0]
        assert len(seen[0].point_sets) == len(written.point_sets) == 2
        for got, want in zip(seen[0].point_sets, written.point_sets):
            np.testing.assert_array_equal(got, want)
        assert oracle_times == [-0.5 + t for t in SMOKE_OVERRIDES["eval"]["times"]]
