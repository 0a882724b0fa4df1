import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from occ4d.cli import main
from occ4d.config import config_digest, load_config, read_manifest

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

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("simulate", "genqueries", "train", "eval", "scaling", "report"):
            assert cmd in out


class TestPipeline:
    def test_dataset_layout(self, pipeline):
        root, _ = pipeline
        data = root / "data"
        assert sorted(p.name for p in (data / "scenes").iterdir()) == ["scene000.json", "scene001.json"]
        assert (data / "manifest.json").exists()
        man = read_manifest(data)
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
        man = read_manifest(root / "queries")
        metas = [json.loads(p.read_text()) for p in sorted((root / "queries").glob("sample*.meta.json"))]
        assert man["requested"]["ray_negative"] == 2 * 700
        for kind, n in man["emitted"].items():
            assert n == sum(m["emitted"][kind] for m in metas)
        assert man["exhausted"] == sorted({k for m in metas for k in m["exhausted"]})
        assert not any(f["path"] == "manifest.json" for f in man["files"])

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
                "sim": read_manifest(base / "data")["files"],
                "queries": read_manifest(base / "queries")["files"],
                "run": read_manifest(base / "run")["files"],
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
            manifests.append(read_manifest(base / "data")["files"])
        assert manifests[0] == manifests[1]


class TestEvalEncoderInput:
    @staticmethod
    def run(tmp_path, monkeypatch, past_offsets):
        """simulate, genqueries and train one scene with ``past_offsets``, then
        eval; returns the EncoderInputs eval encoded, the one genqueries wrote
        and the scene times eval's oracle labelled."""
        import occ4d.evaluation as evaluation
        import occ4d.scene as scene
        from occ4d.queries import load_encoder_input

        cfg_path = tmp_path / "config.json"
        doc = json.loads(json.dumps(SMOKE_OVERRIDES))
        doc["suite"].update({"n_scenes": 1, "n_future": 2, "past_offsets": past_offsets})
        doc["field"]["k_past"] = len(past_offsets)
        doc["train"].update({"total_steps": 3, "warmup_steps": 1})
        doc["augment"] = {"rotation_enabled": False}
        cfg_path.write_text(json.dumps(doc))
        args = ["--config", str(cfg_path)]
        assert main(["simulate", *args, "--out", str(tmp_path / "data")]) == 0
        assert main(["genqueries", *args, "--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "q")]) == 0
        assert main(["train", *args, "--queries", str(tmp_path / "q"), "--out", str(tmp_path / "run")]) == 0

        seen, oracle_times = [], []
        real_encode, real_oracle = evaluation.encode, scene.occupancy_oracle

        def recording_encode(fp, enc):
            seen.append(enc)
            return real_encode(fp, enc)

        def recording_oracle(sc, points, times):
            oracle_times.append(times)
            return real_oracle(sc, points, times)

        monkeypatch.setattr(evaluation, "encode", recording_encode)
        monkeypatch.setattr(scene, "occupancy_oracle", recording_oracle)
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
