import json
import math

import pytest

from occ4d.config import (
    augment_from,
    canonical_json,
    config_digest,
    evalgrid_from,
    field_from,
    load_config,
    sampler_from,
    staged_output,
    train_from,
    write_manifest,
)


class TestConfig:
    def test_defaults_match_published_regime(self):
        cfg = load_config()
        sampler = sampler_from(cfg)
        assert sampler.delta == 0.1
        assert sampler.w_ego == 1.0
        assert sampler.t_max == 3.0
        # desk-scale counts are 1/100 of the published 0.9M / 100k / 10k
        assert sampler.n_occ_pos == sampler.n_occ_neg == 9000
        assert sampler.n_feat == 1000
        assert sampler.n_ego_pos == sampler.n_ego_neg == 100
        train = train_from(cfg)
        assert (train.lambda_occ, train.lambda_dino, train.lambda_ego) == (1.0, 0.5, 0.1)
        assert train.lr_max == 4e-4
        aug = augment_from(cfg)
        assert aug.theta_min == pytest.approx(-math.radians(20.0))
        assert aug.theta_max == pytest.approx(math.radians(20.0))
        grid = evalgrid_from(cfg)
        assert grid.step == 0.2
        assert grid.times == (0.6, 1.2, 1.8, 2.4, 3.0)
        assert field_from(cfg).d_feat == 16

    def test_digest_stable_under_key_order(self):
        a = {"b": 1, "a": {"y": 2, "x": 3}}
        b = {"a": {"x": 3, "y": 2}, "b": 1}
        assert canonical_json(a) == canonical_json(b)
        assert config_digest(a) == config_digest(b)

    def test_default_digest_pinned(self):
        # every manifest and sample meta embeds this digest: the defaults'
        # values and key set must not move
        assert config_digest(load_config()) == "9de717c1a333c3a0c180b9eabf7014fb655b320531b7ba83439f1e33a814c17f"

    def test_digest_changes_with_content(self):
        cfg = load_config()
        other = load_config(overrides={"seed": 1})
        assert config_digest(cfg) != config_digest(other)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"not_a_section": 1}))
        with pytest.raises(ValueError, match="not_a_section"):
            load_config(p)

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\n  broken\n}")
        with pytest.raises(ValueError, match=r":2:"):
            load_config(p)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_constant_rejected(self, tmp_path, constant):
        p = tmp_path / "bad.json"
        p.write_text('{"sampler": {"delta": %s}}' % constant)
        with pytest.raises(ValueError, match=f"bad.json: {constant} is not allowed"):
            load_config(p)

    def test_nonfinite_override_has_no_digest(self):
        cfg = load_config(overrides={"sampler": {"delta": float("nan")}})
        with pytest.raises(ValueError):
            config_digest(cfg)

    def test_merge_is_deep(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"sampler": {"n_feat": 5}}))
        cfg = load_config(p)
        assert cfg["sampler"]["n_feat"] == 5
        assert cfg["sampler"]["delta"] == 0.1  # untouched sibling


class TestStagedOutput:
    def test_creates_atomically(self, tmp_path):
        target = tmp_path / "out"
        with staged_output(target) as tmp:
            (tmp / "x.txt").write_text("hi")
            assert not target.exists()
        assert (target / "x.txt").read_text() == "hi"

    def test_failure_leaves_nothing(self, tmp_path):
        target = tmp_path / "out"
        with pytest.raises(RuntimeError):
            with staged_output(target) as tmp:
                (tmp / "x.txt").write_text("hi")
                raise RuntimeError("boom")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_existing_requires_force(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(FileExistsError):
            with staged_output(target):
                pass
        with staged_output(target, force=True) as tmp:
            (tmp / "y").write_text("1")
        assert (target / "y").exists()


class TestManifest:
    def test_lists_files_with_digests(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(b"abc")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "b.bin").write_bytes(b"defg")
        write_manifest(tmp_path, "test", "d1234")
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["stage"] == "test"
        assert doc["config_digest"] == "d1234"
        paths = [f["path"] for f in doc["files"]]
        assert paths == ["a.bin", "sub/b.bin"]
        assert doc["files"][0]["bytes"] == 3
