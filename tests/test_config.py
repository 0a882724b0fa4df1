import json
import math
import re

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
from occ4d.evaluation import EvalGrid


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
        # values and key set must not move (field.z_range and field.t_max
        # left the defaults on purpose: the roi fixes both)
        assert config_digest(load_config()) == "0ff76464bda28702f4b014e30ae4f84c4591eea8f3a92e52dfc6e351fec56683"

    def test_digest_changes_with_content(self):
        cfg = load_config()
        other = load_config(overrides={"seed": 1})
        assert config_digest(cfg) != config_digest(other)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"not_a_section": 1}))
        with pytest.raises(ValueError, match="not_a_section"):
            load_config(p)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("eval", "thresholds", {}), ("augment", "jitter_enabled", True), ("augment", "jitter_tau", 2.0),
            ("field", "k_past", 4), ("field", "t_max", 3.0), ("field", "z_range", [-0.4, 3.0]),
        ],
    )
    def test_removed_key_rejected(self, tmp_path, section, key, value):
        # sampler.jitter_tau is the one tau, k_past comes from the suite, and
        # the field's z range and horizon from the sampler's roi
        p = tmp_path / "old.json"
        p.write_text(json.dumps({section: {key: value}}))
        with pytest.raises(ValueError, match=f"old.json: invalid config at {section}/{key}: unknown key"):
            load_config(p)

    @pytest.mark.parametrize("value", [5, None, "x", [1, 2]])
    def test_section_must_be_an_object(self, tmp_path, value):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"suite": value}))
        with pytest.raises(ValueError, match=re.escape(f"bad.json: invalid config at suite: {value!r} is not of type 'object'")):
            load_config(p)
        with pytest.raises(ValueError, match=re.escape(f"invalid config at sampler/roi: {value!r} is not of type 'object'")):
            load_config(overrides={"sampler": {"roi": value}})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"suite": {"n_scenes": "2"}}, "invalid config at suite/n_scenes: '2' is not of type 'integer'"),
            ({"suite": {"n_boxes": [3]}}, "invalid config at suite/n_boxes: [3] is too short; it must have 2 items"),
            ({"seed": {"a": 1}}, "invalid config at seed: {'a': 1} is not of type 'integer'"),
            ({"augment": {"rotation_enabled": 1}}, "invalid config at augment/rotation_enabled: 1 is not of type 'boolean'"),
            ({"suite": {"n_boxes": [3.5, 6]}}, "invalid config at suite/n_boxes/0: 3.5 is not of type 'integer'"),
            ([1, 2], "invalid config at <root>: [1, 2] is not of type 'object'"),
        ],
        ids=["string_for_int", "one_item_pair", "object_for_int", "int_for_bool", "float_in_int_pair", "array_for_config"],
    )
    def test_leaf_of_the_wrong_type_rejected(self, tmp_path, doc, message):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"bad.json: {message}")):
            load_config(p)

    def test_leaf_types_that_fit_are_accepted(self):
        # an integer is a number; variable-length lists take any length
        cfg = load_config(overrides={"sampler": {"w_ego": 2}, "suite": {"past_offsets": [-0.5, 0.0]}})
        assert cfg["sampler"]["w_ego"] == 2 and sampler_from(cfg).w_ego == 2
        assert field_from(cfg).k_past == 2

    def test_pca_wider_than_the_raw_features_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"suite": {"d_raw": 12}}))
        with pytest.raises(ValueError, match=re.escape("bad.json: pca.d (16) exceeds suite.d_raw (12)")):
            load_config(p)
        with pytest.raises(ValueError, match=re.escape("pca.d (7) exceeds suite.d_raw (6)")):
            load_config(overrides={"suite": {"d_raw": 6}, "pca": {"d": 7}})
        assert load_config(overrides={"suite": {"d_raw": 6}, "pca": {"d": 6}})["pca"]["d"] == 6

    def test_k_past_counts_the_past_offsets(self):
        assert field_from(load_config()).k_past == 3
        cfg = load_config(overrides={"suite": {"past_offsets": [-1.5, -1.0, -0.5, 0.0]}})
        assert field_from(cfg).k_past == 4
        assert field_from(cfg).hist_channels == 8

    def test_field_z_and_t_follow_the_roi(self):
        default = field_from(load_config())
        assert (default.z_range, default.t_max) == ((-0.4, 3.0), 3.0)
        cfg = load_config(overrides={"sampler": {"roi": {"z": [-1.0, 2.5], "t_max": 2.4}}})
        fc = field_from(cfg)
        assert (fc.z_range, fc.t_max) == ((-1.0, 2.5), 2.4)
        assert sampler_from(cfg).roi.z == fc.z_range and sampler_from(cfg).t_max == fc.t_max

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_eval_lattice_outside_the_field_rejected(self, tmp_path, axis):
        # the field scores probes only inside its x-y region, so eval would
        # fail after every other stage had run
        p = tmp_path / "wide.json"
        p.write_text(json.dumps({"eval": {axis: [-20.0, 20.0]}}))
        message = f"wide.json: eval/{axis} [-20.0, 20.0] reaches outside field/{axis}_range [-18.0, 18.0]"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(p)
        with pytest.raises(ValueError, match=f"eval/{axis} .* field/{axis}_range"):
            load_config(overrides={"field": {f"{axis}_range": [-15.0, 18.0]}})
        cfg = load_config(overrides={"eval": {axis: [-18.0, 18.0]}})  # the field's own edges are inside
        assert cfg["eval"][axis] == [-18.0, 18.0]

    def test_empty_eval_times_rejected(self, tmp_path):
        # with no probe time eval would fail inside numpy, after every other
        # stage had run, with a message that names no config key
        p = tmp_path / "notimes.json"
        p.write_text(json.dumps({"eval": {"times": []}}))
        message = "eval times [] must hold at least one probe time, each >= 0"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(p)
        with pytest.raises(ValueError, match=re.escape(message)):
            EvalGrid(times=())
        with pytest.raises(ValueError, match=re.escape("eval times [0.6, -1.0] must hold")):
            load_config(overrides={"eval": {"times": [0.6, -1.0]}})

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
