import math

import numpy as np
import pytest

from occ4d import artifact, field
from occ4d.field import MODE_AMORTIZED, MODE_FIT_PER_SCENE, init_params, loss_and_grads, query_head
from occ4d.geom import per_ray_rng
from occ4d.queries import HEAD_TAGS, EncoderInput
from occ4d.training import (
    _STREAM_SAMPLE_SEL,
    AdamState,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    TrainSample,
    adam_step,
    draw_batch,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    train,
    write_loss_csv,
)

from oracles import adam_step_out_of_place
from test_field import SMALL, random_enc_input, random_queryset


def make_sample(seed, amortized=True):
    rng = np.random.default_rng(seed)
    qs = random_queryset(rng, SMALL, n_occ=400, n_feat=80, n_ego=80)
    enc = random_enc_input(rng, SMALL) if amortized else None
    return TrainSample(queries=qs, enc_input=enc)


class TestSchedule:
    CFG = TrainConfig(warmup_steps=100, total_steps=1000, lr_max=4e-4)

    def test_warmup_endpoint_exact(self):
        assert lr_schedule(100, self.CFG) == pytest.approx(self.CFG.lr_max, abs=1e-12 * 4e-4)

    def test_final_step_near_zero(self):
        assert lr_schedule(1000, self.CFG) < 1e-6 * self.CFG.lr_max

    def test_monotone_warmup(self):
        lrs = [lr_schedule(s, self.CFG) for s in range(1, 101)]
        assert all(b > a for a, b in zip(lrs, lrs[1:]))

    def test_cosine_decreasing(self):
        lrs = [lr_schedule(s, self.CFG) for s in range(100, 1001)]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_no_warmup(self):
        cfg = TrainConfig(warmup_steps=0, total_steps=10)
        assert lr_schedule(1, cfg) > 0


class TestAdam:
    def test_first_step_closed_form(self):
        # w = 1, grad = 2w: first update is lr * m_hat / (sqrt(v_hat) + eps)
        params = {"w": np.array([1.0])}
        state = AdamState.zeros(params)
        adam_step(params, {"w": np.array([2.0])}, state, step_index=1, lr=0.1)
        expected = 1.0 - 0.1 * 2.0 / (2.0 + 1e-8)
        assert params["w"][0] == pytest.approx(expected, abs=1e-12)
        assert params["w"][0] == pytest.approx(0.9, abs=1e-8)

    def test_zero_gradient_fixed_point(self):
        params = {"w": np.array([3.0, -1.0])}
        state = AdamState.zeros(params)
        for step in range(1, 20):
            adam_step(params, {"w": np.zeros(2)}, state, step, lr=0.1)
        np.testing.assert_array_equal(params["w"], [3.0, -1.0])

    def test_converged_gradient_small(self):
        # minimize (w - 2)^2 on a single parameter
        params = {"w": np.array([10.0])}
        state = AdamState.zeros(params)
        g = None
        for step in range(1, 4000):
            g = 2.0 * (params["w"] - 2.0)
            adam_step(params, {"w": g}, state, step, lr=0.01)
        assert abs(g[0]) < 1e-8

    def test_moments_updated_in_place(self):
        params = {"w": np.ones(4), "b": np.zeros(2)}
        state = AdamState.zeros(params)
        m, v = dict(state.m), dict(state.v)
        adam_step(params, {"w": np.full(4, 2.0), "b": np.ones(2)}, state, step_index=1, lr=0.1)
        for k in params:
            assert state.m[k] is m[k] and state.v[k] is v[k]
            assert np.all(m[k] != 0.0) and np.all(v[k] != 0.0)

    @pytest.mark.parametrize("start", ["zeros", "checkpoint"])
    def test_same_bits_as_out_of_place_update(self, start, tmp_path):
        # 50 steps of sparse gradients whose zeros include -0.0, from fresh
        # moments or from moments (with -0.0 entries) reloaded from disk
        rng = np.random.default_rng(22)
        fp = init_params(SMALL, seed=23, mode=MODE_FIT_PER_SCENE)
        fp.params["grid.z"][:] = rng.normal(size=fp.params["grid.z"].shape)
        state = AdamState.zeros(fp.params)
        if start == "checkpoint":
            for k, p in fp.params.items():
                state.m[k][:] = rng.normal(size=p.shape) * (rng.uniform(size=p.shape) < 0.5)
                state.v[k][:] = state.m[k] ** 2
                state.v[k][rng.uniform(size=p.shape) < 0.1] = -0.0
            path = tmp_path / "ck.bin"
            save_checkpoint(path, fp, state, step=7)
            fp, state, _, _ = load_checkpoint(path)
        params = {k: p.copy() for k, p in fp.params.items()}
        m = {k: a.copy() for k, a in state.m.items()}
        v = {k: a.copy() for k, a in state.v.items()}
        cfg = TrainConfig(warmup_steps=5, total_steps=50)
        for step in range(1, 51):
            grads = {}
            for k, p in params.items():
                g = rng.normal(size=p.shape) * (rng.uniform(size=p.shape) < 0.2)
                g[rng.uniform(size=p.shape) < 0.05] = -0.0
                grads[k] = g
            lr = lr_schedule(step, cfg)
            adam_step(fp.params, grads, state, step, lr)
            adam_step_out_of_place(params, grads, m, v, step, lr)
        for k in params:
            for got, want in ((fp.params[k], params[k]), (state.m[k], m[k]), (state.v[k], v[k])):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), k

    @pytest.mark.parametrize("start", ["zeros", "checkpoint"])
    def test_float32_same_bits_as_out_of_place_update(self, start, tmp_path):
        # the dtype train() steps in: Python-float constants take the arrays'
        # float32 on both sides, so 50 sparse steps with -0.0 zeros keep the bits
        rng = np.random.default_rng(24)
        fp = init_params(SMALL, seed=25, mode=MODE_FIT_PER_SCENE)
        fp.params["grid.z"][:] = rng.normal(size=fp.params["grid.z"].shape)
        state = AdamState.zeros(fp.params)
        if start == "checkpoint":
            for k, p in fp.params.items():
                state.m[k][:] = rng.normal(size=p.shape) * (rng.uniform(size=p.shape) < 0.5)
                state.v[k][:] = state.m[k] ** 2
                state.v[k][rng.uniform(size=p.shape) < 0.1] = -0.0
            save_checkpoint(tmp_path / "ck.bin", fp, state, step=7)
            fp, state, _, _ = load_checkpoint(tmp_path / "ck.bin")
        f32 = {k: p.astype(np.float32) for k, p in fp.params.items()}
        state = state.astype(np.float32)
        params = {k: p.copy() for k, p in f32.items()}
        m = {k: a.copy() for k, a in state.m.items()}
        v = {k: a.copy() for k, a in state.v.items()}
        cfg = TrainConfig(warmup_steps=5, total_steps=50)
        for step in range(1, 51):
            grads = {}
            for k, p in params.items():
                g = (rng.normal(size=p.shape) * (rng.uniform(size=p.shape) < 0.2)).astype(np.float32)
                g[rng.uniform(size=p.shape) < 0.05] = -0.0
                grads[k] = g
            lr = lr_schedule(step, cfg)
            adam_step(f32, grads, state, step, lr)
            adam_step_out_of_place(params, grads, m, v, step, lr)
        for k in params:
            for got, want in ((f32[k], params[k]), (state.m[k], m[k]), (state.v[k], v[k])):
                assert got.dtype == want.dtype == np.float32, k
                assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), k


class TestTrain:
    def test_loss_decreases_fit_mode(self):
        sample = make_sample(0, amortized=False)
        cfg = TrainConfig(mode=MODE_FIT_PER_SCENE, total_steps=300, warmup_steps=30, lr_max=3e-3, seed=1)
        result = train([sample], SMALL, cfg)
        first = np.mean([r[2] for r in result.history[:20]])
        last = np.mean([r[2] for r in result.history[-20:]])
        assert last < 0.7 * first
        assert result.best_loss <= last + 1e-12
        assert len(result.history) == 300

    def test_deterministic_same_seed(self):
        cfg = TrainConfig(mode=MODE_AMORTIZED, total_steps=40, warmup_steps=5, seed=3)
        runs = []
        for _ in range(2):
            sample = make_sample(7)
            runs.append(train([sample], SMALL, cfg))
        h0 = np.array([r[2:] for r in runs[0].history])
        h1 = np.array([r[2:] for r in runs[1].history])
        np.testing.assert_array_equal(h0, h1)
        for k in runs[0].params.params:
            np.testing.assert_array_equal(runs[0].params.params[k], runs[1].params.params[k])

    def test_duplicate_sample_dataset_identical_curve(self):
        sample = make_sample(9)
        cfg = TrainConfig(mode=MODE_AMORTIZED, total_steps=30, warmup_steps=5, seed=4)
        single = train([sample], SMALL, cfg)
        double = train([sample, make_sample(9)], SMALL, cfg)
        np.testing.assert_array_equal(
            np.array([r[2] for r in single.history]), np.array([r[2] for r in double.history])
        )

    def test_fit_mode_rejects_multiple_samples(self):
        cfg = TrainConfig(mode=MODE_FIT_PER_SCENE, total_steps=5, warmup_steps=2)
        with pytest.raises(ValueError):
            train([make_sample(1, False), make_sample(2, False)], SMALL, cfg)

    def test_divergence_detection(self):
        sample = make_sample(11, amortized=False)
        cfg = TrainConfig(mode=MODE_FIT_PER_SCENE, total_steps=30, warmup_steps=1, seed=5)
        fp = init_params(SMALL, seed=5, mode=MODE_FIT_PER_SCENE)
        fp.params["grid.z"][:] = np.nan
        with pytest.raises(TrainingDiverged) as e:
            train([sample], SMALL, cfg, init=fp)
        assert e.value.step == 1

    @pytest.mark.parametrize("mode", [MODE_FIT_PER_SCENE, MODE_AMORTIZED])
    def test_steps_run_in_float32_and_return_float64(self, mode, tmp_path):
        # params and moments come back float64 holding float32 values, and
        # the checkpoint keeps one <f8 array per tensor
        sample = make_sample(15, amortized=mode == MODE_AMORTIZED)
        cfg = TrainConfig(mode=mode, total_steps=10, warmup_steps=2, seed=8)
        result = train([sample], SMALL, cfg)
        tensors = {**result.params.params, **result.adam_state.m, **result.adam_state.v}
        for k, v in tensors.items():
            assert v.dtype == np.float64, k
            assert np.array_equal(v.astype(np.float32).astype(np.float64), v), k
        path = tmp_path / "ck.bin"
        save_checkpoint(path, result.params, result.adam_state, step=result.last_step)
        _, arrays = artifact.load(path, "checkpoint")
        assert len(arrays) == 3 * len(result.params.params)
        assert {a.dtype.str for a in arrays.values()} == {"<f8"}


def train_per_tensor(samples, cfg):
    """``train`` as a plain loop: float32 tensors of their own, and one
    ``adam_step`` over the per-tensor dicts each step."""
    fp = init_params(SMALL, cfg.seed, cfg.mode).astype(np.float32)
    state = AdamState.zeros(fp.params)
    subsets = [{name: s.queries.indices_for(*tags) for name, tags in HEAD_TAGS.items()} for s in samples]
    for step in range(1, cfg.total_steps + 1):
        sel = int(per_ray_rng(cfg.seed, step, _STREAM_SAMPLE_SEL).integers(0, len(samples)))
        batch = draw_batch(samples[sel], subsets[sel], cfg, step)
        _, grads = loss_and_grads(fp, batch, enc_input=samples[sel].enc_input, weights=cfg.weights)
        adam_step(fp.params, grads, state, step, lr_schedule(step, cfg))
    return fp, state


class TestArena:
    @pytest.mark.parametrize("mode", [MODE_FIT_PER_SCENE, MODE_AMORTIZED], ids=["fit_per_scene-False", "amortized-False"])
    def test_same_bits_as_per_tensor_updates(self, mode):
        # one flat Adam update is elementwise, so it gives each tensor the bits
        # of its own update; the returned tensors hold no view of the arena
        amortized = mode == MODE_AMORTIZED
        samples = [make_sample(40, amortized)] + ([make_sample(41)] if amortized else [])
        cfg = TrainConfig(mode=mode, total_steps=5, warmup_steps=2, seed=9)
        result = train(samples, SMALL, cfg)
        fp, state = train_per_tensor(samples, cfg)
        got = {**result.params.params, **{f"m.{k}": a for k, a in result.adam_state.m.items()}}
        got.update({f"v.{k}": a for k, a in result.adam_state.v.items()})
        want = {**fp.params, **{f"m.{k}": a for k, a in state.m.items()}, **{f"v.{k}": a for k, a in state.v.items()}}
        assert list(got) == list(want)
        for k, a in got.items():
            assert a.dtype == np.float64 and np.array_equal(a.view(np.uint64), want[k].astype(np.float64).view(np.uint64)), k
        arrays = list(got.values())
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])


class TestConvInputCache:
    def test_histogram_built_once_per_sample(self, monkeypatch):
        calls = []
        histogram = field.pillar_histogram
        monkeypatch.setattr(field, "pillar_histogram", lambda enc, cfg: calls.append(enc) or histogram(enc, cfg))
        samples = [make_sample(42), make_sample(43)]
        train(samples, SMALL, TrainConfig(mode=MODE_AMORTIZED, total_steps=6, warmup_steps=2, seed=10))
        assert len(calls) == 2 and {id(e) for e in calls} == {id(s.enc_input) for s in samples}

    def test_each_dtype_gets_its_own_input(self):
        # a float64 step after a float32 one (the gradient check after
        # training) encodes from a float64 input, as on a fresh sample
        sample = make_sample(44)
        fp = init_params(SMALL, seed=11, mode=MODE_AMORTIZED)
        batch = draw_batch(sample, {n: sample.queries.indices_for(*t) for n, t in HEAD_TAGS.items()}, TrainConfig(), 1)
        loss_and_grads(fp.astype(np.float32), batch, enc_input=sample.enc_input)
        terms, grads = loss_and_grads(fp, batch, enc_input=sample.enc_input)
        assert sorted(np.dtype(d).name for _, d in sample.enc_input.conv_input) == ["float32", "float64"]
        fresh = EncoderInput(sample.enc_input.point_sets, sample.enc_input.rel_times)
        want_terms, want = loss_and_grads(fp, batch, enc_input=fresh)
        assert terms == want_terms
        assert all(np.array_equal(grads[k].view(np.uint64), want[k].view(np.uint64)) for k in want)

    def test_params_changed_in_place_change_the_loss(self):
        # the cache holds conv1's input, never a param: nudging one in place,
        # as the bench's gradient check does, moves the loss
        sample = make_sample(45)
        fp = init_params(SMALL, seed=12, mode=MODE_AMORTIZED)
        batch = draw_batch(sample, {n: sample.queries.indices_for(*t) for n, t in HEAD_TAGS.items()}, TrainConfig(), 1)
        before = loss_and_grads(fp, batch, enc_input=sample.enc_input)[0].total
        for name in ("enc.embed.w", "enc.conv1.w"):
            fp.params[name].flat[0] += 0.5
            after = loss_and_grads(fp, batch, enc_input=sample.enc_input)[0].total
            assert after != before, name
            before = after


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        fp = init_params(SMALL, seed=20, mode=MODE_AMORTIZED)
        state = AdamState.zeros(fp.params)
        state.m["enc.embed.w"] += 0.25
        p = tmp_path / "ckpt.bin"
        save_checkpoint(p, fp, state, step=123, meta={"config_digest": "abc"})
        back, bstate, step, meta = load_checkpoint(p)
        assert step == 123
        assert meta["config_digest"] == "abc"
        assert back.mode == MODE_AMORTIZED
        assert back.config == SMALL
        for k in fp.params:
            np.testing.assert_array_equal(back.params[k], fp.params[k])
        np.testing.assert_array_equal(bstate.m["enc.embed.w"], state.m["enc.embed.w"])

    @pytest.mark.parametrize("cut", [lambda n: 0, lambda n: 10, lambda n: n // 2], ids=["empty", "10_bytes", "half"])
    def test_truncated_checkpoint_raises_value_error(self, tmp_path, cut):
        fp = init_params(SMALL, seed=20, mode=MODE_AMORTIZED)
        p = tmp_path / "ckpt.bin"
        save_checkpoint(p, fp, AdamState.zeros(fp.params), step=5)
        raw = p.read_bytes()
        p.write_bytes(raw[: cut(len(raw))])
        with pytest.raises(ValueError, match="truncated") as e:
            load_checkpoint(p)
        assert str(p) in str(e.value)

    def test_resume_equals_uninterrupted(self, tmp_path):
        sample = make_sample(21)
        cfg = TrainConfig(mode=MODE_AMORTIZED, total_steps=40, warmup_steps=5, seed=7)
        full = train([sample], SMALL, cfg)

        part1 = train([sample], SMALL, cfg, stop_step=20)
        assert part1.last_step == 20
        p = tmp_path / "ck.bin"
        save_checkpoint(p, part1.params, part1.adam_state, step=part1.last_step)
        fp, state, step, _ = load_checkpoint(p)
        part2 = train([sample], SMALL, cfg, init=fp, adam_state=state, start_step=step)

        stitched = part1.history + part2.history
        assert [r[0] for r in stitched] == list(range(1, 41))
        np.testing.assert_array_equal(
            np.array([r[2] for r in full.history]), np.array([r[2] for r in stitched])
        )
        for k in full.params.params:
            np.testing.assert_array_equal(full.params.params[k], part2.params.params[k])
            np.testing.assert_array_equal(full.adam_state.m[k], part2.adam_state.m[k])
            np.testing.assert_array_equal(full.adam_state.v[k], part2.adam_state.v[k])

    def test_csv_format(self, tmp_path):
        hist = [(1, 1e-4, 0.5, 0.4, 0.05, 0.05), (2, 2e-4, 0.45, 0.36, 0.05, 0.04)]
        p = tmp_path / "loss.csv"
        write_loss_csv(hist, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "step,lr,total,occ,dino,ego"
        assert lines[1].startswith("1,0.0001,0.5")
