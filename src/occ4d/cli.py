"""Pipeline entry points: simulate | genqueries | train | eval | scaling | report.

Exit codes: 0 ok, 1 error, 2 usage error.
Every stage writes a manifest embedding the run-config digest; ``--workers``
parallelizes the per-scene/per-sample stages (outputs are worker-count
independent by construction).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import ctypes
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from .artifact import read_json
from .config import (
    augment_from,
    config_digest,
    env_default,
    evalgrid_from,
    field_from,
    load_config,
    sampler_from,
    staged_output,
    train_from,
    write_manifest,
)
from .evaluation import eval_4d_occupancy, eval_ego_path, scene_grid_for, write_pgm, write_report_json
from .field import MODE_AMORTIZED, MODE_FIT_PER_SCENE
from .geom import per_ray_rng
from .pca import fit_pca, load_pca, save_pca
from .queries import assemble_sample, load_encoder_input, load_queryset, save_encoder_input, save_queryset
from .scene import (
    camera_pose_at,
    cast_lidar_scan,
    lidar_pose_at,
    load_feature_image,
    load_scan,
    load_scene_json,
    random_scene,
    render_feature_image,
    save_feature_image,
    save_scan,
    save_scene_json,
)
from .training import TrainSample, load_checkpoint, lr_schedule, save_checkpoint, train, write_loss_csv

_PCA_SUBSET_STREAM = 0xF17
_PROGRESS_LINES = 10  # train reports progress after every tenth of its steps


def _blas_thread_calls():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None where
    that library or its symbols are missing."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _pin_heap():
    """Fix glibc's malloc thresholds, so that a freed array of up to 32 MiB
    stays in the heap and the next reuses its pages, whatever the heap's
    history; idempotent, and a no-op where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _one_blas_thread():
    """--workers processes run side by side, so each runs BLAS on one thread
    rather than oversubscribing the cores; without the symbols, a no-op."""
    calls = _blas_thread_calls()
    if calls is not None:
        calls[1](1)


def _blas_threads(pooled: bool = False):
    """The BLAS thread count a stage's array work ran on, for its manifest:
    1 in a --workers pool, else this process's; None without the symbols."""
    calls = _blas_thread_calls()
    if calls is None:
        return None
    return 1 if pooled else calls[0]()


def _run_jobs(fn, jobs: list, workers: int):
    """(results, pooled): ``fn`` over ``jobs`` in order, in a pool of
    ``workers`` processes when there is more than one of each."""
    if workers > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            return list(pool.map(fn, jobs)), True
    return [fn(job) for job in jobs], False


def _scan_name(scene_idx: int, t: float) -> str:
    return f"scene{scene_idx:03d}_t{round(t * 1000):+06d}.bin"


def _scene_times(cfg: dict):
    suite = cfg["suite"]
    past = list(suite["past_offsets"])
    future = [round(suite["future_dt"] * (i + 1), 9) for i in range(suite["n_future"])]
    return past, future, list(suite["image_times"])


def _simulate_scene(args):
    cfg, out, idx = args
    suite = cfg["suite"]
    scene = random_scene(
        seed=suite["scene_seed_base"] + idx,
        n_boxes=tuple(suite["n_boxes"]),
        speed_max=suite["speed_max"],
        ego_speed=tuple(suite["ego_speed"]),
        yaw_rate_max=suite["yaw_rate_max"],
        region_half=suite["region_half"],
        ground_range=tuple(suite["ground_range"]),
    )
    out = Path(out)
    save_scene_json(scene, out / "scenes" / f"scene{idx:03d}.json")
    past, future, image_times = _scene_times(cfg)
    for t in past + future:
        scan = cast_lidar_scan(scene, lidar_pose_at(scene, t), scene.rig.lidar_pattern, t)
        save_scan(scan, out / "scans" / _scan_name(idx, t))
    for t in image_times:
        img = render_feature_image(scene, camera_pose_at(scene, t), scene.rig.camera, t, suite["d_raw"])
        save_feature_image(img, out / "images" / _scan_name(idx, t))
    return idx


def cmd_simulate(cfg: dict, out_dir, workers: int = 1, force: bool = False) -> int:
    digest = config_digest(cfg)
    n = cfg["suite"]["n_scenes"]
    with staged_output(out_dir, force) as tmp:
        for sub in ("scenes", "scans", "images"):
            (tmp / sub).mkdir()
        _, pooled = _run_jobs(_simulate_scene, [(cfg, str(tmp), i) for i in range(n)], workers)
        write_manifest(tmp, "simulate", digest, {"n_scenes": n, "blas_threads": _blas_threads(pooled)})
    print(f"simulate: {n} scenes -> {out_dir}")
    return 0


def _load_dataset_scene(dataset: Path, cfg: dict, idx: int):
    scene = load_scene_json(dataset / "scenes" / f"scene{idx:03d}.json")
    past_t, future_t, _ = _scene_times(cfg)
    past = [load_scan(dataset / "scans" / _scan_name(idx, t)) for t in past_t]
    future = [load_scan(dataset / "scans" / _scan_name(idx, t)) for t in future_t]
    return scene, past, future


def _load_dataset_images(dataset: Path, cfg: dict, idx: int):
    _, _, image_t = _scene_times(cfg)
    return [load_feature_image(dataset / "images" / _scan_name(idx, t)) for t in image_t]


def _dataset_scene_indices(dataset: Path):
    return sorted(int(p.stem[5:8]) for p in (dataset / "scenes").glob("scene*.json"))


def _fit_dataset_pca(cfg: dict, images):
    """PCA of the feature vectors of every image of every scene, in order."""
    vectors = np.concatenate([img.features.reshape(-1, img.d_raw) for scene in images for img in scene])
    subset = cfg["pca"]["fit_subset"]
    if len(vectors) > subset:
        gen = per_ray_rng(cfg["seed"], 0, _PCA_SUBSET_STREAM)
        keep = np.sort(gen.choice(len(vectors), size=subset, replace=False))
        vectors = vectors[keep]
    return fit_pca(vectors, cfg["pca"]["d"])


def _genqueries_sample(args):
    cfg, dataset, out, idx, images = args
    dataset, out = Path(dataset), Path(out)
    scene, past, future = _load_dataset_scene(dataset, cfg, idx)
    pca = load_pca(out / "pca.bin")
    sampler = sampler_from(cfg, seed=cfg["seed"] + idx)
    enc, qs, meta = assemble_sample(past, future, images, scene, sampler, augment_from(cfg), pca)
    save_queryset(qs, out / f"sample{idx:03d}.bin")
    save_encoder_input(enc, out / f"sample{idx:03d}.enc.bin")
    doc = meta.to_dict()
    doc["scene"] = idx
    doc["config_digest"] = config_digest(cfg)
    with open(out / f"sample{idx:03d}.meta.json", "w") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
    return doc


def cmd_genqueries(cfg: dict, dataset_dir, out_dir, workers: int = 1, force: bool = False) -> int:
    dataset = Path(dataset_dir)
    if not (dataset / "manifest.json").exists():
        raise FileNotFoundError(f"dataset {dataset} is missing manifest.json (run simulate first)")
    digest = config_digest(cfg)
    indices = _dataset_scene_indices(dataset)
    with staged_output(out_dir, force) as tmp:
        images = [_load_dataset_images(dataset, cfg, i) for i in indices]
        save_pca(_fit_dataset_pca(cfg, images), tmp / "pca.bin")
        jobs = [(cfg, str(dataset), str(tmp), i, imgs) for i, imgs in zip(indices, images)]
        metas, pooled = _run_jobs(_genqueries_sample, jobs, workers)
        emitted, requested = Counter(), Counter()
        for m in metas:
            emitted.update(m["emitted"])
            requested.update(m["requested"])
        exhausted = sorted({k for m in metas for k in m["exhausted"]})
        write_manifest(
            tmp, "genqueries", digest,
            {"n_samples": len(indices), "emitted": emitted, "requested": requested, "exhausted": exhausted,
             "blas_threads": _blas_threads(pooled)},
        )
    counts = ", ".join(f"{k} {n}/{requested[k]}" if k in requested else f"{k} {n}" for k, n in emitted.items())
    print(f"genqueries: emitted/requested {counts}; short of quota: {', '.join(exhausted) or 'none'}")
    print(f"genqueries: {len(indices)} samples -> {out_dir}")
    return 0


def _load_samples(queries_dir: Path):
    samples = []
    for p in sorted(queries_dir.glob("sample*.bin")):
        if p.name.endswith(".enc.bin"):
            continue
        qs = load_queryset(p)
        enc_path = p.parent / (p.stem + ".enc.bin")
        enc = load_encoder_input(enc_path) if enc_path.exists() else None
        samples.append(TrainSample(queries=qs, enc_input=enc))
    return samples


def _train_progress(tcfg, start_step: int):
    """``train``'s on_step hook: a stdout line with step, lr, loss terms,
    steps/s and ETA after every tenth of the steps left to run."""
    total = tcfg.total_steps
    every = max(1, math.ceil((total - start_step) / _PROGRESS_LINES))
    t0 = time.perf_counter()

    def on_step(step, terms):
        done = step - start_step
        if done % every and step != total:
            return
        rate = done / max(time.perf_counter() - t0, 1e-9)
        print(
            f"train: step {step}/{total} lr {lr_schedule(step, tcfg):.3e} loss {terms.total:.4f} "
            f"(occ {terms.occ:.4f} feat {terms.feat:.4f} ego {terms.ego:.4f}) "
            f"{rate:.1f} steps/s, eta {(total - step) / rate:.1f} s",
            flush=True,
        )

    return on_step


def cmd_train(cfg: dict, queries_dir, out_dir, resume=None, force: bool = False) -> int:
    queries = Path(queries_dir)
    if not (queries / "manifest.json").exists():
        raise FileNotFoundError(f"queries dir {queries} is missing manifest.json (run genqueries first)")
    digest = config_digest(cfg)
    with staged_output(out_dir, force) as tmp:  # refuses an existing output before any work
        samples = _load_samples(queries)
        field_cfg = field_from(cfg)
        tcfg = train_from(cfg)
        if tcfg.mode == MODE_FIT_PER_SCENE and len(samples) > 1:
            samples = samples[:1]
        init = state = None
        start_step = 0
        if resume is not None:
            init, state, start_step, ckpt_meta = load_checkpoint(resume)
            if ckpt_meta.get("config_digest") not in (None, digest):
                raise ValueError("resume checkpoint was produced by a different config")
        progress = _train_progress(tcfg, start_step)
        result = train(samples, field_cfg, tcfg, init=init, adam_state=state, start_step=start_step, on_step=progress)
        save_checkpoint(
            tmp / "checkpoint.bin",
            result.params,
            result.adam_state,
            step=result.last_step,
            meta={"config_digest": digest, "best_loss": result.best_loss},
        )
        write_loss_csv(result.history, tmp / "loss.csv")
        write_manifest(tmp, "train", digest, {"steps": result.last_step, "blas_threads": _blas_threads()})
    final = result.history[-1][2] if result.history else math.nan
    print(f"train: {result.last_step} steps, final loss {final:.4f}, best {result.best_loss:.4f} -> {out_dir}")
    return 0


def _dataset_scenes(dataset) -> list:
    dataset = Path(dataset)
    return [load_scene_json(dataset / "scenes" / f"scene{i:03d}.json") for i in _dataset_scene_indices(dataset)]


def _evaluate(fp, scenes, cfg: dict, raytrace: bool, timings=None) -> tuple:
    """The occupancy report and the ego-path result of ``fp`` on ``scenes``.
    Eval's t0 is the latest past scan's time, as in training's samples, and
    each scene's BEV grid is encoded once from the suite's past scans."""
    past = cfg["suite"]["past_offsets"]
    t0, z_grids = max(past), [scene_grid_for(fp, scene, past) for scene in scenes]
    report = eval_4d_occupancy(fp, scenes, evalgrid_from(cfg), t0, z_grids, raytrace, timings)
    ego = eval_ego_path(fp, scenes, sampler_from(cfg), t0, cfg["eval"]["ego_bev_step"], z_grids, timings)
    return report, ego


def cmd_eval(cfg: dict, checkpoint_path, dataset_dir, out_path, rasters=None, force: bool = False) -> int:
    start = time.perf_counter()
    digest = config_digest(cfg)
    fp, _, _, meta = load_checkpoint(checkpoint_path)
    ckpt_digest = meta.get("config_digest")
    if ckpt_digest is not None and ckpt_digest != digest and not force:
        raise ValueError(
            f"checkpoint config digest {ckpt_digest[:12]}... != current {digest[:12]}... (use --force)"
        )
    scenes = _dataset_scenes(dataset_dir)
    if fp.mode == MODE_FIT_PER_SCENE:
        scenes = scenes[:1]
    timings = {}
    report, ego = _evaluate(fp, scenes, cfg, raytrace=True, timings=timings)
    report["ap_ego"] = ego["ap_ego"]
    report["ego_base_rate"] = ego["ego_base_rate"]
    report["config_digest"] = digest
    report["n_scenes"] = len(scenes)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_report_json(report, out_path)
    if rasters:
        rdir = Path(rasters)
        rdir.mkdir(parents=True, exist_ok=True)
        for i, raster in enumerate(ego["rasters"]):
            write_pgm(raster, rdir / f"ego_path_scene{i:03d}.pgm")
    line = ", ".join(
        f"{k}={report[k]:.4f}" for k in ("r_at_p70", "r_at_p70_exact", "ap_occ_exact", "soft_iou", "ap_ego") if k in report
    )
    print(f"eval: {line} -> {out_path}")
    total = time.perf_counter() - start
    r, o = timings.get("raytrace", 0.0), timings.get("oracle", 0.0)
    print(
        f"eval: score {timings.get('score', 0.0):.2f} s, labels {r + o:.2f} s (boxes {o:.2f} s, raytrace {r:.2f} s), "
        f"metrics {timings.get('metrics', 0.0):.2f} s of {total:.2f} s; {report['n_probes'] / total:.0f} probes/s"
    )
    return 0


def cmd_scaling(cfg: dict, queries_dir, eval_dataset_dir, out_dir, force: bool = False) -> int:
    """Train amortized fields on nested sample subsets and evaluate each on
    the held-out suite with the exact oracle (fast path, no ray trace)."""
    digest = config_digest(cfg)
    counts = cfg["scaling"]["sample_counts"]
    seeds = cfg["scaling"]["seeds"]
    with staged_output(out_dir, force) as tmp:  # refuses an existing output before any work
        all_samples = _load_samples(Path(queries_dir))
        if len(all_samples) < max(counts):
            raise ValueError(f"need >= {max(counts)} pretrain samples, found {len(all_samples)}")
        scenes = _dataset_scenes(eval_dataset_dir)
        field_cfg = field_from(cfg)
        rows = []
        for seed in seeds:
            for count in counts:
                tcfg = train_from(
                    cfg,
                    seed=seed,
                    mode=MODE_AMORTIZED,
                    total_steps=cfg["scaling"]["total_steps"],
                    warmup_steps=cfg["scaling"]["warmup_steps"],
                )
                result = train(all_samples[:count], field_cfg, tcfg)
                report, ego = _evaluate(result.params, scenes, cfg, raytrace=False)
                rows.append(
                    {
                        "n_samples": count,
                        "seed": seed,
                        "r_at_p70": report["r_at_p70_exact"],
                        "ap_ego": ego["ap_ego"],
                    }
                )
                print(
                    f"scaling: n={count} seed={seed} r_at_p70_exact={rows[-1]['r_at_p70']:.4f} "
                    f"ap_ego={rows[-1]['ap_ego']:.4f}"
                )
        with open(tmp / "scaling.csv", "w") as f:
            f.write("n_samples,seed,r_at_p70,ap_ego\n")
            for r in rows:
                f.write(f"{r['n_samples']},{r['seed']},{r['r_at_p70']!r},{r['ap_ego']!r}\n")
        with open(tmp / "scaling.json", "w") as f:
            json.dump({"config_digest": digest, "rows": rows}, f, sort_keys=True, indent=1)
            f.write("\n")
        write_manifest(tmp, "scaling", digest)
    print(f"scaling: {len(rows)} runs -> {out_dir}")
    return 0


def cmd_report(inputs, out_path=None) -> int:
    lines = []
    for path in inputs:
        doc = read_json(path)
        lines.append(f"## {path}")
        if "rows" in doc:  # scaling table
            lines.append("| n_samples | seed | R@P70 (exact) | ego AP |")
            lines.append("|---:|---:|---:|---:|")
            for r in doc["rows"]:
                lines.append(f"| {r['n_samples']} | {r['seed']} | {r['r_at_p70']:.4f} | {r['ap_ego']:.4f} |")
        else:
            keys = [
                "r_at_p70",
                "r_at_p70_exact",
                "ap_occ",
                "ap_occ_exact",
                "soft_iou",
                "ap_ego",
                "ego_base_rate",
                "n_probes",
                "n_scenes",
            ]
            lines.append("| metric | value |")
            lines.append("|---|---:|")
            for k in keys:
                if k in doc:
                    v = doc[k]
                    lines.append(f"| {k} | {v:.4f} |" if isinstance(v, float) else f"| {k} | {v} |")
            pc = doc.get("probe_counts")
            if pc:
                lines.append(f"| probes free/occ/unknown | {pc['free']}/{pc['occupied']}/{pc['unknown']} |")
        lines.append("")
    text = "\n".join(lines)
    print(text)
    if out_path:
        Path(out_path).write_text(text + "\n")
    return 0


def _worker_count(text: str) -> int:
    """``--workers``: a whole number of processes, at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occ4d",
        description="Desk-scale 4D occupancy pre-training pipeline: simulate scenes, "
        "generate supervision queries, train the field, evaluate, and run the scaling study.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=env_default("config"), help="run config JSON (defaults apply)")
        p.add_argument("--workers", type=_worker_count, default=1, help="worker processes (1 = reproducibility mode)")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs / skip digest check")

    p = sub.add_parser("simulate", help="generate a scene suite with scans and feature images")
    add_common(p)
    p.add_argument("--out", default=env_default("dataset"), required=env_default("dataset") is None)

    p = sub.add_parser("genqueries", help="produce query sets and the PCA model from a dataset")
    add_common(p)
    p.add_argument("--dataset", default=env_default("dataset"), required=env_default("dataset") is None)
    p.add_argument("--out", default=env_default("queries"), required=env_default("queries") is None)

    p = sub.add_parser("train", help="train the field on generated query sets")
    add_common(p)
    p.add_argument("--queries", default=env_default("queries"), required=env_default("queries") is None)
    p.add_argument("--out", default=env_default("run"), required=env_default("run") is None)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a scene suite")
    add_common(p)
    p.add_argument("--checkpoint", default=env_default("checkpoint"), required=env_default("checkpoint") is None)
    p.add_argument("--dataset", default=env_default("dataset"), required=env_default("dataset") is None)
    p.add_argument("--out", default=env_default("report"), required=env_default("report") is None)
    p.add_argument("--rasters", default=None, help="directory for ego-path PGM rasters")

    p = sub.add_parser("scaling", help="train at growing sample counts and tabulate held-out metrics")
    add_common(p)
    p.add_argument("--queries", default=env_default("queries"), required=env_default("queries") is None)
    p.add_argument("--eval-dataset", default=env_default("eval_dataset"), required=env_default("eval_dataset") is None)
    p.add_argument("--out", default=env_default("scaling"), required=env_default("scaling") is None)

    p = sub.add_parser("report", help="render eval/scaling JSON artifacts as a markdown table")
    p.add_argument("inputs", nargs="+", help="report.json / scaling.json paths")
    p.add_argument("--out", default=None, help="write the table to this file as well")
    return parser


def main(argv=None) -> int:
    _pin_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.inputs, args.out)
        cfg = load_config(args.config)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out, workers=args.workers, force=args.force)
        if args.command == "genqueries":
            return cmd_genqueries(cfg, args.dataset, args.out, workers=args.workers, force=args.force)
        if args.command == "train":
            return cmd_train(cfg, args.queries, args.out, resume=args.resume, force=args.force)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint, args.dataset, args.out, rasters=args.rasters, force=args.force)
        if args.command == "scaling":
            return cmd_scaling(cfg, args.queries, args.eval_dataset, args.out, force=args.force)
        parser.error(f"unknown command {args.command}")
    except (ValueError, RuntimeError, FileNotFoundError, FileExistsError) as e:
        print(f"occ4d {args.command}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
