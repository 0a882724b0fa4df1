#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the occ4d pipeline.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round launches a fresh child process (child.py) that runs simulate ->
genqueries -> train -> eval through ``occ4d.cli.main`` with one BLAS thread
and ``--workers 1``, then checks the round's outputs (checks.py). Rounds
repeat until S seconds have passed; every round runs to its end. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and, over the run's rounds, every end-to-end metric
(``--trace 0``) or every per-layer metric (``--trace 1``); see aggregate().
A traced round runs the workload untraced and then traced, checks that the
two wrote the same bytes, and reports the traced child's per-layer times.

The pipeline's own seeds are fixed by the workload (workloads.py); the run
seed picks what the output checks sample. Working files go to .bench_work/
and are removed; each run's summary goes to .bench_results/.
"""

from __future__ import annotations

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy is imported, here and in every child

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 165.0          # a run must exit within 180 s
STAGES = ("simulate", "genqueries", "train", "eval")
STAGE_DIRS = {"simulate": "data", "genqueries": "queries", "train": "run"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def src_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted((ROOT / "src" / "occ4d").rglob("*.py")))


def run_child(work: Path, cfg_over: dict, deadline: float, trace: bool) -> dict:
    """One pipeline round in a fresh process; returns its round.json plus
    the parent's spawn and exit stamps (None stages if it died)."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(cfg_over))
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), "--work", str(work)]
    if trace:
        cmd.append("--trace")
    with open(work / "child.log", "w") as log:
        spawn = now()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - now()))
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        exit_t = now()
    doc = {"stages": {}}
    if code == 0 and (work / "round.json").exists():
        doc = json.loads((work / "round.json").read_text())
    doc.update(spawn=spawn, exit=exit_t, exit_code=code)
    doc["ok"] = {s: doc["stages"].get(s, {}).get("code") == 0 for s in STAGES}
    return doc


def _metas(work: Path) -> list:
    return [json.loads(p.read_text()) for p in sorted((work / "queries").glob("sample*.meta.json"))]


RATES = {  # rate metric -> stage whose work it counts per second of stage time
    "genqueries_queries_per_s": "genqueries",
    "train_steps_per_s": "train",
    "eval_probes_per_s": "eval",
}


def end_to_end(work: Path, doc: dict) -> dict:
    """End-to-end figures of one untraced round; each rate as (work, stage seconds)."""
    from checks import loss_rows

    st = doc["stages"]
    dur = {s: st[s]["end"] - st[s]["start"] for s in STAGES}
    queries = sum(sum(m["emitted"].values()) for m in _metas(work))
    steps = json.loads((work / "run" / "manifest.json").read_text())["steps"]
    report = json.loads((work / "report.json").read_text())
    loss = loss_rows(work)
    tail = loss[-max(1, len(loss) // 10):]
    return {
        "setup_s": st["simulate"]["end"] - doc["spawn"],
        "genqueries_queries_per_s": (queries, dur["genqueries"]),
        "train_steps_per_s": (steps, dur["train"]),
        "eval_probes_per_s": (report["n_probes"], dur["eval"]),
        "pipeline_s": doc["exit"] - doc["spawn"],
        "peak_rss_mb": doc["peak_rss_kib"] / 1024.0,
        "train_loss": sum(tail) / len(tail),
        "ap_occ": report["ap_occ"],
        "ap_occ_exact": report["ap_occ_exact"],
        "r_at_p70_exact": report["r_at_p70_exact"],
        "ap_ego": report["ap_ego"],
    }


def aggregate(name: str, rows: list):
    """One figure per run: rates pool every round's work and stage time,
    pipeline_s is the mean round time, the rest are medians over rounds.
    A stage of a second or two runs up to a fifth faster or slower from one
    second to the next on a shared host, so every second of it is used."""
    if name in RATES:
        return sum(r[name][0] for r in rows) / sum(r[name][1] for r in rows)
    if name == "pipeline_s":
        return statistics.fmean(r[name] for r in rows)
    return statistics.median(r[name] for r in rows)


def per_layer(work: Path, doc: dict, names: list) -> dict:
    """Per-layer metrics of one traced round."""
    tr = doc["trace"]
    metas = _metas(work)
    requested = sum(sum(m["requested"].values()) for m in metas)
    emitted = sum(m["emitted"].get(k, 0) for m in metas for k in m["requested"])
    report = json.loads((work / "report.json").read_text())
    out = {
        "queries.emitted": emitted,
        "queries.requested": requested,
        "queries.emitted_per_requested": emitted / requested,
        "cli.genqueries.queries": sum(sum(m["emitted"].values()) for m in metas),
        "cli.train.steps": json.loads((work / "run" / "manifest.json").read_text())["steps"],
        "cli.eval.probes": report["n_probes"],
    }
    for name in names:
        fn, _, kind = name.rpartition(".")
        if kind == "self_s":
            out[name] = tr["self_s"].get(fn, 0.0)
        elif kind == "calls":
            out.setdefault(name, tr["calls"][fn])
    return out


def same_outputs(a: Path, b: Path) -> dict:
    """Stage manifests' file lists (and the eval report) of two rounds agree."""
    out = {}
    for stage, sub in STAGE_DIRS.items():
        try:
            fa = json.loads((a / sub / "manifest.json").read_text())["files"]
            fb = json.loads((b / sub / "manifest.json").read_text())["files"]
            out[f"same_{stage}"] = None if fa == fb else "manifest files differ"
        except (OSError, ValueError, KeyError) as e:
            out[f"same_{stage}"] = f"{type(e).__name__}: {e}"
    try:
        same = (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        out["same_eval"] = None if same else "report.json differs"
    except OSError as e:
        out["same_eval"] = f"{type(e).__name__}: {e}"
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = now()
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "occ4d" / "cli.py").is_file() or not spec_path.is_file():
        print(f"bench: no occ4d sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import checks
    from occ4d.config import load_config
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cfg_over = WORKLOADS[args.workload]
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in metric_specs]
    work_root = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    deadline = start + DEADLINE_S
    rounds = []
    try:
        while True:
            k = len(rounds)
            work = work_root / "round"
            doc = run_child(work, cfg_over, deadline, trace=False)
            ops = {f"stage_{s}": None if doc["ok"][s] else f"exit {doc['exit_code']}" for s in STAGES}
            row = {"ops": ops}
            cfg = load_config(work / "config.json")
            if all(doc["ok"].values()):
                row["metrics"] = end_to_end(work, doc)
                ops.update(checks.run_checks(work, cfg, np.random.default_rng((args.seed, k))))
            else:
                ops.update({name: "not run: a stage failed" for name, _ in checks.CHECKS})
            if args.trace:
                traced = run_child(work_root / "traced", cfg_over, deadline, trace=True)
                ops.update({f"traced_{s}": None if traced["ok"][s] else f"exit {traced['exit_code']}" for s in STAGES})
                ops.update(same_outputs(work, work_root / "traced"))
                if all(traced["ok"].values()) and "metrics" in row:
                    row["layers"] = per_layer(work_root / "traced", traced, names)
                    row["layers"]["trace.overhead_s"] = (traced["exit"] - traced["spawn"]) - row["metrics"]["pipeline_s"]
                    shutil.copy(work_root / "traced" / "spans.json", results / f"{args.workload}-seed{args.seed}.spans.json")
            rounds.append(row)
            if now() - start >= args.seconds or now() >= deadline - 1.0:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    attempted = sum(len(r["ops"]) for r in rounds)
    failures = [(i, op, msg) for i, r in enumerate(rounds) for op, msg in r["ops"].items() if msg]
    key = "layers" if args.trace else "metrics"
    good = [r[key] for r in rounds if key in r]
    lines = src_lines()
    metrics = {}
    if good:
        for m in metric_specs:
            value = lines if m["name"] == "src_lines" else aggregate(m["name"], good)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": not failures and len(good) == len(rounds), "attempted": attempted,
              "failed": len(failures), "metrics": metrics}

    detail = {"args": vars(args), "rounds": rounds, "result": result, "blas_env": BLAS_ENV,
              "numpy": np.__version__, "nproc": os.cpu_count(), "python": sys.version.split()[0]}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    for i, op, msg in failures:
        print(f"round {i} {op} FAILED: {msg}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {attempted} operations, {len(failures)} failed")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
