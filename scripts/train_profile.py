#!/usr/bin/env python3
"""Profile the train step: run ``train()`` on a queries directory in one
process with 1 BLAS thread, and print the milliseconds and minor page faults
(``ru_minflt``) per step, then the inclusive milliseconds per step of each
function of the step that was called.

Each function is timed by a wrapper that this script installs in its module
before training; a function called inside another (``_conv_at`` inside
``encode``) counts in both, and a TIMED name that its module lacks stops
the script with a message that names it. The process pins glibc's heap as
``occ4d`` does. The run trains the config for ``--steps`` steps (default
100, at most the config's ``train.total_steps``), with its warmup cut to
fit; batches depend only on the seed and the step, so each step draws the
batch that the full run draws. Fit-per-scene mode trains on the first sample, as
``occ4d train`` does. Nothing is written.

Usage: python scripts/train_profile.py CONFIG QUERIES [--steps N]
"""

import argparse
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

TIMED = {
    "field": (
        "encode",
        "encode_backward",
        "pillar_histogram",
        "_conv_at",
        "_conv_dx",
        "_leaky_grad",
        "head_forward",
        "head_backward",
        "_interp_setup",
        "interp_grid",
        "interp_backward",
        "fourier_zt",
    ),
    "training": ("draw_batch", "adam_step"),
}


def install_timers(modules: dict, seconds: dict, calls: dict) -> None:
    """Replace each TIMED function in ``modules`` by a wrapper that adds its
    wall time to ``seconds[name]`` and counts its calls."""
    missing = [f"{m}.{n}" for m, names in TIMED.items() for n in names if not callable(getattr(modules[m], n, None))]
    if missing:
        raise SystemExit(f"train_profile: no function {', '.join(missing)} to time; update TIMED")
    for mod_name, names in TIMED.items():
        module = modules[mod_name]
        for name in names:

            def wrapper(*args, _fn=getattr(module, name), _name=name, **kwargs):
                start = time.perf_counter()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    seconds[_name] += time.perf_counter() - start
                    calls[_name] += 1

            setattr(module, name, wrapper)


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("queries")
    ap.add_argument("--steps", type=int, default=100)
    args = ap.parse_args(argv)
    if args.steps < 1:
        ap.error("--steps must be at least 1")

    import resource

    from occ4d import field, training
    from occ4d.cli import _blas_threads, _load_samples, _pin_heap
    from occ4d.config import field_from, load_config, train_from

    _pin_heap()
    cfg = load_config(args.config)
    full = train_from(cfg)
    steps = min(args.steps, full.total_steps)
    tcfg = train_from(cfg, total_steps=steps, warmup_steps=min(full.warmup_steps, steps))
    samples = _load_samples(Path(args.queries))
    if not samples:
        ap.error(f"no samples in {args.queries}")
    if tcfg.mode == field.MODE_FIT_PER_SCENE:
        samples = samples[:1]

    seconds, calls = defaultdict(float), defaultdict(int)
    install_timers({"field": field, "training": training}, seconds, calls)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    training.train(samples, field_from(cfg), tcfg)
    wall = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

    print(
        f"train_profile: {steps} {tcfg.mode} steps on {len(samples)} samples, {_blas_threads()} BLAS thread(s): "
        f"{1e3 * wall / steps:.3f} ms/step, {faults / steps:.1f} minor faults/step"
    )
    print(f"{'function':<20}{'calls/step':>12}{'ms/step':>10}")
    for name in (n for names in TIMED.values() for n in names if calls[n]):
        print(f"{name:<20}{calls[name] / steps:>12.2f}{1e3 * seconds[name] / steps:>10.3f}")
    return 0


if __name__ == "__main__":
    # before numpy loads, so that BLAS starts one thread
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.exit(main(sys.argv[1:]))
