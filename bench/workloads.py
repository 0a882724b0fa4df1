"""Benchmark workloads: occ4d config overrides, one dict per workload.

Every workload runs all four pipeline stages, so every workload reports every
end-to-end metric; the sizes decide which stage dominates. README.md gives
the reasons for each override.
"""

# Overrides on top of occ4d.config.DEFAULT_CONFIG. The pipeline seeds keep
# their defaults (seed 0, scene_seed_base 1000), so every round of a workload
# sees the same scenes and draws, its quality metrics repeat exactly and its
# timings differ only by the machine. One stage takes about half of each
# round and every other stage about a fifth or more, so that each stage's rate
# is measured over several seconds per run.
WORKLOADS = {
    # query generation dominates: the default suite shape and query budgets
    "querygen": {
        "suite": {"n_scenes": 2},
        "train": {"total_steps": 45, "warmup_steps": 5},
        "eval": {"step": 0.4},
    },
    # amortized training dominates: the encoder conv runs forward and
    # backward on every step; a third of the default occupancy budget
    "pretrain-amortized": {
        "suite": {"n_scenes": 2, "n_future": 8, "future_dt": 0.375},
        "sampler": {"n_occ_pos": 3000, "n_occ_neg": 3000},
        "train": {"total_steps": 100, "warmup_steps": 10},
        "eval": {"step": 0.4, "times": [0.6, 1.8, 3.0]},
    },
    # dense eval dominates: one scene, fit-per-scene training (no encoder),
    # then the default 0.2 m probe lattice with ray-traced labels
    "fit-dense-eval": {
        "suite": {"n_scenes": 1},
        "train": {"mode": "fit_per_scene", "total_steps": 200, "warmup_steps": 20},
        "eval": {"times": [0.6, 1.8, 3.0]},
    },
}
