"""Per-layer tracing from outside the program.

Wraps public functions of the occ4d modules and installs each wrapper in
every module namespace that binds the function, so calls made through any
import of the name are seen. Three kinds of wrapper:

- span: records (name, start, end, parent) in memory and accumulates self
  time, i.e. duration minus the time covered by nested traced calls;
- leaf: accumulates time and calls without recording a span, for functions
  called tens of thousands of times from one span (``traverse_voxels``);
- counter: counts calls only, for the cheapest and most frequent calls.

Spans stay in memory and are written out once, when the round ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

MODULES = ("scene", "geom", "queries", "pca", "field", "training", "evaluation", "config", "cli")

SPANS = {
    "cli": ("cmd_simulate", "cmd_genqueries", "cmd_train", "cmd_eval"),
    "config": ("write_manifest",),
    "scene": ("cast_rays", "cast_lidar_scan", "render_feature_image", "occupancy_oracle"),
    "queries": (
        "assemble_sample",
        "gen_occupancy_negatives",
        "gen_occupancy_positives",
        "gen_missing_ray_negatives",
        "gen_feature_queries",
        "gen_ego_path_queries",
        "save_queryset",
        "load_queryset",
    ),
    "pca": ("fit_pca",),
    "field": (
        "pillar_histogram",
        "encode",
        "encode_backward",
        "head_forward",
        "head_backward",
        "interp_grid",
        "interp_backward",
        "loss_and_grads",
    ),
    "training": ("train", "draw_batch", "adam_step", "save_checkpoint", "load_checkpoint"),
    "evaluation": (
        "eval_4d_occupancy",
        "eval_ego_path",
        "scene_grid_for",
        "label_by_raytrace",
        "average_precision",
        "recall_at_precision",
    ),
}
LEAVES = {"evaluation": ("traverse_voxels",)}
COUNTERS = {"geom": ("per_ray_rng",), "pca": ("project",), "field": ("query_head",)}


class Tracer:
    def __init__(self):
        self.spans = []                  # (name, start, end, parent span index or -1)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.bindings = {}               # traced name -> namespaces patched
        self._stack = []                 # [span index, time covered by children]

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            frame = [idx, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                dur = t1 - t0
                self.spans[idx] = (name, t0, t1, parent)
                self.self_s[name] += dur - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += dur

        return wrapper

    def _leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self.self_s[name] += dur
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += dur

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every occ4d module that binds it."""
        mods = {m: importlib.import_module(f"occ4d.{m}") for m in MODULES}
        for table, make in ((SPANS, self._span), (LEAVES, self._leaf), (COUNTERS, self._counter)):
            for home, names in table.items():
                for fname in names:
                    orig = getattr(mods[home], fname)
                    name = f"{home}.{fname}"
                    wrapped = make(name, orig)
                    patched = []
                    for mname, mod in mods.items():
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, attr, wrapped)
                                patched.append(f"{mname}.{attr}")
                    self.bindings[name] = patched
                    self.calls.setdefault(name, 0)

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "bindings": self.bindings,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, f)
