"""One round of a workload, in a fresh process: simulate -> genqueries ->
train -> eval through ``occ4d.cli.main``, each stage timed.

Usage: python3 child.py --root CHECKOUT --work DIR [--trace]

DIR must hold ``config.json``. The round writes its outputs under DIR and
``round.json`` with monotonic-clock stamps (comparable with the parent's),
stage exit codes, the process's peak RSS and, when traced, the per-layer
summary (spans go to ``spans.json``). The parent sets the BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    work = Path(args.work)
    sys.path.insert(0, str(Path(args.root) / "src"))

    from occ4d import cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    common = ["--config", str(work / "config.json"), "--workers", "1"]
    stages = [
        ("simulate", ["simulate", *common, "--out", str(work / "data")]),
        ("genqueries", ["genqueries", *common, "--dataset", str(work / "data"), "--out", str(work / "queries")]),
        ("train", ["train", *common, "--queries", str(work / "queries"), "--out", str(work / "run")]),
        (
            "eval",
            [
                "eval", *common,
                "--checkpoint", str(work / "run" / "checkpoint.bin"),
                "--dataset", str(work / "data"),
                "--out", str(work / "report.json"),
            ],
        ),
    ]
    doc = {"stages": {}}
    for name, argv in stages:
        t0 = now()
        code = cli.main(argv)
        doc["stages"][name] = {"start": t0, "end": now(), "code": code}
        if code != 0:
            break
    doc["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        doc["trace"] = tracer.summary()
        tracer.write_spans(work / "spans.json")
    with open(work / "round.json", "w") as f:
        json.dump(doc, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
