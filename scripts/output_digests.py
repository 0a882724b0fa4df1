#!/usr/bin/env python3
"""Print the sha256 of every pipeline output under a work directory.

A work directory holds the stage outputs data/ (simulate), queries/
(genqueries), run/ (train) and report.json (eval), as bench/child.py and
scripts/smoke_pipeline.py lay them out. The script hashes every file that a
stage manifest's ``files`` lists, plus report.json, run/loss.csv and
run/checkpoint.bin, and prints one ``sha256  path`` line per file, sorted by
path. Two runs wrote the same bytes when their lines are equal:

    diff <(python scripts/output_digests.py A) <(python scripts/output_digests.py B)

It exits 1 if a listed file is missing or no longer matches its manifest.

Usage: python scripts/output_digests.py WORKDIR
"""

import hashlib
import json
import sys
from pathlib import Path

EXTRAS = ("report.json", "run/loss.csv", "run/checkpoint.bin")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    work = Path(argv[0])
    listed = {}  # path relative to the work directory -> sha256 in its manifest, or None
    for manifest in sorted(work.glob("*/manifest.json")):
        for entry in json.loads(manifest.read_text())["files"]:
            listed[f"{manifest.parent.name}/{entry['path']}"] = entry["sha256"]
    for extra in EXTRAS:
        listed.setdefault(extra, None)
    bad = 0
    for rel in sorted(listed):
        path = work / rel
        if not path.is_file():
            print(f"missing  {rel}")
            bad += 1
            continue
        digest = sha256(path)
        if listed[rel] not in (None, digest):
            print(f"{rel}: sha256 {digest} differs from its manifest's {listed[rel]}", file=sys.stderr)
            bad += 1
        print(f"{digest}  {rel}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
