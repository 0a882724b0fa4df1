#!/usr/bin/env python3
"""Print every report.json key whose value differs between two eval runs.

A and B are report.json files, or directories that hold one (a work
directory as bench/child.py and scripts/smoke_pipeline.py lay it out). Nested
keys are flattened with dots, and each row of ``per_time_breakdown`` is named
by its time, so one line per changed value reads:

    per_time_breakdown[t=0.6].ap_occ_exact: 0.7209917794171883 -> 0.7209917804254475

Values are compared and printed by ``repr``, so a change in the last digit
shows. A key that only one side has prints ``<absent>`` on the other. It
exits 0 if nothing differs, 1 if something does.

Usage: python scripts/report_diff.py A B
"""

import json
import sys
from pathlib import Path


def flatten(doc, prefix: str = "") -> dict:
    """{flattened key: leaf value} of a parsed JSON document."""
    if isinstance(doc, dict):
        items = [(f"{prefix}.{k}" if prefix else k, v) for k, v in doc.items()]
    elif isinstance(doc, list):
        items = [
            (f"{prefix}[t={v['time']!r}]" if isinstance(v, dict) and "time" in v else f"{prefix}[{i}]", v)
            for i, v in enumerate(doc)
        ]
    else:
        return {prefix: doc}
    out = {}
    for key, value in items:
        out.update(flatten(value, key))
    return out


def read_report(path: Path) -> dict:
    return flatten(json.loads((path / "report.json" if path.is_dir() else path).read_text()))


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    a, b = ({k: repr(v) for k, v in read_report(Path(p)).items()} for p in argv)
    changed = [k for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)]
    for key in changed:
        print(f"{key}: {a.get(key, '<absent>')} -> {b.get(key, '<absent>')}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
