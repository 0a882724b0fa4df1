#!/usr/bin/env python3
"""List the lines of src/occ4d that a pipeline run never executes.

For each CONFIG (a run config JSON, as ``occ4d --config`` takes), runs
simulate -> genqueries -> train -> eval through ``occ4d.cli.main`` with one
worker, writing into a temporary directory, all in this process under the
standard library's ``trace.Trace(count=1)``. With no CONFIG it runs the
workloads of bench/workloads.py, which it only reads. Then it prints one line
per function of src/occ4d that holds a line no run executed:

    src/occ4d/<module>.py:<lines>  <function>

where <lines> lists those lines as ranges (``279-282,290``); a range spans
the function's executable lines between its ends, every one of which never
ran. Only lines inside functions count: module and class bodies run on
import. A summary line goes to stderr. Code that no run reaches is either a
path the pipeline cannot take, or one that only an error or another command
(``scaling``, ``report``) takes.

Usage: python scripts/traffic_lines.py [CONFIG ...]
"""

import contextlib
import inspect
import json
import os
import runpy
import sys
import tempfile
import trace
import types
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "occ4d"


def workload_configs(tmp: Path) -> list:
    """bench/workloads.py's workloads, each written to a config file in ``tmp``."""
    paths = []
    for name, overrides in runpy.run_path(str(REPO / "bench" / "workloads.py"))["WORKLOADS"].items():
        paths.append(tmp / f"{name}.json")
        paths[-1].write_text(json.dumps(overrides))
    return paths


def run_pipeline(configs: list, tmp: Path) -> None:
    from occ4d import cli

    for i, config in enumerate(configs):
        work, common = tmp / f"run{i}", ["--config", str(config), "--workers", "1"]
        stages = [
            ["simulate", *common, "--out", str(work / "data")],
            ["genqueries", *common, "--dataset", str(work / "data"), "--out", str(work / "queries")],
            ["train", *common, "--queries", str(work / "queries"), "--out", str(work / "run")],
            ["eval", *common, "--checkpoint", str(work / "run" / "checkpoint.bin"),
             "--dataset", str(work / "data"), "--out", str(work / "report.json")],
        ]
        for argv in stages:
            if cli.main(argv) != 0:
                raise SystemExit(f"traffic_lines: {argv[0]} failed on {config}")


def function_lines(path: Path) -> dict:
    """Each executable line of a function in ``path`` -> the innermost
    function's qualified name. A function's first line holds only its entry,
    which fires no line event, so it stays with the enclosing code."""
    owner = {}
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            name = getattr(code, "co_qualname", code.co_name)
            for _, _, line in code.co_lines():
                if line is not None and line != code.co_firstlineno:
                    owner[line] = name
        stack += reversed([c for c in code.co_consts if isinstance(c, types.CodeType)])
    return owner


def ranges(lines: list, executable: list) -> str:
    """``lines`` as ranges over ``executable``, both sorted."""
    at = {line: i for i, line in enumerate(executable)}
    spans = []
    for line in lines:
        if spans and at[line] == at[spans[-1][1]] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv) -> int:
    sys.path.insert(0, str(REPO / "src"))
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    with tempfile.TemporaryDirectory(prefix="traffic_lines_") as tmp, open(os.devnull, "w") as quiet:
        configs = [Path(a).resolve() for a in argv] or workload_configs(Path(tmp))
        with contextlib.redirect_stdout(quiet):  # the stages' progress lines
            tracer.runfunc(run_pipeline, configs, Path(tmp))
    ran = {(Path(f).resolve(), line) for f, line in tracer.results().counts}

    n_lines = n_unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        owner = function_lines(path)
        executable = sorted(owner)
        unrun = {}
        for line in executable:
            if (path, line) not in ran:
                unrun.setdefault(owner[line], []).append(line)
        n_lines, n_unrun = n_lines + len(executable), n_unrun + sum(map(len, unrun.values()))
        for name, lines in sorted(unrun.items(), key=lambda item: item[1][0]):
            print(f"{path.relative_to(REPO)}:{ranges(lines, executable)}  {name}")
    print(f"traffic_lines: {n_unrun} of {n_lines} function lines never ran in {len(configs)} run(s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    # before numpy loads, so that BLAS starts one thread
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.exit(main(sys.argv[1:]))
