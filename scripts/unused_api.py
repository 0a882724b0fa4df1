#!/usr/bin/env python3
"""List the API of src/occ4d that no program code uses.

Takes every top-level name of src/occ4d (function, class, constant), public
or private, and every public method or property of its top-level classes,
and looks for references in the Python files under src/, scripts/ and bench/:

- a bare name read, in a file that defines or imports that name at the top;
- an attribute taken (``module.name``, ``obj.method``), in any file;
- a string constant equal to the name, in a file that calls ``getattr``
  (bench/tracer.py looks functions up by name).

Definitions, assignments and imports are not references. Prints one line per
name with no reference, saying whether tests/ uses it:

    occ4d.<module>.<name>  tests: yes

A private helper that its module stopped calling shows up the same way.

Matching is by name, not by object, so a name that another object shares can
count as used: the list can miss dead code, and a name used only through a
computed string shows up as unused.

Usage: python scripts/unused_api.py [REPO]
"""

import ast
import sys
from collections import Counter
from pathlib import Path

PROGRAM_DIRS = ("src", "scripts", "bench")


def references(paths) -> Counter:
    """Reference count per name over the Python files ``paths``."""
    refs = Counter()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        bound = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        bound |= {name for _, name in _top_level(tree)}
        looks_up = any(isinstance(n, ast.Name) and n.id == "getattr" for n in ast.walk(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store) and node.id in bound:
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
            elif looks_up and isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                refs[node.value] += 1
    return refs


def _top_level(tree):
    """(node, name) of each function, class and variable a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield node, target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node, node.target.id


def api(package: Path):
    """(qualified name, bare name) of each top-level definition in
    ``package`` and each public method of its classes."""
    for path in sorted(package.glob("*.py")):
        prefix = f"{package.name}.{path.stem}"
        for node, name in _top_level(ast.parse(path.read_text(), str(path))):
            if name.startswith("__"):
                continue
            yield f"{prefix}.{name}", name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{prefix}.{name}.{item.name}", item.name


def main(argv) -> int:
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    repo = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    program = references(p for d in PROGRAM_DIRS for p in sorted((repo / d).rglob("*.py")))
    tests = references(sorted((repo / "tests").rglob("*.py")))
    for qualified, name in api(repo / "src" / "occ4d"):
        if not program[name]:
            print(f"{qualified}  tests: {'yes' if tests[name] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
