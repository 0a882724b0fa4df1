#!/usr/bin/env python3
"""List the API of src/occ4d, and its defaulted parameters, that no program code uses.

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

For each used function or method it also prints one line per parameter with
a default that no call of that name under src/, scripts/ or bench/ passes, by
keyword or by position (a ``*`` argument passes every position, a ``**``
argument every keyword), saying whether a call in tests/ passes it:

    occ4d.<module>.<name>(<parameter>=)  tests: yes

Matching is by name, not by object, so a name that another object shares can
count as used: the list can miss dead code, and a name used only through a
computed string shows up as unused.

Usage: python scripts/unused_api.py [REPO]
"""

import ast
import math
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


def calls(paths) -> dict:
    """Per called name (``f(...)`` or ``obj.f(...)``), one (positional
    count, keywords) pair per call in the Python files ``paths``; a ``*``
    argument counts as every position and a ``**`` argument as the keyword
    ``**``."""
    sites = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg or "**" for k in node.keywords}
                sites.setdefault(name, []).append((math.inf if starred else len(node.args), keywords))
    return sites


def defaulted(fn: ast.FunctionDef):
    """(position a call passes it at, or None if only by keyword; name) of
    each parameter of ``fn`` with a default. A method's ``self`` or ``cls``
    takes no position in ``obj.f(...)``."""
    positional = fn.args.posonlyargs + fn.args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield i - skip, arg.arg
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def passed(sites, position, param: str) -> bool:
    """Whether a call in ``sites`` passes the parameter ``param`` at ``position``."""
    return any(
        param in keywords or "**" in keywords or (position is not None and n_pos > position)
        for n_pos, keywords in sites
    )


def api(package: Path):
    """(qualified name, bare name, node) of each top-level definition in
    ``package`` and each public method of its classes."""
    for path in sorted(package.glob("*.py")):
        prefix = f"{package.name}.{path.stem}"
        for node, name in _top_level(ast.parse(path.read_text(), str(path))):
            if name.startswith("__"):
                continue
            yield f"{prefix}.{name}", name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{prefix}.{name}.{item.name}", item.name, item


def main(argv) -> int:
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    repo = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    program_paths = [p for d in PROGRAM_DIRS for p in sorted((repo / d).rglob("*.py"))]
    test_paths = sorted((repo / "tests").rglob("*.py"))
    program, tests = references(program_paths), references(test_paths)
    program_calls, test_calls = calls(program_paths), calls(test_paths)
    for qualified, name, node in api(repo / "src" / "occ4d"):
        if not program[name]:
            print(f"{qualified}  tests: {'yes' if tests[name] else 'no'}")
        elif isinstance(node, ast.FunctionDef):
            for position, param in defaulted(node):
                if not passed(program_calls.get(name, ()), position, param):
                    in_tests = passed(test_calls.get(name, ()), position, param)
                    print(f"{qualified}({param}=)  tests: {'yes' if in_tests else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
