import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "unused_api.py"


def test_no_api_that_only_tests_use():
    # every name that src/occ4d defines is used by src/, scripts/ or bench/;
    # the script prints one line per name that is not
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""


def test_lists_defaulted_parameters_no_call_passes(tmp_path):
    # a default that a call passes by keyword, by position or through * / **
    # is used; one that no program call passes is listed, and a test call
    # counts only toward "tests: yes"
    (tmp_path / "src" / "occ4d").mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "occ4d" / "mod.py").write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n\n"
        "def g(a=1):\n    pass\n\n\n"
        "class K:\n    def m(self, a=1, b=2):\n        pass\n"
    )
    (tmp_path / "scripts" / "use.py").write_text(
        "from occ4d.mod import K, f, g\n\nf(0, 1, d=5)\ng(*[])\nK().m(1)\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text("from occ4d.mod import f\n\nf(0, e=1)\n")
    done = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "occ4d.mod.f(c=)  tests: no",
        "occ4d.mod.f(e=)  tests: yes",
        "occ4d.mod.K.m(b=)  tests: no",
    ]
