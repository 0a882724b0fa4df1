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
