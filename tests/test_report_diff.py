import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_diff.py"

REPORT = {
    "ap_occ": 0.2673198032926909,
    "n_probes": 1228800,
    "threshold": None,
    "per_time_breakdown": [
        {"time": 0.6, "ap_occ_exact": 0.7209917794171883, "probe_counts": {"free": 34572, "occupied": 8451}},
        {"time": 1.8, "ap_occ_exact": 0.6113507894021796, "probe_counts": {"free": 34906, "occupied": 8145}},
    ],
    "probe_counts": {"free": 103678, "occupied": 24798},
}


def run(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)], capture_output=True, text=True, timeout=60)


def test_prints_each_changed_key_flattened_with_both_reprs(tmp_path):
    changed = json.loads(json.dumps(REPORT))
    changed["ap_occ"] = 0.26731980329269095  # the last digit
    changed["per_time_breakdown"][1]["ap_occ_exact"] = 0.6113507894021797
    changed["per_time_breakdown"][0]["probe_counts"]["free"] = 34573
    del changed["threshold"]
    changed["r_at_p70"] = 0.5
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "report.json").write_text(json.dumps(REPORT))
    (tmp_path / "b.json").write_text(json.dumps(changed))
    done = run(tmp_path / "a", tmp_path / "b.json")  # a work directory, or the file itself
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines() == [
        "ap_occ: 0.2673198032926909 -> 0.26731980329269095",
        "per_time_breakdown[t=0.6].probe_counts.free: 34572 -> 34573",
        "per_time_breakdown[t=1.8].ap_occ_exact: 0.6113507894021796 -> 0.6113507894021797",
        "r_at_p70: <absent> -> 0.5",
        "threshold: None -> <absent>",
    ]


def test_equal_reports_print_nothing(tmp_path):
    (tmp_path / "a.json").write_text(json.dumps(REPORT))
    (tmp_path / "b.json").write_text(json.dumps(REPORT, indent=1, sort_keys=True))
    done = run(tmp_path / "a.json", tmp_path / "b.json")
    assert (done.returncode, done.stdout) == (0, "")


def test_int_and_float_of_equal_value_differ(tmp_path):
    # values compare by repr, as the bytes of report.json would
    (tmp_path / "a.json").write_text(json.dumps({"n_probes": 1}))
    (tmp_path / "b.json").write_text(json.dumps({"n_probes": 1.0}))
    assert run(tmp_path / "a.json", tmp_path / "b.json").stdout == "n_probes: 1 -> 1.0\n"


def test_usage_error():
    done = subprocess.run([sys.executable, str(SCRIPT), "only-one"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "Usage: python scripts/report_diff.py A B" in done.stderr
