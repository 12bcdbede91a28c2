import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "compare_iterates.py"


def compare(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b),
                           "--workload", "continuation-p100"],
                          capture_output=True, text=True, timeout=300)


def copy_checkout(tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src", copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "benchmarks", copy / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    return copy


def test_compare_iterates_flags_a_changed_sigma1_default(tmp_path):
    same = compare(ROOT, ROOT)
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout == ""

    copy = copy_checkout(tmp_path)
    solver = copy / "src" / "hbflow" / "solver.py"
    text = solver.read_text()
    assert text.count("sigma1: float = 1e-4 ") == 1
    solver.write_text(text.replace("sigma1: float = 1e-4 ", "sigma1: float = 0.2 "))

    changed = compare(ROOT, copy)
    assert changed.returncode == 1, changed.stderr
    lines = changed.stdout.splitlines()
    assert lines and all(line.startswith("continuation-p100 ") for line in lines)
    assert any(" history row " in line for line in lines)
    assert any(line.startswith("continuation-p100 stage 6 u: ") for line in lines)
    # the last line gives the drift of the two values the benchmark checks
    drift = re.fullmatch(r"continuation-p100 drift: final J (\S+), \|\|u\|\| (\S+) relative",
                         lines[-1])
    assert drift and all(float(x) > 1e-12 for x in drift.groups()), lines[-1]


def test_compare_iterates_flags_a_changed_dual_field(tmp_path):
    copy = copy_checkout(tmp_path)
    huber = copy / "src" / "hbflow" / "huber.py"
    text = huber.read_text()
    line = "w = np.column_stack([scale * gx, scale * gy])"
    assert text.count(line) == 1
    huber.write_text(text.replace(line, f"{line} * 2.0"))

    changed = compare(ROOT, copy)
    assert changed.returncode == 1, changed.stderr
    # only the last stage keeps its dual, and only its w changed: no history, u or drift line
    assert re.fullmatch(r"continuation-p100 stage 6 dual w: \d+ of \d+ entries differ, "
                        r"first at index \d+: \S+ != \S+\n", changed.stdout), changed.stdout
