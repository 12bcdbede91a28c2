import json
import shutil
import subprocess
import sys
from pathlib import Path

from hbflow.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"


def compare(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


def test_compare_runs_flags_one_flipped_vtk_byte(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", "--domain", "square", "--n", "4", "--p", "1.5",
                     "--max-iters", "3", "--out", str(out)]) in (0, 1)
    # wall_time_seconds differs between the two runs and is ignored
    same = compare(a, b)
    assert same.returncode == 0, same.stdout
    assert same.stdout == ""

    vtk = bytearray((b / "solution.vtk").read_bytes())
    at = len(vtk) // 2
    vtk[at] ^= 1
    (b / "solution.vtk").write_bytes(bytes(vtk))
    flipped = compare(a, b)
    assert flipped.returncode == 1
    assert flipped.stdout.splitlines() == [
        f"solution.vtk: bytes differ from offset {at} (sizes {len(vtk)} and {len(vtk)})"]


def test_compare_runs_prints_both_values_of_a_changed_summary_field(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--domain", "square", "--n", "4", "--p", "1.5",
                 "--max-iters", "3", "--out", str(a)]) in (0, 1)
    shutil.copytree(a, b)
    summary = json.loads((b / "summary.json").read_text())
    j = summary["final_objective"]
    summary["final_objective"] = moved = j * (1.0 + 1e-9)
    converged = summary["stages"][0]["converged"]
    summary["stages"][0]["converged"] = not converged
    error = summary.pop("error")
    (b / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    changed = compare(a, b)
    assert changed.returncode == 1
    assert changed.stdout.splitlines() == [
        f"summary.json: error {error!r} vs absent",
        f"summary.json: final_objective {j!r} vs {moved!r} (relative difference 1.00e-09)",
        f"summary.json: stages[0].converged {converged!r} vs {not converged!r}",
    ]


def test_compare_runs_flags_reordered_summary_fields(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--domain", "square", "--n", "4", "--p", "1.5",
                 "--max-iters", "3", "--out", str(a)]) in (0, 1)
    shutil.copytree(a, b)
    summary = json.loads((b / "summary.json").read_text())
    keys = list(summary)
    keys[1], keys[2] = keys[2], keys[1]
    reordered = {key: summary[key] for key in keys}
    (b / "summary.json").write_text(json.dumps(reordered, indent=2) + "\n")
    swapped = compare(a, b)
    assert swapped.returncode == 1
    assert swapped.stdout.splitlines() == ["summary.json: field order differs"]
