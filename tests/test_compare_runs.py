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
