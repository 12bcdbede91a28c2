"""Smoke test of the benchmark on a tiny problem; takes a few seconds.

Run from the repository root: python3 -m pytest benchmarks/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import child
import run
from tracing import self_times
from workloads import Reference, Workload

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

TINY = dict(name="tiny", domain="square", size=8, p=1.75, g=0.2, gamma=1e3, f=3.0,
            linear_method="pcg", max_iters=3, continuation=True, gamma_start=10.0,
            gamma_end=100.0)


def tiny_run(trace: bool, tmp_path: Path) -> dict:
    spec = dataclasses.asdict(Workload(reference=Reference(0, 0, 0.0, 0.0), **TINY))
    return child.run(spec, trace, tmp_path)


def tiny_workload(tmp_path: Path) -> Workload:
    """The tiny workload with its reference taken from an in-process run."""
    result = tiny_run(False, tmp_path)
    reference = Reference(result["iterations"], result["stages"],
                          result["objective"], result["u_norm"])
    return Workload(reference=reference, **TINY)


def printed_metrics(capsys, result: dict, trace: bool) -> dict:
    run.print_table(result)
    print(json.dumps(run.result_line([result], trace)))
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_every_named_metric_is_printed_with_its_unit(tmp_path, capsys):
    workload = tiny_workload(tmp_path)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure(workload, seed=1, seconds=1.0, trace=trace)
        line = printed_metrics(capsys, result, trace)
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
        for name, metric in line["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name


def test_self_times_sum_to_the_spans_that_hold_them(tmp_path):
    spans = tiny_run(True, tmp_path)["spans"]
    own = self_times(spans)
    subtree = list(own)
    for s in reversed(spans):           # children are recorded after their parents
        if s["parent"] is not None:
            subtree[s["parent"]] += subtree[s["id"]]
    for s in spans:
        assert abs(subtree[s["id"]] - (s["end"] - s["start"])) < 1e-9
        assert own[s["id"]] >= -1e-9
    names = {s["name"] for s in spans}
    assert {"setup", "solve", "output", "solver.solve", "linalg.solve",
            "linesearch", "huber.objective", "export.vtk"} <= names


def test_trace_leaves_the_library_unwrapped(tmp_path):
    import hbflow.solver
    before = hbflow.solver.solve_spd
    tiny_run(True, tmp_path)
    assert hbflow.solver.solve_spd is before


def test_wrong_reference_shows_in_fail_ratio(tmp_path, capsys):
    workload = tiny_workload(tmp_path)
    ref = workload.reference
    wrong = dataclasses.replace(
        workload, reference=dataclasses.replace(ref, objective=ref.objective * (1 + 1e-9)))
    result = run.measure(wrong, seed=1, seconds=1.0, trace=False)
    assert result["attempted"] >= 1 and result["fail_ratio"] == 1.0
    run.print_table(result)
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("fail_ratio"))
    assert row.split()[1:3] == ["1", "1"]
