"""hbflow benchmark: time per iteration, set-up, output and memory per workload.

Usage:
    python3 benchmarks/run.py --workload disk-thinning --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 40 --trace 0

Each measured run is a fresh child process (benchmarks/child.py), started one
at a time with BLAS/OpenMP threads pinned to 1, until ``--seconds`` have been
spent. With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` untraced and traced runs alternate, the traced ones give the
per-layer metrics, and the difference of the two medians of run_s is the
tracing overhead. Every run's result is checked against the workload's
recorded reference; a mismatch, a crash or a timeout counts as failed.

The workloads are fixed reference problems, so ``--seed`` changes no input:
it is recorded in the result, and every seed is checked against the same
reference. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The full record of the run, with the
machine, the thread settings and every sample, goes to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Every process the benchmark starts has ended within this many seconds.
DEADLINE_S = 170.0

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "iter_ms": "ms",
    "output_s": "s",
    "peak_rss_mib": "MiB",
}


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_count": os.cpu_count(), "cpu_model": model,
            "platform": platform.platform(), "threads": THREAD_ENV,
            "processes_at_a_time": 1}


def run_child(workload: Workload, trace: bool, index: int, timeout: float) -> dict:
    """One fresh child process; returns its result, or {"error": why}."""
    outdir = OUT / f"run-{os.getpid()}-{index}"
    cmd = [sys.executable, str(HERE / "child.py"),
           json.dumps(dataclasses.asdict(workload)), "1" if trace else "0", str(outdir)]
    env = {**os.environ, **THREAD_ENV}
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "wall_s": timeout,
                "timed_out": True}
    finally:
        for path in sorted(outdir.glob("*")):
            path.unlink()
        if outdir.exists():
            outdir.rmdir()
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": tail[0], "wall_s": wall}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "no result line from the child", "wall_s": wall}
    result["wall_s"] = wall
    why = workload.mismatch(result["iterations"], result["stages"],
                            result["objective"], result["u_norm"])
    if why is not None:
        result["error"] = why
    return result


def end_to_end(result: dict) -> dict:
    """A child's metrics, each phase's time scaled by the speed measured during it."""
    k_setup, k_solve, k_output = result["speed"]
    setup_s = k_setup * statistics.median(result["setup_s"])
    solve_s = k_solve * result["solve_s"]
    output_s = k_output * statistics.median(result["output_s"])
    return {
        "run_s": setup_s + solve_s + output_s,
        "setup_s": setup_s,
        "iter_ms": 1e3 * solve_s / result["iterations"],
        "output_s": output_s,
        "peak_rss_mib": result["peak_rss_mib"],
    }


def scaled_layers(result: dict) -> dict:
    """The child's layer metrics, with times scaled by their phase's speed."""
    k_setup, k_solve, k_output = result["speed"]
    scaled = {}
    for name, value in result["layers"].items():
        if value is not None and LAYER_METRICS[name] in ("s", "ms"):
            value *= (k_setup if name.startswith("mesh.") else
                      k_output if name.startswith("export.") else k_solve)
        scaled[name] = value
    return scaled


def summarize(values: list[float | None]) -> dict:
    """Median and quartiles of the present values; None if any is absent."""
    if not values or any(v is None for v in values):
        return {"median": None, "q1": None, "q3": None, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run children until ``seconds`` are spent; aggregate and check them."""
    start = time.perf_counter()
    children: list[dict] = []
    need = 2 if trace else 1              # traced mode needs one run of each kind
    while True:
        elapsed = time.perf_counter() - start
        if len(children) >= need and (
                elapsed + statistics.median(c["wall_s"] for c in children) > seconds):
            break
        traced = trace and len(children) % 2 == 1
        child = run_child(workload, traced, len(children), max(5.0, DEADLINE_S - elapsed))
        child["traced"] = traced
        children.append(child)
        if child.get("timed_out"):
            break

    good = [c for c in children if "error" not in c]
    plain = [end_to_end(c) for c in good if not c["traced"]]
    e2e = {name: summarize([m[name] for m in plain]) for name in END_TO_END}
    layers = {}
    if trace:
        traced_runs = [c for c in good if c["traced"]]
        traced_layers = [scaled_layers(c) for c in traced_runs]
        layers = {name: summarize([m[name] for m in traced_layers]) for name in LAYER_METRICS}
        traced_run_s = summarize([end_to_end(c)["run_s"] for c in traced_runs])["median"]
        overhead = (None if traced_run_s is None or e2e["run_s"]["median"] is None
                    else traced_run_s - e2e["run_s"]["median"])
        layers["trace.overhead_s"] = {"median": overhead, "q1": None, "q3": None,
                                      "n": len(traced_runs)}
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(),
        "versions": good[0]["versions"] if good else None,
        "attempted": len(children), "failed": len(children) - len(good),
        "fail_ratio": (len(children) - len(good)) / len(children),
        "errors": [c["error"] for c in children if "error" in c],
        "missing_hooks": sorted({h for c in good for h in c.get("missing_hooks", [])}),
        "solve_speed": summarize([c["speed"][1] for c in good]),
        "end_to_end": e2e, "layers": layers,
        "samples": [{k: v for k, v in c.items() if k != "spans"} for c in children],
        "spans": [c["spans"] for c in good if c["traced"]],
        "elapsed_s": time.perf_counter() - start,
    }


def units() -> dict[str, str]:
    return {**END_TO_END, **LAYER_METRICS, "trace.overhead_s": "s"}


def print_table(result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    speed = result["solve_speed"]["median"]
    print(f"# {result['workload']} seed={result['seed']} trace={int(result['trace'])}: "
          f"{attempted} runs, 1 process at a time, BLAS threads 1, "
          f"{result['elapsed_s']:.1f} s, median solve speed factor "
          f"{'absent' if speed is None else f'{speed:.4g}'}")
    print(f"# machine: {json.dumps(result['machine'])} versions: "
          f"{json.dumps(result['versions'])}")
    unit = units()
    rows = {**result["end_to_end"], **result["layers"]}
    for name, stat in rows.items():
        if stat["median"] is None:
            print(f"{name:28s} absent")
            continue
        spread = "" if stat["q1"] is None else f"  [q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}]"
        print(f"{name:28s} {stat['median']:.6g} {unit[name]}  (median of {stat['n']}){spread}")
    print(f"{'fail_ratio':28s} {result['fail_ratio']:.6g} 1  ({failed} of {attempted})")
    for error in result["errors"]:
        print(f"# failed run: {error}")
    for hook in result["missing_hooks"]:
        print(f"# absent hook: {hook}")


def result_line(results: list[dict], trace: bool) -> dict:
    """The JSON summary; metric names carry the workload when there are several."""
    names = list(LAYER_METRICS) + ["trace.overhead_s"] if trace else list(END_TO_END)
    unit = units()
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        rows = {**result["end_to_end"], **result["layers"]}
        for name in names:
            metrics[prefix + name] = {"value": rows[name]["median"], "unit": unit[name]}
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
            "failed": failed, "metrics": metrics}


def save(result: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{result['workload']}_seed{result['seed']}_trace{int(result['trace'])}"
    spans = result.pop("spans")
    if spans:
        with open(OUT / f"trace_{stem}.jsonl", "w") as out:
            for run_index, run_spans in enumerate(spans):
                for span in run_spans:
                    out.write(json.dumps({"run": run_index, **span}) + "\n")
    (OUT / f"result_{stem}.json").write_text(json.dumps(result, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "hbflow" / "__init__.py").is_file():
        print(f"error: no hbflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if result["attempted"] == result["failed"]:
            print_table(result)
            print(f"error: every run of {name} failed", file=sys.stderr)
            return 1
        save(result)
        print_table(result)
        results.append(result)
    print(json.dumps(result_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
