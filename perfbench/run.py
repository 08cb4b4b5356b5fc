"""fluiddem benchmark: end-to-end CLI runs per workload, or a traced per-layer replay.

    python3 perfbench/run.py --workload gain-auto --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; fluiddem is imported from its `src/`.
One run is a closed loop of passes, one CLI invocation at a time: each pass
runs the workload's command at `--threads 1` and then at `--threads 2`, each
in a fresh interpreter, and passes repeat while they fit in `--seconds`.
Outputs are checked after the timed passes. The last stdout line is the
result: `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
metrics (`--trace 0`) or the per-layer metrics (`--trace 1`, which adds one
traced replay of the workload after the passes). Scratch output goes to
`.perfbench_out/<workload>/` under the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import EXPECTED_BUCKETS, WORKLOADS  # noqa: E402

RUN_BUDGET_S = 150.0  # children stop here; checks and reporting fit in the 180 s limit
MIN_SETUP_SAMPLES = 5


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    def getconf(name):
        try:
            done = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(done.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "git_rev": git_rev(),
    }


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts one child interpreter at a time and waits for it."""

    def __init__(self, work: Path, config_path: Path, command: str, deadline: float):
        self.work = work
        self.config_path = config_path
        self.command = command
        self.deadline = deadline
        self.env = dict(os.environ)
        paths = [str(ROOT / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)

    def child(self, mode: str, out_name: str, threads: int, trace_file: Path | None = None) -> dict:
        out_dir = self.work / out_name
        argv = [sys.executable, str(HERE / "child.py"), mode, str(self.config_path), self.command]
        argv += [str(out_dir), str(threads)] + ([str(trace_file)] if trace_file is not None else [])
        timeout = self.deadline - time.monotonic()
        if timeout <= 1.0:
            raise BenchError("out of time before the run finished")
        spawned = time.monotonic()
        try:
            done = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child exceeded the run's time budget") from exc
        (self.work / f"{out_name}.stderr").write_text(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            raise BenchError(f"{mode} child failed ({done.returncode}): {done.stderr.strip()[-400:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - spawned
        result["out_dir"] = out_dir
        return result


def measure(runner: Runner, seconds: float) -> list[list[dict]]:
    """Timed passes, each one run at --threads 1 then one at --threads 2."""
    passes = []
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        k = len(passes)
        passes.append([runner.child("run", f"pass{k}_t{t}", t) for t in (1, 2)])
        took = time.monotonic() - begun
        if time.monotonic() - start + took > seconds:
            return passes


def declared_metrics() -> tuple[dict, dict]:
    """{name: unit} of the end-to-end and the per-layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def layer_metrics(trace: dict, wall_t1: float, wall_t2: float, traced_wall: float, out_dir: Path) -> dict:
    """Per-layer values: `<span>.s` is the span's self time, a count is read by name."""
    self_s = trace["self_s"]
    values = {f"{name}.s": value for name, value in self_s.items()}
    values.update(trace["counts"])
    values["cli.resample.s"] = trace["inclusive_s"].get("cli.resample", 0.0)
    values["delegation_graph.max_weight"] = trace["max_weight"]
    values["harness.self_s"] = self_s.get("harness.replicate", 0.0)
    values["harness.thread_speedup"] = wall_t1 / wall_t2
    values["trace.overhead_s"] = traced_wall - wall_t1
    values["cli.bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
    return values


def layer_report(trace: dict) -> list[str]:
    """Lines naming each layer's self time, overall and per size."""
    by_layer = {}
    for name, value in trace["self_s"].items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + value
    ranked = sorted(by_layer.items(), key=lambda kv: -kv[1])
    lines = [f"largest self time: {ranked[0][0]} ({ranked[0][1]:.3f} s)"]
    lines += [f"layer {layer}: self {value:.4f} s" for layer, value in ranked]
    for entry in sorted(trace["self_s_by_size"], key=lambda e: (str(e["size"]), e["name"])):
        size = "-" if entry["size"] is None else entry["size"]
        lines.append(f"self time n={size} {entry['name']}: {entry['self_s']:.4f} s")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "fluiddem" / "cli.py").is_file():
        print(f"error: no fluiddem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    command, make_config = WORKLOADS[args.workload]
    config = make_config(args.seed)
    work = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    runner = Runner(work, config_path, command, started + RUN_BUDGET_S)

    try:
        runner.child("setup", "warmup", 1)  # compiles bytecode; not measured
        passes = measure(runner, args.seconds)
        runs = [r for p in passes for r in p]
        setups = [r["setup_s"] for r in runs]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(runner.child("setup", "setup", 1)["setup_s"])
        traced = None
        if args.trace:
            trace_file = work / "trace.json"
            traced = runner.child("trace", "trace_t1", 1, trace_file)
            runs.append(traced)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    from check import check_run

    attempted, failed, problems = check_run(
        command, config, [(r["out_dir"], r["rc"]) for r in runs], EXPECTED_BUCKETS
    )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    end_to_end, per_layer = declared_metrics()
    wall_t1 = statistics.median(p[0]["wall_s"] for p in passes)
    wall_t2 = statistics.median(p[1]["wall_s"] for p in passes)
    if traced is None:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_t1,
            "wall_s_t2": wall_t2,
            "peak_rss_mb": statistics.median(p[0]["rss_mib"] for p in passes),
        }
        units = end_to_end
    else:
        trace = json.loads((work / "trace.json").read_text())
        values = layer_metrics(trace, wall_t1, wall_t2, traced["wall_s"], traced["out_dir"])
        units = per_layer
        for line in layer_report(trace):
            print(line)

    env = environment()
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "setup_samples": len(setups),
        "wall_s_per_pass": [[r["wall_s"] for r in p] for p in passes],
        "failed_frac": failed / attempted,
        "env": env,
    }
    print("run " + json.dumps(summary, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a layer the workload never calls reports 0
        "metrics": {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()},
    }
    (work / "result.json").write_text(json.dumps({**summary, "result": result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
