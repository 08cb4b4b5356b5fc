"""The output checker counts a corrupted row.

    python3 -m pytest perfbench/test_check.py
"""

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
from fluiddem import cli, tally  # noqa: E402

PHI = [[1.0, 2.0, 3.0], [1.5, 2.0, 3.0], [2.0, 2.5, 4.0]]
CONFIGS = {
    "gain": {
        "mechanism": {"kind": "confidence", "q": {"kind": "linear", "a": 0.8, "b": 0.8}},
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "sizes": [40, 300],
        "reps_per_size": 2,
        "seed": 3,
        "gain_mode": {"kind": "auto", "cap": 100, "target_halfwidth": 0.05, "delta": 0.05},
    },
    "conditions": {
        "mechanism": {"kind": "upward", "p": 0.5},
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 0.98},
        "sizes": [100, 1000],
        "reps_per_size": 3,
        "seed": 3,
        "delta_exponent": 0.95,
    },
    "simulate": {
        "mechanism": {"kind": "general", "p": 0.3, "phi": {"kind": "tabulated", "values": PHI}},
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "sizes": [30, 60],
        "reps_per_size": 2,
        "seed": 3,
    },
}


def run_cli(command, config, out_dir, threads=1):
    config_path = out_dir.parent / f"{out_dir.name}.json"
    config_path.write_text(json.dumps(config))
    rc = cli.main([command, "--config", str(config_path), "--out", str(out_dir), "--threads", str(threads)])
    return out_dir, rc


def corrupt_csv(path, row, column, value):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = value
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_reference_tail_matches_program_dp():
    rng = np.random.default_rng(5)
    p = rng.random(400)
    w = rng.integers(0, 5, 400)
    assert abs(check.weighted_tail(w, p, 200.0) - tally.weighted_poisson_binomial_tail(w, p, 200.0)) < 1e-12
    assert abs(check.weighted_tail(np.ones(400, dtype=np.int64), p, 200.0) - tally.direct_tail(p)) < 1e-12


def test_forest_oracle_nullifies_cycles():
    # 0 -> 1 -> 2 (direct); 3 <-> 4 is a cycle that 5 feeds
    weight, nullified = check.weights_of([1, 2, -1, 4, 3, 3])
    assert weight.tolist() == [0, 0, 3, 0, 0, 0]
    assert nullified == 3


@pytest.mark.parametrize(
    "command, file, column, value",
    [
        ("gain", "gain.csv", "p_fluid", "0.25"),
        ("gain", "gain.csv", "max_weight", "99"),
        ("conditions", "conditions.csv", "freq1", "0.5"),
        ("simulate", "instances.csv", "total_weight", "7"),
    ],
)
def test_corrupted_row_is_counted(tmp_path, command, file, column, value):
    config = CONFIGS[command]
    run = run_cli(command, config, tmp_path / "t1")
    attempted, failed, problems = check.check_run(command, config, [run])
    assert failed == 0, problems
    corrupt_csv(run[0] / file, 1, column, value)
    attempted_after, failed, problems = check.check_run(command, config, [run])
    assert (attempted_after, failed) == (attempted, 1), problems


def test_corrupted_edge_list_is_counted(tmp_path):
    config = CONFIGS["simulate"]
    run = run_cli("simulate", config, tmp_path / "t1")
    edges = run[0] / "edges_n60_rep1.csv"
    lines = edges.read_text().splitlines()
    lines[1] = "0,0"  # voter 0 delegates to itself
    edges.write_text("\n".join(lines) + "\n")
    assert check.check_run("simulate", config, [run])[1] == 1


def test_thread_counts_must_agree_byte_for_byte(tmp_path):
    config = CONFIGS["gain"]
    runs = [run_cli("gain", config, tmp_path / "t1"), run_cli("gain", config, tmp_path / "t2", threads=2)]
    attempted, failed, _ = check.check_run("gain", config, runs)
    assert (attempted, failed) == (8, 0)
    corrupt_csv(runs[1][0] / "gain.csv", 0, "gain", "0.5")
    assert check.check_run("gain", config, runs)[:2] == (8, 4)
    assert check.check_run("gain", config, [runs[0], (runs[1][0], 2)])[:2] == (8, 4)
    # a bad row copied byte for byte into the second run fails there too
    corrupt_csv(runs[0][0] / "gain.csv", 0, "gain", "0.5")
    assert check.check_run("gain", config, runs)[:2] == (8, 2)


def test_corrupted_bucket_model_is_counted(tmp_path):
    config = {
        "phi": {"kind": "tabulated", "values": PHI},
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "p": 0.3,
        "eps": 0.05,
    }
    run = run_cli("processes", config, tmp_path / "t1")
    assert check.check_run("processes", config, [run], expected_buckets=64)[:2] == (4, 0)
    path = run[0] / "bucket_model.json"
    model = json.loads(path.read_text())
    model["spectral_radius"] *= 1.01
    path.write_text(json.dumps(model))
    assert check.check_run("processes", config, [run], expected_buckets=64)[:2] == (4, 1)
