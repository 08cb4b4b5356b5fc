import json
import math

import pytest

from fluiddem.cli import main
from fluiddem.delegation_graph import sample_instance, to_edge_csv
from fluiddem.harness import config_from_dict
from fluiddem.streams import substream

GAIN_CONFIG = {
    "mechanism": {"kind": "confidence", "q": {"kind": "linear", "a": 0.8, "b": 0.8}},
    "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    "sizes": [120, 240],
    "reps_per_size": 6,
    "seed": 11,
    "gain_mode": {"kind": "exact"},
}

BUCKET_CONFIG = {
    "phi": {"kind": "affine_in_y", "c0": 1.0, "c1": 2.0},
    "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    "p": 0.3,
    "eps": 0.05,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_gain_command_writes_csv_and_manifest(tmp_path):
    cfg = write_config(tmp_path, GAIN_CONFIG)
    out = tmp_path / "run"
    assert main(["gain", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
    lines = (out / "gain.csv").read_text().splitlines()
    assert lines[0] == "n,rep,gain,p_direct,p_fluid,max_weight,nullified,method,ci_halfwidth,reps"
    assert len(lines) == 1 + 2 * 6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["command"] == "gain"
    assert len(manifest["config_sha256"]) == 64


def test_gain_csv_records_the_tally_of_each_row(tmp_path):
    auto = {"kind": "auto", "cap": 150, "target_halfwidth": 0.1, "delta": 0.1}
    cfg = write_config(tmp_path, {**GAIN_CONFIG, "reps_per_size": 2, "gain_mode": auto})
    out = tmp_path / "run"
    assert main(["gain", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "gain.csv").read_text().splitlines()[1:]]
    tails = [[row[0]] + row[-3:] for row in rows]
    reps = str(math.ceil(math.log(20.0) / 0.02))
    ci = repr(math.sqrt(math.log(20.0) / (2 * int(reps))))
    assert tails == [["120", "exact", "", ""]] * 2 + [["240", "monte_carlo", ci, reps]] * 2


def test_sizes_override_filters_rows(tmp_path):
    cfg = write_config(tmp_path, GAIN_CONFIG)
    out = tmp_path / "run"
    assert main(["gain", "--config", cfg, "--out", str(out), "--sizes", "60,90"]) == 0
    lines = (out / "gain.csv").read_text().splitlines()[1:]
    sizes = {line.split(",")[0] for line in lines}
    assert sizes == {"60", "90"}


def test_seed_override_changes_manifest(tmp_path):
    cfg = write_config(tmp_path, GAIN_CONFIG)
    out = tmp_path / "run"
    assert main(["gain", "--config", cfg, "--out", str(out), "--seed", "99"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_invalid_config_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, {**GAIN_CONFIG, "mechanism": {"kind": "nope"}})
    code = main(["gain", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 1
    assert "mechanism" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    code = main(["gain", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "config" in capsys.readouterr().err


def test_oversized_exact_gain_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, {**GAIN_CONFIG, "sizes": [100, 30_000]})
    code = main(["gain", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 1
    assert "sizes" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_nonpositive_threads_exits_one(tmp_path, capsys, threads):
    cfg = write_config(tmp_path, GAIN_CONFIG)
    out = tmp_path / "x"
    assert main(["gain", "--config", cfg, "--out", str(out), "--threads", threads]) == 1
    assert "field 'threads'" in capsys.readouterr().err
    assert not out.exists()


def test_conditions_and_scaling_commands(tmp_path):
    cfg = write_config(tmp_path, {**GAIN_CONFIG, "alpha": 0.01})
    out1 = tmp_path / "cond"
    assert main(["conditions", "--config", cfg, "--out", str(out1)]) == 0
    header = (out1 / "conditions.csv").read_text().splitlines()[0]
    assert header == "n,reps,freq1,ci1,freq2,ci2,freq3,ci3,mean_max_weight,mean_lift,mean_nullified"

    scaling_cfg = write_config(
        tmp_path, {**GAIN_CONFIG, "sizes": [100, 10_000], "reps_per_size": 4}, "s.json"
    )
    out2 = tmp_path / "scale"
    assert main(["scaling", "--config", scaling_cfg, "--out", str(out2)]) == 0
    assert (out2 / "scaling.csv").exists()


def test_simulate_command_writes_edges(tmp_path):
    cfg = write_config(tmp_path, {**GAIN_CONFIG, "sizes": [50], "reps_per_size": 2})
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "instances.csv").exists()
    assert (out / "edges_n50_rep0.csv").exists()
    assert (out / "edges_n50_rep1.csv").exists()
    first = (out / "edges_n50_rep0.csv").read_text().splitlines()
    assert first[0] == "voter,target"
    assert len(first) == 51


def test_simulate_edge_lists_match_a_serial_resample(tmp_path):
    tabulated = {"kind": "tabulated", "values": [[1.0, 2.0, 3.0], [1.5, 2.0, 3.0], [2.0, 2.5, 4.0]]}
    raw = {
        **GAIN_CONFIG,
        "mechanism": {"kind": "general", "p": 0.3, "phi": tabulated},
        "sizes": [40, 90],
        "reps_per_size": 3,
    }
    cfg = write_config(tmp_path, raw)
    # the edge lists as written by sampling every instance again, one by one
    expected = tmp_path / "serial"
    expected.mkdir()
    spec = config_from_dict(raw)
    for n_idx, n in enumerate(spec.sizes):
        for rep in range(spec.reps_per_size):
            rng = substream(spec.seed, n_idx, rep)
            _, graph = sample_instance(spec.mechanism, spec.distribution, n, rng)
            to_edge_csv(graph, expected / f"edges_n{n}_rep{rep}.csv")
    names = sorted(path.name for path in expected.iterdir())
    assert len(names) == 6
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
        assert sorted(path.name for path in out.glob("edges_*.csv")) == names
        for name in names:
            assert (out / name).read_bytes() == (expected / name).read_bytes()
    assert (tmp_path / "t1" / "instances.csv").read_bytes() == (tmp_path / "t2" / "instances.csv").read_bytes()


def test_sixstep_command(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            **GAIN_CONFIG,
            "mechanism": {
                "kind": "general",
                "p": 0.3,
                "phi": {"kind": "affine_in_y", "c0": 1.0, "c1": 2.0},
            },
            "sizes": [300],
            "reps_per_size": 3,
        },
    )
    out = tmp_path / "six"
    assert main(["sixstep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sixstep.csv").read_text().splitlines()
    assert lines[0].startswith("n,rep,e1,e2,e3,e4,e5,e6")
    assert len(lines) == 4


def test_sixstep_rejects_wrong_mechanism(tmp_path, capsys):
    cfg = write_config(tmp_path, GAIN_CONFIG)
    assert main(["sixstep", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    assert "mechanism" in capsys.readouterr().err


def test_processes_command_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, BUCKET_CONFIG)
    assert main(["processes", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spectral_radius"] < 1.0
    assert payload["B"] >= 1


def test_processes_command_rejects_supercritical(tmp_path, capsys):
    cfg = write_config(tmp_path, {**BUCKET_CONFIG, "eps": 0.4})
    assert main(["processes", "--config", cfg]) == 1
    assert "eps" in capsys.readouterr().err


def test_processes_command_writes_file(tmp_path):
    cfg = write_config(tmp_path, BUCKET_CONFIG)
    out = tmp_path / "proc"
    assert main(["processes", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "bucket_model.json").read_text())
    assert payload["spectral_radius"] == pytest.approx(0.3 * 1.05**3 / 0.9, rel=1e-9)


def test_rerun_produces_identical_data(tmp_path):
    cfg = write_config(tmp_path, GAIN_CONFIG)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["gain", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["gain", "--config", cfg, "--out", str(out2), "--threads", "4"]) == 0
    assert (out1 / "gain.csv").read_bytes() == (out2 / "gain.csv").read_bytes()
