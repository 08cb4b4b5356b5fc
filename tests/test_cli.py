import gc
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import csv_writer_edges

from fluiddem import AffineInY, harness, processes
from fluiddem.cli import COMMANDS, FLAGS, _bucket_inputs, main, parse_args
from fluiddem.delegation_graph import sample_instance
from fluiddem.harness import config_from_dict
from fluiddem.streams import substream
from fluiddem.tally import MAX_TOTAL_WEIGHT

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
    monte_carlo = {"kind": "monte_carlo", "reps": 738, "delta": 0.1}
    ci = repr(math.sqrt(math.log(20.0) / (2 * 738)))
    for mode, tail in (({"kind": "exact"}, ["exact", "", ""]), (monte_carlo, ["monte_carlo", ci, "738"])):
        cfg = write_config(tmp_path, {**GAIN_CONFIG, "reps_per_size": 2, "gain_mode": mode})
        out = tmp_path / mode["kind"]
        assert main(["gain", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "gain.csv").read_text().splitlines()[1:]]
        assert [[row[0]] + row[-3:] for row in rows] == [["120"] + tail] * 2 + [["240"] + tail] * 2


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


GAIN_TOO_BIG = f"field 'sizes': gain supports n <= {MAX_TOTAL_WEIGHT}"
SCALING_TOO_NARROW = "field 'sizes': a scaling study needs sizes spanning >= 2 decades"
SIXSTEP_NOT_GENERAL = "field 'mechanism': the sixstep experiment needs kind 'general'"
AUTO_WITH_CAP = {"gain_mode": {"kind": "auto", "cap": 150}}
NEGATIVE_SEED = "field 'seed': must be >= 0"
GENERAL_CONSTANT1 = {"mechanism": {"kind": "general", "p": 0.3, "phi": {"kind": "constant1"}}}
NO_LIFT = {"mechanism": {"kind": "confidence", "q": {"kind": "constant", "p": 0.3}}}


@pytest.mark.parametrize(
    "command, config, argv, message",
    [
        ("gain", AUTO_WITH_CAP, ["--sizes", f"100,{MAX_TOTAL_WEIGHT + 1}"], GAIN_TOO_BIG),
        ("gain", {"sizes": [100, MAX_TOTAL_WEIGHT + 1]}, [], GAIN_TOO_BIG),
        ("scaling", AUTO_WITH_CAP, ["--sizes", "100,9999"], SCALING_TOO_NARROW),
        ("sixstep", AUTO_WITH_CAP, [], SIXSTEP_NOT_GENERAL),
        ("gain", {}, ["--seed", "-3"], NEGATIVE_SEED),
        ("gain", {"seed": -1}, [], NEGATIVE_SEED),
        ("scaling", {}, ["--sizes", "1,100"], "field 'sizes': scaling needs every size >= 2"),
        # a coeff * ln n bound with no log_coefficient: the fit divides by ln n
        ("conditions", {}, ["--sizes", "1,100"], "field 'sizes': conditions needs every size >= 2"),
        ("sixstep", GENERAL_CONSTANT1, ["--sizes", "1"], "field 'sizes': sixstep needs every size >= 2"),
        ("conditions", NO_LIFT, [], "field 'alpha': missing, and the mechanism's lift gives none"),
    ],
    ids=["gain", "gain-config-sizes", "scaling", "sixstep", "gain-seed-override", "gain-config-seed",
         "scaling-size-1", "conditions-size-1", "sixstep-size-1", "conditions-alpha-without-lift"],
)
def test_command_check_exits_one_before_sampling(
    tmp_path, capsys, monkeypatch, command, config, argv, message
):
    sampled = []
    monkeypatch.setattr(harness, "sample_instance", lambda *args: sampled.append(args))
    cfg = write_config(tmp_path, {**GAIN_CONFIG, **config})
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out), *argv]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists() and sampled == []


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_nonpositive_threads_exits_one(tmp_path, capsys, threads):
    cfg = write_config(tmp_path, GAIN_CONFIG)
    out = tmp_path / "x"
    assert main(["gain", "--config", cfg, "--out", str(out), "--threads", threads]) == 1
    assert "field 'threads'" in capsys.readouterr().err
    assert not out.exists()


MONTE_CARLO = {"kind": "monte_carlo", "reps": 100, "delta": 0.1}
MALFORMED_SCALARS = [
    ("gain", {"seed": None}, "seed"),
    ("gain", {"reps_per_size": None}, "reps_per_size"),
    ("gain", {"sizes": None}, "sizes"),
    ("gain", {"sizes": [100, "a"]}, "sizes"),
    ("gain", {"delta_exponent": "x"}, "delta_exponent"),
    ("gain", {"log_coefficient": [1.0]}, "log_coefficient"),
    ("gain", {"alpha": "x"}, "alpha"),
    ("gain", {"ci_delta": "x"}, "ci_delta"),
    ("gain", {"eps": None}, "eps"),
    ("gain", {"gain_mode": {**MONTE_CARLO, "reps": None}}, "gain_mode.reps"),
    ("gain", {"gain_mode": {**MONTE_CARLO, "delta": "x"}}, "gain_mode.delta"),
    ("processes", {**BUCKET_CONFIG, "p": None}, "p"),
    ("processes", {**BUCKET_CONFIG, "eps": "x"}, "eps"),
]


@pytest.mark.parametrize(
    "command, change, field", MALFORMED_SCALARS, ids=[f"{c}-{f}" for c, _, f in MALFORMED_SCALARS]
)
def test_malformed_scalar_field_exits_one_naming_it(tmp_path, capsys, command, change, field):
    base = BUCKET_CONFIG if command == "processes" else GAIN_CONFIG
    cfg = write_config(tmp_path, {**base, **change})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert f"error: field '{field}': " in err
    assert "Traceback" not in err


REPO = Path(__file__).resolve().parents[1]
SHIPPED_COMMANDS = {
    "bucket_affine": ["processes"],
    "conditions_upward": ["conditions"],
    "gain_confidence": ["gain", "simulate"],
    "scaling_confidence": ["scaling"],
    "sixstep_general": ["sixstep"],
}


def _shipped_documents():
    """(name, command, document) for every configs/*.json and both README examples."""
    documents = []
    for path in sorted((REPO / "configs").glob("*.json")):
        for command in SHIPPED_COMMANDS[path.stem]:
            documents.append((path.stem, command, json.loads(path.read_text())))
    examples = REPO.joinpath("README.md").read_text().split("```json\n")[1:]
    experiment, bucket = (json.loads(block.split("```")[0]) for block in examples)
    documents += [("readme-experiment", "gain", experiment), ("readme-experiment", "conditions", experiment)]
    documents.append(("readme-bucket", "processes", bucket))
    return documents


SHIPPED = _shipped_documents()


@pytest.mark.parametrize("name, command, document", SHIPPED, ids=[f"{n}-{c}" for n, c, _ in SHIPPED])
def test_shipped_documents_pass_validation(monkeypatch, name, command, document):
    # the validation phase only: the reader, then check_command or _bucket_inputs
    monkeypatch.setattr(harness, "sample_instance", None)
    if command == "processes":
        _, _, p, eps = _bucket_inputs(document)
        assert p == document["p"] and eps == document["eps"]
    else:
        cfg = harness.check_command(command, config_from_dict(document))
        assert list(cfg.sizes) == document["sizes"] and cfg.seed == document["seed"]
        assert cfg.alpha is not None or command != "conditions"


def test_bucket_document_phi_is_always_normalized():
    # the undocumented 'normalize' field is gone: the reader ignores it like any other key
    for extra in ({}, {"normalize": False}, {"normalize": "no"}):
        phi, dist, _, _ = _bucket_inputs({**BUCKET_CONFIG, **extra})
        assert phi == AffineInY(1.0, 2.0).normalized(dist)


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
    # the edge lists as csv.writer writes them, sampling every instance again, one by one
    expected = tmp_path / "serial"
    expected.mkdir()
    spec = config_from_dict(raw)
    for n_idx, n in enumerate(spec.sizes):
        for rep in range(spec.reps_per_size):
            rng = substream(spec.seed, n_idx, rep)
            _, graph = sample_instance(spec.mechanism, spec.distribution, n, rng)
            csv_writer_edges(graph, expected / f"edges_n{n}_rep{rep}.csv")
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


# ---------------------------------------------------------------------------
# argument parsing


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_command_parses(command):
    defaults = {"seed": None, "sizes": None, "threads": os.cpu_count() or 1}
    parsed = parse_args([command, "--config", "c.json", "--out", "o"])
    assert parsed == (command, {"config": "c.json", "out": "o", **defaults})
    if command == "processes":
        assert parse_args([command, "--config", "c.json"]) == (command, {"config": "c.json", "out": None, **defaults})


def test_flag_equals_form_and_unique_prefixes():
    argv = ["gain", "--conf=c.json", "--o", "o", "--se=3", "--si", "5,6", "--t", "-2", "--seed", "4"]
    # a negative number is a value, and a repeated flag keeps its last value
    assert parse_args(argv) == ("gain", {"config": "c.json", "out": "o", "seed": 4, "sizes": "5,6", "threads": -2})


BOTH = ["--config", "c.json", "--out", "o"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gain", "--out", "o"], "the following arguments are required: --config"),
        (["gain", "--config", "c.json"], "the following arguments are required: --out"),
        (["processes", "--out", "o"], "the following arguments are required: --config"),
        (["gain", *BOTH, "--bogus", "1"], "unrecognized argument: --bogus"),
        (["gain", *BOTH, "extra"], "unrecognized argument: extra"),
        (["gain", *BOTH, "-c", "c.json"], "unrecognized argument: -c"),
        (["nope", *BOTH], "the first argument must be a command: simulate, gain, conditions"),
        ([], "the first argument must be a command"),
        (["--config", "c.json", "gain"], "the first argument must be a command"),
        (["gain", "--config", "c.json", "--out"], "argument --out: expected one argument"),
        (["gain", "--config", "--out", "o"], "argument --config: expected one argument"),
        (["gain", *BOTH, "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["gain", *BOTH, "--threads=1.5"], "argument --threads: invalid int value: '1.5'"),
        (["gain", *BOTH, "--s", "1"], "ambiguous option: --s could match --seed, --sizes"),
    ],
)
def test_usage_error_exits_two_with_a_message_on_stderr(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: fluiddem ")
    assert f"fluiddem: error: {message}" in err


@pytest.mark.parametrize(
    "argv", [["--help"], ["-h"], ["gain", "--help"], ["gain", "--config", "c.json", "-h"], ["nope", "-h"]]
)
def test_help_exits_zero_on_stdout(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("usage: fluiddem ")
    for word in (*COMMANDS.values(), *(f"--{flag}" for flag in FLAGS), "--help"):
        assert word in out


# scipy, numpy.ma and numpy.polynomial cost start-up time; only the runs that
# use them may load them
IMPORT_PROBE = """
import json, os, sys
{prelude}
import fluiddem.cli
{run}
parts = [name.split(".") for name in sys.modules]
print(json.dumps({{
    "heavy": sorted(
        ".".join(p) for p in parts if p[0] == "scipy" or p[:2] in (["numpy", "ma"], ["numpy", "polynomial"])
    ),
    "openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "startup": [m for m in ("dataclasses", "fluiddem.processes") if m in sys.modules],
    "parsing": [m for m in ("argparse", "gettext", "locale") if m in sys.modules],
}}))
"""


def _import_probe(prelude="", run="", preset=None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(prelude=prelude, run=run)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "prelude, preset, expected",
    [
        ("", None, "1"),
        ("", "3", "3"),
        # OpenBLAS has read the environment already, so the pin would only leak to children
        ("import numpy", None, None),
    ],
)
def test_cli_import_loads_no_scipy_and_pins_openblas(prelude, preset, expected):
    probe = _import_probe(prelude=prelude, preset=preset)
    assert probe["heavy"] == []
    assert probe["openblas"] == expected


def test_start_up_loads_no_dataclasses_or_processes():
    # records build no code per class; only the processes command loads processes
    assert _import_probe(prelude="import fluiddem.harness")["startup"] == []
    src = Path(__file__).resolve().parents[1] / "src"
    assert [p.name for p in src.rglob("*.py") if "@dataclass" in p.read_text()] == []


def test_simulate_run_loads_no_argument_parser(tmp_path):
    # argparse brings gettext, and its first parser locale: about 4 ms of a run
    cfg = write_config(tmp_path, GAIN_CONFIG)
    run = f"fluiddem.cli.main(['simulate', '--config', {cfg!r}, '--out', {str(tmp_path / 'run')!r}])"
    assert _import_probe(run=run)["parsing"] == []
    assert (tmp_path / "run" / "instances.csv").exists()


@pytest.mark.parametrize(
    "phi",
    [
        None,
        # the processes-bucket benchmark workload's phi
        {"kind": "tabulated", "values": [[1.0, 2.0, 3.0], [1.5, 2.0, 3.0], [2.0, 2.5, 4.0]]},
    ],
    ids=["bucket_affine", "tabulated"],
)
def test_processes_run_loads_no_scipy_ma_or_polynomial(tmp_path, phi):
    config = Path(__file__).resolve().parents[1] / "configs" / "bucket_affine.json"
    if phi is not None:
        config = Path(write_config(tmp_path, dict(json.loads(config.read_text()), phi=phi)))
    run = f"fluiddem.cli.main(['processes', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}])"
    assert _import_probe(run=run)["heavy"] == []
    assert json.loads((tmp_path / "bucket_model.json").read_text())["B"] == 64


def test_graph_commands_load_no_numpy_ma(tmp_path):
    # np.unique and np.union1d import numpy.ma on first use, ~12 ms of a fresh run
    upward = {**GAIN_CONFIG, "mechanism": {"kind": "upward", "p": 0.5}, "delta_exponent": 0.95}
    general = {**GAIN_CONFIG, "mechanism": {"kind": "general", "p": 0.3, "phi": {"kind": "constant1"}}}
    runs = [
        ("simulate", GAIN_CONFIG),
        ("gain", GAIN_CONFIG),
        ("conditions", upward),
        ("sixstep", {**general, "sizes": [400], "reps_per_size": 3}),
    ]
    calls = [
        f"fluiddem.cli.main([{cmd!r}, '--config', {write_config(tmp_path, cfg, cmd + '.json')!r},"
        f" '--out', {str(tmp_path / cmd)!r}])"
        for cmd, cfg in runs
    ]
    # and the tie path of the upward rank order, which small random inputs rarely reach
    calls.append("fluiddem.delegation_graph._count_greater(__import__('numpy').repeat([0.5, 0.25], 9))")
    probe = _import_probe(run="; ".join(calls))
    assert not any(name.startswith("numpy.ma") for name in probe["heavy"])
    for cmd, _ in runs:
        assert (tmp_path / cmd / "manifest.json").exists(), cmd


def test_run_freezes_the_heap_only_while_it_runs(tmp_path, monkeypatch):
    frozen = []
    run = harness.run_simulate_experiment

    def counting_run(*args, **kwargs):
        frozen.append(gc.get_freeze_count())
        return run(*args, **kwargs)

    monkeypatch.setattr(harness, "run_simulate_experiment", counting_run)
    cfg = write_config(tmp_path, GAIN_CONFIG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert main(["simulate", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x")]) == 1
    assert frozen[0] > 10_000  # the modules and numpy, at least
    assert gc.get_freeze_count() == 0


def test_scaling_and_fitted_conditions_load_no_numpy_ma(tmp_path):
    # np.percentile imports numpy.ma; the 99th and 99.9th percentiles come from a sort
    runs = [
        ("scaling", {**GAIN_CONFIG, "sizes": [100, 10_000], "reps_per_size": 3}),
        ("conditions", GAIN_CONFIG),  # no log_coefficient: it is fitted
    ]
    calls = [
        f"fluiddem.cli.main([{cmd!r}, '--config', {write_config(tmp_path, cfg, cmd + '.json')!r},"
        f" '--out', {str(tmp_path / cmd)!r}])"
        for cmd, cfg in runs
    ]
    probe = _import_probe(run="; ".join(calls))
    assert not any(name.startswith("numpy.ma") for name in probe["heavy"])
    assert (tmp_path / "scaling" / "scaling.csv").exists()
    assert (tmp_path / "conditions" / "conditions.csv").exists()


def test_conditions_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a BLAS dot product of n >= 10,000 splits its sum by thread; at these sizes
    # the weighted sums would differ in their last digits
    upward = {
        **GAIN_CONFIG,
        "mechanism": {"kind": "upward", "p": 0.5},
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 0.98},
        "sizes": [20_000, 200_000],
        "reps_per_size": 2,
        "delta_exponent": 0.95,
    }
    cfg = write_config(tmp_path, upward)
    written = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        out = tmp_path / f"blas{threads}"
        subprocess.run(
            [sys.executable, "-m", "fluiddem.cli", "conditions", "--config", cfg, "--out", str(out)],
            env=env,
            check=True,
            capture_output=True,
        )
        written.append((out / "conditions.csv").read_bytes())
    assert written[0] == written[1]


NAN, INF = float("nan"), float("inf")
TABULATED = {"kind": "tabulated", "values": [[1.0, 2.0], [1.5, 3.0]]}
PLD_KNOTS = [[0.0, 1.0], [0.5, 2.0], [1.0, 1.0]]


def _general(phi):
    return {"mechanism": {"kind": "general", "p": 0.3, "phi": phi}}


def _confidence(q):
    return {"mechanism": {"kind": "confidence", "q": q}}


BAD_PARAMETERS = [
    ("conditions", _general({**TABULATED, "values": [[1.0, NAN], [1.5, 3.0]]}), "mechanism.phi.values"),
    ("simulate", _general({"kind": "exp_in_y", "lambda": NAN}), "mechanism.phi.lambda"),
    ("conditions", {**_general({"kind": "exp_in_y", "lambda": NAN}), "eps": NAN}, "mechanism.phi.lambda"),
    ("simulate", _general({"kind": "affine_in_y", "c0": NAN, "c1": 1.0}), "mechanism.phi.c0"),
    ("simulate", _general({"kind": "affine_in_y", "c0": INF, "c1": 1.0}), "mechanism.phi.c0"),
    ("simulate", _general({"kind": "exp_in_y", "scale": 2.0}), "mechanism.phi.lambda"),
    ("gain", _confidence({"kind": "linear", "a": NAN, "b": 0.8}), "mechanism.q.a"),
    ("gain", _confidence({"kind": "piecewise_linear", "knots": [[0.0, 0.9], [NAN, 0.1]]}), "mechanism.q.knots"),
    ("gain", {"distribution": {"kind": "piecewise_linear_density", "knots": [[NAN, 1.0], *PLD_KNOTS[1:]]}},
     "distribution.knots"),
    ("gain", {"distribution": {"kind": "beta", "a": INF, "b": 2.0}}, "distribution.a"),
    ("gain", {"mechanism": {"kind": "upward"}}, "mechanism.p"),
    ("sixstep", {**_general({"kind": "affine_in_y", "c0": 1.0, "c1": 2.0}), "eps": NAN}, "eps"),
    ("conditions", {"alpha": NAN}, "alpha"),
    ("conditions", {"log_coefficient": -INF}, "log_coefficient"),
    ("processes", {**BUCKET_CONFIG, "eps": NAN}, "eps"),
    ("processes", {**BUCKET_CONFIG, "phi": {"kind": "exp_in_y", "lambda": NAN}}, "phi.lambda"),
    ("processes", {**BUCKET_CONFIG, "phi": {"kind": "row_normalized", "base": TABULATED,
                   "distribution": {"kind": "uniform", "lo": 0.0}}}, "phi.distribution.hi"),
    # numbers must be JSON numbers: no strings, no booleans
    ("conditions", {"mechanism": {"kind": "upward", "p": "0.5"}}, "mechanism.p"),
    ("simulate", _confidence({"kind": "linear", "a": True, "b": " 0.8 "}), "mechanism.q.a"),
    ("gain", _confidence({"kind": "linear", "a": 0.8, "b": " 0.8 "}), "mechanism.q.b"),
    ("gain", {"seed": True}, "seed"),
    # phi must be finite and strictly positive (mechanisms.positive_bounds), on its
    # sampling base when read and, for processes, once normalized
    ("simulate", _general({"kind": "exp_in_y", "lambda": 800.0}), "mechanism.phi"),
    ("sixstep", _general({"kind": "exp_in_y", "lambda": 800.0}), "mechanism.phi"),
    ("processes", {**BUCKET_CONFIG, "phi": {"kind": "row_normalized", "base": {"kind": "indicator"},
                   "distribution": BUCKET_CONFIG["distribution"]}}, "phi"),
    ("processes", {**BUCKET_CONFIG, "phi": {**TABULATED, "values": [[0.0, 0.0], [0.0, 0.0]]}}, "phi"),
    ("processes", {**BUCKET_CONFIG, "phi": {**TABULATED, "values": [[0.0, 1.0], [0.0, 1.0]]}}, "phi"),
    ("processes", {**BUCKET_CONFIG, "phi": {"kind": "exp_in_y", "lambda": 800.0}}, "phi"),
    # the normalization's integral overflows in floating point
    ("processes", {**BUCKET_CONFIG, "phi": {"kind": "exp_in_y", "lambda": 708.0}}, "phi"),
    # the normalized minimum, 1e-300 / 5e299, underflows to 0
    ("processes", {**BUCKET_CONFIG, "phi": {**TABULATED, "values": [[1e-300, 1e300], [1e-300, 1e300]]}},
     "phi"),
    # the manifest records the whole document, so a field the reader ignores must be finite too
    ("gain", {"note": NAN}, "config"),
    ("processes", {**BUCKET_CONFIG, "note": INF}, "config"),
]


@pytest.mark.parametrize(
    "command, change, field", BAD_PARAMETERS, ids=[f"{c}-{f}" for c, _, f in BAD_PARAMETERS]
)
def test_non_finite_or_missing_parameter_exits_one_naming_it(tmp_path, capsys, monkeypatch, command, change, field):
    sampled = []
    monkeypatch.setattr(harness, "sample_instance", lambda *args: sampled.append(args))
    monkeypatch.setattr(processes, "build_bucket_model", lambda *args: sampled.append(args))
    base = BUCKET_CONFIG if command == "processes" else {**GAIN_CONFIG, "sizes": [200]}
    cfg = write_config(tmp_path, {**base, **change})
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: field '{field}': " in err
    assert "Traceback" not in err
    assert not out.exists() and sampled == []


@pytest.mark.parametrize(
    "change, field",
    [
        ({"sizes": "19"}, "sizes"),
        ({"sizes": 100}, "sizes"),
        ({"sizes": [100.7, 200.2]}, "sizes"),
        ({"seed": 1.5}, "seed"),
        ({"seed": "11"}, "seed"),
        ({"reps_per_size": 2.9}, "reps_per_size"),
        ({"gain_mode": {"kind": "monte_carlo", "reps": 100.5, "delta": 0.1}}, "gain_mode.reps"),
    ],
    ids=["sizes-string", "sizes-scalar", "sizes-fraction", "seed-fraction", "seed-string",
         "reps_per_size-fraction", "gain_mode.reps-fraction"],
)
def test_non_integral_config_field_exits_one_naming_it(tmp_path, capsys, change, field):
    cfg = write_config(tmp_path, {**GAIN_CONFIG, **change})
    assert main(["gain", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert f"error: field '{field}': " in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_integral_float_config_fields_parse():
    cfg = config_from_dict({**GAIN_CONFIG, "sizes": [1e2, 240.0], "seed": 11.0, "reps_per_size": 6e0})
    assert cfg.sizes == (100, 240) and cfg.seed == 11 and cfg.reps_per_size == 6
    assert all(type(v) is int for v in (*cfg.sizes, cfg.seed, cfg.reps_per_size))


# a fresh interpreter: the thresholds are process-wide, and the heap must not
# be one that earlier tests have warmed
HEAP_PROBE = """
import resource
from fluiddem import cli, substream, tally
p = substream(3).random(20_000)
cli._keep_freed_heap()
tally.direct_tail(p)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
tally.direct_tail(p)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_repeated_tally_reuses_freed_heap():
    # about 600 minor faults on the second call with glibc's default thresholds, 0 with them fixed
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", HEAP_PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert int(done.stdout.split()[-1]) < 100
