"""The benchmark's tracer (perfbench/tracer.py) wraps fluiddem functions by
module and name; these runs check that every name it wraps still exists and
is still called through the module it is wrapped on."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GRID = [[1.0, 2.0, 3.0], [1.5, 2.0, 3.0], [2.0, 2.5, 4.0]]
UNIFORM = {"kind": "uniform", "lo": 0.0, "hi": 1.0}

SCRIPT = """
import json, sys
sys.path.insert(0, {perfbench!r})
from tracer import Tracer, install

tracer = Tracer()
install(tracer)
from fluiddem import cli

codes = [cli.main(["processes", "--config", {processes!r}, "--out", {out!r}])]
processes_counts = dict(tracer.counts)
codes.append(cli.main(["simulate", "--config", {simulate!r}, "--out", {out!r}, "--threads", "1"]))
print(json.dumps({{
    "codes": codes,
    "names": sorted({{span[0] for span in tracer.spans}}),
    "processes_counts": processes_counts,
}}))
"""


def test_tracer_finds_and_records_every_layer(tmp_path):
    processes = tmp_path / "processes.json"
    processes.write_text(json.dumps({"phi": {"kind": "tabulated", "values": GRID},
                                     "distribution": UNIFORM, "p": 0.3, "eps": 0.05}))
    simulate = tmp_path / "simulate.json"
    simulate.write_text(json.dumps({
        "mechanism": {"kind": "general", "p": 0.3, "phi": {"kind": "tabulated", "values": GRID}},
        "distribution": UNIFORM, "sizes": [200, 400], "reps_per_size": 2, "seed": 7,
    }))
    script = SCRIPT.format(
        perfbench=str(ROOT / "perfbench"), processes=str(processes), simulate=str(simulate),
        out=str(tmp_path / "out"),
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "AttributeError" not in done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0]
    for name in ("distributions.sample", "delegation_graph.sample_graph",
                 "mechanisms.phi_mean_in_y", "quadrature.integrate"):
        assert name in report["names"]
    # the normalization check and the row means of the tabulated base: one
    # vectorized quadrature each
    assert report["processes_counts"] == {
        "mechanisms.phi_mean_in_y.calls": 2, "quadrature.integrate.calls": 2, "processes.buckets": 64,
    }
