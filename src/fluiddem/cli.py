"""Command-line front end.

Subcommands: simulate, gain, conditions, scaling, processes, sixstep. Each
run is driven by a single JSON config document; flags only override the seed,
the size list, the output directory and the worker count, so a run is fully
reproducible from its config plus the recorded manifest. Data goes to files
(or standard output for `processes` without --out); progress and errors go to
standard error.

Exit codes: 0 success (and --help), 1 config/validation error, 2 runtime or usage
error.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__, harness, mechanisms
# unused here, but perfbench/tracer.py wraps them by name on this module
from .delegation_graph import sample_instance, to_edge_csv  # noqa: F401

# glibc's mallopt parameter numbers
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Fix glibc's malloc thresholds at the ceiling of its own adaptive rule.

    glibc serves blocks above M_MMAP_THRESHOLD (128 KiB at start, raised only as mapped
    blocks are freed) from fresh mappings and hands heap tops above M_TRIM_THRESHOLD back
    to the kernel, so the tally's chunk lattices and spectra fault in new pages on every
    call: 588 minor faults per exact_gain at n = 20,000 (multiway kernel, October 2026),
    against 0 with the thresholds fixed at 32 MiB (the adaptive ceiling) and 64 MiB. The
    heap keeps its largest tally's peak: 0.9 MiB at n = 20,000. Other C libraries: as is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(M_TRIM_THRESHOLD, 64 << 20)
    mallopt(M_MMAP_THRESHOLD, 32 << 20)


COMMANDS = {
    "simulate": "sample instances; write per-instance weight summaries and edge lists",
    "gain": "exact or Monte Carlo gain per sampled instance",
    "conditions": "empirical frequencies of the max-weight, lift and separation conditions",
    "scaling": "99th-percentile max-weight scaling across sizes",
    "processes": "build the bucketized multi-type branching model and report it as JSON",
    "sixstep": "per-step diagnostics of the decomposed general-continuous sampler",
}
FLAGS = {
    "config": "path to the JSON config document",
    "out": "output directory (created if missing; optional for processes only)",
    "seed": "override the config seed",
    "sizes": "override the config sizes, e.g. 500,1000",
    "threads": "most replicate workers: forked processes pinned one per CPU, capped at the "
    "CPUs this process may use; small runs use one (default: the CPU count)",
}
USAGE = (
    f"usage: fluiddem {{{','.join(COMMANDS)}}} --config CONFIG [--out OUT] [--seed SEED]"
    " [--sizes SIZES] [--threads THREADS]"
)


def _usage_error(message: str):
    print(f"{USAGE}\nfluiddem: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv) -> tuple[str, dict]:
    """(command, {flag: value}) of argv: a command, then --flag value or --flag=value pairs.

    A flag may be shortened to any unique prefix, a negative number is a value,
    and a later value overrides an earlier one. -h or --help prints the help to
    stdout and exits 0; a usage error prints the usage and the error to stderr
    and exits 2.
    """
    if "-h" in argv or "--help" in argv:
        print(USAGE, "", "Sample delegation instances and tally fluid vs. direct voting accuracy.", sep="\n")
        print("\ncommands:", *(f"  {name:<11} {text}" for name, text in COMMANDS.items()), sep="\n")
        print("\noptions:", *(f"  {f'--{name} {name.upper()}':<19} {text}" for name, text in FLAGS.items()), sep="\n")
        print("  -h, --help          show this help and exit")
        raise SystemExit(0)
    if not argv or argv[0] not in COMMANDS:
        _usage_error(f"the first argument must be a command: {', '.join(COMMANDS)}")
    command, rest = argv[0], list(argv[1:])
    args = {"config": None, "out": None, "seed": None, "sizes": None, "threads": os.cpu_count() or 1}
    while rest:
        token = rest.pop(0)
        name, has_value, value = token[2:].partition("=")
        matches = [flag for flag in FLAGS if flag.startswith(name)] if token[:2] == "--" and name else []
        if len(matches) != 1:
            _usage_error(f"ambiguous option: {token} could match --{', --'.join(matches)}" if matches
                         else f"unrecognized argument: {token}")
        flag = matches[0]
        if not has_value:
            if not rest or (rest[0][:1] == "-" and not rest[0][1:].replace(".", "", 1).isdigit()):
                _usage_error(f"argument --{flag}: expected one argument")
            value = rest.pop(0)
        if flag in ("seed", "threads"):
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument --{flag}: invalid int value: {value!r}")
        args[flag] = value
    required = ("config",) if command == "processes" else ("config", "out")
    missing = [f"--{flag}" for flag in required if args[flag] is None]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    return command, args


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ValueError(f"field 'config': cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"field 'config': {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ValueError(f"field 'config': {path} must hold a JSON object")
    return document


def _parse_sizes(text: str) -> list:
    """The numbers of a --sizes override such as 500,1000, for the reader to check."""
    try:
        return json.loads(f"[{text}]")
    except json.JSONDecodeError as exc:
        raise ValueError(f"field 'sizes': cannot parse override {text!r}") from exc


def _bucket_inputs(raw: dict):
    """(phi normalized under the distribution, distribution, p, eps) of a bucket-model document.

    It reads and checks the document, the normalized phi included, but does not build the model.
    """
    from . import processes  # only the processes command loads it

    doc = mechanisms.read_record(processes.BucketDocument, raw)
    normalize = lambda phi: mechanisms.normalize_phi(phi, doc.distribution)  # noqa: E731
    phi = mechanisms.parse_field("phi", normalize, doc.phi)
    mechanisms.positive_bounds(phi)  # the row means it computes are the build's
    return phi, doc.distribution, doc.p, doc.eps


def _sha256(document: dict) -> str:
    """The SHA-256 of the document's canonical JSON, which holds no NaN or infinity."""
    return hashlib.sha256(json.dumps(document, sort_keys=True, allow_nan=False).encode()).hexdigest()


def _write_manifest(out_dir: Path, command: str, raw_config: dict, cfg_kv: dict, wall: float):
    manifest = {
        "command": command,
        "package_version": __version__,
        "config": raw_config,
        **cfg_kv,
        "wall_time_seconds": wall,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    What is alive when the run starts (modules, classes, numpy's tables)
    outlives it, so it is frozen meanwhile: a collection during the run then
    scans only the run's own objects. Unfrozen, whether a collection over the
    import's 5,000 young objects fell inside the run depended on how many
    objects the import had made; one that did cost 1.2 ms of a 10 ms run.
    """
    gc.freeze()
    try:
        return _main(argv)
    finally:
        gc.unfreeze()


def _main(argv) -> int:
    command, args = parse_args(sys.argv[1:] if argv is None else argv)
    started = time.monotonic()

    # validation phase: everything must parse before any sampling starts
    try:
        raw_config = _load_json(args["config"])
        if command == "processes":
            bucket_inputs = _bucket_inputs(raw_config)
            cfg = None
        else:
            document = dict(raw_config)  # the manifest records the file's own document
            if args["seed"] is not None:
                document["seed"] = args["seed"]
            if args["sizes"] is not None:
                document["sizes"] = _parse_sizes(args["sizes"])
            cfg = harness.check_command(command, harness.config_from_dict(document))
        threads = args["threads"]
        if threads < 1:
            raise ValueError(f"field 'threads': must be >= 1, got {threads}")
        # the manifest records the document: a NaN in a field the reader ignores stops here
        digest = mechanisms.parse_field("config", _sha256, raw_config)
        out_dir = None
        if args["out"] is not None:
            out_dir = Path(args["out"])
            out_dir.mkdir(parents=True, exist_ok=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _keep_freed_heap()
    try:
        if command == "processes":
            from . import processes

            phi, dist, p, eps = bucket_inputs
            model = processes.build_bucket_model(phi, dist, p, eps)
            _progress(f"bucket model built: B={model.B} spectral_radius={model.spectral_radius:.6g}")
            payload = model.to_json()
            if out_dir is None:
                print(payload)
            else:
                (out_dir / "bucket_model.json").write_text(payload + "\n")
                _write_manifest(
                    out_dir,
                    command,
                    raw_config,
                    {"config_sha256": digest, "seed": None, "sizes": None, "threads": threads},
                    time.monotonic() - started,
                )
            return 0

        _progress(
            f"{command}: sizes={list(cfg.sizes)} reps_per_size={cfg.reps_per_size} "
            f"seed={cfg.seed} threads={threads}"
        )
        if command == "simulate":
            rows = harness.run_simulate_experiment(cfg, threads, edge_dir=out_dir)
            harness.write_csv(out_dir / "instances.csv", harness.SIMULATE_HEADER, rows)
        elif command == "gain":
            rows = harness.run_gain_sweep(cfg, threads)
            harness.write_csv(out_dir / "gain.csv", harness.GAIN_HEADER, rows)
        elif command == "conditions":
            report = harness.run_condition_experiment(cfg, threads)
            report.to_csv(out_dir / "conditions.csv")
            _progress(
                f"alpha={report.alpha!r} delta_exponent={report.delta_exponent!r} "
                f"log_coefficient={report.log_coefficient!r}"
            )
        elif command == "scaling":
            rows = harness.run_scaling_study(cfg, threads)
            harness.write_csv(out_dir / "scaling.csv", harness.SCALING_HEADER, rows)
        elif command == "sixstep":
            rows = harness.run_sixstep_experiment(cfg, threads)
            harness.write_csv(out_dir / "sixstep.csv", harness.SIXSTEP_HEADER, rows)
        else:  # pragma: no cover - parse_args guards this
            raise ValueError(f"unknown command {command!r}")

        _write_manifest(
            out_dir,
            command,
            raw_config,
            {"config_sha256": digest, "seed": cfg.seed, "sizes": list(cfg.sizes), "threads": threads},
            time.monotonic() - started,
        )
        _progress(f"{command}: wrote {out_dir}")
        return 0
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
