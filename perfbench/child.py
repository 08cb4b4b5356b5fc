"""One fresh interpreter per measured CLI run.

    python3 perfbench/child.py MODE CONFIG COMMAND OUT THREADS [TRACE_FILE]

MODE is `setup` (import fluiddem and parse the config, then exit), `run`
(set up, then time `fluiddem.cli.main` on the config) or `trace` (as `run`,
with spans recorded by tracer.py and written to TRACE_FILE). fluiddem must be
importable, which run.py arranges through PYTHONPATH. The last stdout line is
a JSON object: `ready` (time.monotonic() when set-up finished, comparable with
the parent's clock), `wall_s`, `rss_mib` (this process's peak resident set)
and the CLI's exit code `rc`.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    mode, config_path, command, out_dir, threads = argv[:5]
    tracer = None
    if mode == "trace":
        from tracer import Tracer, install

        tracer = Tracer()
        import_span = tracer.open("cli.import", start=STARTED)
    from fluiddem import cli, harness

    if tracer is not None:
        tracer.close(import_span)
        install(tracer)
        config_span = tracer.open("cli.config")
    with open(config_path) as fh:
        raw = json.load(fh)
    if command == "processes":
        cli._bucket_inputs(raw)
    else:
        sizes = harness.config_from_dict(raw).sizes
        if tracer is not None:
            tracer.sizes = sizes
    ready = time.monotonic()
    if tracer is not None:
        tracer.close(config_span)

    result = {"ready": ready}
    if mode != "setup":
        cli_argv = [command, "--config", config_path, "--out", out_dir, "--threads", threads]
        if tracer is not None:
            main_span = tracer.open("cli.main")
        start = time.perf_counter()
        try:
            rc = cli.main(cli_argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        result["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.close(main_span)
        result["rc"] = rc
        result["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        write_trace(tracer, argv[5])
    print(json.dumps(result))
    return 0


def write_trace(tracer, path) -> None:
    per_name, per_size = tracer.self_times()
    payload = {
        "spans": [
            {"name": n, "start": s, "end": e, "parent": p, "size": z} for n, s, e, p, z in tracer.spans
        ],
        "inclusive_s": {name: v[0] for name, v in per_name.items()},
        "self_s": {name: v[1] for name, v in per_name.items()},
        "self_s_by_size": [
            {"name": name, "size": size, "self_s": value} for (name, size), value in per_size.items()
        ],
        "counts": dict(tracer.counts),
        "max_weight": tracer.max_weight,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
