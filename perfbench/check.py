"""Output checker for the benchmark's CLI runs, with its own reference code.

Every output row is checked once against references written here: a
pointer-doubling forest oracle for roots, weights and nullified voters, and a
product-tree Poisson-binomial tail for exact tallies. Instances are
regenerated with fluiddem's own sampler on the same substream keys, so the
check follows the program's random streams. Further runs of the same config
(other passes, `--threads 2`, the traced run) must write byte-identical data
files; a file that differs fails all of its rows.

`check_run` returns (rows checked, rows failed, messages about failures).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

PROB_TOL = 1e-9  # exact tallies against the reference tail
MC_DELTA = 1e-6  # Monte Carlo rows: Hoeffding half-width at this confidence
REL_TOL = 1e-8  # spectral radius and other floating-point identities


# ---------------------------------------------------------------------------
# reference code


def forest(out) -> tuple[np.ndarray, np.ndarray]:
    """(root, nullified) of a functional graph by pointer doubling.

    Direct voters point at themselves; after ceil(log2 n) squarings every
    voter points at the end of its chain, or at a voter on the cycle it feeds.
    A voter is nullified iff that end still delegates.
    """
    out = np.asarray(out, dtype=np.int64)
    n = out.shape[0]
    nxt = np.where(out < 0, np.arange(n), out)
    for _ in range(max(1, n).bit_length() + 1):
        jumped = nxt[nxt]
        if np.array_equal(jumped, nxt):
            break
        nxt = jumped
    return nxt, out[nxt] >= 0


def weights_of(out) -> tuple[np.ndarray, int]:
    """(weight per voter, nullified count): each active voter adds 1 to its root."""
    root, nullified = forest(out)
    weight = np.bincount(root[~nullified], minlength=len(root)).astype(np.int64)
    return weight, int(nullified.sum())


def _multiply_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise polynomial products of two (m, L) coefficient arrays."""
    size = 2 * a.shape[1] - 1
    nfft = 1 << (size - 1).bit_length()
    prod = np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft), nfft)[:, :size]
    return np.clip(prod, 0.0, None)


def poisson_binomial_pmf(probs) -> np.ndarray:
    """pmf of a sum of independent Bernoulli(p_i), by a product tree of FFT products."""
    p = np.asarray(probs, dtype=float)
    rows = np.stack([1.0 - p, p], axis=1)
    while rows.shape[0] > 1:
        if rows.shape[0] % 2:
            one = np.zeros((1, rows.shape[1]))
            one[0, 0] = 1.0
            rows = np.vstack([rows, one])
        rows = _multiply_rows(rows[0::2], rows[1::2])
    return rows[0, : p.shape[0] + 1]


def weighted_tail(weights, probs, threshold: float) -> float:
    """P[sum_i w_i V_i > threshold]: voters grouped by weight, group pmfs dilated and multiplied."""
    w = np.asarray(weights, dtype=np.int64)
    p = np.asarray(probs, dtype=float)
    pmf = np.ones(1)
    for value in np.unique(w[w > 0]).tolist():
        group = poisson_binomial_pmf(p[w == value])
        dilated = np.zeros(value * (len(group) - 1) + 1)
        dilated[::value] = group
        size = len(pmf) + len(dilated) - 1
        width = max(len(pmf), len(dilated))
        pmf = _multiply_rows(
            np.pad(pmf, (0, width - len(pmf)))[None, :],
            np.pad(dilated, (0, width - len(dilated)))[None, :],
        )[0, :size]
    kmin = math.floor(threshold) + 1
    return min(math.fsum(pmf[max(kmin, 0) :].tolist()), 1.0)


def hoeffding(reps: int, delta: float) -> float:
    return math.sqrt(math.log(2.0 / delta) / (2.0 * reps))


def _instance(config: dict, n_idx: int, rep: int):
    from fluiddem import harness
    from fluiddem.delegation_graph import sample_instance
    from fluiddem.streams import substream

    cfg = harness.config_from_dict(config)
    rng = substream(cfg.seed, n_idx, rep)
    return sample_instance(cfg.mechanism, cfg.distribution, cfg.sizes[n_idx], rng)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# per-command reference checks; each returns (row id, problem or None) pairs


def check_gain(config: dict, out_dir: Path):
    rows = _read_csv(out_dir / "gain.csv")
    mode = config.get("gain_mode", {})
    cap = int(mode.get("cap", 20_000))
    mc_reps = math.ceil(
        math.log(2.0 / float(mode.get("delta", 0.01)))
        / (2.0 * float(mode.get("target_halfwidth", 0.005)) ** 2)
    )
    expected = [(n, rep) for n in config["sizes"] for rep in range(config["reps_per_size"])]
    results = []
    for key in expected:
        row = next((r for r in rows if (int(r["n"]), int(r["rep"])) == key), None)
        results.append((f"gain n={key[0]} rep={key[1]}", _gain_problem(config, key, row, cap, mc_reps)))
    results += [(f"gain unexpected row {r}", "not in the config") for r in rows if (int(r["n"]), int(r["rep"])) not in expected]
    return results


def _gain_problem(config, key, row, cap, mc_reps):
    if row is None:
        return "missing"
    n, rep = key
    gain, p_direct, p_fluid = float(row["gain"]), float(row["p_direct"]), float(row["p_fluid"])
    if not (0.0 <= p_direct <= 1.0 and 0.0 <= p_fluid <= 1.0):
        return "probability outside [0, 1]"
    if abs((p_fluid - p_direct) - gain) > 1e-12:
        return "gain != p_fluid - p_direct"
    p_vec, graph = _instance(config, config["sizes"].index(n), rep)
    weight, nullified = weights_of(graph.out)
    if int(row["max_weight"]) != int(weight.max()) or int(row["nullified"]) != nullified:
        return "max_weight/nullified disagree with the forest oracle"
    ref_direct = weighted_tail(np.ones(n, dtype=np.int64), p_vec, n / 2.0)
    ref_fluid = weighted_tail(weight, p_vec, n / 2.0)
    tol = PROB_TOL if n <= cap else hoeffding(mc_reps, MC_DELTA)
    if abs(p_direct - ref_direct) > tol or abs(p_fluid - ref_fluid) > tol:
        return f"tally off the reference by more than {tol:.3g}"
    return None


def check_conditions(config: dict, out_dir: Path):
    from fluiddem import harness

    cfg = harness.config_from_dict(config)
    if cfg.distribution.__class__.__name__ != "Uniform" or config["mechanism"]["kind"] != "upward":
        raise ValueError("the conditions check covers upward delegation under a uniform law")
    lo, hi = cfg.distribution.lo, cfg.distribution.hi
    a, b = lo + 0.25 * (hi - lo), lo + 0.5 * (hi - lo)
    alpha = cfg.mechanism.p * 0.25 * 0.5 * (b - a) / 8.0
    reps = cfg.reps_per_size
    rows = {int(r["n"]): r for r in _read_csv(out_dir / "conditions.csv")}
    results = []
    for n_idx, n in enumerate(cfg.sizes):
        row = rows.get(n)
        if row is None:
            results.append((f"conditions n={n}", "missing"))
            continue
        stats = []
        for rep in range(reps):
            p_vec, graph = _instance(config, n_idx, rep)
            weight, nullified = weights_of(graph.out)
            comp = float(p_vec.sum())
            stats.append((int(weight.max()), float(np.dot(weight, p_vec)) - comp, comp, nullified))
        max_w, lift, comp, null = (np.array(col, dtype=float) for col in zip(*stats))
        half = n / 2.0
        want = {
            "reps": reps,
            "freq1": float((max_w <= float(n) ** cfg.delta_exponent).mean()),
            "freq2": float((lift >= 2.0 * alpha * n).mean()),
            "freq3": float(((comp + alpha * n <= half) & (half <= comp + lift - alpha * n)).mean()),
            **{ci: hoeffding(reps, cfg.ci_delta) for ci in ("ci1", "ci2", "ci3")},
            "mean_max_weight": float(max_w.mean()),
            "mean_lift": float((lift / n).mean()),
            "mean_nullified": float((null / n).mean()),
        }
        bad = [k for k, v in want.items() if not _close(float(row[k]), v, 1e-9)]
        results.append((f"conditions n={n}", f"disagrees on {bad}" if bad else None))
    return results


def check_simulate(config: dict, out_dir: Path):
    rows = {(int(r["n"]), int(r["rep"])): r for r in _read_csv(out_dir / "instances.csv")}
    results = []
    for n in config["sizes"]:
        for rep in range(config["reps_per_size"]):
            results.append((f"instances n={n} rep={rep}", _simulate_problem(out_dir, n, rep, rows.get((n, rep)))))
    return results


def _simulate_problem(out_dir, n, rep, row):
    if row is None:
        return "missing"
    path = out_dir / f"edges_n{n}_rep{rep}.csv"
    if not path.is_file():
        return f"no edge list {path.name}"
    edges = _read_csv(path)
    voters = np.array([int(e["voter"]) for e in edges], dtype=np.int64)
    if len(edges) != n or not np.array_equal(voters, np.arange(n)):
        return "edge list does not list voters 0..n-1 once each"
    out = np.array([int(e["target"]) if e["target"] else -1 for e in edges], dtype=np.int64)
    if np.any(out >= n) or np.any(out == voters):
        return "edge list has an invalid target"
    weight, nullified = weights_of(out)
    got = (int(row["max_weight"]), int(row["total_weight"]), int(row["nullified"]))
    if got != (int(weight.max()), int(weight.sum()), nullified):
        return f"instances.csv {got} disagrees with the edge list"
    return None


def check_processes(config: dict, out_dir: Path, expected_buckets: int):
    model = json.loads((out_dir / "bucket_model.json").read_text())
    B = int(model["B"])
    pi = np.array(model["pi"])
    M = np.array(model["M"])
    p, eps = float(config["p"]), float(config["eps"])
    factor = p * (1.0 + eps) ** 3 / (1.0 - 2.0 * eps)
    rho = float(np.max(np.abs(np.linalg.eigvals(M)))) if M.shape == (B, B) else math.nan
    return [
        ("bucket count", None if B == expected_buckets else f"B={B}, expected {expected_buckets}"),
        ("pi", None if pi.shape == (B,) and abs(pi.sum() - 1.0) <= 1e-12 else "pi does not sum to 1"),
        ("spectral radius", None if _close(float(model["spectral_radius"]), rho, REL_TOL) else f"eigvals give {rho}"),
        ("M @ pi", None if M.shape == (B, B) and np.allclose(M @ pi, factor * pi, rtol=REL_TOL, atol=0.0) else "M @ pi != factor * pi"),
    ]


# ---------------------------------------------------------------------------
# entry point


def _data_files(out_dir: Path) -> list[Path]:
    return sorted(p for p in out_dir.iterdir() if p.name != "manifest.json")


def _row_count(path: Path) -> int:
    if path.suffix == ".csv":
        with open(path) as fh:
            return max(sum(1 for _ in fh) - 1, 1)
    return 1


def check_run(command: str, config: dict, runs, expected_buckets: int = 0):
    """Check a set of CLI runs of one config.

    runs: (output directory, exit code) pairs; the first successful run is
    checked against the references, every other run is compared with it
    byte for byte. A failed run counts all the reference's rows as failed.
    """
    checkers = {
        "gain": check_gain,
        "conditions": check_conditions,
        "simulate": check_simulate,
        "processes": lambda c, d: check_processes(c, d, expected_buckets),
    }
    ok_runs = [Path(d) for d, rc in runs if rc == 0]
    if not ok_runs:
        return len(runs), len(runs), ["every CLI run failed"]
    reference = ok_runs[0]
    try:
        results = checkers[command](config, reference)
    except (OSError, KeyError, ValueError) as exc:
        results = [(f"{command} output unreadable", str(exc))]
    messages = [f"{reference.name}: {row}: {problem}" for row, problem in results if problem]
    per_run, ref_failed = len(results), len(messages)
    attempted, failed = per_run, ref_failed
    ref_files = _data_files(reference)
    for out_dir, rc in runs:
        out_dir = Path(out_dir)
        if out_dir == reference:
            continue
        attempted += per_run
        names = [p.name for p in _data_files(out_dir)] if rc == 0 else None
        if names != [p.name for p in ref_files]:
            failed += per_run
            messages.append(f"{out_dir.name}: exit code {rc}, wrote {names}")
            continue
        # identical files repeat the reference's failures; differing ones fail their rows
        differing = [p for p in ref_files if p.read_bytes() != (out_dir / p.name).read_bytes()]
        failed += max(ref_failed, min(per_run, sum(_row_count(p) for p in differing)))
        if differing:
            messages.append(f"{out_dir.name}: {[p.name for p in differing]} differ from {reference.name}")
    return attempted, failed, messages
