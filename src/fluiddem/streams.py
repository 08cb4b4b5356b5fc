"""Reproducible, splittable random streams.

Every sampling operation in the package takes an explicit generator so that
replications are reproducible and can run in parallel on disjoint streams.
Streams are counter-based (Philox) and keyed by an integer seed plus an
integer path, so the stream for (seed, size_index, rep) is independent of
worker scheduling.
"""

from __future__ import annotations

from numpy.random import Generator, Philox, SeedSequence


def substream(seed: int, *path: int) -> Generator:
    """Return an independent Philox generator keyed by (seed, *path)."""
    ss = SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return Generator(Philox(ss))
