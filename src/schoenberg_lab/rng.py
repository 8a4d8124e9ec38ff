"""Deterministic random-stream derivation.

Every randomized operation in the package takes an explicit integer seed and
derives independent substreams from it via ``SeedSequence`` entropy tuples, so
results are bit-identical across runs and thread schedules.

``STREAM_VERSION`` names what the package draws from those substreams. It
changes whenever a seeded result changes for the same seed and arguments, and
every CLI report records it. Version 2 draws one chi-square variate per Monte
Carlo replicate where version 1 drew n standard normals. Version 3 draws
certify's trials in chunks of 64: one substream per chunk, keyed by the chunk
index, yields the point counts, spans and box points of all its trials as
arrays, where version 2 derived one substream per trial. Version 4 draws
verify-identity's replicates once per n for every t, where version 3 drew them
anew for the i-th t at seed + i; row 0 of its report is unchanged.
"""

from __future__ import annotations

import numpy as np

STREAM_VERSION = 4

# Role tags keep substreams of one seed disjoint across call sites.
ROLE_TRIAL = 1
ROLE_SAMPLE = 2
ROLE_SCALE = 3
ROLE_NOISE = 4
ROLE_LHS = 5
ROLE_RHS = 6


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by ``(seed, *key)``.

    The same (seed, key) pair always yields the same stream, independent of
    how many other substreams were created before it.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), *map(int, key))))


def parallel_map(fn, n_items: int, threads: int = 1) -> list:
    """Apply ``fn(index)`` for ``index in range(n_items)``, optionally threaded.

    Results come back ordered by index regardless of schedule, so any
    reduction over them is thread-count invariant.
    """
    if threads <= 1 or n_items <= 1:
        return [fn(i) for i in range(n_items)]
    from concurrent.futures import ThreadPoolExecutor  # deferred: most runs use one thread

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_items)))
