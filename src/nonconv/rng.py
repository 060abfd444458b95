"""Deterministic random-stream derivation.

Every simulation entry point takes an explicit 64-bit seed and draws all
of its batches from one Generator, ``derive_rng(seed, stream_tag)``, which
feeds (seed, stream_tag) into a ``numpy.random.SeedSequence``.  The stream
tags below, one per consumer, keep subsystems that share a seed apart.
``derive_seed`` turns (seed, *keys) into an integer seed, for a caller that
passes each of several calls a seed of its own.
"""

from __future__ import annotations

import numpy as np

STREAM_BERNOULLI = 1
STREAM_MARKOV = 2
STREAM_SUBSHIFT = 3
STREAM_HITTING = 4
STREAM_SAMPLE_POINT = 5
STREAM_TARGET_REFINE = 6
STREAM_SEVASTYANOV = 7


def _seed_sequence(seed: int, keys) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in keys))


def derive_rng(seed: int, *keys: int) -> np.random.Generator:
    """Return a Generator for the stream identified by (seed, *keys)."""
    return np.random.default_rng(_seed_sequence(seed, keys))


def derive_seed(seed: int, *keys: int) -> int:
    """A 64-bit integer seed for the stream identified by (seed, *keys),
    for entry points that take an integer seed."""
    return int(_seed_sequence(seed, keys).generate_state(1, np.uint64)[0])
