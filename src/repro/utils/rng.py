"""Deterministic random-number management.

Every stochastic component of the library (identifier permutations, random
topologies, Monte-Carlo experiments) takes either an integer seed or an
existing :class:`random.Random` instance.  Centralising the conversion in
:func:`make_rng` keeps experiments reproducible: re-running a benchmark with
the same seed yields bit-identical series.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional, Union

SeedLike = Union[None, int, random.Random]

_DEFAULT_SEED = 0x5EED


def make_rng(seed: SeedLike = None) -> random.Random:
    """Return a :class:`random.Random` built from ``seed``.

    ``None`` maps to a fixed library-wide default so that *forgetting* a seed
    still produces deterministic runs; pass an explicit integer to vary the
    stream, or an existing ``Random`` to share state with the caller.
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is None:
        return random.Random(_DEFAULT_SEED)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(f"seed must be None, an int, or a random.Random, got {seed!r}")
    return random.Random(seed)


def spawn_rngs(seed: SeedLike, count: int) -> list[random.Random]:
    """Derive ``count`` independent generators from a single seed.

    Useful when an experiment runs several independent repetitions and wants
    each repetition to own a private stream (so that adding repetitions does
    not perturb earlier ones).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    master = make_rng(seed)
    return [random.Random(master.getrandbits(64)) for _ in range(count)]


def derive_task_seed(base_seed: int, *coordinates: object) -> int:
    """A deterministic 63-bit seed for the task at the given coordinates.

    Stable across processes, Python versions and worker counts (it hashes the
    ``repr`` of the coordinates with BLAKE2b rather than relying on
    ``hash()``, which is salted per interpreter).
    """
    digest = hashlib.blake2b(
        repr((base_seed,) + coordinates).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 1
