"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator whose
128-bit key is derived from an integer seed plus string tags, so that

* the same (seed, tags) always produces the same stream, on any platform;
* independent subsystems (path sampler, solver, probes) never share a stream.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

import numpy as np


def derive_key(seed: int, *tags: object) -> int:
    """128-bit Philox key from a seed and a tuple of context tags."""
    payload = repr((int(seed),) + tags).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:16], "big")


def derived_seed(seed: int, *tags: object) -> int:
    """Integer seed of a sub-experiment or sub-check, derived from its tags."""
    return derive_key(seed, *tags) % (2 ** 63)


def generator(seed: int, *tags: object) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *tags)))


def standard_normals(seed: int, shape: tuple[int, ...], *tags: object) -> np.ndarray:
    return generator(seed, *tags).standard_normal(shape)


def standard_normal_blocks(
    seed: int, shape: tuple[int, int], blocks: list[slice], *tags: object
) -> Iterator[tuple[slice, np.ndarray]]:
    """The rows of ``standard_normals(seed, shape, *tags)``, drawn one block
    of rows at a time from one generator: yields (rows, normals) for each of
    ``blocks``, consecutive slices that cover the rows.  A Philox stream
    fills a draw in C order, so these are the one-shot draw's values."""
    gen = generator(seed, *tags)
    n, width = shape
    for rows in blocks:
        yield rows, gen.standard_normal((len(range(n)[rows]), width))
