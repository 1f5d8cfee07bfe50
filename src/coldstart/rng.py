"""Deterministic RNG derivation.

Every random draw in the pipeline comes from a Generator built here, keyed by
the global seed plus a path of purpose keys (strings/ints), so reruns with the
same config produce bit-identical artifacts and independent stages never share
a stream.
"""

import hashlib

import numpy as np


def _key_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    h = hashlib.sha256(str(key).encode("utf-8")).digest()
    return int.from_bytes(h[:4], "little")


def rng_for(seed: int, *keys) -> np.random.Generator:
    """Generator for (seed, *keys); stable across runs and platforms."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_key_int(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *keys) -> int:
    """An integer seed in [0, 2**31) drawn from the stream of (seed, *keys)."""
    return int(rng_for(seed, *keys).integers(2 ** 31))
