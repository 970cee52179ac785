"""Deterministic random number streams.

Every stochastic component draws from its own named stream so that the
order in which components run never changes what any one of them sees.
A stream is identified by an integer seed plus a chain of string labels;
the labels are hashed into the seed material, so adding a new consumer
anywhere in the codebase cannot shift the draws of an existing one.
"""

import hashlib
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=4096)
def _label_entropy(label: str) -> bytes:
    # The first four little-endian u32 words of the label's SHA-256:
    # plenty of entropy per label, and it keeps the SeedSequence key short.
    return hashlib.sha256(label.encode("utf-8")).digest()[:16]


def _seed_entropy(seed: int) -> bytes:
    # the little-endian u32 words numpy's SeedSequence splits an int into
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    return seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)), "little")


def rng_for(seed: int, *labels: str) -> np.random.Generator:
    """Return a Generator for the stream named by (seed, labels)."""
    words = _seed_entropy(seed) + b"".join(map(_label_entropy, labels))
    entropy = np.frombuffer(words, dtype="<u4").astype(np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
