"""Deterministic random number streams.

Every stochastic component draws from its own named stream so that the
order in which components run never changes what any one of them sees.
A stream is identified by an integer seed plus a chain of string labels;
the labels are hashed into the seed material, so adding a new consumer
anywhere in the codebase cannot shift the draws of an existing one.
"""

import hashlib

import numpy as np


def _label_entropy(label: str) -> list[int]:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    # Four u32 words is plenty of entropy per label and keeps the
    # SeedSequence key short.
    return [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]


def rng_for(seed: int, *labels: str) -> np.random.Generator:
    """Return a Generator for the stream named by (seed, labels)."""
    entropy = [int(seed)]
    for label in labels:
        entropy.extend(_label_entropy(label))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

