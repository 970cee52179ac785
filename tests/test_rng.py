"""Named random streams."""

import numpy as np
import pytest
from oracles import list_rng_for

from asrkit.rng import rng_for

SEEDS = (0, 7, 2**32 - 1, 2**32, 2**40 + 5, 2**70 + 3, np.int64(11))
LABELS = ((), ("",), ("batch", "3", "41"), ("dropout", "ünï", "€", "7"),
          ("filter",) * 9)


@pytest.mark.parametrize("labels", LABELS, ids=repr)
@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_rng_for_draws_what_the_list_key_draws(seed, labels):
    got, want = rng_for(seed, *labels), list_rng_for(seed, *labels)
    assert got.random(5).tobytes() == want.random(5).tobytes()
    assert got.integers(1 << 62, size=3).tobytes() == \
        want.integers(1 << 62, size=3).tobytes()


def test_labels_name_distinct_streams():
    draws = {rng_for(1, *labels).random() for labels in LABELS}
    assert len(draws) == len(LABELS)


def test_a_negative_seed_is_rejected_as_numpy_rejects_it():
    with pytest.raises(ValueError) as want:
        list_rng_for(-1, "x")
    with pytest.raises(ValueError) as got:
        rng_for(-1, "x")
    assert str(got.value) == str(want.value)
