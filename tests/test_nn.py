"""Dropout streams: named each step, built on the layer's first draw."""

import numpy as np
import pytest

from asrkit import nn, tensor as T
from asrkit.errors import GraphConstructionError
from asrkit.rng import rng_for


def count_streams(monkeypatch) -> list:
    built = []

    def counting(*name):
        built.append(name)
        return rng_for(*name)

    monkeypatch.setattr(nn, "rng_for", counting)
    return built


def small_ffn(dropout):
    return nn.FeedForward(4, np.random.default_rng(0), dropout=dropout)


def x_in():
    return T.constant(np.random.default_rng(1).normal(size=(6, 4)))


@pytest.mark.parametrize("dropout, training", [(0.3, False), (0.0, True)])
def test_a_layer_that_draws_nothing_builds_no_stream(monkeypatch, dropout,
                                                     training):
    built = count_streams(monkeypatch)
    ffn = small_ffn(dropout).train(training)
    mha = nn.MultiHeadAttention(4, 2, np.random.default_rng(0),
                                dropout=dropout).train(training)
    for module in (ffn, mha):
        nn.seed_dropout(module, 3, "step")
        module(x_in())
    assert built == []


def test_the_stream_is_the_named_one_built_on_first_draw(monkeypatch):
    built = count_streams(monkeypatch)
    ffn = small_ffn(0.5)
    index = next(i for i, m in enumerate(ffn._walk_modules())
                 if m is ffn.drop)
    nn.seed_dropout(ffn, 5, "stage", "7")
    assert built == []
    x = x_in()
    hidden = T.swish(ffn.lin1(x))
    got = ffn.drop(hidden).data != 0
    want = rng_for(5, "dropout", "stage", "7", str(index)).random(
        hidden.shape) >= 0.5
    assert built == [(5, "dropout", "stage", "7", str(index))]
    assert np.array_equal(got, want)
    # a reseed starts the stream again
    nn.seed_dropout(ffn, 5, "stage", "7")
    assert np.array_equal(ffn.drop(hidden).data != 0, want)


@pytest.mark.parametrize("p", [-0.1, 1.0, 1.5])
def test_a_rate_outside_the_unit_interval_is_rejected(p):
    with pytest.raises(GraphConstructionError):
        nn.Dropout(p)(x_in())
