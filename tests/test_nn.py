"""The module walk, and dropout streams: named each step, built on the
layer's first draw."""

import numpy as np
import pytest
from conftest import DECODER_CFG, ENCODER_CFG, FRONTEND_CFG
from oracles import Buffer, _named_state_in, two_walk_modules

from asrkit import nn, tensor as T
from asrkit.decoder import DecoderConfig
from asrkit.encoder import EncoderConfig
from asrkit.errors import GraphConstructionError
from asrkit.model import AsrModel, ModelConfig
from asrkit.rng import rng_for
from asrkit.ssl import Frontend, SslConfig
from asrkit.vocab import build_vocab


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


# -- one walk, checked against the two walkers it replaced --------------------


def asr_model(depth):
    model = AsrModel(ModelConfig(frontend=SslConfig(**FRONTEND_CFG),
                                 encoder=EncoderConfig(**ENCODER_CFG),
                                 decoder=DecoderConfig(**DECODER_CFG),
                                 seed=7),
                     build_vocab({"en": "abcd", "de": "cdef"}))
    # the curriculum's path: built at depth 2, then grown
    model.encoder.grow(depth)
    return model


def reference_streams(module, seed, *labels):
    return {id(m): (seed, "dropout", *labels, str(i))
            for i, m in enumerate(two_walk_modules(module))
            if isinstance(m, nn.Dropout)}


def reference_state_names(module, frontend, prefix=""):
    """named_state() names as the two-walker code listed them, with the
    codebook held in a Buffer as it was."""
    codebook = frontend.codebook
    frontend.codebook = Buffer(codebook.data)
    try:
        return [name for name, _ in _named_state_in(module, prefix)]
    finally:
        frontend.codebook = codebook


@pytest.mark.parametrize("depth", [2, 6, 24])
def test_one_walk_matches_the_two_walkers_on_the_model(depth):
    model = asr_model(depth)
    if depth == 24:
        assert list(model.encoder.feedback) == ["8", "16"]
    nn.seed_dropout(model, 3, "2", "41")
    got = {id(m): m._stream for m in model._walk_modules()
           if isinstance(m, nn.Dropout)}
    assert got == reference_streams(model, 3, "2", "41")
    assert list(model.named_state()) == reference_state_names(
        model, model.frontend)
    # the same modules; only the feedback dict's order may differ, since
    # the one walk takes dict keys as strings ("16" before "8")
    walked = list(model._walk_modules())
    assert len(walked) == len(set(map(id, walked)))
    assert set(map(id, walked)) == set(map(id, two_walk_modules(model)))


def test_one_walk_matches_the_two_walkers_on_a_bare_frontend():
    fe = Frontend(SslConfig(**FRONTEND_CFG), seed=3)
    nn.seed_dropout(fe, 5, "ssl", "0")
    got = {id(m): m._stream for m in fe._walk_modules()
           if isinstance(m, nn.Dropout)}
    assert got == reference_streams(fe, 5, "ssl", "0")
    assert list(fe.named_state("frontend")) == reference_state_names(
        fe, fe, "frontend")


def test_private_attributes_own_nothing():
    ffn = small_ffn(0.5)
    ffn._hidden = nn.Linear(4, 4, np.random.default_rng(0))
    ffn.train(False)
    assert ffn._hidden.training
    assert not any(name.startswith("_") for name in ffn.named_state())
