"""Encoder: subsampling arithmetic, tap placement, self-conditioning,
language adaptation hooks, and in-place growth."""

import math

import numpy as np
import pytest

from asrkit import tensor as T
from asrkit.adapt import LanguageMask
from asrkit.encoder import (EBranchformerBlock, Encoder, EncoderConfig,
                              default_tap_layers)
from asrkit.errors import ValidationError
from asrkit.nn import LayerNorm

VOCAB = 7
SMALL_CFG = dict(input_dim=6, hidden_dim=16, num_blocks=3, attention_heads=2,
                 cgmlp_units=16, dropout=0.0)


def small_encoder(**overrides):
    enc = Encoder(EncoderConfig(**{**SMALL_CFG, **overrides}), VOCAB, seed=4)
    enc.eval()
    return enc


def rand_input(t, f=6, seed=0):
    return T.constant(np.random.default_rng(seed).normal(size=(t, f))
                      .astype(np.float32))


# -- subsampling --------------------------------------------------------------


def test_output_length_is_ceil_half():
    enc = small_encoder()
    for t in range(2, 65):
        out = enc.encode(rand_input(t))
        want = math.ceil(t / 2)
        assert out.latent.shape == (want, 16)
        assert out.final_log_posterior.shape == (want, VOCAB)


def test_single_frame_rejected():
    enc = small_encoder()
    with pytest.raises(ValidationError):
        enc.encode(rand_input(1))


# -- tap placement ------------------------------------------------------------


@pytest.mark.parametrize("blocks,want", [
    (24, (8, 16)),
    (6, (2, 4)),
    (4, (2, 3)),
    (3, (1, 2)),
    (2, (1,)),
    (1, ()),
])
def test_default_tap_layers(blocks, want):
    assert default_tap_layers(blocks) == want


def test_taps_report_their_block_index():
    enc = small_encoder(num_blocks=6)
    out = enc.encode(rand_input(20))
    assert [i for i, _ in out.tap_log_posteriors] == [2, 4]


def test_tap_rows_are_normalized():
    enc = small_encoder()
    out = enc.encode(rand_input(21))
    for _, tap in out.tap_log_posteriors:
        total = np.logaddexp.reduce(tap.data.astype(np.float64), axis=-1)
        assert np.allclose(total, 0.0, atol=1e-5)
    total = np.logaddexp.reduce(
        out.final_log_posterior.data.astype(np.float64), axis=-1)
    assert np.allclose(total, 0.0, atol=1e-5)


# -- blocks -------------------------------------------------------------------


def test_zero_merge_block_only_layer_norms():
    cfg = EncoderConfig(**SMALL_CFG)
    rng = np.random.default_rng(9)
    block = EBranchformerBlock(cfg, rng, zero_merge=True)
    block.eval()
    x = rand_input(11, f=16, seed=10)
    with T.no_grad():
        got = block(x)
        want = LayerNorm(16)(x)
    assert np.array_equal(got.data, want.data)


def test_block_rejects_wrong_width():
    cfg = EncoderConfig(**SMALL_CFG)
    block = EBranchformerBlock(cfg, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        block(rand_input(5, f=8))


# -- self-conditioning --------------------------------------------------------


def unconditioned(enc, x):
    """enc's forward pass without self-conditioning: at each tap only
    the feedback layer's norm runs.  Returns (latent, final CTC
    log-posterior)."""
    h = enc.subsample(x)
    for i, block in enumerate(enc.blocks, start=1):
        h = block(h)
        if str(i) in enc.feedback:
            h = enc.feedback[str(i)].norm(h)
    return h, T.log_softmax(enc.ctc_proj(h), axis=-1)


def test_conditioning_off_matches_zeroed_feedback():
    # the feedback projection is zero-initialized, so a fresh encoder
    # gives exactly the unconditioned stack
    enc = small_encoder()
    x = rand_input(18)
    out = enc.encode(x)
    latent, final = unconditioned(enc, x)
    assert np.array_equal(out.latent.data, latent.data)
    assert np.array_equal(out.final_log_posterior.data, final.data)


def test_conditioning_feeds_taps_forward_once_trained():
    fill = np.random.default_rng(1).normal(size=(VOCAB, 16)) \
        .astype(np.float32)
    enc = small_encoder()
    for fb in enc.feedback.values():
        fb.proj.weight.data[:] = fill
    x = rand_input(18)
    latent, _ = unconditioned(enc, x)
    assert not np.allclose(enc.encode(x).latent.data, latent.data)


# -- adaptation hooks ---------------------------------------------------------


def neutral():
    return LanguageMask(language="", weights=np.ones(VOCAB))


def biased():
    w = np.full(VOCAB, 1e-3)
    w[0] = 1.0
    w[2] = 1.0
    return LanguageMask(language="x", weights=w)


def test_neutral_mask_is_bit_exact():
    enc = small_encoder()
    x = rand_input(16)
    plain = enc.encode(x)
    masked = enc.encode(x, adaptation=neutral())
    assert np.array_equal(plain.latent.data, masked.latent.data)
    for (_, a), (_, b) in zip(plain.tap_log_posteriors,
                              masked.tap_log_posteriors):
        assert np.array_equal(a.data, b.data)


def test_biased_mask_rewrites_taps_and_keeps_them_normalized():
    enc = small_encoder()
    x = rand_input(16)
    plain = enc.encode(x)
    masked = enc.encode(x, adaptation=biased())
    for (_, a), (_, b) in zip(plain.tap_log_posteriors,
                              masked.tap_log_posteriors):
        assert not np.array_equal(a.data, b.data)
        total = np.logaddexp.reduce(b.data.astype(np.float64), axis=-1)
        assert np.allclose(total, 0.0, atol=1e-5)


def test_adaptation_rejected_during_training():
    enc = small_encoder()
    enc.train()
    with pytest.raises(ValidationError):
        enc.encode(rand_input(16), adaptation=neutral())


def test_adaptation_vocab_size_mismatch():
    enc = small_encoder()
    bad = LanguageMask(language="", weights=np.ones(VOCAB + 2))
    with pytest.raises(ValidationError):
        enc.encode(rand_input(16), adaptation=bad)


# -- growth -------------------------------------------------------------------


def named_arrays(module):
    return {k: v.copy() for k, v in module.named_state().items()}


def test_grow_keeps_existing_parameters_bit_exact():
    enc = small_encoder(num_blocks=2)
    before = [named_arrays(b) for b in enc.blocks]
    sub_before = named_arrays(enc.subsample)
    proj_before = named_arrays(enc.ctc_proj)
    enc.grow(5)
    assert enc.depth == 5
    assert enc.cfg.num_blocks == 5
    for old, block in zip(before, enc.blocks):
        now = named_arrays(block)
        assert old.keys() == now.keys()
        for k in old:
            assert np.array_equal(old[k], now[k])
    for k in sub_before:
        assert np.array_equal(sub_before[k],
                              named_arrays(enc.subsample)[k])
    for k in proj_before:
        assert np.array_equal(proj_before[k],
                              named_arrays(enc.ctc_proj)[k])


def test_grown_blocks_start_as_near_identities():
    enc = small_encoder(num_blocks=2)
    enc.grow(4)
    for block in enc.blocks[2:]:
        assert np.all(block.merge_proj.weight.data == 0)
        assert np.all(block.ffn.lin2.weight.data == 0)


def test_grow_recomputes_taps():
    enc = small_encoder(num_blocks=2)
    assert enc.cfg.tap_layers == (1,)
    enc.grow(6)
    assert enc.cfg.tap_layers == (2, 4)
    assert sorted(enc.feedback) == ["2", "4"]


def test_grow_streams_are_keyed_by_absolute_block_index():
    # block i of a grown encoder draws the same random stream as block i
    # of an encoder built at full depth, so growth order cannot matter
    full = small_encoder(num_blocks=4)
    grown = small_encoder(num_blocks=2)
    grown.grow(4)
    for i in (2, 3):
        a = dict(full.blocks[i].named_state())
        b = dict(grown.blocks[i].named_state())
        for key in a:
            if "merge_proj" in key or key.startswith("ffn.lin2"):
                continue  # zeroed on growth by design
            assert np.array_equal(a[key], b[key]), (i, key)


def test_grow_rejects_shrinking():
    enc = small_encoder(num_blocks=3)
    with pytest.raises(ValidationError):
        enc.grow(2)


def test_grow_same_depth_is_noop():
    enc = small_encoder(num_blocks=3)
    blocks = list(enc.blocks)
    enc.grow(3)
    assert enc.blocks == blocks
