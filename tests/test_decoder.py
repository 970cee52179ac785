"""Decoder: causal masking, teacher forcing, cross-attention, and the
language prompt."""

import numpy as np
import pytest

from asrkit import tensor as T
from asrkit.data import load_features
from asrkit.decoder import Decoder, DecoderConfig
from asrkit.encoder import EncoderOutput
from asrkit.errors import ValidationError

VOCAB = 9
CFG = dict(hidden_dim=16, num_layers=2, attention_heads=2, dropout=0.0,
           max_target_len=12)


def small_decoder(**overrides):
    dec = Decoder(DecoderConfig(**{**CFG, **overrides}), VOCAB, seed=6)
    dec.eval()
    return dec


def fake_memory(t=7, d=16, seed=0):
    latent = T.constant(np.random.default_rng(seed).normal(size=(t, d))
                        .astype(np.float32))
    post = T.constant(np.zeros((t, VOCAB), dtype=np.float32))
    return EncoderOutput(latent=latent, tap_log_posteriors=[],
                         final_log_posterior=post)


def test_forward_logits_shape():
    dec = small_decoder()
    mem = fake_memory()
    with T.no_grad():
        logits = dec.forward_logits(mem.latent, [1, 4, 2])
    assert logits.shape == (3, VOCAB)


def test_causality_prefix_rows_do_not_see_the_future():
    dec = small_decoder()
    mem = fake_memory()
    with T.no_grad():
        a = dec.forward_logits(mem.latent, [1, 4, 2, 3, 5]).data
        b = dec.forward_logits(mem.latent, [1, 4, 2, 7, 8]).data
    assert np.array_equal(a[:3], b[:3])
    assert not np.allclose(a[3:], b[3:])


def test_input_validation():
    dec = small_decoder()
    mem = fake_memory()
    with pytest.raises(ValidationError):
        dec.forward_logits(mem.latent, [])
    with pytest.raises(ValidationError):
        dec.forward_logits(mem.latent, list(range(13)))  # max_target_len=12
    with pytest.raises(ValidationError):
        DecoderConfig(**{**CFG, "num_layers": 0})


def test_decode_step_is_a_normalized_float64_row():
    dec = small_decoder(dropout=0.3)
    mem = fake_memory()
    dec.train()  # decode_step must switch to eval internally and restore
    a = dec.decode_step(mem, [1, 4])
    b = dec.decode_step(mem, [1, 4])
    assert dec.training
    assert a.shape == (VOCAB,)
    assert a.dtype == np.float64
    assert np.array_equal(a, b)
    # the row is computed in float32, so it normalizes to f32 precision
    assert np.logaddexp.reduce(a) == pytest.approx(0.0, abs=1e-5)


def test_decode_step_matches_last_forward_row():
    dec = small_decoder()
    mem = fake_memory()
    got = dec.decode_step(mem, [2, 5, 1])
    with T.no_grad():
        logits = dec.forward_logits(mem.latent, [2, 5, 1])
        want = T.log_softmax(logits[2:3, :], axis=-1).data.reshape(-1)
    assert np.allclose(got, want.astype(np.float64), atol=1e-7)


def test_teacher_forced_loss_matches_manual_cross_entropy():
    dec = small_decoder()
    mem = fake_memory(seed=3)
    target = np.array([1, 2, 5, 6, 3], dtype=np.int64)
    loss = dec.teacher_forced_loss(mem, target)
    with T.no_grad():
        logits = dec.forward_logits(mem.latent, target[:-1]).data
    logits = logits.astype(np.float64)
    logp = logits - np.logaddexp.reduce(logits, axis=-1, keepdims=True)
    want = -np.mean(logp[np.arange(4), target[1:]])
    assert loss.item() == pytest.approx(want, rel=1e-5)


def test_teacher_forced_loss_needs_a_wrapped_target():
    dec = small_decoder()
    mem = fake_memory()
    with pytest.raises(ValidationError):
        dec.teacher_forced_loss(mem, np.array([1, 2, 3]))


def test_cross_attention_reads_the_memory():
    dec = small_decoder()
    a = dec.decode_step(fake_memory(seed=1), [1, 4])
    b = dec.decode_step(fake_memory(seed=2), [1, 4])
    assert not np.allclose(a, b)


def test_language_prompt_conditions_a_trained_decoder(trained_run,
                                                      toy_corpus):
    """Teacher forcing with the correct language token should beat the
    same targets with the language token swapped."""
    model = trained_run["model"]
    vocab = trained_run["vocab"]
    langs = sorted(vocab.languages)
    assert len(langs) == 2
    model.eval()
    correct, swapped = [], []
    with T.no_grad():
        for utt in toy_corpus["train"][:3] + toy_corpus["train"][-3:]:
            feat = load_features(toy_corpus["manifest"], utt)
            enc = model.encode(feat)
            target = model.wrapped_target(utt.transcript, utt.language)
            other = langs[1 - langs.index(utt.language)]
            wrong = target.copy()
            wrong[1] = vocab.lang_id(other)
            correct.append(
                model.decoder.teacher_forced_loss(enc, target).item())
            swapped.append(
                model.decoder.teacher_forced_loss(enc, wrong).item())
    assert np.mean(correct) < np.mean(swapped)
