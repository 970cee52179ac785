"""Self-supervised frontend: masking, quantization, pretraining value."""

import numpy as np
import pytest

from asrkit import tensor as T
from asrkit.data import char_template
from asrkit.errors import ValidationError
from asrkit.rng import rng_for
from asrkit.ssl import (AudioFeatures, Frontend, SslConfig,
                          eval_masked_accuracy, masked_prediction_accuracy,
                          pretrain, quantize, span_mask_indices)

SMALL_CFG = dict(input_dim=6, hidden_dim=16, num_blocks=2, attention_heads=2,
                 mask_prob=0.5, mask_span=2, codebook_size=4, dropout=0.0)


def small_frontend(**overrides):
    return Frontend(SslConfig(**{**SMALL_CFG, **overrides}), seed=5)


def rand_utt(rng, t=24, f=6):
    return AudioFeatures(frames=rng.normal(size=(t, f)).astype(np.float32))


# -- span masking -------------------------------------------------------------


def test_span_mask_matches_expected_rate():
    # far from the left edge a frame is masked iff any of the previous
    # `span` positions started a span
    t_len, prob, span = 400, 0.06, 4
    expected = 1.0 - (1.0 - prob) ** span
    rng = np.random.default_rng(0)
    fractions = [span_mask_indices(t_len, rng, prob, span).size / t_len
                 for _ in range(300)]
    assert np.mean(fractions) == pytest.approx(expected, rel=0.10)


def test_span_mask_sorted_unique_in_range():
    rng = np.random.default_rng(1)
    for _ in range(50):
        idx = span_mask_indices(37, rng, 0.3, 5)
        assert idx.dtype == np.int64
        assert np.all(np.diff(idx) > 0)
        assert idx.size == 0 or (idx[0] >= 0 and idx[-1] < 37)


def test_span_mask_can_be_empty():
    rng = np.random.default_rng(2)
    idx = span_mask_indices(10, rng, 1e-9, 4)
    assert idx.size == 0 and idx.dtype == np.int64


def test_apply_span_mask_too_short():
    fe = small_frontend(mask_span=4)
    with pytest.raises(ValidationError):
        fe.apply_span_mask(np.zeros((3, 6), dtype=np.float32),
                           np.random.default_rng(0))


def test_apply_span_mask_replaces_rows():
    fe = small_frontend(mask_prob=0.4)
    frames = np.random.default_rng(3).normal(size=(30, 6)).astype(np.float32)
    masked, idx = fe.apply_span_mask(frames, np.random.default_rng(4))
    emb = fe.mask_emb.data[0]
    hidden = set(idx.tolist())
    for t in range(30):
        want = emb if t in hidden else frames[t]
        assert np.allclose(masked.data[t], want)


def test_forced_mask_when_draws_come_up_empty():
    fe = small_frontend(mask_prob=1e-6, mask_span=2)
    utt = rand_utt(np.random.default_rng(5), t=10)
    _, metrics = fe.ssl_loss(utt, np.random.default_rng(6))
    assert metrics["masked_frames"] == 2


# -- quantization -------------------------------------------------------------


def test_quantize_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.normal(size=(12, 5))
        cb = rng.normal(size=(6, 5))
        want = np.array([int(np.argmin([np.sum((v - c) ** 2) for c in cb]))
                         for v in x])
        assert np.array_equal(quantize(x, cb), want)


def test_quantize_tie_breaks_to_lowest_id():
    v = np.ones(4)
    cb = np.stack([v, np.zeros(4), v])
    assert quantize(v, cb) == 0


def test_quantize_single_vector_returns_int():
    out = quantize(np.zeros(3), np.eye(3))
    assert isinstance(out, int)


def test_masked_prediction_accuracy_cases():
    assert masked_prediction_accuracy(np.empty((0, 4)), np.empty(0)) == 0.0
    logits = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    codes = np.array([1, 1, 1, 0])
    assert masked_prediction_accuracy(logits, codes) == pytest.approx(0.5)


# -- training loss ------------------------------------------------------------


def test_ssl_loss_reaches_mask_embedding():
    fe = small_frontend()
    loss, metrics = fe.ssl_loss(rand_utt(np.random.default_rng(8)),
                                np.random.default_rng(9))
    fe.zero_grad()
    T.backward(loss)
    assert fe.mask_emb.grad is not None
    assert np.any(fe.mask_emb.grad != 0)
    assert metrics["masked_frames"] >= 1
    assert 0.0 <= metrics["mlm_accuracy"] <= 1.0


def test_codebook_is_not_a_parameter():
    fe = small_frontend()
    names = dict(fe.named_parameters("frontend"))
    assert not any("codebook" in n for n in names)
    assert any("mask_emb" in n for n in names)


# -- feature extraction -------------------------------------------------------


def test_extract_features_shape_and_determinism():
    fe = small_frontend(dropout=0.5)
    utt = rand_utt(np.random.default_rng(10), t=37)
    fe.train()
    a = fe.extract_features(utt)
    b = fe.extract_features(utt)
    assert a.shape == (37, 16)
    assert np.array_equal(a, b)
    assert fe.training  # mode restored


def test_forward_latent_tap_of_last_block_is_output():
    fe = small_frontend()
    x = T.constant(np.random.default_rng(11).normal(size=(9, 6))
                   .astype(np.float32))
    with T.no_grad():
        h, tapped = fe.forward_latent(x, tap=fe.cfg.num_blocks)
    assert np.array_equal(h.data, tapped.data)


def test_save_load_round_trip(tmp_path):
    from asrkit.ssl import load_frontend, save_frontend
    fe = small_frontend()
    save_frontend(str(tmp_path), fe)
    back = load_frontend(str(tmp_path))
    assert back.cfg == fe.cfg
    for (na, a), (nb, b) in zip(sorted(fe.named_state().items()),
                                sorted(back.named_state().items())):
        assert na == nb
        assert np.array_equal(a, b)
    utt = rand_utt(np.random.default_rng(12))
    assert np.array_equal(fe.extract_features(utt),
                          back.extract_features(utt))


# -- config validation --------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(mask_prob=0.0), dict(mask_prob=1.0), dict(mask_span=0),
    dict(codebook_size=1), dict(conv_kernel=4), dict(num_blocks=0),
])
def test_config_validation(bad):
    with pytest.raises(ValidationError):
        SslConfig(**{**SMALL_CFG, **bad})


@pytest.mark.parametrize("blocks,want", [(1, 1), (2, 1), (3, 1), (4, 2),
                                         (5, 2), (12, 6)])
def test_contrastive_tap_block_follows_depth(blocks, want):
    cfg = SslConfig(**{**SMALL_CFG, "num_blocks": blocks})
    assert cfg.contrastive_tap_block == want


def test_audio_features_validation():
    with pytest.raises(ValidationError):
        AudioFeatures(frames=np.zeros(4, dtype=np.float32))


def test_pretrain_step_draws_a_different_mask_in_each_dropout_layer(
        monkeypatch):
    masks = {}
    draw = T.dropout

    def recording(x, p, rng, training):
        out = draw(x, p, rng, training)
        masks.setdefault(x.shape, []).append((out.data != 0).tobytes())
        return out

    monkeypatch.setattr(T, "dropout", recording)
    fe = small_frontend(dropout=0.3)
    pretrain(fe, [rand_utt(np.random.default_rng(0))], steps=1, seed=2)
    # the feed-forward layers of both blocks share one shape
    assert max(len(drawn) for drawn in masks.values()) == 4
    for drawn in masks.values():
        assert len(set(drawn)) == len(drawn)


# -- pretraining outcomes -----------------------------------------------------


def test_pretrain_history_contract(pretrain_run):
    history = pretrain_run["history"]
    assert len(history) == pretrain_run["steps"]
    for row in history:
        for key in ("step", "loss_total", "loss_mlm", "loss_contrastive",
                    "lr", "mlm_accuracy", "masked_frames"):
            assert key in row
        assert row["masked_frames"] >= 1
    lrs = [row["lr"] for row in history]
    assert lrs[10] < lrs[40]  # warming up
    assert lrs[60] >= lrs[200]  # decaying after warmup


def test_pretrained_masked_accuracy_beats_chance(pretrain_run):
    fe = pretrain_run["frontend"]
    acc = eval_masked_accuracy(fe, pretrain_run["feats"], seed=5)
    assert acc > 2.0 / fe.cfg.codebook_size


def test_frozen_features_beat_raw_on_noisy_probe(pretrain_run, toy_corpus):
    """A ridge probe classifying the character under each frame does
    better on frozen pretrained features than on the raw frames once
    the probe data is much noisier than anything seen in pretraining."""
    fe = pretrain_run["frontend"]
    spec = toy_corpus["spec"]
    chars = sorted({c for lang in spec.languages for c in lang.charset})
    templates = {c: char_template(spec, c) for c in chars}
    fpt = spec.frames_per_token
    noise = 2.0

    def render(seq, rng):
        frames = np.concatenate(
            [templates[c][None, :]
             + rng.normal(0.0, noise, size=(fpt, spec.feature_dim))
             for c in seq]).astype(np.float32)
        labels = np.repeat([chars.index(c) for c in seq], fpt)
        return frames, labels

    def probe_accuracy(use_frontend):
        rng = rng_for(0, "probe.data")
        xs_tr, ys_tr, xs_te, ys_te = [], [], [], []
        for i in range(12):
            frames, labels = render(rng.choice(chars, size=8), rng)
            if use_frontend:
                frames = fe.extract_features(AudioFeatures(frames=frames))
            (xs_tr if i < 8 else xs_te).append(frames)
            (ys_tr if i < 8 else ys_te).append(labels)
        x = np.concatenate([np.concatenate(xs_tr),
                            np.ones((sum(len(a) for a in xs_tr), 1))],
                           axis=1)
        y = np.eye(len(chars))[np.concatenate(ys_tr)]
        w = np.linalg.solve(x.T @ x + 1e-3 * np.eye(x.shape[1]), x.T @ y)
        xe = np.concatenate([np.concatenate(xs_te),
                             np.ones((sum(len(a) for a in xs_te), 1))],
                            axis=1)
        pred = np.argmax(xe @ w, axis=1)
        return float(np.mean(pred == np.concatenate(ys_te)))

    raw_acc = probe_accuracy(use_frontend=False)
    ssl_acc = probe_accuracy(use_frontend=True)
    assert ssl_acc > raw_acc + 0.05
