"""Joint beam search against exhaustive enumeration, plus behavior on a
trained model."""

import numpy as np
import pytest

from oracles import (full_beam_search, full_search_transcribe,
                     joint_brute_force, seeded_decode_fn, tiny_vocab)
from asrkit.beam import BeamConfig, joint_beam_search
from asrkit.data import load_features
from asrkit.errors import ValidationError
from asrkit.vocab import build_vocab


def rand_log_post(rng, t=4, v=3):
    rows = rng.normal(size=(t, v))
    return rows - np.logaddexp.reduce(rows, axis=1, keepdims=True)


def exhaustive_cfg(lambda_ctc, max_len=4):
    # beam wide enough to hold every prefix of every length
    return BeamConfig(beam_size=32, lambda_ctc=lambda_ctc, max_len=max_len)


@pytest.mark.parametrize("lambda_ctc", [0.3, 0.0, 1.0])
def test_exhaustive_beam_matches_brute_force(lambda_ctc):
    vocab = tiny_vocab()
    for trial in range(30):
        rng = np.random.default_rng(1000 + trial)
        log_post = rand_log_post(rng)
        decode_fn = seeded_decode_fn(trial, vocab.size)
        got = joint_beam_search(log_post, decode_fn, vocab,
                                exhaustive_cfg(lambda_ctc))[0]
        seq, joint, ctc, att = joint_brute_force(
            log_post, decode_fn, vocab, lambda_ctc, max_len=4)
        assert got.tokens == seq, trial
        assert got.joint == pytest.approx(joint, abs=1e-9)
        assert got.ctc == pytest.approx(ctc, abs=1e-9)
        assert got.att == pytest.approx(att, abs=1e-9)


def test_joint_is_the_declared_mixture():
    vocab = tiny_vocab()
    log_post = rand_log_post(np.random.default_rng(7))
    res = joint_beam_search(log_post, seeded_decode_fn(3, vocab.size),
                            vocab, BeamConfig(beam_size=4, lambda_ctc=0.3,
                                              max_len=4))[0]
    assert res.joint == pytest.approx(0.3 * res.ctc + 0.7 * res.att,
                                      abs=1e-12)


def test_greedy_is_beam_one():
    vocab = tiny_vocab()
    for trial in range(10):
        log_post = rand_log_post(np.random.default_rng(200 + trial))
        decode_fn = seeded_decode_fn(trial, vocab.size)
        g = joint_beam_search(log_post, decode_fn, vocab,
                              BeamConfig(beam_size=1, nbest=1, max_len=4))[0]
        b = joint_beam_search(log_post, decode_fn, vocab,
                              BeamConfig(beam_size=1, max_len=4))[0]
        assert g.tokens == b.tokens
        assert g.joint == b.joint


def test_search_is_deterministic():
    vocab = tiny_vocab()
    log_post = rand_log_post(np.random.default_rng(5))
    decode_fn = seeded_decode_fn(9, vocab.size)
    cfg = BeamConfig(beam_size=4, max_len=4, nbest=3)
    a = joint_beam_search(log_post, decode_fn, vocab, cfg)
    b = joint_beam_search(log_post, decode_fn, vocab, cfg)
    assert [(r.tokens, r.joint) for r in a] == [(r.tokens, r.joint)
                                                for r in b]


def test_nbest_is_sorted_and_distinct():
    vocab = tiny_vocab()
    log_post = rand_log_post(np.random.default_rng(6))
    res = joint_beam_search(log_post, seeded_decode_fn(11, vocab.size),
                            vocab, BeamConfig(beam_size=8, max_len=4,
                                              nbest=5))
    assert len(res) == 5
    joints = [r.joint for r in res]
    assert joints == sorted(joints, reverse=True)
    assert len({r.tokens for r in res}) == 5


def test_max_len_zero_returns_the_empty_sequence():
    vocab = tiny_vocab()
    res = joint_beam_search(rand_log_post(np.random.default_rng(8)),
                            seeded_decode_fn(2, vocab.size), vocab,
                            BeamConfig(beam_size=4, max_len=0))[0]
    assert res.tokens == ()
    assert not res.truncated


@pytest.mark.parametrize("bad", [
    dict(lambda_ctc=-0.1), dict(lambda_ctc=1.1), dict(beam_size=0),
    dict(nbest=0), dict(beam_size=2, nbest=3), dict(max_len=-1),
])
def test_config_validation(bad):
    with pytest.raises(ValidationError):
        BeamConfig(**bad)


def test_language_prompt_reaches_the_decoder():
    from asrkit.vocab import build_vocab
    vocab = build_vocab({"xx": "ab"})
    calls = []
    base = seeded_decode_fn(4, vocab.size)

    def spy(prefix):
        calls.append(tuple(int(p) for p in prefix))
        return base(prefix)

    log_post = rand_log_post(np.random.default_rng(9), v=vocab.size)
    joint_beam_search(log_post, spy, vocab, BeamConfig(beam_size=2,
                                                       max_len=2),
                      language="xx")
    head = (vocab.sos_id, vocab.lang_id("xx"))
    assert all(c[:2] == head for c in calls)
    calls.clear()
    joint_beam_search(log_post, spy, vocab, BeamConfig(beam_size=2,
                                                       max_len=2))
    assert all(c[0] == vocab.sos_id and len(c) <= 3 for c in calls)


def test_wider_beam_does_not_lose_joint_score_on_a_trained_model(
        trained_run, toy_corpus):
    model = trained_run["model"]
    deltas = []
    for utt in toy_corpus["train"][:4] + toy_corpus["held"][:4]:
        feat = load_features(toy_corpus["manifest"], utt)
        wide = model.transcribe(feat, BeamConfig(beam_size=4, max_len=24),
                                language=utt.language)[0]
        narrow = model.transcribe(feat, BeamConfig(beam_size=1, max_len=24),
                                  language=utt.language)[0]
        deltas.append(wide.joint - narrow.joint)
    assert np.mean(deltas) >= -1e-9


# -- early stopping -------------------------------------------------------------


def counted(decode_fn):
    calls = []

    def spy(prefix):
        calls.append(tuple(prefix))
        return decode_fn(prefix)

    return spy, calls


def full_search_calls(max_len):
    # three characters, beam 4: one live hypothesis at step 0, three at
    # step 1, four at each later step up to max_len
    return 1 + 3 + 4 * (max_len - 1)


def eos_favouring_decode_fn(vocab, eos_prob=0.9):
    row = np.full(vocab.size, np.log((1.0 - eos_prob) / (vocab.size - 1)))
    row[vocab.eos_id] = np.log(eos_prob)
    return lambda prefix: row


def test_early_stopping_matches_the_full_search_on_random_configs():
    vocabs = (tiny_vocab(), build_vocab({"xx": "abc"}))
    rng = np.random.default_rng(31)
    stopped_early = 0
    for trial in range(300):
        vocab = vocabs[trial % 2]
        beam = int(rng.integers(1, 6))
        cfg = BeamConfig(beam_size=beam, nbest=int(rng.integers(1, beam + 1)),
                         max_len=int(rng.integers(0, 10)),
                         lambda_ctc=float(rng.choice([0.0, 0.3, 1.0])))
        log_post = rand_log_post(rng, t=int(rng.integers(1, 12)),
                                 v=vocab.size)
        fast, fast_calls = counted(seeded_decode_fn(trial, vocab.size))
        full, full_calls = counted(seeded_decode_fn(trial, vocab.size))
        got = joint_beam_search(log_post, fast, vocab, cfg)
        want = full_beam_search(log_post, full, vocab, cfg)
        # reprs are exact for floats, -inf included
        assert repr(got) == repr(want), (trial, cfg)
        assert not any(np.isnan(r.joint) for r in got), (trial, cfg)
        assert fast_calls == full_calls[:len(fast_calls)]
        stopped_early += len(fast_calls) < len(full_calls)
    assert stopped_early > 50


def test_search_stops_once_the_nbest_list_is_settled():
    vocab = build_vocab({"xx": "abc"})
    log_post = rand_log_post(np.random.default_rng(4), t=6, v=vocab.size)
    cfg = BeamConfig(beam_size=4, nbest=2, max_len=20)
    fast, fast_calls = counted(eos_favouring_decode_fn(vocab))
    full, full_calls = counted(eos_favouring_decode_fn(vocab))
    got = joint_beam_search(log_post, fast, vocab, cfg)
    assert got == full_beam_search(log_post, full, vocab, cfg)
    assert len(full_calls) == full_search_calls(cfg.max_len)
    assert len(fast_calls) <= full_search_calls(2)


def impossible_last_char(row):
    row = row.copy()
    row[build_vocab({"xx": "abc"}).char_ids[-1]] = -np.inf
    return row


def search_both_ways(overrides, change):
    """Early-stopping and full searches on a case built to settle early;
    returns both results and decoder call counts."""
    vocab = build_vocab({"xx": "abc"})
    # blank-heavy frames and an <eos>-heavy decoder favour the empty
    # output under both scores, so the n-best list settles at once
    rows = np.random.default_rng(4).normal(size=(6, vocab.size))
    rows[:, 0] += 3.0
    log_post = rows - np.logaddexp.reduce(rows, axis=1, keepdims=True)
    base = eos_favouring_decode_fn(vocab)
    cfg = BeamConfig(beam_size=4, nbest=2, max_len=12, **overrides)
    fast, fast_calls = counted(lambda prefix: change(base(prefix)))
    full, full_calls = counted(lambda prefix: change(base(prefix)))
    got = joint_beam_search(log_post, fast, vocab, cfg)
    want = full_beam_search(log_post, full, vocab, cfg)
    assert len(full_calls) == full_search_calls(cfg.max_len)
    return got, want, len(fast_calls), len(full_calls)


# (config overrides, change to every decoder row) under which an
# extension can gain
NO_STOP_CASES = {
    "positive_rows": ({}, lambda row: row + 0.5),
}

# cases at the ends of the weight range: the zero-weighted term is left
# out of joint, so no score is NaN and the stop rule holds
STOP_CASES = {
    "zero_ctc_weight": (dict(lambda_ctc=0.0), lambda row: row),
    "impossible_token_at_ctc_weight_one": (dict(lambda_ctc=1.0),
                                           impossible_last_char),
}


@pytest.mark.parametrize("case", sorted(NO_STOP_CASES))
def test_search_runs_to_max_len_when_the_stop_rule_does_not_hold(case):
    got, want, fast, full = search_both_ways(*NO_STOP_CASES[case])
    assert repr(got) == repr(want)
    assert fast == full


@pytest.mark.parametrize("case", sorted(STOP_CASES))
def test_search_stops_early_at_the_ends_of_the_weight_range(case):
    got, want, fast, full = search_both_ways(*STOP_CASES[case])
    assert repr(got) == repr(want)
    assert not any(np.isnan(r.joint) for r in got)
    assert fast < full


def test_transcribe_matches_the_full_search_on_a_trained_model(
        trained_run, toy_corpus, monkeypatch):
    model = trained_run["model"]
    calls = []
    step = model.decoder.decode_step

    def spy(enc, prefix):
        calls.append(len(prefix))
        return step(enc, prefix)

    full_calls = 0
    for beam, nbest in ((1, 1), (4, 1), (4, 4)):
        cfg = BeamConfig(beam_size=beam, nbest=nbest, max_len=32)
        for utt in toy_corpus["held"][:4]:
            feat = load_features(toy_corpus["manifest"], utt)
            want = full_search_transcribe(model, feat, cfg,
                                          language=utt.language)
            with monkeypatch.context() as m:
                m.setattr(model.decoder, "decode_step", spy)
                got = model.transcribe(feat, cfg, language=utt.language)
            assert got == want, (beam, nbest, utt.utt_id)
            full_calls += 1 + beam * cfg.max_len
    assert len(calls) < full_calls / 2


def test_max_len_is_checked_before_decoding(monkeypatch):
    from asrkit.decoder import DecoderConfig
    from asrkit.encoder import EncoderConfig
    from asrkit.model import AsrModel, ModelConfig
    from asrkit.ssl import AudioFeatures, SslConfig
    vocab = build_vocab({"xx": "ab"})
    model = AsrModel(ModelConfig(
        frontend=SslConfig(input_dim=4, hidden_dim=8, num_blocks=1,
                           attention_heads=2, codebook_size=4),
        encoder=EncoderConfig(input_dim=8, hidden_dim=8, num_blocks=2,
                              attention_heads=2, cgmlp_units=8),
        decoder=DecoderConfig(hidden_dim=8, num_layers=1, attention_heads=2,
                              max_target_len=8)), vocab)
    feat = AudioFeatures(frames=np.random.default_rng(0).normal(
        size=(20, 4)).astype(np.float32))
    calls = []
    step = model.decoder.decode_step

    def spy(enc, prefix):
        calls.append(len(prefix))
        return step(enc, prefix)

    monkeypatch.setattr(model.decoder, "decode_step", spy)
    # <sos> + <lang:xx> + 6 characters fill max_target_len exactly
    model.transcribe(feat, BeamConfig(max_len=6), language="xx")
    model.transcribe(feat, BeamConfig(max_len=7))
    assert calls
    calls.clear()
    with pytest.raises(ValidationError, match="max_target_len"):
        model.transcribe(feat, BeamConfig(max_len=7), language="xx")
    assert not calls
