"""The gate suite: every externally checkable contract of the package,
pinned at a fixed tolerance and a fixed wall-clock budget.

Each test stands alone and states the contract it guards; the heavy ones
reuse the session-scoped corpus, pretraining, and curriculum fixtures.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from gradcheck import check_gradients
from oracles import (brute_force_counts, ctc_logprob_by_sequence,
                     joint_brute_force, reshape, seeded_decode_fn,
                     tiny_vocab, transpose)
from asrkit import serialization, tensor as T
from asrkit.adapt import build_language_mask, neutral_mask
from asrkit.beam import BeamConfig, joint_beam_search
from asrkit.cli import main
from asrkit.ctc import ctc_loss, min_frames
from asrkit.curriculum import run_curriculum
from asrkit.data import load_features
from asrkit.decoder import Decoder, DecoderConfig
from asrkit.encoder import (EBranchformerBlock, Encoder, EncoderConfig,
                              EncoderOutput, FeedbackLayer)
from asrkit.model import load_model
from asrkit.scoring import (LanguageScore, edit_distance, normalize_text,
                              resource_rank)
from asrkit.ssl import (AudioFeatures, ConformerBlock, Frontend, SslConfig,
                          eval_masked_accuracy)


def _log_post(rng, t_len, v):
    logits = rng.normal(size=(t_len, v))
    return logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)


def _corpus_cer(model, manifest, utts, beam_cfg, mask_for=None):
    errs = units = 0
    for u in utts:
        feat = load_features(manifest, u)
        adaptation = None if mask_for is None else mask_for(u)
        hyp = model.result_text(model.transcribe(
            feat, beam_cfg, language=u.language, adaptation=adaptation)[0])
        s, d, i = edit_distance(list(u.transcript), list(hyp))
        errs += s + d + i
        units += len(u.transcript)
    return errs / units


# -- 1: CTC loss against exhaustive path enumeration --------------------------


def test_ctc_loss_matches_exhaustive_path_enumeration():
    rng = np.random.default_rng(202)
    start = time.time()
    checked = 0
    while checked < 200:
        t_len = int(rng.integers(1, 7))
        v = int(rng.integers(2, 5))
        labels = rng.integers(1, v, size=int(rng.integers(0, 4)))
        if min_frames(labels) > t_len:
            continue
        lp = _log_post(rng, t_len, v)
        want = ctc_logprob_by_sequence(lp)[tuple(int(x) for x in labels)]
        got = ctc_loss(T.constant(lp), labels).item()
        assert got == pytest.approx(-want, abs=1e-9), (t_len, v, labels)
        checked += 1
    assert time.time() - start < 10.0


# -- 2: reverse-mode gradients against central finite differences -------------


def test_every_primitive_and_stack_gradient_matches_finite_differences():
    start = time.time()
    rng = np.random.default_rng(31)

    def _r(*shape):
        return rng.normal(size=shape)

    ce_targets = np.array([1, 0, 3], dtype=np.int64)
    emb_ids = np.array([0, 2, 1, 2], dtype=np.int64)
    ctc_labels = np.array([1, 2, 1], dtype=np.int64)

    # one check per registered primitive; multipliers bind as default
    # args so every finite-difference evaluation sees the same weights
    checks = {
        "matmul": (lambda a, b: T.sum_(a @ b), [(3, 4), (4, 2)]),
        "add": (lambda a, b, m=T.constant(_r(3, 4)): T.sum_((a + b) * m),
                [(3, 4), (3, 4)]),
        "mul": (lambda a, b, m=T.constant(_r(3, 4)): T.sum_(a * b * m),
                [(3, 4), (3, 4)]),
        "softmax": (lambda a, m=T.constant(_r(3, 5)):
                    T.sum_(T.softmax(a) * m), [(3, 5)]),
        "log_softmax": (lambda a, m=T.constant(_r(3, 5)):
                        T.sum_(T.log_softmax(a) * m), [(3, 5)]),
        "layer_norm": (lambda a, g, b, m=T.constant(_r(4, 6)):
                       T.sum_(T.layer_norm(a, g, b) * m),
                       [(4, 6), (6,), (6,)]),
        "conv1d": (lambda x, w, b, m=T.constant(_r(4, 3)):
                   T.sum_(T.conv1d(x, w, b, stride=2) * m),
                   [(7, 2), (3, 2, 3), (3,)]),
        "depthwise_conv1d": (lambda x, w, b, m=T.constant(_r(6, 4)):
                             T.sum_(T.depthwise_conv1d(x, w, b) * m),
                             [(6, 4), (3, 4), (4,)]),
        "glu": (lambda a, m=T.constant(_r(5, 3)): T.sum_(T.glu(a) * m),
                [(5, 6)]),
        "swish": (lambda a, m=T.constant(_r(3, 4)): T.sum_(T.swish(a) * m),
                  [(3, 4)]),
        "embedding": (lambda tab, m=T.constant(_r(4, 5)):
                      T.sum_(T.embedding(tab, emb_ids) * m), [(3, 5)]),
        "concat": (lambda a, b, m=T.constant(_r(3, 7)):
                   T.sum_(T.concat([a, b], axis=1) * m), [(3, 4), (3, 3)]),
        "slice": (lambda a, m=T.constant(_r(2, 3)):
                  T.sum_(a[1:3, 2:5] * m), [(4, 6)]),
        "sum": (lambda a, m=T.constant(_r(4,)):
                T.sum_(T.sum_(a, axis=0) * m), [(3, 4)]),
        "cross_entropy": (lambda logits: T.cross_entropy(logits, ce_targets),
                          [(3, 4)]),
        # a fresh identically-seeded stream per call keeps the mask fixed
        "dropout": (lambda a, m=T.constant(_r(4, 5)):
                    T.sum_(T.dropout(a, 0.35, np.random.default_rng(7),
                                     training=True) * m), [(4, 5)]),
        # registered by tests/oracles.py for the head-by-head reference
        "transpose": (lambda a, m=T.constant(_r(4, 3)):
                      T.sum_(transpose(a) * m), [(3, 4)]),
        "reshape": (lambda a, m=T.constant(_r(2, 6)):
                    T.sum_(reshape(a, (2, 6)) * m), [(3, 4)]),
        "ctc_loss": (lambda x: ctc_loss(T.log_softmax(x), ctc_labels),
                     [(7, 4)]),
        # self-attention with relative bias, causal mask and seeded dropout
        "attention": (lambda q, k, v, tab, m=T.constant(_r(5, 6)):
                      T.sum_(T.attention(q, k, v, 2, rel_table=tab,
                                         causal=True, p=0.3,
                                         rng=np.random.default_rng(9),
                                         training=True) * m),
                      [(5, 6), (5, 6), (5, 6), (5, 2)]),
        "linear": (lambda x, w, b, m=T.constant(_r(3, 2)):
                   T.sum_(T.linear(x, w, b) * m), [(3, 4), (4, 2), (2,)]),
    }
    assert frozenset(checks) == T.registered_primitives()
    for name in sorted(checks):
        build, shapes = checks[name]
        check_gradients(build, [_r(*s) for s in shapes], tol=1e-4)

    # masked-prediction frontend block
    conformer = ConformerBlock(
        SslConfig(input_dim=6, hidden_dim=12, num_blocks=1,
                  attention_heads=2, conv_kernel=3, mask_prob=0.1,
                  mask_span=2, codebook_size=4, dropout=0.0),
        np.random.default_rng(5))
    conformer.eval()
    m_conf = T.constant(_r(5, 12))

    def build_conformer(x, w):
        conformer.ffn1.lin1.weight = w
        return T.sum_(conformer(x) * m_conf)

    check_gradients(build_conformer, [_r(5, 12), _r(12, 24)], tol=1e-4)

    # two-branch encoder block
    enc_cfg = EncoderConfig(input_dim=6, hidden_dim=16, num_blocks=3,
                            attention_heads=2, cgmlp_units=16, dropout=0.0)
    branch = EBranchformerBlock(enc_cfg, np.random.default_rng(6))
    branch.eval()
    m_branch = T.constant(_r(5, 16))

    def build_branch(x, w):
        branch.cgmlp.up.weight = w
        return T.sum_(branch(x) * m_branch)

    check_gradients(build_branch, [_r(5, 16), _r(16, 32)], tol=1e-4)

    # posterior feedback layer, with a live (non-zero) projection
    fb = FeedbackLayer(vocab_size=5, dim=8)
    m_fb = T.constant(_r(4, 8))

    def build_feedback(hidden, tap, w):
        fb.proj.weight = w
        return T.sum_(fb(hidden, tap) * m_fb)

    check_gradients(build_feedback, [_r(4, 8), _r(4, 5), _r(5, 8)], tol=1e-4)

    # full self-conditioned encoder stack: subsample, blocks, taps fed back
    stack = Encoder(enc_cfg, vocab_size=5, seed=8)
    stack.eval()
    fill = np.random.default_rng(12)
    for layer in stack.feedback.values():
        layer.proj.weight.data = fill.normal(
            0.0, 0.5, size=layer.proj.weight.shape).astype(np.float32)
    stack_labels = np.array([1, 2], dtype=np.int64)

    def build_stack(x):
        out = stack.encode(x)
        loss = ctc_loss(out.final_log_posterior, stack_labels)
        for _, tap in out.tap_log_posteriors:
            loss = loss + ctc_loss(tap, stack_labels)
        return loss

    check_gradients(build_stack, [_r(9, 6)], tol=1e-4)

    # decoder stack through the teacher-forced loss
    dec = Decoder(DecoderConfig(hidden_dim=8, num_layers=2,
                                attention_heads=2, dropout=0.0,
                                max_target_len=8), vocab_size=7, seed=3)
    dec.eval()
    target = np.array([1, 5, 3, 4, 2], dtype=np.int64)

    def build_decoder(memory, w):
        dec.out_proj.weight = w
        enc_out = EncoderOutput(latent=memory, tap_log_posteriors=[],
                                final_log_posterior=memory)
        return dec.teacher_forced_loss(enc_out, target)

    check_gradients(build_decoder, [_r(6, 8), _r(8, 7)], tol=1e-4)

    assert time.time() - start < 120.0


# -- 3: joint beam search against brute-force enumeration ---------------------


def test_exhaustive_beam_matches_brute_force_joint_argmax():
    vocab = tiny_vocab()
    # 31 possible prefixes of length <= 4 over two characters, so a
    # 32-wide beam holds every hypothesis and the search is exhaustive
    cfg = BeamConfig(beam_size=32, lambda_ctc=0.3, max_len=4)
    rng = np.random.default_rng(77)
    for trial in range(100):
        lp = _log_post(rng, 4, 3)
        decode_fn = seeded_decode_fn(1000 + trial, vocab.size)
        got = joint_beam_search(lp, decode_fn, vocab, cfg)[0]
        seq, joint, ctc, att = joint_brute_force(lp, decode_fn, vocab,
                                                 0.3, 4)
        assert got.tokens == seq, trial
        assert got.joint == pytest.approx(joint, abs=1e-9)
        assert got.ctc == pytest.approx(ctc, abs=1e-9)
        assert got.att == pytest.approx(att, abs=1e-9)


# -- 4: sequence-length contract through the stack -----------------------------


def test_frontend_preserves_length_and_encoder_halves_it():
    frontend = Frontend(SslConfig(input_dim=5, hidden_dim=16, num_blocks=2,
                                  attention_heads=2, conv_kernel=3,
                                  mask_prob=0.1, mask_span=2,
                                  codebook_size=4), seed=2)
    encoder = Encoder(EncoderConfig(input_dim=16, hidden_dim=16,
                                    num_blocks=2, attention_heads=2,
                                    cgmlp_units=16), vocab_size=6, seed=2)
    encoder.eval()
    rng = np.random.default_rng(14)
    for t_len in range(2, 65):
        frames = rng.normal(size=(t_len, 5)).astype(np.float32)
        feats = frontend.extract_features(AudioFeatures(frames=frames))
        assert feats.shape[0] == t_len
        with T.no_grad():
            out = encoder.encode(T.constant(feats))
        want = math.ceil(t_len / 2)
        assert out.latent.shape[0] == want, t_len
        assert out.final_log_posterior.shape[0] == want


# -- 5: the staged curriculum end to end ---------------------------------------


def test_curriculum_grows_losslessly_and_unfreezes_the_frontend_last(
        trained_run, pretrain_run, toy_corpus, tmp_path):
    result = trained_run["result"]
    plan = trained_run["plan"]
    assert len(result.checkpoint_dirs) == 7
    assert sorted({row["stage"] for row in trained_run["metrics"]}) \
        == [1, 2, 3, 4, 5, 6, 7]
    assert trained_run["elapsed"] < 900.0

    # growing the stage-1 checkpoint to the stage-2 depth must carry
    # every transferred array over bit-exactly
    grown, _ = load_model(result.checkpoint_dirs[0])
    assert grown.encoder.depth == plan.stages[0].encoder_depth
    before = {k: v.copy() for k, v in grown.encoder.named_state().items()}
    grown.encoder.grow(plan.stages[1].encoder_depth)
    after = grown.encoder.named_state()
    carried = [k for k in before
               if k.split(".")[0] in ("blocks", "subsample", "ctc_proj")]
    assert carried
    for key in carried:
        assert np.array_equal(after[key], before[key]), key

    # the pretrained frontend stays bit-identical while frozen (stages
    # one through six) and moves in stage seven
    pre_state = pretrain_run["frontend"].named_state()
    for ckpt in result.checkpoint_dirs[:6]:
        arrays = serialization.load_arrays(ckpt)
        for key, val in pre_state.items():
            assert np.array_equal(arrays["frontend." + key], val), (ckpt,
                                                                    key)
    final_arrays = serialization.load_arrays(result.checkpoint_dirs[6])
    assert any(not np.array_equal(final_arrays["frontend." + key], val)
               for key, val in pre_state.items())

    # ten steps of the final stage are already enough to move it
    short = replace(plan, stages=plan.stages[:6]
                    + (replace(plan.stages[6], steps=10),))
    stage6 = result.checkpoint_dirs[5]
    passed, _ = load_model(stage6)
    resumed = run_curriculum(passed, toy_corpus["train"],
                             toy_corpus["train_manifest"], short, seed=7,
                             out_dir=str(tmp_path / "short_stage7"),
                             resume_from=stage6)
    tuned = serialization.load_arrays(resumed.checkpoint_dirs[0])
    # a resume trains the model it loads; the result returns that one
    assert resumed.model is not passed
    trained = resumed.model.named_state()
    assert sorted(trained) == sorted(tuned)
    for key, val in tuned.items():
        assert np.array_equal(trained[key], val), key
    frozen = serialization.load_arrays(stage6)
    moved = [k for k in frozen
             if k.startswith("frontend.") and "codebook" not in k
             and not np.array_equal(tuned[k], frozen[k])]
    assert moved


# -- 6: recognition quality on the synthetic corpus ----------------------------


def test_trained_model_reaches_low_error_on_train_and_held_out(
        trained_run, toy_corpus):
    model = trained_run["model"]
    beam = BeamConfig(beam_size=4, max_len=32)
    start = time.time()
    train_cer = _corpus_cer(model, toy_corpus["manifest"],
                            toy_corpus["train"], beam)
    held_cer = _corpus_cer(model, toy_corpus["manifest"],
                           toy_corpus["held"], beam)
    decode_elapsed = time.time() - start
    assert train_cer <= 0.05, f"train CER {train_cer:.4f}"
    assert held_cer <= 0.15, f"held-out CER {held_cer:.4f}"
    assert trained_run["elapsed"] + decode_elapsed < 900.0


# -- 7: inference-time language masks ------------------------------------------


def test_language_masks_constrain_taps_and_neutral_is_bit_exact(
        trained_run, toy_corpus):
    model, _ = load_model(trained_run["result"].final_dir)
    model.eval()
    vocab = model.vocab
    held = toy_corpus["held"]
    manifest = toy_corpus["manifest"]

    # under a language mask every tap frame decodes to an allowed token,
    # even when the audio comes from the other language
    for u in held:
        feat = load_features(manifest, u)
        for lang in sorted(vocab.languages):
            mask = build_language_mask(lang, vocab, epsilon=1e-8)
            allowed = set(vocab.charset_ids(lang)) | {vocab.blank_id}
            with T.no_grad():
                enc = model.encode(feat, adaptation=mask)
            assert enc.tap_log_posteriors
            for idx, tap in enc.tap_log_posteriors:
                hits = set(np.argmax(tap.data, axis=1).tolist())
                assert hits <= allowed, (u.utt_id, lang, idx,
                                         hits - allowed)

    # an all-ones mask changes nothing, bit for bit
    beam = BeamConfig(beam_size=2, max_len=32)
    for u in held[:2]:
        feat = load_features(manifest, u)
        base = model.transcribe(feat, beam, language=u.language)[0]
        neut = model.transcribe(feat, beam, language=u.language,
                                adaptation=neutral_mask(vocab))[0]
        assert neut.tokens == base.tokens
        assert neut.joint == base.joint
        assert neut.ctc == base.ctc
        assert neut.att == base.att

    # the held-out effect of matching-language masks is a measured,
    # reported quantity, not a gated one
    def own_mask(u):
        return build_language_mask(u.language, vocab, epsilon=1e-8)

    base_cer = _corpus_cer(model, manifest, held, beam)
    adapted_cer = _corpus_cer(model, manifest, held, beam,
                              mask_for=own_mask)
    delta = adapted_cer - base_cer
    assert math.isfinite(delta)
    print(f"held-out CER {base_cer:.4f} without adaptation, "
          f"{adapted_cer:.4f} with matching-language masks "
          f"(delta {delta:+.4f})")


# -- 8: error counting, normalization, resource ranks --------------------------


def test_error_counts_normalizer_and_resource_ranks():
    rng = np.random.default_rng(404)
    for _ in range(500):
        ref = [int(x) for x in rng.integers(0, 3, size=rng.integers(0, 9))]
        hyp = [int(x) for x in rng.integers(0, 3, size=rng.integers(0, 9))]
        assert edit_distance(ref, hyp) == brute_force_counts(ref, hyp), \
            (ref, hyp)

    assert resource_rank(100.001) == "High"
    assert resource_rank(100.0) == "Middle"
    assert resource_rank(20.0) == "Middle"
    assert resource_rank(19.999) == "Low"
    assert LanguageScore(language="xx", metric="WER").rank == "Unranked"

    assert normalize_text("ＡＢＣ１２３") == "abc123"
    assert normalize_text("Hello,  WORLD!") == "hello world"
    assert normalize_text("日本語 です。", "ja") == "日本語です"
    assert normalize_text("...") == ""
    for sample in ("Hello, World!", "日本 語。"):
        for lang in ("", "ja"):
            once = normalize_text(sample, lang)
            assert normalize_text(once, lang) == once


# -- 9: pretraining learns something -------------------------------------------


def test_pretraining_beats_chance_and_reduces_loss(pretrain_run):
    assert pretrain_run["steps"] <= 2000
    losses = [row["loss_total"] for row in pretrain_run["history"]]
    assert float(np.mean(losses[100:200])) < float(np.mean(losses[:100]))
    frontend = pretrain_run["frontend"]
    accuracy = eval_masked_accuracy(frontend, pretrain_run["feats"],
                                    seed=123)
    chance = 2.0 / frontend.cfg.codebook_size
    assert accuracy > chance, f"masked accuracy {accuracy:.3f}"


# -- 10: the whole pipeline is reproducible to the byte ------------------------


def _pipeline_report(root):
    corpus = os.path.join(root, "corpus")
    fe_dir = os.path.join(root, "frontend")
    run_dir = os.path.join(root, "run")
    hyps = os.path.join(root, "hyps.jsonl")
    report_dir = os.path.join(root, "report")
    manifest = os.path.join(corpus, "manifest.jsonl")
    vocab = os.path.join(corpus, "vocab.json")
    hours = os.path.join(corpus, "hours.jsonl")

    assert main(["gen-data", "--out-dir", corpus,
                 "--language", "en:0.002:ab", "--language", "de:0.002:bc",
                 "--feature-dim", "8", "--tokens-per-second", "5",
                 "--noise-std", "0.05", "--min-sec", "1.0",
                 "--max-sec", "1.6", "--seed", "3"]) == 0
    assert main(["pretrain", "--manifest", manifest, "--out-dir", fe_dir,
                 "--steps", "30", "--hidden-dim", "16", "--num-blocks", "1",
                 "--codebook-size", "4", "--seed", "5"]) == 0
    plan = os.path.join(root, "plan.ini")
    with open(plan, "w", encoding="utf-8") as fh:
        fh.write("[plan]\nbatch_max_frames = 400\n\n"
                 "[stage1]\ndepth = 2\nsteps = 4\nwarmup = 2\n\n"
                 "[stage2]\ndepth = 3\nsteps = 4\nwarmup = 2\n"
                 "freeze = none\n")
    assert main(["train", "--manifest", manifest, "--vocab", vocab,
                 "--out-dir", run_dir, "--stage-plan", plan,
                 "--hidden-dim", "16", "--decoder-layers", "1",
                 "--frontend", fe_dir, "--seed", "7"]) == 0
    assert main(["decode", "--model", os.path.join(run_dir, "stage2"),
                 "--manifest", manifest, "--out", hyps, "--beam", "2",
                 "--max-len", "12", "--language", "en"]) == 0
    assert main(["score", manifest, hyps, hours,
                 "--out-dir", report_dir]) == 0
    return os.path.join(report_dir, "report.json")


def test_seeded_pipeline_reports_are_byte_identical(tmp_path):
    first = _pipeline_report(str(tmp_path / "one"))
    second = _pipeline_report(str(tmp_path / "two"))
    with open(first, "rb") as fh:
        blob_a = fh.read()
    with open(second, "rb") as fh:
        blob_b = fh.read()
    assert blob_a == blob_b
    assert json.loads(blob_a)["per_language"]
