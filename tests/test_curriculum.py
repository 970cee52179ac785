"""Curriculum plans, deterministic batching, freezing, and resume."""

import json
import os

import numpy as np
import pytest

from asrkit import curriculum, serialization
from asrkit.curriculum import (PAPER_DEPTHS, TOY_DEPTHS, CurriculumResult,
                                 Stage, StagePlan, build_stage_plan,
                                 filter_corpus, load_stage_plan, make_buckets,
                                 pick_batch, run_curriculum,
                                 trainable_parameters)
from asrkit.data import Utterance
from asrkit.decoder import DecoderConfig
from asrkit.encoder import EncoderConfig
from asrkit.errors import CheckpointError, ValidationError
from asrkit.model import AsrModel, ModelConfig, load_model, save_model
from asrkit.ssl import SslConfig
from asrkit.vocab import load_vocab


def utt(uid, frames, lang="en"):
    return Utterance(utt_id=uid, features_path=f"features/{uid}.bin",
                     num_frames=frames, transcript="a", language=lang,
                     duration_sec=frames / 100)


def stage(**overrides):
    base = dict(name="s", encoder_depth=2, languages=None)
    return Stage(**{**base, **overrides})


# -- plan construction --------------------------------------------------------


def test_builtin_plans():
    toy = build_stage_plan("toy", ["en", "de"])
    paper = build_stage_plan("paper", ["en", "de"])
    assert [s.encoder_depth for s in toy.stages] == list(TOY_DEPTHS)
    assert [s.encoder_depth for s in paper.stages] == list(PAPER_DEPTHS)
    for plan in (toy, paper):
        assert len(plan.stages) == 7
        assert plan.stages[0].languages == ("en",)
        assert plan.stages[0].fraction == 0.5
        assert plan.stages[1].languages == ("en",)
        assert plan.stages[1].fraction == 1.0
        assert plan.stages[2].languages is None
        assert plan.stages[2].fraction == 0.5
        for s in plan.stages[3:]:
            assert s.languages is None and s.fraction == 1.0
        assert all(s.freeze == ("frontend",) for s in plan.stages[:-1])
        assert plan.stages[-1].freeze == ()


def test_steps_scale():
    plan = build_stage_plan("toy", ["en"], steps_scale=0.1)
    assert plan.stages[0].steps == 12
    assert all(s.steps >= 1 for s in plan.stages)


def test_unknown_scale_and_empty_languages():
    with pytest.raises(ValidationError):
        build_stage_plan("huge", ["en"])
    with pytest.raises(ValidationError):
        build_stage_plan("toy", [])


def test_plan_validation():
    with pytest.raises(ValidationError):
        StagePlan(stages=())
    with pytest.raises(ValidationError):  # depth decreases
        StagePlan(stages=(stage(encoder_depth=4),
                          stage(encoder_depth=2, freeze=())))
    with pytest.raises(ValidationError):  # frontend unfrozen early
        StagePlan(stages=(stage(freeze=()), stage(freeze=())))
    with pytest.raises(ValidationError):  # final stage still freezing
        StagePlan(stages=(stage(), stage()))
    StagePlan(stages=(stage(), stage(freeze=())))  # the valid shape


def test_stage_validation():
    with pytest.raises(ValidationError):
        stage(fraction=0.0)
    with pytest.raises(ValidationError):
        stage(fraction=1.2)
    with pytest.raises(ValidationError):
        stage(steps=0)


def test_ini_round_trip(tmp_path):
    path = tmp_path / "plan.ini"
    path.write_text("""
[plan]
batch_max_frames = 640

[stage1]
depth = 2
languages = en
fraction = 0.5
steps = 30
peak_lr = 1e-3
warmup = 5

[stage2]
depth = 3
languages = *
steps = 40
freeze = none
""")
    plan = load_stage_plan(str(path))
    assert plan.batch_max_frames == 640
    s1, s2 = plan.stages
    assert s1.languages == ("en",)
    assert s1.fraction == 0.5 and s1.steps == 30
    assert s1.peak_lr == pytest.approx(1e-3) and s1.warmup == 5
    assert s1.freeze == ("frontend",)
    assert s2.languages is None
    assert s2.freeze == ()


def test_ini_errors(tmp_path):
    with pytest.raises(ValidationError):
        load_stage_plan(str(tmp_path / "missing.ini"))
    bad = tmp_path / "bad.ini"
    bad.write_text("[stage1]\nlanguages = en\n")  # no depth
    with pytest.raises(ValidationError):
        load_stage_plan(str(bad))


@pytest.mark.parametrize("text", [
    "[plan]\nbatch_max_frames = lots\n\n[stage1]\ndepth = 2\n"
    "freeze = none\n",
    "depth = 2\nfreeze = none\n",
    "[stage1]\ndepth = 2\n\n[stage1]\ndepth = 3\nfreeze = none\n",
    "[stage1]\nname = 50%\ndepth = 2\nfreeze = none\n",
], ids=["non_integer_batch_max_frames", "no_section_header",
        "repeated_section", "percent_in_a_value"])
def test_a_malformed_plan_is_a_validation_error_naming_the_path(tmp_path,
                                                                text):
    path = tmp_path / "plan.ini"
    path.write_text(text)
    with pytest.raises(ValidationError) as info:
        load_stage_plan(str(path))
    assert str(path) in str(info.value)


@pytest.mark.parametrize("text,key", [
    ("[stage1]\ndepth = 2\nstep = 4\nfreeze = none\n", "step"),
    ("[plan]\nbatch_max_frame = 400\n\n[stage1]\ndepth = 2\n"
     "freeze = none\n", "batch_max_frame"),
    ("[plan]\ndepth = 2\n\n[stage1]\ndepth = 2\nfreeze = none\n", "depth"),
], ids=["stage_key", "plan_key", "stage_key_in_plan"])
def test_an_unknown_plan_key_is_a_validation_error_naming_it(tmp_path, text,
                                                            key):
    path = tmp_path / "plan.ini"
    path.write_text(text)
    with pytest.raises(ValidationError) as info:
        load_stage_plan(str(path))
    assert repr(key) in str(info.value) and str(path) in str(info.value)


# -- data selection -----------------------------------------------------------


def test_filter_corpus_language_and_fraction():
    utts = [utt(f"en-{i}", 10 + i) for i in range(8)] \
        + [utt(f"de-{i}", 10 + i, "de") for i in range(8)]
    only_en = filter_corpus(utts, stage(languages=("en",)), seed=1,
                            stage_index=0)
    assert all(u.language == "en" for u in only_en)
    assert len(only_en) == 8

    half = filter_corpus(utts, stage(fraction=0.5), seed=1, stage_index=0)
    again = filter_corpus(utts, stage(fraction=0.5), seed=1, stage_index=0)
    assert [u.utt_id for u in half] == [u.utt_id for u in again]
    assert len(half) == 8
    # subsampling keeps the original corpus order
    pos = {u.utt_id: i for i, u in enumerate(utts)}
    ids = [pos[u.utt_id] for u in half]
    assert ids == sorted(ids)

    other = filter_corpus(utts, stage(fraction=0.5), seed=1, stage_index=3)
    assert [u.utt_id for u in other] != [u.utt_id for u in half]


def test_filter_corpus_empty_match():
    with pytest.raises(ValidationError):
        filter_corpus([utt("en-0", 10)], stage(languages=("fr",)),
                      seed=0, stage_index=0)


def test_make_buckets_caps_total_frames():
    utts = [utt(f"u{i}", f) for i, f in
            enumerate([30, 80, 20, 50, 45, 90, 10])]
    buckets = make_buckets(utts, batch_max_frames=100)
    seen = [u.utt_id for b in buckets for u in b]
    assert sorted(seen) == sorted(u.utt_id for u in utts)
    for b in buckets:
        assert sum(u.num_frames for u in b) <= 100 or len(b) == 1
    lengths = [u.num_frames for b in buckets for u in b]
    assert lengths == sorted(lengths)


def test_pick_batch_is_stateless():
    buckets = make_buckets([utt(f"u{i}", 20 + i) for i in range(9)], 60)
    a = pick_batch(buckets, seed=5, stage_index=2, step=7)
    b = pick_batch(buckets, seed=5, stage_index=2, step=7)
    assert [u.utt_id for u in a] == [u.utt_id for u in b]
    picks = {tuple(u.utt_id for u in pick_batch(buckets, 5, 2, s))
             for s in range(30)}
    assert len(picks) > 1


# -- freezing -----------------------------------------------------------------


def small_model(vocab, seed=7):
    cfg = ModelConfig(
        frontend=SslConfig(input_dim=8, hidden_dim=16, num_blocks=1,
                           attention_heads=2, mask_prob=0.2, mask_span=2,
                           codebook_size=4, dropout=0.0),
        encoder=EncoderConfig(input_dim=16, hidden_dim=16, num_blocks=2,
                              attention_heads=2, cgmlp_units=16,
                              dropout=0.0),
        decoder=DecoderConfig(hidden_dim=16, num_layers=1,
                              attention_heads=2, dropout=0.0),
        seed=seed)
    return AsrModel(cfg, vocab)


def test_trainable_parameters_respects_freeze(toy_corpus):
    vocab = load_vocab(toy_corpus["vocab_path"])
    model = small_model(vocab)
    everything = trainable_parameters(model, ())
    no_frontend = trainable_parameters(model, ("frontend",))
    assert set(no_frontend) < set(everything)
    assert all(not n.startswith("frontend.") for n in no_frontend)
    dropped = set(everything) - set(no_frontend)
    assert dropped and all(n.startswith("frontend.") for n in dropped)
    # freezing is by component name, not by name prefix string
    assert any(n.startswith("encoder.") for n in no_frontend)


def test_a_freeze_entry_naming_no_parameter_is_rejected(toy_corpus,
                                                         tmp_path):
    vocab = load_vocab(toy_corpus["vocab_path"])
    model = small_model(vocab)
    with pytest.raises(ValidationError, match="'encodr'"):
        trainable_parameters(model, ("frontend", "encodr"))
    with pytest.raises(ValidationError, match="'enc'"):
        trainable_parameters(model, ("enc",))  # a prefix, not a component
    # through a plan file, before any step trains
    path = tmp_path / "plan.ini"
    path.write_text("[stage1]\ndepth = 2\nfreeze = frontend, encodr\n\n"
                    "[stage2]\ndepth = 2\nfreeze = none\n")
    plan = load_stage_plan(str(path))
    out = tmp_path / "run"
    with pytest.raises(ValidationError, match="'encodr'"):
        run_curriculum(model, toy_corpus["train"][:2],
                       toy_corpus["train_manifest"], plan, seed=3,
                       out_dir=str(out))
    assert not (out / "stage1").exists()


def two_stage_plan(steps=4):
    return StagePlan(stages=(
        Stage(name="a", encoder_depth=2, languages=None, steps=steps,
              peak_lr=1e-3, warmup=2),
        Stage(name="b", encoder_depth=3, languages=None, steps=steps,
              freeze=(), peak_lr=1e-3, warmup=2),
    ), batch_max_frames=300)


def three_stage_plan(middle_freeze):
    return StagePlan(stages=(
        Stage(name="a", encoder_depth=2, languages=None, steps=2,
              peak_lr=1e-3, warmup=1),
        Stage(name="b", encoder_depth=3, languages=None, steps=2,
              freeze=middle_freeze, peak_lr=1e-3, warmup=1),
        Stage(name="c", encoder_depth=3, languages=None, steps=2,
              freeze=(), peak_lr=1e-3, warmup=1),
    ), batch_max_frames=300)


def test_every_stage_freeze_is_checked_at_its_depth_before_training(
        toy_corpus, tmp_path):
    vocab = load_vocab(toy_corpus["vocab_path"])
    utts = toy_corpus["train"][:2]
    manifest = toy_corpus["train_manifest"]
    # encoder.blocks.2 exists only once stage b has grown the encoder
    grown = run_curriculum(
        small_model(vocab), utts, manifest,
        three_stage_plan(("frontend", "encoder.blocks.2")), seed=3,
        out_dir=str(tmp_path / "grown"))
    assert len(grown.checkpoint_dirs) == 3
    # growth gives the names of an encoder built at the grown depth
    assert (sorted(curriculum._parameter_names_at(small_model(vocab), 3))
            == sorted(dict(grown.model.named_parameters())))
    typo = three_stage_plan(("frontend", "encodr"))
    for resume_from in (None, grown.checkpoint_dirs[0]):
        out = tmp_path / f"typo-{resume_from is None}"
        with pytest.raises(ValidationError, match="'encodr'"):
            run_curriculum(small_model(vocab), utts, manifest, typo,
                           seed=3, out_dir=str(out), resume_from=resume_from)
        assert not out.exists()


def test_frozen_frontend_holds_still_until_the_last_stage(toy_corpus,
                                                          tmp_path):
    vocab = load_vocab(toy_corpus["vocab_path"])
    model = small_model(vocab)
    before = {k: v.copy() for k, v in
              model.frontend.named_state("frontend").items()}
    utts = toy_corpus["train"][:4]
    plan = two_stage_plan()
    run_curriculum(model, utts, toy_corpus["train_manifest"], plan,
                   seed=3, out_dir=str(tmp_path / "run"))
    after = dict(model.frontend.named_state("frontend"))
    changed = [k for k in before if not np.array_equal(before[k], after[k])]
    assert changed  # the final stage trains it
    # the codebook is a buffer, never trained
    assert np.array_equal(before["frontend.codebook"],
                          after["frontend.codebook"])


# -- the frozen frontend as a cached feature extractor ------------------------


def frozen_step(model, utts, manifest, frozen_latents):
    """One train_step at depth 2 over utts with the frontend frozen;
    frozen_latents=None runs the frontend inside the graph instead."""
    from asrkit.curriculum import train_step
    from asrkit.data import load_features
    from asrkit.optim import AdamW
    model.encoder.grow(2)
    model.train()
    feats = {u.utt_id: load_features(manifest, u) for u in utts}
    opt = AdamW(trainable_parameters(model, ("frontend",)), peak_lr=1e-3,
                warmup=1)
    return train_step(model, opt, utts, feats, seed=0, stage_index=0,
                      step=0, frozen_latents=frozen_latents)


def test_frozen_step_gives_the_frontend_no_gradient(toy_corpus):
    vocab = load_vocab(toy_corpus["vocab_path"])
    model = small_model(vocab)
    utts = toy_corpus["train"][:2]
    cache = {}
    frozen_step(model, utts, toy_corpus["train_manifest"], cache)
    assert sorted(cache) == sorted(u.utt_id for u in utts)
    grads = {name: p.grad for name, p in model.named_parameters()}
    assert all(g is None for n, g in grads.items()
               if n.startswith("frontend."))
    trained = [n for n in grads if n.split(".")[0] in ("encoder", "decoder")]
    assert trained
    for name in trained:
        assert grads[name] is not None, name


def test_frozen_step_matches_the_in_graph_frontend_without_dropout(
        toy_corpus):
    # small_model sets every dropout to 0, so eval-mode extraction and
    # the train-mode frontend inside the graph compute the same latent
    vocab = load_vocab(toy_corpus["vocab_path"])
    utts = toy_corpus["train"][:2]
    manifest = toy_corpus["train_manifest"]
    cached, reference = small_model(vocab), small_model(vocab)
    got = frozen_step(cached, utts, manifest, {})
    want = frozen_step(reference, utts, manifest, None)
    assert got["loss_total"] == want["loss_total"]
    ref_grads = dict(reference.named_parameters())
    compared = 0
    for name, p in cached.named_parameters():
        if name.split(".")[0] in ("encoder", "decoder"):
            assert p.grad.tobytes() == ref_grads[name].grad.tobytes(), name
            compared += 1
    assert compared
    # and the optimizer moved the same parameters to the same values
    got_state = cached.named_state()
    for name, array in reference.named_state().items():
        assert got_state[name].tobytes() == array.tobytes(), name


def graph_nodes(loss):
    """Every op record of loss's graph."""
    from asrkit import tensor as T
    nodes, stack, seen = [], [loss._entry], set()
    while stack:
        node = stack.pop()
        if not isinstance(node, T._OpRecord) or id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node.inputs)
    return nodes


def test_leaf_only_backward_matches_the_store_every_grad_engine(
        toy_corpus, monkeypatch):
    # one unfrozen depth-6 step with the conftest configs, dropout on,
    # under the engine and under the reference that keeps every .grad
    from oracles import store_every_grad_backward
    from asrkit import tensor as T
    from asrkit.curriculum import train_step
    from asrkit.data import load_features
    from asrkit.optim import AdamW
    vocab = load_vocab(toy_corpus["vocab_path"])
    utts = toy_corpus["train"][:2]
    feats = {u.utt_id: load_features(toy_corpus["train_manifest"], u)
             for u in utts}

    def run(engine):
        model = dropout_model(vocab)
        inner, stored = [], {}

        def recording(loss):
            inner.extend(graph_nodes(loss))
            stored.update(engine(loss) or {})

        monkeypatch.setattr(T, "backward", recording)
        opt = AdamW(trainable_parameters(model, ()), peak_lr=1e-3, warmup=1)
        train_step(model, opt, utts, feats, seed=3, stage_index=6, step=0)
        return dict(model.named_parameters()), inner, stored

    got, got_inner, _ = run(T.backward)
    want, want_inner, want_stored = run(store_every_grad_backward)
    assert got.keys() == want.keys()
    compared = set()
    for name, p in got.items():
        if want[name].grad is None:
            # the frontend's SSL-only parameters take no part in a step
            assert p.grad is None, name
            continue
        assert p.grad.tobytes() == want[name].grad.tobytes(), name
        compared.add(name)
    assert {n for n in got if not n.startswith("frontend.")} <= compared
    assert len(got_inner) == len(want_inner) > 0
    # the engine empties every record it runs; the reference keeps every
    # record and a gradient for each
    assert all(r.backward is None and r.inputs == () for r in got_inner)
    assert all(r.backward is not None for r in want_inner)
    assert set(want_stored) == set(want_inner)


def dropout_model(vocab):
    """A depth-6 model at the conftest sizes, dropout on, in train mode."""
    from conftest import DECODER_CFG, ENCODER_CFG, FRONTEND_CFG
    model = AsrModel(ModelConfig(frontend=SslConfig(**FRONTEND_CFG),
                                 encoder=EncoderConfig(**ENCODER_CFG),
                                 decoder=DecoderConfig(**DECODER_CFG),
                                 seed=7), vocab)
    model.encoder.grow(6)
    model.train()
    return model


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("frozen", [False, True], ids=["unfrozen", "frozen"])
def test_per_utterance_backward_matches_one_backward_over_the_batch(
        toy_corpus, size, frozen):
    from oracles import combined_backward_train_step
    from asrkit.curriculum import train_step
    from asrkit.data import load_features
    from asrkit.optim import AdamW
    vocab = load_vocab(toy_corpus["vocab_path"])
    # two steps, so the second starts from parameters the first moved
    batches = [toy_corpus["train"][:size], toy_corpus["train"][5:5 + size]]
    feats = {u.utt_id: load_features(toy_corpus["train_manifest"], u)
             for batch in batches for u in batch}
    freeze = ("frontend",) if frozen else ()

    def run(step_fn):
        model = dropout_model(vocab)
        opt = AdamW(trainable_parameters(model, freeze), peak_lr=1e-3,
                    warmup=1)
        cache = {} if frozen else None
        rows = [step_fn(model, opt, batch, feats, seed=3, stage_index=6,
                        step=step, frozen_latents=cache)
                for step, batch in enumerate(batches)]
        return model, rows

    got, got_rows = run(train_step)
    want, want_rows = run(combined_backward_train_step)
    assert got_rows == want_rows
    assert all(row["skipped_samples"] == 0 for row in got_rows)
    want_params = dict(want.named_parameters())
    compared = 0
    for name, p in got.named_parameters():
        if want_params[name].grad is None:
            assert p.grad is None, name
            continue
        assert p.grad.tobytes() == want_params[name].grad.tobytes(), name
        assert p.data.tobytes() == want_params[name].data.tobytes(), name
        compared += 1
    assert compared
    assert any(n.startswith("frontend.") and p.grad is not None
               for n, p in got.named_parameters()) is not frozen


def test_a_step_holds_one_utterance_graph_at_a_time(toy_corpus):
    import tracemalloc
    from asrkit.curriculum import train_step
    from asrkit.data import load_features
    from asrkit.optim import AdamW
    vocab = load_vocab(toy_corpus["vocab_path"])
    utts = toy_corpus["train"][:3]
    feats = {u.utt_id: load_features(toy_corpus["train_manifest"], u)
             for u in utts}
    model = dropout_model(vocab)
    params = trainable_parameters(model, ())
    opt = AdamW(params, peak_lr=1e-3, warmup=1)
    train_step(model, opt, utts[:1], feats, seed=3, stage_index=6, step=0)

    def traced_peak(batch, step):
        tracemalloc.start()
        try:
            train_step(model, opt, batch, feats, seed=3, stage_index=6,
                       step=step)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    single = max(traced_peak([u], i + 1) for i, u in enumerate(utts))
    batch = traced_peak(utts, len(utts) + 1)
    # a later utterance's graph meets the gradients the earlier ones left,
    # which a lone utterance's backward builds only as it frees its graph
    grads = sum(p.data.nbytes for p in params.values())
    assert batch <= single + grads + 128 * 1024, (batch, single, grads)


def test_frozen_stages_extract_each_utterance_once(toy_corpus, tmp_path,
                                                   monkeypatch):
    from asrkit.ssl import Frontend
    vocab = load_vocab(toy_corpus["vocab_path"])
    utts = toy_corpus["train"][:4]
    plan = StagePlan(stages=tuple(
        Stage(name=name, encoder_depth=depth, languages=None, steps=6,
              peak_lr=1e-3, warmup=2, **extra)
        for name, depth, extra in (("a", 2, {}), ("b", 3, {}),
                                   ("c", 3, {"freeze": ()}))),
        batch_max_frames=300)
    logged = []
    extracted = []   # (steps logged so far, the utterance's frames)
    original = Frontend.extract_features

    def counted(self, feat):
        extracted.append((len(logged), feat.frames.tobytes()))
        return original(self, feat)

    monkeypatch.setattr(Frontend, "extract_features", counted)
    run_curriculum(small_model(vocab), utts, toy_corpus["train_manifest"],
                   plan, seed=3, out_dir=str(tmp_path / "run"),
                   log_cb=logged.append)
    frozen_steps = plan.stages[0].steps + plan.stages[1].steps
    assert [n for n, _ in extracted if n >= frozen_steps] == []
    frames = [key for _, key in extracted]
    assert len(frames) == len(set(frames))   # no utterance twice
    # and every utterance the frozen stages trained on once
    used = set()
    for si, st in enumerate(plan.stages[:2]):
        buckets = make_buckets(filter_corpus(utts, st, 3, si),
                               plan.batch_max_frames)
        for step in range(st.steps):
            used.update(u.utt_id for u in pick_batch(buckets, 3, si, step))
    assert len(frames) == len(used) > 1


def test_the_feature_cache_is_emptied_before_the_first_unfrozen_step(
        toy_corpus, tmp_path, monkeypatch):
    vocab = load_vocab(toy_corpus["vocab_path"])
    utts = toy_corpus["train"][:4]
    plan = StagePlan(stages=(
        Stage(name="a", encoder_depth=2, languages=None, steps=3,
              peak_lr=1e-3, warmup=2),
        Stage(name="b", encoder_depth=2, languages=None, steps=2,
              peak_lr=1e-3, warmup=2, freeze=())),
        batch_max_frames=300)
    caches = []
    cache_sizes_when_unfrozen = []
    original = curriculum.train_step

    def spy(model, opt, batch, features_by_id, seed, stage_index, step,
            frozen_latents=None):
        if frozen_latents is not None:
            caches.append(frozen_latents)
        else:
            cache_sizes_when_unfrozen.append([len(c) for c in caches])
        return original(model, opt, batch, features_by_id, seed,
                        stage_index, step, frozen_latents)

    monkeypatch.setattr(curriculum, "train_step", spy)
    run_curriculum(small_model(vocab), utts, toy_corpus["train_manifest"],
                   plan, seed=3, out_dir=str(tmp_path / "run"))
    assert len(caches) == 3 and len({id(c) for c in caches}) == 1
    assert len(cache_sizes_when_unfrozen) == 2
    assert all(sizes == [0, 0, 0] for sizes in cache_sizes_when_unfrozen)


# -- the training loop --------------------------------------------------------


def read_metrics(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def test_run_writes_checkpoints_and_metrics(toy_corpus, tmp_path):
    vocab = load_vocab(toy_corpus["vocab_path"])
    model = small_model(vocab)
    utts = toy_corpus["train"][:4]
    out = str(tmp_path / "run")
    plan = two_stage_plan()
    result = run_curriculum(model, utts, toy_corpus["train_manifest"],
                            plan, seed=3, out_dir=out)
    assert isinstance(result, CurriculumResult)
    assert result.checkpoint_dirs == [os.path.join(out, "stage1"),
                                      os.path.join(out, "stage2")]
    assert result.final_dir == result.checkpoint_dirs[-1]
    rows = read_metrics(result.metrics_path)
    assert len(rows) == 8
    assert [r["step"] for r in rows] == list(range(1, 9))
    assert [r["stage"] for r in rows] == [1] * 4 + [2] * 4
    for r in rows:
        for key in ("loss_total", "loss_ctc", "loss_att", "loss_taps",
                    "lr", "skipped_samples"):
            assert key in r
        assert r["skipped_samples"] == 0


def test_fresh_run_replaces_stale_metrics(toy_corpus, tmp_path):
    vocab = load_vocab(toy_corpus["vocab_path"])
    utts = toy_corpus["train"][:4]
    out = str(tmp_path / "run")
    plan = StagePlan(stages=(Stage(name="only", encoder_depth=2,
                                   languages=None, steps=2, freeze=(),
                                   warmup=1),),
                     batch_max_frames=300)
    r1 = run_curriculum(small_model(vocab), utts,
                        toy_corpus["train_manifest"], plan, seed=3,
                        out_dir=out)
    r2 = run_curriculum(small_model(vocab), utts,
                        toy_corpus["train_manifest"], plan, seed=3,
                        out_dir=out)
    assert len(read_metrics(r2.metrics_path)) == 2
    assert read_metrics(r1.metrics_path) == read_metrics(r2.metrics_path)


def test_resume_is_bit_identical_to_an_unbroken_run(toy_corpus, tmp_path):
    vocab = load_vocab(toy_corpus["vocab_path"])
    utts = toy_corpus["train"][:4]
    manifest = toy_corpus["train_manifest"]
    plan = two_stage_plan()

    full = run_curriculum(small_model(vocab), utts, manifest, plan,
                          seed=3, out_dir=str(tmp_path / "full"))
    # continue from the stage-1 checkpoint as if the run had been killed
    resumed = run_curriculum(small_model(vocab), utts, manifest, plan,
                             seed=3, out_dir=str(tmp_path / "resumed"),
                             resume_from=os.path.join(str(tmp_path / "full"),
                                                      "stage1"))
    a = open(os.path.join(full.checkpoint_dirs[1], "params.bin"),
             "rb").read()
    b = open(os.path.join(resumed.checkpoint_dirs[0], "params.bin"),
             "rb").read()
    assert a == b
    full_rows = read_metrics(full.metrics_path)
    resumed_rows = read_metrics(resumed.metrics_path)
    assert resumed_rows == full_rows[4:]


def test_resume_requires_train_state(toy_corpus, tmp_path):
    vocab = load_vocab(toy_corpus["vocab_path"])
    model = small_model(vocab)
    ckpt = str(tmp_path / "plain")
    save_model(ckpt, model)  # no train_state
    with pytest.raises(ValidationError):
        run_curriculum(small_model(vocab), toy_corpus["train"][:2],
                       toy_corpus["train_manifest"], two_stage_plan(),
                       seed=3, out_dir=str(tmp_path / "out"),
                       resume_from=ckpt)


def resume_from_state(toy_corpus, tmp_path, seed=3, **state):
    """run_curriculum resumed from an untrained checkpoint whose
    train_state is the stage-1 state of two_stage_plan at seed 3, with
    `state` overriding fields."""
    vocab = load_vocab(toy_corpus["vocab_path"])
    ckpt = str(tmp_path / "stage1")
    save_model(ckpt, small_model(vocab), train_state={
        "completed_stages": 1, "global_step": 4, "stage_name": "a",
        "seed": 3, **state})
    out = tmp_path / "out"
    with pytest.raises(ValidationError) as info:
        run_curriculum(small_model(vocab), toy_corpus["train"][:2],
                       toy_corpus["train_manifest"], two_stage_plan(),
                       seed=seed, out_dir=str(out), resume_from=ckpt)
    assert ckpt in str(info.value)
    assert not out.exists()
    return str(info.value)


def test_resume_rejects_a_different_seed(toy_corpus, tmp_path):
    assert "seed 3" in resume_from_state(toy_corpus, tmp_path, seed=4)


def test_resume_rejects_a_different_stage_name(toy_corpus, tmp_path):
    assert "'b'" in resume_from_state(toy_corpus, tmp_path, stage_name="b")


def test_resume_rejects_more_completed_stages_than_the_plan(toy_corpus,
                                                            tmp_path):
    message = resume_from_state(toy_corpus, tmp_path, completed_stages=3)
    assert "completed 3 stages" in message


def test_checkpoint_after_growth_reloads_the_grown_model(toy_corpus,
                                                         tmp_path):
    from asrkit import tensor as T
    from asrkit.data import load_features
    vocab = load_vocab(toy_corpus["vocab_path"])
    model = small_model(vocab)
    model.encoder.grow(4)
    ckpt = str(tmp_path / "grown")
    save_model(ckpt, model)
    loaded, _ = load_model(ckpt)
    assert loaded.encoder.depth == model.encoder.depth == 4
    assert loaded.encoder.cfg == model.encoder.cfg
    want, got = model.named_state(), loaded.named_state()
    assert sorted(got) == sorted(want)
    for name, array in want.items():
        assert got[name].dtype == array.dtype, name
        assert got[name].tobytes() == array.tobytes(), name
    feat = load_features(toy_corpus["train_manifest"], toy_corpus["train"][0])
    model.eval()
    loaded.eval()
    with T.no_grad():
        a, b = model.encode(feat), loaded.encode(feat)
    assert (a.final_log_posterior.data.tobytes()
            == b.final_log_posterior.data.tobytes())
    assert [(i, t.data.tobytes()) for i, t in a.tap_log_posteriors] == [
        (i, t.data.tobytes()) for i, t in b.tap_log_posteriors]


# -- exact checkpoint loading ----------------------------------------------------


def saved_small_model(vocab, tmp_path):
    ckpt = str(tmp_path / "ckpt")
    save_model(ckpt, small_model(vocab))
    return ckpt


def test_checkpoint_config_records_only_the_settable_fields(toy_corpus,
                                                            tmp_path):
    ckpt = saved_small_model(load_vocab(toy_corpus["vocab_path"]), tmp_path)
    config = json.load(open(os.path.join(ckpt, "config.json")))
    assert config.pop("seed") == 7
    assert {section: sorted(fields)
            for section, fields in config.items()} == {
        "frontend": ["attention_heads", "codebook_size", "conv_kernel",
                     "dropout", "hidden_dim", "input_dim", "mask_prob",
                     "mask_span", "num_blocks"],
        "encoder": ["attention_heads", "cgmlp_units", "dropout",
                    "hidden_dim", "input_dim", "num_blocks"],
        "decoder": ["attention_heads", "dropout", "hidden_dim",
                    "max_target_len", "num_layers"],
    }


def test_checkpoint_missing_an_array_does_not_load(toy_corpus, tmp_path):
    vocab = load_vocab(toy_corpus["vocab_path"])
    ckpt = saved_small_model(vocab, tmp_path)
    index_path = os.path.join(ckpt, "index.json")
    index = json.load(open(index_path))
    del index["arrays"]["encoder.ctc_proj.weight"]
    json.dump(index, open(index_path, "w"))
    with pytest.raises(CheckpointError,
                       match=r"missing encoder\.ctc_proj\.weight"):
        load_model(ckpt)


def test_checkpoint_with_an_extra_array_does_not_load(toy_corpus, tmp_path):
    vocab = load_vocab(toy_corpus["vocab_path"])
    ckpt = saved_small_model(vocab, tmp_path)
    arrays = serialization.load_arrays(ckpt)
    # the optimizer moment older checkpoints carried alongside the model
    arrays["optim.m.encoder.ctc_proj.weight"] = np.zeros_like(
        arrays["encoder.ctc_proj.weight"])
    serialization.save_arrays(ckpt, arrays)
    with pytest.raises(CheckpointError,
                       match=r"unexpected optim\.m\.encoder\.ctc_proj"):
        load_model(ckpt)


def test_checkpoint_with_a_wrong_buffer_shape_does_not_load(toy_corpus,
                                                           tmp_path):
    vocab = load_vocab(toy_corpus["vocab_path"])
    ckpt = saved_small_model(vocab, tmp_path)
    arrays = serialization.load_arrays(ckpt)
    arrays["frontend.codebook"] = arrays["frontend.codebook"][:-1]
    serialization.save_arrays(ckpt, arrays)
    with pytest.raises(CheckpointError, match=r"frontend\.codebook"):
        load_model(ckpt)
    # a rejected state leaves the module as it was
    model = small_model(vocab, seed=8)
    before = {k: v.copy() for k, v in model.named_state().items()}
    with pytest.raises(CheckpointError):
        model.load_state(arrays)
    after = model.named_state()
    assert all(np.array_equal(after[k], v) for k, v in before.items())


def test_stage_checkpoints_hold_exactly_the_model_state(trained_run):
    result = trained_run["result"]
    for stage, ckpt in zip(trained_run["plan"].stages,
                           result.checkpoint_dirs):
        model = AsrModel(trained_run["cfg"], trained_run["vocab"])
        model.encoder.grow(stage.encoder_depth)
        names = set(json.load(open(os.path.join(ckpt, "index.json")))
                    ["arrays"])
        assert names == set(model.named_state()), stage.name
        assert not any(n.startswith("optim.") for n in names)


def test_resume_from_a_grown_stage_keeps_the_grown_blocks(toy_corpus,
                                                          tmp_path):
    vocab = load_vocab(toy_corpus["vocab_path"])
    utts = toy_corpus["train"][:4]
    manifest = toy_corpus["train_manifest"]
    plan = StagePlan(stages=tuple(
        Stage(name=name, encoder_depth=depth, languages=None, steps=4,
              peak_lr=1e-3, warmup=2, **extra)
        for name, depth, extra in (("a", 2, {}), ("b", 3, {}),
                                   ("c", 3, {"freeze": ()}))),
        batch_max_frames=300)
    full = run_curriculum(small_model(vocab), utts, manifest, plan,
                          seed=3, out_dir=str(tmp_path / "full"))
    # stage 2 grew the encoder from 2 to 3 blocks
    resumed = run_curriculum(small_model(vocab), utts, manifest, plan,
                             seed=3, out_dir=str(tmp_path / "resumed"),
                             resume_from=full.checkpoint_dirs[1])
    a = open(os.path.join(full.checkpoint_dirs[2], "params.bin"),
             "rb").read()
    b = open(os.path.join(resumed.checkpoint_dirs[0], "params.bin"),
             "rb").read()
    assert a == b


def test_impossible_labels_are_skipped_and_counted(toy_corpus, tmp_path):
    from asrkit.curriculum import train_step
    from asrkit.data import load_features
    from asrkit.optim import AdamW
    vocab = load_vocab(toy_corpus["vocab_path"])
    model = small_model(vocab)
    model.encoder.grow(2)
    src = toy_corpus["train"][0]
    feat = load_features(toy_corpus["train_manifest"], src)
    charset = next(lang.charset for lang in toy_corpus["spec"].languages
                   if lang.name == src.language)
    text = (charset[0] + charset[1]) * 3
    # 8 input frames subsample to 4 CTC frames: too few for 6 characters
    short = Utterance(utt_id=src.utt_id, features_path=src.features_path,
                      num_frames=8, transcript=text,
                      language=src.language, duration_sec=0.08)
    feats = {short.utt_id: type(feat)(frames=feat.frames[:8],
                                      language=feat.language)}
    opt = AdamW(trainable_parameters(model, ()), peak_lr=1e-3, warmup=1)
    forwarded = []
    original = model.frontend.forward_latent
    model.frontend.forward_latent = lambda x: forwarded.append(x) or \
        original(x)
    metrics = train_step(model, opt, [short], feats, seed=0,
                         stage_index=0, step=0)
    assert metrics["skipped_samples"] == 1
    assert np.isnan(metrics["loss_total"])
    # the skip is decided before any forward
    assert forwarded == []


def test_aligns_exactly_when_the_ctc_loss_can_be_built(toy_corpus):
    from asrkit import tensor as T
    from asrkit.errors import ImpossibleAlignmentError
    vocab = load_vocab(toy_corpus["vocab_path"])
    model = small_model(vocab)
    src = toy_corpus["train"][0]
    charset = next(lang.charset for lang in toy_corpus["spec"].languages
                   if lang.name == src.language)
    # 5 labels with one repeat need 6 CTC frames: 11 input frames
    text = charset[0] * 2 + charset[1:4]
    latent = np.zeros((14, model.cfg.frontend.hidden_dim), dtype=np.float32)
    verdicts = {}
    for frames in range(2, 15):
        try:
            model.utterance_losses(T.constant(latent[:frames]), text,
                                   src.language)
            built = True
        except ImpossibleAlignmentError:
            built = False
        assert model.aligns(frames, text, src.language) == built, frames
        verdicts[frames] = built
    assert not verdicts[10] and verdicts[11]


def test_metrics_rows_stay_valid_json_when_every_utterance_is_skipped(
        toy_corpus, tmp_path):
    from dataclasses import replace
    vocab = load_vocab(toy_corpus["vocab_path"])
    src = toy_corpus["train"][0]
    # far more characters than the utterance has CTC frames
    impossible = replace(src, transcript=src.transcript * 50)
    plan = StagePlan(stages=(Stage(name="only", encoder_depth=2,
                                   languages=None, steps=1, freeze=(),
                                   warmup=1),),
                     batch_max_frames=300)
    logged = []
    result = run_curriculum(small_model(vocab), [impossible],
                            toy_corpus["train_manifest"], plan, seed=3,
                            out_dir=str(tmp_path / "run"),
                            log_cb=logged.append)
    assert np.isnan(logged[0]["loss_total"])

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    with open(result.metrics_path) as fh:
        rows = [json.loads(line, parse_constant=reject) for line in fh]
    assert rows[0]["skipped_samples"] == 1
    for key in ("loss_total", "loss_ctc", "loss_att", "loss_taps"):
        assert rows[0][key] is None
