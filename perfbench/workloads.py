"""The benchmark's workloads: inputs, the closed-loop load, and metrics.

Every workload runs all three parts of the recipe -- training (a short
pretrain then a toy-shaped curriculum), decoding and scoring -- so that
each prints every end-to-end metric.  They run in rounds until
--seconds is spent; a workload differs in how much of a round each part
takes, and the part it is named after is its load.  Shares of a round's
wall time below are from one timed run each (seed 11); set-up repeats
take the remaining 4-6%:

  train   one training pass, then two held-out utterances decoded,
          each followed by a call scoring a small set: training is
          about 54% of the round, decoding 26%, scoring 14%.
  decode  set-up trains a model for about 13 s, so that most of its
          beam-4 hypotheses are not empty; each round decodes four
          held-out utterances with it, about 38% of the round, as much
          as training; scoring takes 20%.
  score   two utterances decoded, each followed by a call scoring
          long-form references and hypotheses: scoring is about 27% of
          the round, training 47%, decoding 21%.

Rounds are short (4-7 s) and every part is sampled in every round, so a
run's median for a part is drawn from many short windows across the
whole run rather than from a few long ones: the machine's speed drifts
by tens of percent from one second to the next, and a median over many
windows moves less with it.  Within a round, decoding and scoring
alternate for the same reason.  A run has at least MIN_ROUNDS rounds,
so that every gated tail (pretrain_step_ms.p90) has at least ten
samples beyond it.

The load is a closed loop with one client: the next step, utterance or
scoring call starts only when the previous one returns.  Every round
does identical work, so the counts a traced round records repeat
exactly for a given seed.
"""

import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from asrkit import (adapt, curriculum, data, kernels, model as model_mod,
                    scoring, ssl, tensor as T)
from asrkit.beam import BeamConfig
from asrkit.ctc import ctc_prefix_initial
from asrkit.decoder import DecoderConfig
from asrkit.encoder import EncoderConfig
from asrkit.vocab import load_vocab

import checks
import layers

# the tests/conftest.py corpus spec and model shapes
CORPUS = dict(feature_dim=8, tokens_per_second=5, noise_std=0.05,
              template_scale=1.5, utt_min_sec=1.2, utt_max_sec=2.4)
LANGUAGES = (("en", "abcd"), ("de", "cdef"))
# hours per language: enough utterances to pick every length of the
# token grid for training and held-out decoding
CORPUS_HOURS = 0.04
FRONTEND_CFG = dict(input_dim=8, hidden_dim=32, num_blocks=2,
                    attention_heads=2, mask_prob=0.12, mask_span=4,
                    codebook_size=8, dropout=0.1)
ENCODER_CFG = dict(input_dim=32, hidden_dim=32, num_blocks=2,
                   attention_heads=2, cgmlp_units=32, dropout=0.1)
DECODER_CFG = dict(hidden_dim=32, num_layers=1, attention_heads=2,
                   dropout=0.4)
BATCH_MAX_FRAMES = 400
TRAIN_UTTS_PER_LANG = 10
# --seed makes the inputs (corpus content, scoring texts); model init,
# pretraining, batch picks and dropout use this fixed recipe seed, as
# the test fixtures do, so every seed trains on batches of one shape
RECIPE_SEED = 7
# utterance lengths in tokens (the spec allows 6..12).  Utterances are
# picked to cover this grid in the same proportions for every seed, so
# the seed changes content but not the shape of the work.
TOKEN_GRID = (9, 6, 12, 7, 11, 8, 10)

# the CLI decode defaults, and the same at beam 1
BEAM4 = BeamConfig(beam_size=4, lambda_ctc=0.3, max_len=64)
BEAM1 = BeamConfig(beam_size=1, lambda_ctc=0.3, max_len=64)
ADAPT_EVERY = 3          # requests 0, 3, ... at beam 4 carry a mask

# long-form scoring: CER-scored languages get 40-200 characters with
# full-width punctuation, WER-scored ones 10-40 words with case and
# punctuation, and about 15% of units are edited in the hypothesis
CER_LANGS = ("ja", "zh")
WER_LANGS = ("de", "en")
CER_CHARS = tuple(chr(0x4E00 + 37 * k) for k in range(160))
CER_PUNCT = ("。", "、", "！", "？", "「", "」", "（", "）", "：", " ")
WER_PUNCT = (",", ".", "?", "!", ";", ":")
EDIT_RATE = 0.05         # each of substitution, deletion, insertion
MISSING_EVERY = 12       # every 12th reference has no hypothesis
EXTRA_HYPS = 2           # hypotheses with no reference

# set-up is timed once before the rounds and this many times more in
# every round, so it is sampled across the run like the other parts; its
# median is reported.  The repeats regenerate the corpus into one
# directory, as a re-run of the recipe does: creating 160 fresh files
# costs the kernel 10-80 ms more per set-up on top of 40-45 ms of work,
# and that cost swings with the machine from minute to minute.
SETUP_REPS_PER_ROUND = 4
# rounds per run at the least, whatever --seconds says: five training
# passes give 5 x 20 = 100 pretrain-step samples, so the pretrain p90
# has at least ten samples beyond it
MIN_ROUNDS = 5


@dataclass(frozen=True)
class TrainSpec:
    pretrain_steps: int
    # (encoder depth, frontend frozen, steps, peak lr)
    stages: tuple[tuple[int, bool, int, float], ...]
    warmup: int = 10
    dropout: bool = True


# one training pass: a short pretrain, then depth 2 frozen, growth to 6,
# two depth-6 frozen stages and an unfrozen stage, checkpointing each.
# It is kept short so that a run has many rounds: the machine's speed
# drifts over seconds, and a step-time median drawn from many short
# windows moves less with it than one drawn from a few long ones.
TRAIN_PASS = TrainSpec(
    pretrain_steps=21,
    stages=((2, True, 5, 3e-3), (6, True, 4, 2e-3), (6, True, 4, 2e-3),
            (6, False, 5, 1e-3)))
# the decode workload's model: depth 2 at a high rate, then lossless
# growth to 6; the depth-6 stages use a tiny rate so the grown model
# decodes like the depth-2 one.  Its beam-4 hypotheses reach 0.15-0.5x
# the reference length, depending on the seed: short of realistic
# lengths, which would take several times the training.
DECODE_MODEL = TrainSpec(
    pretrain_steps=10,
    stages=((2, True, 220, 2e-2), (6, True, 3, 1e-5), (6, False, 3, 1e-5)),
    warmup=20, dropout=False)


@dataclass(frozen=True)
class Workload:
    name: str
    decode_utts: int           # held-out utterances per round, b4 and b1,
                               # each followed by one scoring call
    score_utts: int            # long-form pairs per language
    decode_model: TrainSpec | None = None   # else the round's own model


WORKLOADS = {
    "train": Workload(name="train", decode_utts=2, score_utts=4),
    "decode": Workload(name="decode", decode_utts=4, score_utts=4,
                       decode_model=DECODE_MODEL),
    "score": Workload(name="score", decode_utts=2, score_utts=12),
}



# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(0, math.floor(100.0 * (1.0 - 10.0 / n))) if n > 10 else 0


def timing_summary(values) -> dict:
    q = tail_percentile(len(values))
    return {"n": len(values), "p50": percentile(values, 50),
            f"p{q}": percentile(values, q)}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass
class Corpus:
    manifest: str
    vocab: object
    train: list
    held: list
    feats: dict                # utt_id -> AudioFeatures


def _take_nearest(pool: list, k: int):
    """Remove and return the first utterance in `pool` whose token count
    is nearest the k-th (cyclically) length of the grid."""
    fpt = ssl.FRAME_RATE // CORPUS["tokens_per_second"]
    want = TOKEN_GRID[k % len(TOKEN_GRID)]
    best = min(pool, key=lambda u: abs(u.num_frames // fpt - want))
    pool.remove(best)
    return best


def build_corpus(root: str, seed: int, held_count: int) -> Corpus:
    spec = data.SyntheticSpec(
        languages=tuple(data.LanguageSpec(name, chars, CORPUS_HOURS)
                        for name, chars in LANGUAGES),
        seed=seed, **CORPUS)
    manifest, vocab_path, _ = data.gen_synthetic_corpus(spec, root)
    by_lang: dict[str, list] = {}
    for utt in data.load_manifest(manifest):
        by_lang.setdefault(utt.language, []).append(utt)
    langs = sorted(by_lang)
    train = [_take_nearest(by_lang[lang], k) for lang in langs
             for k in range(TRAIN_UTTS_PER_LANG)]
    # held-out utterances alternate languages
    held = [_take_nearest(by_lang[langs[k % len(langs)]], k)
            for k in range(held_count)]
    feats = {u.utt_id: data.load_features(manifest, u) for u in train + held}
    return Corpus(manifest=manifest, vocab=load_vocab(vocab_path),
                  train=train, held=held, feats=feats)


def model_config(dropout: bool) -> model_mod.ModelConfig:
    scale = 1.0 if dropout else 0.0
    return model_mod.ModelConfig(
        frontend=ssl.SslConfig(**{**FRONTEND_CFG,
                                  "dropout": FRONTEND_CFG["dropout"] * scale}),
        encoder=EncoderConfig(**{**ENCODER_CFG,
                                 "dropout": ENCODER_CFG["dropout"] * scale}),
        decoder=DecoderConfig(**{**DECODER_CFG,
                                 "dropout": DECODER_CFG["dropout"] * scale}),
        seed=RECIPE_SEED)


@dataclass
class ScoreSet:
    refs: list
    hyps: list
    expected: dict             # language -> (S, D, I, reference units)
    extra_hyps: int


def _edit(rng, units, pool):
    out = []
    for u in units:
        r = rng.random()
        if r < EDIT_RATE:
            out.append(pool[int(rng.integers(len(pool)))])
        elif r < 2 * EDIT_RATE:
            continue
        else:
            out.append(u)
        if rng.random() < EDIT_RATE:
            out.append(pool[int(rng.integers(len(pool)))])
    return out


def _render_chars(rng, units):
    out = []
    for u in units:
        out.append(u)
        if rng.random() < 0.08:
            out.append(CER_PUNCT[int(rng.integers(len(CER_PUNCT)))])
    return "".join(out)


def _render_words(rng, units):
    words = []
    for k, w in enumerate(units):
        if k == 0 or rng.random() < 0.15:
            w = w.capitalize()
        if rng.random() < 0.05:
            w = f"“{w}”"
        if rng.random() < 0.15:
            w += WER_PUNCT[int(rng.integers(len(WER_PUNCT)))]
        words.append(w)
    return " ".join(words)


def build_score_set(seed: int, per_lang: int) -> ScoreSet:
    rng = np.random.default_rng([seed, 5])
    letters = "abcdefghijklmnopqrstuvwxyz"
    word_pool = tuple(
        "".join(letters[int(i)] for i in rng.integers(26, size=int(n)))
        for n in rng.integers(2, 9, size=400))
    refs, hyps, expected = [], [], {}
    for lang in CER_LANGS + WER_LANGS:
        cer = lang in CER_LANGS
        lo, hi = (40, 200) if cer else (10, 40)
        pool = CER_CHARS if cer else word_pool
        render = _render_chars if cer else _render_words
        s_tot = d_tot = i_tot = units_tot = 0
        for k in range(per_lang):
            n = int(round(lo + (hi - lo) * (k + 0.5) / per_lang))
            ref_units = [pool[int(i)] for i in rng.integers(len(pool),
                                                           size=n)]
            utt_id = f"{lang}-{k:04d}"
            refs.append({"utt_id": utt_id, "language": lang,
                         "text": render(rng, ref_units)})
            hyp_units = []
            if k % MISSING_EVERY != MISSING_EVERY - 1:
                hyp_units = _edit(rng, ref_units, pool)
                hyps.append({"utt_id": utt_id, "language": lang,
                             "text": render(rng, hyp_units)})
            s, d, i = checks.reference_edit_counts(ref_units, hyp_units)
            s_tot, d_tot, i_tot = s_tot + s, d_tot + d, i_tot + i
            units_tot += n
        expected[lang] = (s_tot, d_tot, i_tot, units_tot)
    for k in range(EXTRA_HYPS):
        hyps.append({"utt_id": f"extra-{k}", "language": WER_LANGS[0],
                     "text": "no such reference"})
    return ScoreSet(refs=refs, hyps=hyps, expected=expected,
                    extra_hyps=EXTRA_HYPS)


# ---------------------------------------------------------------------------
# the three parts of the recipe
# ---------------------------------------------------------------------------


def stage_phase(depth: int, frozen: bool) -> str:
    if not frozen:
        return "train.unfrozen"
    return "train.d2" if depth == 2 else f"train.d{depth}"


@dataclass
class TrainResult:
    pretrain_rows: list
    rows: list
    pretrain_ms: list
    step_ms: dict              # phase -> list of step ms
    frames: int
    curriculum_s: float
    model: object
    checkpoint_dirs: list
    stage1_state: dict         # in-memory model arrays at stage-1 end


def train_pass(run, corpus: Corpus, spec: TrainSpec, out_dir: str
               ) -> TrainResult:
    """Pretrain a fresh frontend, then run the curriculum from a fresh
    model.  Step times are the gaps between the program's own per-step
    callbacks; the first step of each stage (which also pays for the
    stage boundary) is left out of the step samples."""
    cfg = model_config(spec.dropout)
    frontend = ssl.Frontend(cfg.frontend, seed=RECIPE_SEED)
    feats = [corpus.feats[u.utt_id] for u in corpus.train]
    stamps = []
    with run.tracer.section("pretrain"):
        pre_rows = ssl.pretrain(
            frontend, feats, steps=spec.pretrain_steps, seed=RECIPE_SEED,
            log_cb=lambda row: stamps.append(time.perf_counter()))
    pretrain_ms = [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]

    model = model_mod.AsrModel(cfg, corpus.vocab)
    model.frontend.load_state(frontend.named_state())
    plan = curriculum.StagePlan(
        stages=tuple(
            curriculum.Stage(
                name=f"stage{i + 1}", encoder_depth=depth, languages=None,
                steps=steps,
                freeze=(curriculum.FRONTEND_SET,) if frozen else (),
                peak_lr=lr, warmup=spec.warmup)
            for i, (depth, frozen, steps, lr) in enumerate(spec.stages)),
        batch_max_frames=BATCH_MAX_FRAMES)
    phases = tuple(stage_phase(d, f) for d, f, _, _ in spec.stages)
    run.tracer.stage_phases = phases
    rows, stamps = [], []
    stage1 = []

    def on_step(row):
        stamps.append(time.perf_counter())
        rows.append(row)
        if len(rows) == plan.stages[0].steps:
            # the model as the stage-1 checkpoint is about to save it; a
            # copy costs a memcpy, the check on it runs after the timing
            stage1.append({name: a.copy()
                           for name, a in model.named_state().items()})

    with run.tracer.section("train"):
        start = time.perf_counter()
        result = curriculum.run_curriculum(
            model, corpus.train, corpus.manifest, plan, seed=RECIPE_SEED,
            out_dir=out_dir, log_cb=on_step)
        curriculum_s = time.perf_counter() - start

    step_ms: dict[str, list] = {p: [] for p in phases}
    for k in range(1, len(rows)):
        if rows[k]["stage"] == rows[k - 1]["stage"]:
            step_ms[phases[rows[k]["stage"] - 1]].append(
                1e3 * (stamps[k] - stamps[k - 1]))
    # frames trained on, from the program's stateless batch selection
    frames = 0
    for si, stage in enumerate(plan.stages):
        pool = curriculum.filter_corpus(corpus.train, stage, RECIPE_SEED,
                                         si)
        buckets = curriculum.make_buckets(pool, plan.batch_max_frames)
        for step in range(stage.steps):
            batch = curriculum.pick_batch(buckets, RECIPE_SEED, si, step)
            frames += sum(u.num_frames for u in batch)
    return TrainResult(pretrain_rows=pre_rows, rows=rows,
                       pretrain_ms=pretrain_ms, step_ms=step_ms,
                       frames=frames, curriculum_s=curriculum_s,
                       model=model, checkpoint_dirs=result.checkpoint_dirs,
                       stage1_state=stage1[0])


def encoder_output(model, feat) -> np.ndarray:
    """Eval-mode final CTC log-posteriors, leaving the mode as found."""
    was_training = model.training
    model.eval()
    try:
        with T.no_grad():
            return model.encode(feat).final_log_posterior.data.copy()
    finally:
        model.train(was_training)


@dataclass
class DecodeResult:
    ms_b4: list = field(default_factory=list)
    ms_b1: list = field(default_factory=list)
    audio_s_b4: float = 0.0
    rows: list = field(default_factory=list)   # one per request
    hyp_units: int = 0
    ref_units: int = 0


def result_row(model, utt, res, beam: int) -> dict:
    return {"utt_id": utt.utt_id, "language": utt.language,
            "text": model.result_text(res), "tokens": list(res.tokens),
            "joint": res.joint, "ctc": res.ctc, "att": res.att,
            "truncated": res.truncated, "beam": beam}


def decode_pass(run, model, corpus: Corpus, picks: list,
                out: DecodeResult) -> None:
    """Decode each (request index, utterance) in `picks` at beam 4, then
    at beam 1, into `out`."""
    masks = {lang: adapt.build_language_mask(lang, model.vocab)
             for lang, _ in LANGUAGES}
    for i, utt in picks:
        feat = corpus.feats[utt.utt_id]
        adaptation = masks[utt.language] if i % ADAPT_EVERY == 0 else None
        with run.tracer.section("decode.b4"):
            start = time.perf_counter()
            res = model.transcribe(feat, BEAM4, language=utt.language,
                                   adaptation=adaptation)[0]
            out.ms_b4.append(1e3 * (time.perf_counter() - start))
        out.audio_s_b4 += utt.duration_sec
        out.rows.append(result_row(model, utt, res, 4))
        out.hyp_units += len(res.tokens)
        out.ref_units += len(utt.transcript)
        with run.tracer.section("decode.b1"):
            start = time.perf_counter()
            res = model.transcribe(feat, BEAM1, language=utt.language)[0]
            out.ms_b1.append(1e3 * (time.perf_counter() - start))
        out.rows.append(result_row(model, utt, res, 1))


def score_decode(utts, rows) -> float:
    """CER of the beam-4 hypotheses, checked against the reference DP."""
    refs = [{"utt_id": u.utt_id, "language": u.language,
             "text": u.transcript} for u in utts]
    hyps = [r for r in rows if r["beam"] == 4]
    char_scored = frozenset(lang for lang, _ in LANGUAGES)
    report = scoring.score_corpus(refs, hyps, char_scored=char_scored)
    expected = {}
    by_id = {h["utt_id"]: h for h in hyps}
    for ref in refs:
        s, d, i = checks.reference_edit_counts(
            list(ref["text"]), list(by_id[ref["utt_id"]]["text"]))
        e = expected.get(ref["language"], (0, 0, 0, 0))
        expected[ref["language"]] = (e[0] + s, e[1] + d, e[2] + i,
                                     e[3] + len(ref["text"]))
    checks.score_totals_match(report, expected, 0)
    errors = sum(ls.errors for ls in report.per_language)
    units = sum(ls.num_ref_units for ls in report.per_language)
    return errors / units


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------


@dataclass
class Round:
    trained: TrainResult
    model: object              # the model the round decoded with
    decode: DecodeResult
    reports: list              # ScoreReport per scoring call
    score_s: list              # seconds per scoring call
    part_s: dict               # "train"/"decode"/"score" -> seconds


class Run:
    """One benchmark run: the seed, the tracer, counters and samples."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, tracer, work_root: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = tracer
        self.workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
        self.attempted = 0
        self.failed = 0
        self.skipped = 0
        self.round_s: list[float] = []       # untraced rounds
        self.traced_round_s = None
        self.traced_load_s = None            # the load part of that round

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def count_train(self, res: TrainResult) -> None:
        self.attempted += len(res.pretrain_rows) + len(res.rows)
        skipped = sum(r.get("skipped_samples", 0) for r in res.rows)
        self.skipped += skipped
        self.failed += skipped

    def count_decode(self, res: DecodeResult) -> None:
        self.attempted += len(res.rows)
        self.failed += sum(1 for r in res.rows if r["truncated"])

    def rounds(self, one_round) -> list:
        """Run whole rounds for about `seconds`, and at least MIN_ROUNDS.

        Another round starts only while it can end within the time.  A
        traced run traces round 1 only and leaves the others untraced;
        the traced round is always the second, so its counts do not
        depend on timing.
        """
        results = []
        start = time.perf_counter()
        k = 0
        while True:
            traced = self.trace and k == 1
            if self.trace:
                (self.tracer.install if traced else self.tracer.uninstall)()
            t0 = time.perf_counter()
            result = one_round(k)
            took = time.perf_counter() - t0
            results.append(result)
            if traced:
                self.traced_round_s = took
                self.traced_load_s = result.part_s[self.workload.name]
            else:
                self.round_s.append(took)
            k += 1
            if k < MIN_ROUNDS:
                continue
            if time.perf_counter() - start + took > self.seconds:
                break
        if self.trace:
            self.tracer.install()
        return results


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, tracer, work_root: str) -> dict:
    """Run one workload; return metrics, counts and the detail record."""
    run = Run(workload, seed, seconds, trace, tracer, work_root)
    try:
        if trace:
            tracer.install()
        return _run(run)
    finally:
        tracer.uninstall()
        run.close()


def check_training(run: Run, res: TrainResult) -> None:
    run.count_train(res)
    checks.losses_finite(res.pretrain_rows, "pretrain")
    checks.losses_finite(res.rows, "curriculum")


def check_checkpoints(run: Run, corpus: Corpus, res: TrainResult
                      ) -> tuple[float, str]:
    """The reloaded stage-1 checkpoint must hold the in-memory model's
    arrays and reproduce its encoder output bit for bit; returns the
    final checkpoint's load seconds and whether it reloads as the
    in-memory model.

    Known defect, reported rather than checked: a checkpoint saved after
    growth records the configured depth, so it reloads shallower than
    the model that saved it.  The decode workload therefore decodes with
    the in-memory model, and still times the final load as set-up, as a
    CLI decode pays it.
    """
    probe = corpus.feats[corpus.held[0].utt_id]
    with run.tracer.section("check", main=False):
        reloaded, _ = model_mod.load_model(res.checkpoint_dirs[0])
        saved = reloaded.named_state()
        for name, array in res.stage1_state.items():
            checks.arrays_identical(f"stage-1 {name}", array, saved[name])
        in_memory = model_mod.AsrModel(res.model.cfg, res.model.vocab)
        in_memory.load_state(res.stage1_state)
        checks.arrays_identical("stage-1 final_log_posterior",
                                encoder_output(in_memory, probe),
                                encoder_output(reloaded, probe))
        start = time.perf_counter()
        final, _ = model_mod.load_model(res.checkpoint_dirs[-1])
        load_s = time.perf_counter() - start
        same = np.array_equal(encoder_output(final, probe),
                              encoder_output(res.model, probe))
    status = ("identical" if same else
              f"differs: reloaded depth {final.encoder.depth}, "
              f"in-memory depth {res.model.encoder.depth}")
    return load_s, status


def _run(run: Run) -> dict:
    w = run.workload
    # scoring texts are the benchmark's own input, made outside set-up
    score_set = build_score_set(run.seed, w.score_utts)

    # -- set-up; the first one is kept, the rounds repeat it --------------
    setup_times = []

    def time_setup(root: str) -> Corpus:
        with run.tracer.section("setup", main=False):
            start = time.perf_counter()
            corpus = build_corpus(root, run.seed, w.decode_utts)
            model_mod.AsrModel(model_config(TRAIN_PASS.dropout), corpus.vocab)
            setup_times.append(time.perf_counter() - start)
        return corpus

    corpus = time_setup(run.path("corpus"))
    train_s = load_s = 0.0
    detail = {}
    decode_model = None
    if w.decode_model is not None:
        with run.tracer.section("setup", main=False):
            start = time.perf_counter()
            trained = train_pass(run, corpus, w.decode_model,
                                 run.path("decode_model"))
            train_s = time.perf_counter() - start
        check_training(run, trained)
        checks.loss_decreases(trained.rows, "decode model curriculum")
        load_s, detail["final_checkpoint_reload"] = check_checkpoints(
            run, corpus, trained)
        decode_model = trained.model
    utts = corpus.held[:w.decode_utts]
    picks = list(enumerate(utts))       # (request index, utterance)

    # -- the rounds --------------------------------------------------------
    def one_round(k: int) -> Round:
        for _ in range(SETUP_REPS_PER_ROUND):
            time_setup(run.path("setup-repeat"))
        start = time.perf_counter()
        with run.tracer.section("train", main=w.name == "train"):
            trained = train_pass(run, corpus, TRAIN_PASS, run.path(f"ckpt{k}"))
        part_s = {"train": time.perf_counter() - start, "decode": 0.0,
                  "score": 0.0}
        model = decode_model or trained.model
        decoded, reports, score_s = DecodeResult(), [], []
        # decoding and scoring alternate, one utterance then one scoring
        # call, so each is sampled at many points of the round rather
        # than in one window
        for pick in picks:
            start = time.perf_counter()
            with run.tracer.section("decode", main=w.name == "decode"):
                decode_pass(run, model, corpus, [pick], decoded)
            mid = time.perf_counter()
            with run.tracer.section("score", main=w.name == "score"):
                reports.append(scoring.score_corpus(score_set.refs,
                                                    score_set.hyps))
            end = time.perf_counter()
            score_s.append(end - mid)
            part_s["decode"] += mid - start
            part_s["score"] += end - mid
        if k:
            # only round 0's model is checked; dropping the later ones
            # keeps peak memory from growing with the number of rounds
            trained.model = trained.stage1_state = model = None
        return Round(trained=trained, model=model, decode=decoded,
                     reports=reports, score_s=score_s, part_s=part_s)

    rounds = run.rounds(one_round)
    # the decode workload's set-up also trains and loads its model, once
    setup_s = statistics.median(setup_times) + train_s + load_s
    first = rounds[0]

    # -- correctness -------------------------------------------------------
    for r in rounds:
        check_training(run, r.trained)
    checks.loss_decreases(first.trained.rows, "curriculum")
    if decode_model is None:
        _, detail["final_checkpoint_reload"] = check_checkpoints(
            run, corpus, first.trained)
    checks.joint_consistent(first.decode.rows, BEAM4.lambda_ctc)
    with run.tracer.section("check", main=False):
        # request 0 carries a mask, as in decode_pass
        mask = adapt.build_language_mask(utts[0].language, first.model.vocab)
        again = first.model.transcribe(corpus.feats[utts[0].utt_id], BEAM4,
                                       language=utts[0].language,
                                       adaptation=mask)[0]
    checks.decode_repeatable(
        [first.decode.rows[0]], [result_row(first.model, utts[0], again, 4)],
        utts[0].utt_id)
    for r in rounds:
        run.count_decode(r.decode)
        checks.decode_repeatable(first.decode.rows, r.decode.rows,
                                 "a later round's decodes")
        for report in r.reports:
            checks.score_totals_match(report, score_set.expected,
                                      score_set.extra_hyps)
        run.attempted += len(r.reports) * len(score_set.refs)
    with run.tracer.section("check", main=False):
        cer = score_decode(utts, first.decode.rows)

    # -- end-to-end metrics ------------------------------------------------
    trains = [r.trained for r in rounds]
    decodes = [r.decode for r in rounds]
    pretrain_ms = [x for res in trains for x in res.pretrain_ms]
    steps = {p: [x for res in trains for x in res.step_ms.get(p, [])]
             for p in ("train.d2", "train.d6", "train.unfrozen")}
    ms_b4 = [x for d in decodes for x in d.ms_b4]
    ms_b1 = [x for d in decodes for x in d.ms_b1]
    rtf_b4 = sum(ms_b4) / 1e3 / sum(d.audio_s_b4 for d in decodes)
    units = sum(ls.num_ref_units for ls in first.reports[0].per_language)
    score_s = [x for r in rounds for x in r.score_s]
    e2e = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "pretrain_step_ms.p50": (percentile(pretrain_ms, 50), "ms"),
        "pretrain_step_ms.p90": (percentile(pretrain_ms, 90), "ms"),
        "train_step_ms_d2.p50": (percentile(steps["train.d2"], 50), "ms"),
        "train_step_ms_d6.p50": (percentile(steps["train.d6"], 50), "ms"),
        "train_step_ms_unfrozen.p50": (
            percentile(steps["train.unfrozen"], 50), "ms"),
        "train_frames_per_s": (
            sum(res.frames for res in trains)
            / sum(res.curriculum_s for res in trains), "frames/s"),
        "decode_ms_b4.p50": (percentile(ms_b4, 50), "ms"),
        "decode_ms_b1.p50": (percentile(ms_b1, 50), "ms"),
        "rtf_b4": (rtf_b4, "ratio"),
        "score_units_per_s": (units * len(score_s) / sum(score_s), "units/s"),
    }
    detail["cer_b4"] = cer
    detail["timings"] = {
        "pretrain_step_ms": timing_summary(pretrain_ms),
        **{f"train_step_ms_{p.split('.')[1]}": timing_summary(v)
           for p, v in steps.items()},
        "decode_ms_b4": timing_summary(ms_b4),
        "decode_ms_b1": timing_summary(ms_b1),
        "score_call_ms": timing_summary([1e3 * x for x in score_s]),
        "setup_s": {"n": len(setup_times),
                    "values": [round(x, 4) for x in setup_times]},
        "round_s": {"n": len(run.round_s),
                    "values": [round(x, 3) for x in run.round_s]},
    }

    per_layer = None
    if run.trace:
        run.tracer.uninstall()
        per_layer, layer_ms = layers.per_layer_metrics(
            run.tracer, run, first.decode, cer, ms_b4, ms_b1, kernel_bench())
        detail["layer_self_ms_in_traced_load"] = {
            k: round(v, 3) for k, v in layer_ms.items()}
    return {"e2e": e2e, "per_layer": per_layer, "detail": detail,
            "attempted": run.attempted, "failed": run.failed}


def kernel_bench(repeat: int = 5, seed: int = 0) -> dict:
    """The three kernel micro-timings at bench_kernels.py's default sizes
    (200 frames, vocab 50, 30 labels, 200 units), median of repeats."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(200, 50))
    lp = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
    labels = rng.integers(1, 50, size=30)
    state = ctc_prefix_initial(lp)
    ref = rng.integers(0, 20, size=200)
    hyp = ref.copy()
    flips = rng.choice(200, size=40, replace=False)
    hyp[flips] = rng.integers(0, 20, size=flips.size)
    hyp = np.delete(hyp, rng.choice(200, size=20, replace=False))
    calls = {
        "ctc_loss_grad": (kernels.ctc_loss_grad, (lp, labels)),
        "ctc_prefix_all": (kernels.ctc_prefix_all,
                           (lp, state.last, state.r, state.empty)),
        "edit_counts": (kernels.edit_counts, (ref, hyp)),
    }
    out = {}
    for name, (fn, args) in calls.items():
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - start)
        out[name] = 1e3 * statistics.median(times)
    return out
