"""Staged curriculum training.

The seven-stage plan grows the encoder (shallow to full depth), widens
the data filter (one language, small subset, to everything), keeps the
frontend frozen through stage 6, and unfreezes it in stage 7.  A
frozen frontend is a feature extractor: it runs once per utterance, in
eval mode without gradients, and its features are cached for the whole
frozen span.  The step loss is

    0.3 * ctc_final + 0.7 * attention + 0.5 * mean(tap ctc losses)

Optimizer moments are reset at each stage boundary, so a stage
checkpoint holds the model alone.  Batch selection is stateless: the
batch for (stage, step) depends only on the seed and the stage's
filtered corpus, never on training history, so a run resumed from any
stage checkpoint is bit-identical to one that never stopped.
"""

import configparser
import os
from dataclasses import dataclass

from . import tensor as T
from .data import Utterance, load_features
from .errors import ImpossibleAlignmentError, ValidationError
from .model import (ATT_WEIGHT, CTC_WEIGHT, TAP_WEIGHT, AsrModel,
                    load_model, save_model)
from .nn import seed_dropout
from .optim import AdamW
from .rng import rng_for
from .serialization import metrics_row

TOY_DEPTHS = (2, 4, 6, 6, 6, 6, 6)
PAPER_DEPTHS = (8, 16, 24, 24, 24, 24, 24)
FRONTEND_SET = "frontend"
PLAN_KEYS = frozenset({"batch_max_frames"})
STAGE_KEYS = frozenset({"name", "depth", "languages", "fraction", "steps",
                        "freeze", "peak_lr", "warmup"})


@dataclass(frozen=True)
class Stage:
    name: str
    encoder_depth: int
    languages: tuple[str, ...] | None   # None means every language
    fraction: float = 1.0
    steps: int = 100
    freeze: tuple[str, ...] = (FRONTEND_SET,)
    peak_lr: float = 2e-3
    warmup: int = 40

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValidationError(
                f"stage {self.name!r}: fraction must be in (0, 1]")
        if self.steps < 1:
            raise ValidationError(f"stage {self.name!r}: steps must be >= 1")


@dataclass(frozen=True)
class StagePlan:
    stages: tuple[Stage, ...]
    batch_max_frames: int = 800

    def __post_init__(self):
        if not self.stages:
            raise ValidationError("a plan needs at least one stage")
        depths = [s.encoder_depth for s in self.stages]
        if any(b < a for a, b in zip(depths, depths[1:])):
            raise ValidationError("encoder depth must be non-decreasing")
        for s in self.stages[:-1]:
            if FRONTEND_SET not in s.freeze:
                raise ValidationError(
                    f"stage {s.name!r}: the frontend unfreezes only in "
                    f"the final stage")
        if self.stages[-1].freeze:
            raise ValidationError("the final stage must freeze nothing")


def _scaled(steps: int, scale: float) -> int:
    return max(1, int(round(steps * scale)))


def build_stage_plan(scale: str, languages: list[str],
                     steps_scale: float = 1.0,
                     batch_max_frames: int = 800) -> StagePlan:
    """The built-in 7-stage plans.

    "toy" uses depths (2,4,6,...) sized for synthetic corpora; "paper"
    uses depths (8,16,24,...).  Data filters move from one language over
    a small subset, through that language's full data and a multilingual
    subset, to everything; the frontend trains only in the last stage.
    Step budgets stand in for wall-clock durations and scale by
    steps_scale.
    """
    if scale == "toy":
        depths = TOY_DEPTHS
        steps = (120, 120, 160, 200, 200, 200, 260)
        lr = (3e-3, 3e-3, 3e-3, 2e-3, 2e-3, 2e-3, 1e-3)
    elif scale == "paper":
        depths = PAPER_DEPTHS
        steps = (2000, 2000, 4000, 8000, 8000, 8000, 8000)
        lr = (1e-3,) * 7
    else:
        raise ValidationError(f"unknown plan scale {scale!r}")
    if not languages:
        raise ValidationError("plan needs the corpus language list")
    first = tuple(languages[:1])
    every = None
    filters = [
        (first, 0.5),
        (first, 1.0),
        (every, 0.5),
        (every, 1.0),
        (every, 1.0),
        (every, 1.0),
        (every, 1.0),
    ]
    stages = []
    for i in range(7):
        langs, fraction = filters[i]
        stages.append(Stage(
            name=f"stage{i + 1}",
            encoder_depth=depths[i],
            languages=langs,
            fraction=fraction,
            steps=_scaled(steps[i], steps_scale),
            freeze=() if i == 6 else (FRONTEND_SET,),
            peak_lr=lr[i],
            warmup=max(10, _scaled(40, steps_scale)),
        ))
    return StagePlan(stages=tuple(stages),
                     batch_max_frames=batch_max_frames)


def load_stage_plan(path: str) -> StagePlan:
    """Read a plan from an INI file: one [stageN] section per stage plus
    an optional [plan] section with batch_max_frames.  A file that is
    not such a plan, or that holds a key outside PLAN_KEYS and
    STAGE_KEYS, raises ValidationError naming the path."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValidationError(f"bad stage plan {path!r}: {exc}") from None
    if not read:
        raise ValidationError(f"cannot read stage plan {path!r}")
    for section in parser.sections():
        known = PLAN_KEYS if section.lower() == "plan" else STAGE_KEYS
        unknown = sorted(set(parser[section]) - known)
        if unknown:
            raise ValidationError(
                f"unknown key {unknown[0]!r} in [{section}] of stage plan "
                f"{path!r}")
    stages = []
    names = [s for s in parser.sections() if s.lower() != "plan"]
    for section in names:
        sec = parser[section]
        try:
            langs_raw = sec.get("languages", "*").strip()
            languages = None if langs_raw == "*" else tuple(
                x.strip() for x in langs_raw.split(",") if x.strip())
            freeze_raw = sec.get("freeze", FRONTEND_SET).strip()
            freeze = () if freeze_raw in ("", "none") else tuple(
                x.strip() for x in freeze_raw.split(","))
            stages.append(Stage(
                name=sec.get("name", section),
                encoder_depth=int(sec["depth"]),
                languages=languages,
                fraction=float(sec.get("fraction", "1.0")),
                steps=int(sec.get("steps", "100")),
                freeze=freeze,
                peak_lr=float(sec.get("peak_lr", "2e-3")),
                warmup=int(sec.get("warmup", "40")),
            ))
        except (KeyError, ValueError, configparser.Error) as exc:
            raise ValidationError(
                f"bad stage section [{section}] in {path!r}: {exc}"
            ) from None
    batch_max = 800
    if parser.has_section("plan"):
        try:
            batch_max = int(parser["plan"].get("batch_max_frames", "800"))
        except (ValueError, configparser.Error) as exc:
            raise ValidationError(
                f"bad [plan] section in {path!r}: {exc}") from None
    return StagePlan(stages=tuple(stages), batch_max_frames=batch_max)


# ---------------------------------------------------------------------------
# data selection
# ---------------------------------------------------------------------------


def filter_corpus(utts: list[Utterance], stage: Stage, seed: int,
                  stage_index: int) -> list[Utterance]:
    """Apply the stage's language filter and deterministic subsample."""
    pool = [u for u in utts
            if stage.languages is None or u.language in stage.languages]
    if not pool:
        raise ValidationError(
            f"stage {stage.name!r}: no utterances match the data filter")
    if stage.fraction < 1.0:
        keep = max(1, int(round(len(pool) * stage.fraction)))
        order = rng_for(seed, "filter", str(stage_index)).permutation(
            len(pool))
        chosen = sorted(order[:keep])
        pool = [pool[i] for i in chosen]
    return pool


def make_buckets(utts: list[Utterance],
                 batch_max_frames: int) -> list[list[Utterance]]:
    """Length-bucketed batches capped by total frame count."""
    ordered = sorted(utts, key=lambda u: (u.num_frames, u.utt_id))
    buckets: list[list[Utterance]] = []
    current: list[Utterance] = []
    frames = 0
    for utt in ordered:
        if current and frames + utt.num_frames > batch_max_frames:
            buckets.append(current)
            current, frames = [], 0
        current.append(utt)
        frames += utt.num_frames
    if current:
        buckets.append(current)
    return buckets


def pick_batch(buckets: list[list[Utterance]], seed: int, stage_index: int,
               step: int) -> list[Utterance]:
    rng = rng_for(seed, "batch", str(stage_index), str(step))
    return buckets[int(rng.integers(len(buckets)))]


# ---------------------------------------------------------------------------
# training steps
# ---------------------------------------------------------------------------


def trainable_parameters(model: AsrModel, freeze: tuple[str, ...]
                         ) -> dict[str, T.Tensor]:
    """The parameters outside every frozen component; a freeze entry
    that names no model parameter raises ValidationError."""
    params = {}
    frozen = set()
    for name, p in model.named_parameters():
        hits = [f for f in freeze if name == f or name.startswith(f + ".")]
        if hits:
            frozen.update(hits)
        else:
            params[name] = p
    for f in freeze:
        if f not in frozen:
            raise ValidationError(
                f"freeze entry {f!r} names no model parameter")
    return params


def train_step(model: AsrModel, opt: AdamW, batch, features_by_id,
               seed: int, stage_index: int, step: int,
               frozen_latents: dict | None = None) -> dict:
    """One optimizer step over a batch; utterances whose label cannot be
    aligned are skipped and counted.

    frozen_latents: in a stage that freezes the frontend, the cache of
    its features by utterance id, filled by Frontend.extract_features on
    an utterance's first use; the frontend then stays out of the graph.
    None when the frontend trains.
    """
    seed_dropout(model, seed, str(stage_index), str(step))
    losses = []
    skipped = 0
    parts = {"ctc": 0.0, "att": 0.0, "taps": 0.0}
    for utt in batch:
        feat = features_by_id[utt.utt_id]
        if frozen_latents is None:
            latent = model.frontend.forward_latent(T.constant(feat.frames))
        else:
            if utt.utt_id not in frozen_latents:
                frozen_latents[utt.utt_id] = \
                    model.frontend.extract_features(feat)
            latent = T.constant(frozen_latents[utt.utt_id])
        try:
            comp = model.utterance_losses(latent, utt.transcript,
                                          utt.language)
        except ImpossibleAlignmentError:
            skipped += 1
            continue
        total = CTC_WEIGHT * comp["ctc"] + ATT_WEIGHT * comp["att"]
        parts["ctc"] += comp["ctc"].item()
        parts["att"] += comp["att"].item()
        if "taps" in comp:
            total = total + TAP_WEIGHT * comp["taps"]
            parts["taps"] += comp["taps"].item()
        losses.append(total)
    if not losses:
        return {"loss_total": float("nan"), "loss_ctc": float("nan"),
                "loss_att": float("nan"), "loss_taps": float("nan"),
                "lr": opt.current_lr, "skipped_samples": skipped}
    mean_loss = losses[0]
    for x in losses[1:]:
        mean_loss = mean_loss + x
    mean_loss = mean_loss * (1.0 / len(losses))
    model.zero_grad()
    T.backward(mean_loss)
    lr = opt.step()
    n = len(losses)
    return {
        "loss_total": mean_loss.item(),
        "loss_ctc": parts["ctc"] / n,
        "loss_att": parts["att"] / n,
        "loss_taps": parts["taps"] / n,
        "lr": lr,
        "skipped_samples": skipped,
    }


@dataclass
class CurriculumResult:
    model: AsrModel
    checkpoint_dirs: list[str]
    metrics_path: str
    final_dir: str


def _check_resume(path: str, state: dict, plan: StagePlan, seed: int
                  ) -> None:
    """Refuse to continue a different plan or seed from a checkpoint."""
    done = int(state["completed_stages"])
    if not 1 <= done <= len(plan.stages):
        raise ValidationError(
            f"{path!r} completed {done} stages; the plan has "
            f"{len(plan.stages)}")
    expected = plan.stages[done - 1].name
    if state.get("stage_name") != expected:
        raise ValidationError(
            f"{path!r} ends stage {state.get('stage_name')!r}; the plan's "
            f"stage {done} is {expected!r}")
    if state.get("seed") != seed:
        raise ValidationError(
            f"{path!r} was trained with seed {state.get('seed')!r}, "
            f"not {seed}")


def run_curriculum(model: AsrModel, utts: list[Utterance],
                   manifest_path: str, plan: StagePlan, seed: int,
                   out_dir: str, resume_from: str | None = None,
                   log_cb=None) -> CurriculumResult:
    """Execute the plan, checkpointing at every stage boundary.

    resume_from: a stage checkpoint directory written by an earlier run
    of the same plan and seed; training continues with the following
    stage on the model loaded from it, and `model` is not used.  A
    checkpoint whose seed, stage name or stage count does not fit this
    plan and seed raises ValidationError.  Either way the trained model
    is the result's `model`.
    """
    metrics_path = os.path.join(out_dir, "metrics.jsonl")

    start_stage = 0
    global_step = 0
    if resume_from is not None:
        model, state = load_model(resume_from)
        if state is None:
            raise ValidationError(
                f"{resume_from!r} has no training state to resume from")
        start_stage = int(state["completed_stages"])
        global_step = int(state["global_step"])
        _check_resume(resume_from, state, plan, seed)
    else:
        # start at the first stage's depth; deeper stages grow later
        model.encoder.grow(plan.stages[0].encoder_depth)
        if os.path.exists(metrics_path):
            os.remove(metrics_path)
    os.makedirs(out_dir, exist_ok=True)

    features_by_id = {
        u.utt_id: load_features(manifest_path, u) for u in utts}
    # the frontend cannot change while frozen (only the final stage may
    # unfreeze it), so its cached features hold for the frozen span; a
    # resumed run refills the cache with the same deterministic values
    frozen_latents = {}

    checkpoint_dirs = []
    metrics_fh = open(metrics_path, "a", encoding="utf-8")
    try:
        for si in range(start_stage, len(plan.stages)):
            stage = plan.stages[si]
            if stage.encoder_depth > model.encoder.depth:
                model.encoder.grow(stage.encoder_depth)
            pool = filter_corpus(utts, stage, seed, si)
            buckets = make_buckets(pool, plan.batch_max_frames)
            params = trainable_parameters(model, stage.freeze)
            opt = AdamW(params, peak_lr=stage.peak_lr, warmup=stage.warmup)
            latents = frozen_latents if FRONTEND_SET in stage.freeze \
                else None
            model.train()
            for step in range(stage.steps):
                batch = pick_batch(buckets, seed, si, step)
                metrics = train_step(model, opt, batch, features_by_id,
                                     seed, si, step, latents)
                global_step += 1
                row = {"stage": si + 1, "step": global_step, **metrics}
                metrics_fh.write(metrics_row(row) + "\n")
                if log_cb is not None:
                    log_cb(row)
            metrics_fh.flush()
            ckpt_dir = os.path.join(out_dir, f"stage{si + 1}")
            save_model(
                ckpt_dir, model,
                train_state={
                    "completed_stages": si + 1,
                    "global_step": global_step,
                    "stage_name": stage.name,
                    "seed": seed,
                })
            checkpoint_dirs.append(ckpt_dir)
    finally:
        metrics_fh.close()
    final_dir = checkpoint_dirs[-1] if checkpoint_dirs else resume_from
    return CurriculumResult(model=model, checkpoint_dirs=checkpoint_dirs,
                            metrics_path=metrics_path,
                            final_dir=final_dir)
