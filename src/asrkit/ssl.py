"""Self-supervised frontend: a Conformer stack pretrained with masked
prediction plus a contrastive objective, then used as a frozen feature
extractor at 100 frames/sec.

Targets come from hard nearest-neighbor quantization of the raw frames
against a fixed codebook (initialized from data, stop-gradient
throughout).  The masked-prediction head classifies the code id of each
masked frame from the final block; the contrastive head scores the true
code's vector against codes drawn from other masked positions, read at
an intermediate block.
"""

import os
from dataclasses import asdict, dataclass

import numpy as np

from . import optim, serialization, tensor as T
from .errors import ValidationError
from .nn import (REL_BIAS_RADIUS, Dropout, FeedForward, LayerNorm, Linear,
                 Module, MultiHeadAttention, inference, parameter,
                 seed_dropout)
from .rng import rng_for
from .tensor import Tensor

FRAME_RATE = 100
# codes drawn from other masked positions per contrastive row
NUM_DISTRACTORS = 4


@dataclass(frozen=True)
class SslConfig:
    input_dim: int = 16
    hidden_dim: int = 64
    num_blocks: int = 4
    attention_heads: int = 4
    conv_kernel: int = 7
    dropout: float = 0.0
    mask_prob: float = 0.06
    mask_span: int = 4
    codebook_size: int = 8

    def __post_init__(self):
        if self.num_blocks < 1:
            raise ValidationError("num_blocks must be at least 1")
        if not 0.0 < self.mask_prob < 1.0:
            raise ValidationError("mask_prob must be in (0, 1)")
        if self.mask_span < 1:
            raise ValidationError("mask_span must be at least 1")
        if self.codebook_size < 2:
            raise ValidationError("codebook_size must be at least 2")
        if self.conv_kernel % 2 == 0:
            raise ValidationError("conv_kernel must be odd")

    @property
    def contrastive_tap_block(self) -> int:
        """The block whose output the contrastive head reads."""
        return max(1, self.num_blocks // 2)


@dataclass(frozen=True)
class AudioFeatures:
    """One utterance's feature matrix at the fixed 100 fps frame rate."""

    frames: np.ndarray  # (T, F) float32
    language: str = ""

    def __post_init__(self):
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise ValidationError(
                f"frames must be a (T>=1, F) matrix, got {self.frames.shape}")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


def span_mask_indices(T_len: int, rng: np.random.Generator,
                      mask_prob: float, mask_span: int) -> np.ndarray:
    """Each frame starts a span with probability mask_prob; spans of
    mask_span frames are unioned and clipped at the sequence end."""
    starts = np.nonzero(rng.random(T_len) < mask_prob)[0]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    idx = (starts[:, None] + np.arange(mask_span)[None, :]).ravel()
    return np.unique(idx[idx < T_len])


class ConvModule(Module):
    """Conformer convolution module: pointwise up, GLU gate, depthwise
    conv, layer norm, swish, pointwise down."""

    def __init__(self, dim: int, kernel: int, rng: np.random.Generator,
                 dropout: float = 0.0, zero_out: bool = False):
        super().__init__()
        self.pw_up = Linear(dim, 2 * dim, rng)
        self.dw_weight = parameter(
            rng.normal(0.0, 1.0 / np.sqrt(kernel),
                       size=(kernel, dim)).astype(np.float32))
        self.dw_bias = parameter(np.zeros(dim, dtype=np.float32))
        self.norm = LayerNorm(dim)
        self.pw_down = Linear(dim, dim, rng, zero_init=zero_out)
        self.drop = Dropout(dropout)

    def __call__(self, x: Tensor) -> Tensor:
        h = T.glu(self.pw_up(x), axis=-1)
        h = T.depthwise_conv1d(h, self.dw_weight, self.dw_bias)
        h = T.swish(self.norm(h))
        return self.pw_down(self.drop(h))


class ConformerBlock(Module):
    """Macaron block: half FFN, self-attention, convolution module,
    half FFN, each residual with pre-norm, then a final layer norm."""

    def __init__(self, cfg: SslConfig, rng: np.random.Generator):
        super().__init__()
        d = cfg.hidden_dim
        self.norm_ffn1 = LayerNorm(d)
        self.ffn1 = FeedForward(d, rng, cfg.dropout)
        self.norm_attn = LayerNorm(d)
        self.attn = MultiHeadAttention(
            d, cfg.attention_heads, rng,
            rel_bias_radius=REL_BIAS_RADIUS, dropout=cfg.dropout)
        self.norm_conv = LayerNorm(d)
        self.conv = ConvModule(d, cfg.conv_kernel, rng, cfg.dropout)
        self.norm_ffn2 = LayerNorm(d)
        self.ffn2 = FeedForward(d, rng, cfg.dropout)
        self.norm_out = LayerNorm(d)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.norm_out.gamma.shape[0]:
            raise ValidationError(
                f"conformer block expects dim {self.norm_out.gamma.shape[0]}, "
                f"got {x.shape[-1]}")
        x = x + 0.5 * self.ffn1(self.norm_ffn1(x))
        x = x + self.attn(self.norm_attn(x))
        x = x + self.conv(self.norm_conv(x))
        x = x + 0.5 * self.ffn2(self.norm_ffn2(x))
        return self.norm_out(x)


def quantize(frame_vecs: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Nearest code by Euclidean distance; ties break to the lowest id.

    Accepts a single (F,) vector or a (T, F) matrix.
    """
    single = frame_vecs.ndim == 1
    x = np.atleast_2d(np.asarray(frame_vecs, dtype=np.float64))
    cb = np.asarray(codebook, dtype=np.float64)
    d2 = ((x[:, None, :] - cb[None, :, :]) ** 2).sum(axis=2)
    ids = np.argmin(d2, axis=1)
    return int(ids[0]) if single else ids.astype(np.int64)


def masked_prediction_accuracy(logits: np.ndarray,
                               codes: np.ndarray) -> float:
    """Fraction of positions whose argmax logit hits the true code."""
    if logits.shape[0] == 0:
        return 0.0
    return float(np.mean(np.argmax(logits, axis=1) == codes))


class Frontend(Module):
    """The pretrainable feature extractor."""

    def __init__(self, cfg: SslConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        self.seed = seed
        rng = rng_for(seed, "frontend")
        self.input_proj = Linear(cfg.input_dim, cfg.hidden_dim, rng)
        self.blocks = [ConformerBlock(cfg, rng_for(seed, "frontend.block",
                                                   str(i)))
                       for i in range(cfg.num_blocks)]
        self.mask_emb = parameter(
            rng.normal(0.0, 0.1, size=(1, cfg.input_dim)).astype(np.float32))
        self.mlm_head = Linear(cfg.hidden_dim, cfg.codebook_size, rng)
        self.contrastive_head = Linear(cfg.hidden_dim, cfg.input_dim, rng)
        # state without requires_grad: checkpointed, never trained
        self.codebook = Tensor(
            rng.normal(0.0, 1.0,
                       size=(cfg.codebook_size, cfg.input_dim))
            .astype(np.float32))

    # -- forward paths ------------------------------------------------------

    def forward_latent(self, x: Tensor, tap: int | None = None):
        """Run the stack; optionally also return the output of block `tap`."""
        h = self.input_proj(x)
        tapped = None
        for i, block in enumerate(self.blocks, start=1):
            h = block(h)
            if tap is not None and i == tap:
                tapped = h
        return (h, tapped) if tap is not None else h

    def extract_features(self, feat: AudioFeatures) -> np.ndarray:
        """Deterministic eval-mode features, one row per input frame."""
        with inference(self):
            return self.forward_latent(T.constant(feat.frames)).data

    # -- pretraining pieces --------------------------------------------------

    def apply_span_mask(self, frames: np.ndarray, rng: np.random.Generator):
        """Replace random spans with the learned mask embedding.

        If the draw masks nothing, one redraw is made, after which a
        single span at frame 0 is forced.  Returns (masked frames as a
        Tensor so the embedding trains, sorted unique hidden indices).
        """
        cfg = self.cfg
        T_len = frames.shape[0]
        if T_len < cfg.mask_span:
            raise ValidationError(
                f"need at least mask_span={cfg.mask_span} frames, "
                f"got {T_len}")
        idx = span_mask_indices(T_len, rng, cfg.mask_prob, cfg.mask_span)
        if idx.size == 0:
            idx = span_mask_indices(T_len, rng, cfg.mask_prob, cfg.mask_span)
        if idx.size == 0:
            idx = np.arange(cfg.mask_span, dtype=np.int64)
        sel = np.zeros((T_len, 1), dtype=frames.dtype)
        sel[idx] = 1.0
        masked = (T.constant(frames * (1.0 - sel))
                  + self.mask_emb * T.constant(sel))
        return masked, idx

    def init_codebook(self, frame_pool: np.ndarray,
                      rng: np.random.Generator) -> None:
        """Seed the codebook with distinct random frames from the data."""
        K = self.cfg.codebook_size
        pool = np.asarray(frame_pool, dtype=np.float32)
        if pool.shape[0] >= K:
            pick = rng.choice(pool.shape[0], size=K, replace=False)
            book = pool[np.sort(pick)].copy()
        else:
            pick = rng.choice(pool.shape[0], size=K, replace=True)
            book = pool[pick] + rng.normal(
                0.0, 0.05, size=(K, pool.shape[1])).astype(np.float32)
        self.codebook.data = book

    def ssl_loss(self, feat: AudioFeatures, rng: np.random.Generator):
        """Masked-prediction + contrastive loss for one utterance, as a
        graph whose primitives do not depend on how many frames are masked.

        Returns (loss Tensor, metrics dict).
        """
        cfg = self.cfg
        frames = feat.frames
        masked_x, midx = self.apply_span_mask(frames, rng)
        codes = quantize(frames, self.codebook.data)
        mcodes = codes[midx]

        final, tapped = self.forward_latent(
            masked_x, tap=cfg.contrastive_tap_block)

        # masked prediction: classify the code id from the final block
        mlm_logits = self.mlm_head(T.embedding(final, midx))
        loss_mlm = T.cross_entropy(mlm_logits, mcodes)

        # contrastive: the true code vs NUM_DISTRACTORS codes of other masked
        # positions (of the codebook if one is masked).  A log-sum-exp over
        # these candidates is one over the K codes plus log(count), so one
        # product scores every row; the true codes' log counts are undone.
        cvecs = self.contrastive_head(T.embedding(tapped, midx))
        n_masked = midx.size
        if n_masked > 1:
            others = rng.integers(0, n_masked - 1,
                                  size=(n_masked, NUM_DISTRACTORS))
            others += others >= np.arange(n_masked)[:, None]
            distractors = mcodes[others]
        else:
            distractors = rng.integers(0, cfg.codebook_size,
                                       size=(1, NUM_DISTRACTORS))
        cand = np.concatenate([mcodes[:, None], distractors], axis=1)
        counts = (cand[:, :, None] == np.arange(cfg.codebook_size)).sum(1)
        with np.errstate(divide="ignore"):
            log_counts = np.log(counts, dtype=np.float32)
        book = self.codebook.data.T / np.float32(np.sqrt(cfg.input_dim))
        con_logits = T.matmul(cvecs, T.constant(book)) + T.constant(log_counts)
        loss_con = (T.cross_entropy(con_logits, mcodes)
                    + float(log_counts[np.arange(n_masked), mcodes].mean()))

        loss = loss_con + loss_mlm
        metrics = {
            "loss_mlm": loss_mlm.item(),
            "loss_contrastive": loss_con.item(),
            "masked_frames": n_masked,
            "masked_fraction": n_masked / frames.shape[0],
            "mlm_accuracy": masked_prediction_accuracy(
                mlm_logits.data, mcodes),
        }
        return loss, metrics


def pretrain(frontend: Frontend, utterances, steps: int, seed: int,
             peak_lr: float = 2e-3, warmup: int = 50,
             log_cb=None) -> list[dict]:
    """Pretrain on a list of AudioFeatures; returns per-step metrics.

    The codebook is initialized from a sample of the training frames on
    entry.  One utterance per step, chosen by a seeded stream; every
    dropout layer is reseeded each step.
    """
    if not utterances:
        raise ValidationError("pretraining needs at least one utterance")
    pool = np.concatenate([u.frames for u in utterances], axis=0)
    pool_rng = rng_for(seed, "ssl.codebook")
    sample = pool[pool_rng.choice(pool.shape[0],
                                  size=min(pool.shape[0], 4096),
                                  replace=False)]
    frontend.init_codebook(sample, pool_rng)

    params = dict(frontend.named_parameters("frontend"))
    opt = optim.AdamW(params, peak_lr=peak_lr, warmup=warmup)
    frontend.train()
    history = []
    for step in range(steps):
        pick_rng = rng_for(seed, "ssl.pick", str(step))
        utt = utterances[int(pick_rng.integers(len(utterances)))]
        seed_dropout(frontend, seed, "ssl", str(step))
        loss, metrics = frontend.ssl_loss(
            utt, rng_for(seed, "ssl.mask", str(step)))
        frontend.zero_grad()
        T.backward(loss)
        opt.step()
        metrics["step"] = step
        metrics["loss_total"] = loss.item()
        metrics["lr"] = opt.current_lr
        history.append(metrics)
        if log_cb is not None:
            log_cb(metrics)
    return history


def save_frontend(directory: str, frontend: Frontend) -> None:
    serialization.save_arrays(directory, frontend.named_state())
    serialization.save_json(
        directory, serialization.CONFIG_FILE,
        {"frontend": asdict(frontend.cfg), "seed": frontend.seed})


def load_frontend(directory: str) -> Frontend:
    cfg, seed = serialization.load_json_as(
        directory, serialization.CONFIG_FILE,
        lambda payload: (SslConfig(**payload["frontend"]),
                         int(payload.get("seed", 0))))
    frontend = Frontend(cfg, seed=seed)
    frontend.load_state(serialization.load_arrays(
        directory, check=frontend.check_state))
    return frontend


def eval_masked_accuracy(frontend: Frontend, utterances, seed: int,
                         draws: int = 1) -> float:
    """Average masked-prediction accuracy with fresh masks, no updates."""
    total, hits = 0, 0.0
    with inference(frontend):
        for d in range(draws):
            for i, utt in enumerate(utterances):
                rng = rng_for(seed, "ssl.eval", str(d), str(i))
                _, metrics = frontend.ssl_loss(utt, rng)
                hits += metrics["mlm_accuracy"] * metrics["masked_frames"]
                total += metrics["masked_frames"]
    return hits / max(total, 1)
