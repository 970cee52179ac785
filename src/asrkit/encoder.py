"""Encoder: strided convolutional subsampling (2x) followed by a stack of
E-Branchformer blocks with intermediate CTC taps.

Each block runs two branches on a shared layer-normed input — global
self-attention and a convolutional gating MLP — concatenates them, fuses
with a depthwise convolution plus linear merge, and finishes with a
residual feed-forward sub-layer and a final layer norm.

At each tap layer the encoder computes an intermediate CTC log-posterior
through a projection shared with the final CTC branch, optionally
reweights it toward a target language (inference only), and conditions
the following blocks on it through a zero-initialized feedback
projection.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .adapt import LanguageMask, apply_adaptation
from .errors import ValidationError
from .nn import (REL_BIAS_RADIUS, Dropout, FeedForward, LayerNorm, Linear,
                 Module, MultiHeadAttention, parameter)
from .rng import rng_for
from .tensor import Tensor

# depthwise kernel widths: cgMLP gate, branch merge, strided subsampling
CGMLP_KERNEL = 7
MERGE_KERNEL = 3
SUBSAMPLE_KERNEL = 3


def default_tap_layers(num_blocks: int) -> tuple[int, ...]:
    """Tap after blocks ceil(N/3) and ceil(2N/3), kept strictly inside
    the stack; at 24 blocks this is (8, 16)."""
    taps = {math.ceil(num_blocks / 3), math.ceil(2 * num_blocks / 3)}
    return tuple(sorted(t for t in taps if 1 <= t < num_blocks))


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int = 64
    hidden_dim: int = 64
    num_blocks: int = 6
    attention_heads: int = 4
    cgmlp_units: int = 64
    dropout: float = 0.0

    def __post_init__(self):
        if self.num_blocks < 1:
            raise ValidationError("num_blocks must be at least 1")

    @property
    def tap_layers(self) -> tuple[int, ...]:
        return default_tap_layers(self.num_blocks)


@dataclass
class EncoderOutput:
    latent: Tensor                       # (T', D) at 50 fps
    tap_log_posteriors: list[tuple[int, Tensor]]  # (block index, (T', V))
    final_log_posterior: Tensor          # (T', V) from the final CTC branch


class ConvSubsample(Module):
    """Strided conv (stride 2, same-padding) + swish + linear projection;
    maps T input frames to exactly ceil(T/2) latents."""

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.weight = parameter(
            rng.normal(0.0, 1.0 / np.sqrt(SUBSAMPLE_KERNEL * input_dim),
                       size=(SUBSAMPLE_KERNEL, input_dim, hidden_dim))
            .astype(np.float32))
        self.bias = parameter(np.zeros(hidden_dim, dtype=np.float32))
        self.proj = Linear(hidden_dim, hidden_dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[0] < 2:
            raise ValidationError(
                f"subsampling needs at least 2 frames, got {x.shape[0]}")
        h = T.conv1d(x, self.weight, self.bias, stride=2)
        return self.proj(T.swish(h))


class CgMlp(Module):
    """Convolutional gating MLP: up-project, split, depthwise-convolve one
    half, gate the other half with it elementwise, down-project."""

    def __init__(self, dim: int, units: int, rng: np.random.Generator,
                 dropout: float = 0.0):
        super().__init__()
        self.up = Linear(dim, 2 * units, rng)
        self.dw_weight = parameter(
            rng.normal(0.0, 1.0 / np.sqrt(CGMLP_KERNEL),
                       size=(CGMLP_KERNEL, units)).astype(np.float32))
        self.dw_bias = parameter(np.zeros(units, dtype=np.float32))
        self.down = Linear(units, dim, rng)
        self.drop = Dropout(dropout)
        self._units = units

    def __call__(self, x: Tensor) -> Tensor:
        u = self.up(x)
        a = u[:, : self._units]
        b = u[:, self._units:]
        gate = T.depthwise_conv1d(b, self.dw_weight, self.dw_bias)
        return self.down(self.drop(a * gate))


class EBranchformerBlock(Module):
    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator,
                 zero_merge: bool = False):
        super().__init__()
        d = cfg.hidden_dim
        self.norm_in = LayerNorm(d)
        self.attn = MultiHeadAttention(
            d, cfg.attention_heads, rng,
            rel_bias_radius=REL_BIAS_RADIUS, dropout=cfg.dropout)
        self.cgmlp = CgMlp(d, cfg.cgmlp_units, rng, cfg.dropout)
        self.merge_dw_weight = parameter(
            rng.normal(0.0, 1.0 / np.sqrt(MERGE_KERNEL),
                       size=(MERGE_KERNEL, 2 * d)).astype(np.float32))
        self.merge_dw_bias = parameter(np.zeros(2 * d, dtype=np.float32))
        self.merge_proj = Linear(2 * d, d, rng, zero_init=zero_merge)
        self.norm_ffn = LayerNorm(d)
        self.ffn = FeedForward(d, rng, cfg.dropout, zero_out=zero_merge)
        self.norm_out = LayerNorm(d)
        self.drop = Dropout(cfg.dropout)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.norm_in.gamma.shape[0]:
            raise ValidationError(
                f"block expects dim {self.norm_in.gamma.shape[0]}, "
                f"got {x.shape[-1]}")
        shared = self.norm_in(x)
        global_branch = self.attn(shared)
        local_branch = self.cgmlp(shared)
        cat = T.concat([global_branch, local_branch], axis=1)
        fused = cat + T.depthwise_conv1d(cat, self.merge_dw_weight,
                                         self.merge_dw_bias)
        x = x + self.drop(self.merge_proj(fused))
        x = x + self.ffn(self.norm_ffn(x))
        return self.norm_out(x)


class FeedbackLayer(Module):
    """Self-conditioning at one tap: add a zero-initialized projection of
    the tap posterior back into the hidden stream, then layer norm.

    While the projection is zero the layer only layer-norms the stream.
    """

    def __init__(self, vocab_size: int, dim: int):
        super().__init__()
        self.proj = Linear(vocab_size, dim, zero_init=True)
        self.norm = LayerNorm(dim)

    def __call__(self, hidden: Tensor, tap_log_post: Tensor) -> Tensor:
        # softmax of a normalized log-distribution is exactly the
        # distribution, so this accepts adapted posteriors unchanged
        return self.norm(hidden + self.proj(T.softmax(tap_log_post, axis=-1)))


class Encoder(Module):
    def __init__(self, cfg: EncoderConfig, vocab_size: int, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        self.vocab_size = vocab_size
        self.seed = seed
        self.subsample = ConvSubsample(
            cfg.input_dim, cfg.hidden_dim, rng_for(seed, "encoder.subsample"))
        self.blocks = [self._new_block(i, cfg) for i in range(cfg.num_blocks)]
        self.ctc_proj = Linear(cfg.hidden_dim, vocab_size,
                               rng_for(seed, "encoder.ctc_proj"))
        self.feedback = {
            str(t): FeedbackLayer(vocab_size, cfg.hidden_dim)
            for t in cfg.tap_layers
        }

    def _new_block(self, index: int, cfg: EncoderConfig,
                   zero_merge: bool = False) -> EBranchformerBlock:
        # the stream is named by absolute block index, so blocks added by
        # growth are initialized identically no matter when they appear
        return EBranchformerBlock(
            cfg, rng_for(self.seed, "encoder.block", str(index)),
            zero_merge=zero_merge)

    def encode(self, x: Tensor,
               adaptation: LanguageMask | None = None) -> EncoderOutput:
        """Subsample then run all blocks, collecting tap posteriors.

        `adaptation` reweights each tap posterior toward one language's
        tokens; it is inference-only.
        """
        if adaptation is not None:
            if self.training:
                raise ValidationError(
                    "language adaptation applies at inference only")
            if adaptation.weights.shape[0] != self.vocab_size:
                raise ValidationError(
                    f"adaptation mask covers {adaptation.weights.shape[0]} "
                    f"tokens, model has {self.vocab_size}")
        h = self.subsample(x)
        taps: list[tuple[int, Tensor]] = []
        for i, block in enumerate(self.blocks, start=1):
            h = block(h)
            if str(i) in self.feedback:
                tap = T.log_softmax(self.ctc_proj(h), axis=-1)
                if adaptation is not None:
                    adapted = apply_adaptation(tap.data, adaptation)
                    if adapted is not tap.data:
                        tap = T.constant(adapted)
                h = self.feedback[str(i)](h, tap)
                taps.append((i, tap))
        final = T.log_softmax(self.ctc_proj(h), axis=-1)
        return EncoderOutput(latent=h, tap_log_posteriors=taps,
                             final_log_posterior=final)

    def grow(self, new_depth: int) -> None:
        """Extend the stack to new_depth blocks in place.

        Existing blocks keep their parameters bit-exactly.  New blocks
        are freshly initialized with zeroed merge/FFN output projections,
        so right after growth they are near-identities.  Tap layers are
        recomputed for the new depth; feedback layers carry over where
        the tap index is unchanged and are freshly initialized otherwise.
        """
        old_depth = len(self.blocks)
        if new_depth < old_depth:
            raise ValidationError(
                f"cannot shrink the encoder from {old_depth} to {new_depth}")
        if new_depth == old_depth:
            return
        new_cfg = replace(self.cfg, num_blocks=new_depth)
        for i in range(old_depth, new_depth):
            self.blocks.append(self._new_block(i, new_cfg, zero_merge=True))
        old_feedback = self.feedback
        self.feedback = {}
        for t in new_cfg.tap_layers:
            key = str(t)
            if key in old_feedback:
                self.feedback[key] = old_feedback[key]
            else:
                self.feedback[key] = FeedbackLayer(self.vocab_size,
                                                   new_cfg.hidden_dim)
        self.cfg = new_cfg

    @property
    def depth(self) -> int:
        return len(self.blocks)
