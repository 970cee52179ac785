"""Transformer decoder: causal self-attention over the token prefix,
cross-attention over encoder latents, next-token log-probabilities.

Target sequences are wrapped as <sos>, <lang:xx>, characters..., <eos>;
the language token gives explicit language control at decode time.
Positions are fixed sinusoidal embeddings added to the token embedding.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import EncoderOutput
from .errors import ValidationError
from .nn import (Dropout, Embedding, FeedForward, LayerNorm, Linear, Module,
                 MultiHeadAttention, inference, sinusoidal_positions)
from .rng import rng_for
from .tensor import Tensor


@dataclass(frozen=True)
class DecoderConfig:
    hidden_dim: int = 64
    num_layers: int = 2
    attention_heads: int = 4
    dropout: float = 0.0
    max_target_len: int = 256

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValidationError("decoder needs at least one layer")


class DecoderLayer(Module):
    def __init__(self, cfg: DecoderConfig, rng: np.random.Generator):
        super().__init__()
        d = cfg.hidden_dim
        self.norm_self = LayerNorm(d)
        self.self_attn = MultiHeadAttention(
            d, cfg.attention_heads, rng, causal=True, dropout=cfg.dropout)
        self.norm_cross = LayerNorm(d)
        self.cross_attn = MultiHeadAttention(
            d, cfg.attention_heads, rng, dropout=cfg.dropout)
        self.norm_ffn = LayerNorm(d)
        self.ffn = FeedForward(d, rng, cfg.dropout)

    def __call__(self, x: Tensor, memory: Tensor) -> Tensor:
        x = x + self.self_attn(self.norm_self(x))
        x = x + self.cross_attn(self.norm_cross(x), kv=memory)
        x = x + self.ffn(self.norm_ffn(x))
        return x


class Decoder(Module):
    def __init__(self, cfg: DecoderConfig, vocab_size: int, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        self.vocab_size = vocab_size
        rng = rng_for(seed, "decoder")
        self.embed = Embedding(vocab_size, cfg.hidden_dim, rng)
        self.layers = [DecoderLayer(cfg, rng_for(seed, "decoder.layer",
                                                 str(i)))
                       for i in range(cfg.num_layers)]
        self.norm_out = LayerNorm(cfg.hidden_dim)
        self.out_proj = Linear(cfg.hidden_dim, vocab_size, rng)
        self.drop = Dropout(cfg.dropout)
        self._positions = sinusoidal_positions(cfg.max_target_len,
                                               cfg.hidden_dim)

    def forward_logits(self, memory: Tensor, ids) -> Tensor:
        """Next-token logits at every position of the id sequence."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise ValidationError("decoder input must be a non-empty id list")
        if ids.size > self.cfg.max_target_len:
            raise ValidationError(
                f"prefix of length {ids.size} exceeds max_target_len="
                f"{self.cfg.max_target_len}")
        x = self.embed(ids) + T.constant(self._positions[: ids.size])
        x = self.drop(x)
        for layer in self.layers:
            x = layer(x, memory)
        return self.out_proj(self.norm_out(x))

    def decode_step(self, enc: EncoderOutput, prefix) -> np.ndarray:
        """Eval-mode log-probabilities of the next token after `prefix`.

        A decoder in training mode is switched to eval for the call and
        back; one already in eval mode (as under AsrModel.transcribe) is
        used as it is.
        """
        with inference(self):
            logits = self.forward_logits(enc.latent, prefix)
            logp = T.log_softmax(logits[logits.shape[0] - 1:, :], axis=-1)
        return logp.data.reshape(-1).astype(np.float64)

    def teacher_forced_loss(self, enc: EncoderOutput, target) -> Tensor:
        """Mean cross-entropy over the shifted wrapped target.

        `target` must already be wrapped: sos, language token,
        characters..., eos; at least one character is required.
        """
        target = np.asarray(target, dtype=np.int64)
        if target.size < 4:
            raise ValidationError(
                "wrapped target must be sos, language, >=1 character, eos")
        logits = self.forward_logits(enc.latent, target[:-1])
        return T.cross_entropy(logits, target[1:])
