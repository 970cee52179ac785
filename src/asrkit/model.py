"""The assembled recognizer: frontend -> encoder -> {CTC branch, decoder}."""

import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import serialization, tensor as T
from .adapt import LanguageMask
from .beam import BeamConfig, BeamResult, joint_beam_search, prefix_head
from .ctc import ctc_losses, min_frames
from .decoder import Decoder, DecoderConfig
from .encoder import Encoder, EncoderConfig, EncoderOutput
from .errors import ValidationError
from .nn import Module, inference
from .ssl import AudioFeatures, Frontend, SslConfig
from .tensor import Tensor
from .vocab import Vocab, save_vocab

CTC_WEIGHT = 0.3
ATT_WEIGHT = 0.7
TAP_WEIGHT = 0.5


@dataclass(frozen=True)
class ModelConfig:
    frontend: SslConfig
    encoder: EncoderConfig
    decoder: DecoderConfig
    seed: int = 0

    def __post_init__(self):
        if self.encoder.input_dim != self.frontend.hidden_dim:
            raise ValidationError(
                "encoder input_dim must equal the frontend hidden_dim")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        return cls(frontend=SslConfig(**payload["frontend"]),
                   encoder=EncoderConfig(**payload["encoder"]),
                   decoder=DecoderConfig(**payload["decoder"]),
                   seed=payload.get("seed", 0))


class AsrModel(Module):
    def __init__(self, cfg: ModelConfig, vocab: Vocab):
        super().__init__()
        self.cfg = cfg
        self.vocab = vocab
        self.frontend = Frontend(cfg.frontend, seed=cfg.seed)
        self.encoder = Encoder(cfg.encoder, vocab.size, seed=cfg.seed)
        self.decoder = Decoder(cfg.decoder, vocab.size, seed=cfg.seed)

    # -- forward -------------------------------------------------------------

    def encode(self, feat: AudioFeatures,
               adaptation: LanguageMask | None = None) -> EncoderOutput:
        latent = self.frontend.forward_latent(T.constant(feat.frames))
        return self.encoder.encode(latent, adaptation=adaptation)

    def wrapped_target(self, text: str, language: str) -> np.ndarray:
        chars = self.vocab.encode_transcript(text, language)
        if not chars:
            raise ValidationError("empty transcript")
        return np.array([self.vocab.sos_id, self.vocab.lang_id(language)]
                        + chars + [self.vocab.eos_id], dtype=np.int64)

    def aligns(self, num_frames: int, text: str, language: str) -> bool:
        """Whether CTC can align the label of `text` to the encoder
        frames of a num_frames-frame input: utterance_losses raises
        ImpossibleAlignmentError exactly when it cannot."""
        labels = self.vocab.encode_transcript(text, language)
        return min_frames(labels) <= \
            self.encoder.subsample.out_frames(num_frames)

    def utterance_losses(self, latent: Tensor, text: str,
                         language: str) -> dict[str, Tensor]:
        """Loss components for one utterance from its frontend latent
        (no weighting applied)."""
        labels = np.asarray(self.vocab.encode_transcript(text, language),
                            dtype=np.int64)
        enc = self.encoder.encode(latent)
        ctc, *taps = ctc_losses(
            [enc.final_log_posterior]
            + [tap for _, tap in enc.tap_log_posteriors], labels)
        out = {
            "ctc": ctc,
            "att": self.decoder.teacher_forced_loss(
                enc, self.wrapped_target(text, language)),
        }
        if taps:
            acc = taps[0]
            for t in taps[1:]:
                acc = acc + t
            out["taps"] = acc * (1.0 / len(taps))
        return out

    # -- inference -------------------------------------------------------------

    def transcribe(self, feat: AudioFeatures, cfg: BeamConfig,
                   language: str | None = None,
                   adaptation: LanguageMask | None = None
                   ) -> list[BeamResult]:
        self.check_max_len(cfg, language)
        with inference(self):
            enc = self.encode(feat, adaptation=adaptation)

            def decode_fn(prefix):
                return self.decoder.decode_step(enc, np.asarray(prefix))

            return joint_beam_search(
                enc.final_log_posterior.data.astype(np.float64),
                decode_fn, self.vocab, cfg, language=language)

    def check_max_len(self, cfg: BeamConfig, language: str | None = None
                      ) -> None:
        """Reject a max_len whose longest decoder prefix the decoder
        cannot take, before any decoding starts."""
        longest = cfg.max_len + len(prefix_head(self.vocab, language))
        if longest > self.decoder.cfg.max_target_len:
            raise ValidationError(
                f"max_len={cfg.max_len} allows decoder prefixes of "
                f"{longest} ids, over max_target_len="
                f"{self.decoder.cfg.max_target_len}")

    def result_text(self, result: BeamResult) -> str:
        return self.vocab.decode_ids(result.tokens)


def save_model(directory: str, model: AsrModel,
               train_state: dict | None = None) -> None:
    """Write a checkpoint: exactly model.named_state(), the live config,
    the vocabulary, and train_state when given."""
    serialization.save_arrays(directory, model.named_state())
    # the live encoder config: growth deepens the encoder past model.cfg
    cfg = replace(model.cfg, encoder=model.encoder.cfg)
    serialization.save_json(directory, serialization.CONFIG_FILE,
                            cfg.to_dict())
    save_vocab(os.path.join(directory, serialization.VOCAB_FILE),
               model.vocab)
    if train_state is not None:
        serialization.save_json(directory, serialization.STATE_FILE,
                                train_state)


def load_model(directory: str) -> tuple[AsrModel, dict | None]:
    """Rebuild a model from a checkpoint directory.

    Returns (model, train_state), train_state being None when the
    checkpoint has none.  config.json and vocab.json must build a model
    and its vocabulary, and the checkpoint's arrays must match the
    model's state name for name and shape for shape; CheckpointError
    names the fault otherwise.
    """
    cfg = serialization.load_json_as(directory, serialization.CONFIG_FILE,
                                     ModelConfig.from_dict)
    vocab = serialization.load_json_as(directory, serialization.VOCAB_FILE,
                                       Vocab.from_dict)
    model = AsrModel(cfg, vocab)
    model.load_state(serialization.load_arrays(directory,
                                               check=model.check_state))
    train_state = None
    if os.path.isfile(os.path.join(directory, serialization.STATE_FILE)):
        train_state = serialization.load_json(directory,
                                              serialization.STATE_FILE)
    return model, train_state
