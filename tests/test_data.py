import filecmp
import json
import os

import numpy as np
import pytest

from asrkit.data import (LanguageSpec, SyntheticSpec, Utterance,
                           gen_synthetic_corpus, load_manifest,
                           read_feature_file,
                           read_feature_header, save_manifest,
                           validate_manifest, write_feature_file)
from asrkit.errors import ValidationError
from asrkit.vocab import load_vocab


def small_spec(seed=0, **overrides):
    base = dict(
        languages=(LanguageSpec("en", "ab", 0.003),
                   LanguageSpec("de", "bc", 0.003)),
        feature_dim=4, tokens_per_second=10, noise_std=0.2, seed=seed,
        utt_min_sec=0.5, utt_max_sec=1.0)
    base.update(overrides)
    return SyntheticSpec(**base)


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            path = os.path.join(dirpath, f)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    frames = rng.normal(size=(13, 5)).astype(np.float32)
    path = str(tmp_path / "x.bin")
    write_feature_file(path, frames)
    assert np.array_equal(read_feature_file(path), frames)
    assert read_feature_header(path) == (13, 5)


def test_truncated_feature_file_rejected(tmp_path):
    path = str(tmp_path / "x.bin")
    write_feature_file(path, np.zeros((4, 3), dtype=np.float32))
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-2])
    with pytest.raises(ValidationError):
        read_feature_file(path)


def test_generation_is_byte_identical(tmp_path):
    gen_synthetic_corpus(small_spec(seed=9), str(tmp_path / "a"))
    gen_synthetic_corpus(small_spec(seed=9), str(tmp_path / "b"))
    a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"{name} differs between runs"


def test_different_seed_changes_output(tmp_path):
    gen_synthetic_corpus(small_spec(seed=1), str(tmp_path / "a"))
    gen_synthetic_corpus(small_spec(seed=2), str(tmp_path / "b"))
    a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
    assert a[os.path.join("features", sorted(os.listdir(
        tmp_path / "a" / "features"))[0])] != b[os.path.join(
            "features", sorted(os.listdir(tmp_path / "b" / "features"))[0])]


def test_hours_accounting(tmp_path):
    spec = small_spec(seed=4)
    manifest, _, hours_path = gen_synthetic_corpus(spec, str(tmp_path))
    utts = load_manifest(manifest)
    per_lang = {}
    for u in utts:
        per_lang[u.language] = per_lang.get(u.language, 0.0) + u.duration_sec
    recorded = {row["language"]: row["hours"]
                for row in map(json.loads, open(hours_path))}
    for lang_spec in spec.languages:
        total = per_lang[lang_spec.name] / 3600.0
        assert total >= lang_spec.hours
        assert total - lang_spec.hours <= spec.utt_max_sec / 3600.0
        assert recorded[lang_spec.name] == pytest.approx(total)


def test_manifest_round_trip_and_validation(tmp_path):
    manifest, vocab_path, _ = gen_synthetic_corpus(small_spec(seed=5),
                                                   str(tmp_path))
    utts = validate_manifest(manifest, load_vocab(vocab_path))
    assert len(utts) >= 2
    copy_path = str(tmp_path / "copy.jsonl")
    save_manifest(copy_path, utts)
    assert open(copy_path).read() == open(manifest).read()


def test_duplicate_utt_id_rejected(tmp_path):
    manifest, _, _ = gen_synthetic_corpus(small_spec(seed=6), str(tmp_path))
    lines = open(manifest).readlines()
    open(manifest, "a").write(lines[0])
    with pytest.raises(ValidationError):
        load_manifest(manifest)


def test_frame_count_mismatch_rejected(tmp_path):
    manifest, _, _ = gen_synthetic_corpus(small_spec(seed=7), str(tmp_path))
    utts = load_manifest(manifest)
    bad = Utterance(utt_id=utts[0].utt_id,
                    features_path=utts[0].features_path,
                    num_frames=utts[0].num_frames + 1,
                    transcript=utts[0].transcript,
                    language=utts[0].language,
                    duration_sec=(utts[0].num_frames + 1) / 100.0)
    save_manifest(manifest, [bad] + utts[1:])
    with pytest.raises(ValidationError):
        validate_manifest(manifest)


def test_an_empty_manifest_is_rejected(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("")
    with pytest.raises(ValidationError, match="no utterances"):
        validate_manifest(str(manifest))


def test_transcript_outside_charset_rejected(tmp_path):
    manifest, vocab_path, _ = gen_synthetic_corpus(small_spec(seed=8),
                                                   str(tmp_path))
    utts = load_manifest(manifest)
    bad = Utterance(utt_id="zz", features_path=utts[0].features_path,
                    num_frames=utts[0].num_frames, transcript="zzz",
                    language=utts[0].language,
                    duration_sec=utts[0].duration_sec)
    save_manifest(manifest, utts + [bad])
    with pytest.raises(ValidationError):
        validate_manifest(manifest, load_vocab(vocab_path))


def test_zero_hours_rejected():
    with pytest.raises(ValidationError):
        LanguageSpec("en", "ab", 0.0)


def test_bad_charset_rejected():
    with pytest.raises(ValidationError):
        LanguageSpec("en", "", 1.0)
    with pytest.raises(ValidationError):
        LanguageSpec("en", "aab", 1.0)


def test_tokens_per_second_must_divide_frame_rate():
    with pytest.raises(ValidationError):
        small_spec(tokens_per_second=7)


def test_duration_bounds_validated():
    with pytest.raises(ValidationError):
        small_spec(utt_min_sec=2.0, utt_max_sec=1.0)

