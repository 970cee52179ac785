"""End-to-end command-line pipeline and exit-code contract."""

import json
import os
import shutil

import numpy as np
import pytest

from asrkit import serialization
from asrkit.cli import main


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> pretrain -> train -> decode -> score, all through
    main(argv)."""
    root = tmp_path_factory.mktemp("cli")
    corpus = str(root / "corpus")
    fe_dir = str(root / "frontend")
    run_dir = str(root / "run")
    hyps = str(root / "hyps.jsonl")
    report_dir = str(root / "report")

    assert main(["gen-data", "--out-dir", corpus,
                 "--language", "en:0.002:ab",
                 "--language", "de:0.002:bc",
                 "--feature-dim", "8", "--tokens-per-second", "5",
                 "--noise-std", "0.05", "--min-sec", "1.0",
                 "--max-sec", "1.6", "--seed", "3"]) == 0

    manifest = os.path.join(corpus, "manifest.jsonl")
    vocab = os.path.join(corpus, "vocab.json")
    hours = os.path.join(corpus, "hours.jsonl")

    assert main(["pretrain", "--manifest", manifest, "--out-dir", fe_dir,
                 "--steps", "30", "--hidden-dim", "16",
                 "--num-blocks", "1", "--codebook-size", "4",
                 "--seed", "5"]) == 0

    plan = root / "plan.ini"
    plan.write_text("[plan]\nbatch_max_frames = 400\n\n"
                    "[stage1]\ndepth = 2\nsteps = 4\nwarmup = 2\n\n"
                    "[stage2]\ndepth = 3\nsteps = 4\nwarmup = 2\n"
                    "freeze = none\n")
    assert main(["train", "--manifest", manifest, "--vocab", vocab,
                 "--out-dir", run_dir, "--stage-plan", str(plan),
                 "--hidden-dim", "16", "--decoder-layers", "1",
                 "--frontend", fe_dir, "--seed", "7"]) == 0

    model_dir = os.path.join(run_dir, "stage2")
    assert main(["decode", "--model", model_dir, "--manifest", manifest,
                 "--out", hyps, "--beam", "2", "--max-len", "12",
                 "--language", "en"]) == 0

    assert main(["score", manifest, hyps, hours,
                 "--out-dir", report_dir]) == 0

    return {"root": root, "corpus": corpus, "manifest": manifest,
            "vocab": vocab, "hours": hours, "frontend": fe_dir,
            "run": run_dir, "model": model_dir, "hyps": hyps,
            "report": report_dir, "plan": str(plan)}


def test_gen_data_outputs(pipeline):
    for name in ("manifest.jsonl", "vocab.json", "hours.jsonl"):
        assert os.path.isfile(os.path.join(pipeline["corpus"], name))
    utts = read_jsonl(pipeline["manifest"])
    assert {u["language"] for u in utts} == {"en", "de"}
    feature_dir = os.path.join(pipeline["corpus"], "features")
    assert len(os.listdir(feature_dir)) == len(utts)


def test_pretrain_outputs(pipeline):
    rows = read_jsonl(os.path.join(pipeline["frontend"], "metrics.jsonl"))
    assert len(rows) == 30
    assert os.path.isfile(os.path.join(pipeline["frontend"], "params.bin"))


def test_train_outputs(pipeline):
    for stage in ("stage1", "stage2"):
        assert os.path.isdir(os.path.join(pipeline["run"], stage))
    rows = read_jsonl(os.path.join(pipeline["run"], "metrics.jsonl"))
    assert [r["stage"] for r in rows] == [1] * 4 + [2] * 4


def test_decode_outputs(pipeline):
    utts = read_jsonl(pipeline["manifest"])
    rows = read_jsonl(pipeline["hyps"])
    assert len(rows) == len(utts)
    for row in rows:
        for key in ("utt_id", "language", "text", "joint", "ctc", "att",
                    "truncated"):
            assert key in row
        assert "rank" not in row  # nbest=1
        assert row["joint"] == pytest.approx(
            0.3 * row["ctc"] + 0.7 * row["att"], abs=1e-9)


def test_decode_nbest_ranks(pipeline, tmp_path):
    out = str(tmp_path / "nbest.jsonl")
    assert main(["decode", "--model", pipeline["model"],
                 "--manifest", pipeline["manifest"], "--out", out,
                 "--beam", "3", "--nbest", "2", "--max-len", "8",
                 "--language", "en"]) == 0
    rows = read_jsonl(out)
    utts = read_jsonl(pipeline["manifest"])
    assert len(rows) == 2 * len(utts)
    assert {row["rank"] for row in rows} == {0, 1}
    # scoring keeps only the top hypothesis per utterance
    assert main(["score", pipeline["manifest"], out, pipeline["hours"],
                 "--out-dir", str(tmp_path)]) == 0
    payload = json.load(open(tmp_path / "report.json"))
    scored = sum(r["num_utterances"] for r in payload["per_language"])
    assert scored == len(utts)


def test_decode_with_adaptation(pipeline, tmp_path):
    out = str(tmp_path / "adapted.jsonl")
    assert main(["decode", "--model", pipeline["model"],
                 "--manifest", pipeline["manifest"], "--out", out,
                 "--beam", "2", "--max-len", "8", "--language", "en",
                 "--adapt-language", "en",
                 "--adapt-epsilon", "1e-4"]) == 0
    assert len(read_jsonl(out)) == len(read_jsonl(pipeline["manifest"]))


def test_decode_max_len_over_the_decoder_limit_exits_1(pipeline, tmp_path,
                                                       capsys):
    out = tmp_path / "long.jsonl"
    assert main(["decode", "--model", pipeline["model"],
                 "--manifest", pipeline["manifest"], "--out", str(out),
                 "--max-len", "300", "--language", "en"]) == 1
    assert "max_target_len" in capsys.readouterr().err
    assert not out.exists()


def test_decode_negative_max_len_exits_1(pipeline, tmp_path, capsys):
    out = tmp_path / "negative.jsonl"
    assert main(["decode", "--model", pipeline["model"],
                 "--manifest", pipeline["manifest"], "--out", str(out),
                 "--max-len", "-1"]) == 1
    assert "max_len" in capsys.readouterr().err
    assert not out.exists()


def test_decode_checkpoint_missing_an_array_exits_2(pipeline, tmp_path,
                                                    capsys):
    ckpt = tmp_path / "incomplete"
    shutil.copytree(pipeline["model"], ckpt)
    index = json.load(open(ckpt / "index.json"))
    del index["arrays"]["encoder.ctc_proj.weight"]
    json.dump(index, open(ckpt / "index.json", "w"))
    out = tmp_path / "h.jsonl"
    assert main(["decode", "--model", str(ckpt),
                 "--manifest", pipeline["manifest"],
                 "--out", str(out)]) == 2
    assert "encoder.ctc_proj.weight" in capsys.readouterr().err
    assert not out.exists()


def test_decode_index_entry_without_an_offset_exits_2(pipeline, tmp_path,
                                                      capsys):
    ckpt = tmp_path / "no-offset"
    shutil.copytree(pipeline["model"], ckpt)
    index = json.load(open(ckpt / "index.json"))
    del index["arrays"]["encoder.ctc_proj.weight"]["offset"]
    json.dump(index, open(ckpt / "index.json", "w"))
    out = tmp_path / "h.jsonl"
    assert main(["decode", "--model", str(ckpt),
                 "--manifest", pipeline["manifest"],
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "encoder.ctc_proj.weight" in err and "offset" in err
    assert not out.exists()


def test_inspect_index_entry_without_a_shape_exits_2(pipeline, tmp_path,
                                                     capsys):
    ckpt = tmp_path / "no-shape"
    shutil.copytree(pipeline["model"], ckpt)
    index = json.load(open(ckpt / "index.json"))
    del index["arrays"]["encoder.ctc_proj.weight"]["shape"]
    json.dump(index, open(ckpt / "index.json", "w"))
    assert main(["inspect-checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "encoder.ctc_proj.weight" in err and "shape" in err


def test_decode_checkpoint_with_a_nan_weight_exits_2(pipeline, tmp_path,
                                                     capsys):
    ckpt = tmp_path / "nan-weight"
    shutil.copytree(pipeline["model"], ckpt)
    arrays = serialization.load_arrays(str(ckpt))
    arrays["encoder.ctc_proj.weight"][0, 0] = np.nan
    serialization.save_arrays(str(ckpt), arrays)
    out = tmp_path / "h.jsonl"
    assert main(["decode", "--model", str(ckpt),
                 "--manifest", pipeline["manifest"], "--out", str(out),
                 "--max-len", "12", "--language", "en"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "NaN" in err
    assert not out.exists()


def add_unknown_encoder_field(text):
    # an older checkpoint still records the removed self_conditioning switch
    payload = json.loads(text)
    payload["encoder"]["self_conditioning"] = True
    return json.dumps(payload)


def add_removed_field(section, field):
    # configs written before these settings became constants record them
    def corrupt(text):
        payload = json.loads(text)
        payload[section][field] = 4
        return json.dumps(payload)
    return corrupt


def drop_frontend_section(text):
    payload = json.loads(text)
    del payload["frontend"]
    return json.dumps(payload)


BAD_CONFIGS = {
    "unknown_field": (add_unknown_encoder_field, "self_conditioning"),
    "encoder_tap_layers": (add_removed_field("encoder", "tap_layers"),
                           "tap_layers"),
    "frontend_num_distractors": (
        add_removed_field("frontend", "num_distractors"), "num_distractors"),
    "no_frontend": (drop_frontend_section, "missing field 'frontend'"),
    "not_json": (lambda text: text[: len(text) // 2], "not valid JSON"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_decode_checkpoint_with_a_bad_config_exits_2(pipeline, tmp_path,
                                                     capsys, case):
    corrupt, fault = BAD_CONFIGS[case]
    ckpt = tmp_path / "bad-config"
    shutil.copytree(pipeline["model"], ckpt)
    config = ckpt / "config.json"
    config.write_text(corrupt(config.read_text()))
    out = tmp_path / "h.jsonl"
    assert main(["decode", "--model", str(ckpt),
                 "--manifest", pipeline["manifest"],
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "config.json" in err and fault in err
    assert not out.exists()


def test_score_report(pipeline):
    payload = json.load(open(os.path.join(pipeline["report"],
                                          "report.json")))
    langs = [r["language"] for r in payload["per_language"]]
    assert langs == ["de", "en"]
    for row in payload["per_language"]:
        assert row["metric"] == "WER"
        assert row["rank"] == "Low"  # fractions of an hour
    assert os.path.isfile(os.path.join(pipeline["report"], "report.txt"))


BAD_SCORE_INPUTS = {
    "hyps_not_json": ("hyps", '{"utt_id": "a", "text": "x"\n',
                      ":1 is not valid JSON"),
    "hyps_not_an_object": ("hyps", "5\n", ":1 does not hold a JSON object"),
    "hours_not_a_number": (
        "hours", '{"language": "en", "hours": 1}\n'
                 '{"language": "de", "hours": "many"}\n',
        ":2 has hours 'many', not a number"),
    "hyps_text_a_number": ("hyps", '{"utt_id": "a", "text": 5}\n',
                           ":1 has text 5, not a string"),
    "hyps_text_a_list": ("hyps", '{"utt_id": "a", "text": ["x"]}\n',
                         ":1 has text ['x'], not a string"),
    "hyps_utt_id_a_list": ("hyps", '{"utt_id": ["a"], "text": "x"}\n',
                           ":1 has utt_id ['a'], not a string"),
    "refs_language_a_number": (
        "refs", '{"utt_id": "a", "text": "x", "language": 7}\n',
        ":1 has language 7, not a string"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCORE_INPUTS))
def test_score_with_a_bad_input_line_exits_1(pipeline, tmp_path, capsys,
                                             case):
    which, text, fault = BAD_SCORE_INPUTS[case]
    files = {"refs": pipeline["manifest"], "hyps": pipeline["hyps"],
             "hours": pipeline["hours"]}
    files[which] = str(tmp_path / f"{which}.jsonl")
    open(files[which], "w", encoding="utf-8").write(text)
    out = tmp_path / "report"
    assert main(["score", files["refs"], files["hyps"],
                 files["hours"], "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and files[which] + fault in err
    assert not out.exists()


def test_train_with_a_vocab_that_is_not_json_exits_1(pipeline, tmp_path,
                                                      capsys):
    vocab = tmp_path / "vocab.json"
    vocab.write_text("{not json")
    out = tmp_path / "run"
    assert main(["train", "--manifest", pipeline["manifest"],
                 "--vocab", str(vocab), "--out-dir", str(out),
                 "--stage-plan", pipeline["plan"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(vocab) in err
    assert not out.exists()


def test_train_with_a_plan_without_section_headers_exits_1(pipeline,
                                                          tmp_path, capsys):
    plan = tmp_path / "plan.ini"
    plan.write_text("depth = 2\n")
    out = tmp_path / "run"
    assert main(["train", "--manifest", pipeline["manifest"],
                 "--vocab", pipeline["vocab"], "--out-dir", str(out),
                 "--stage-plan", str(plan)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(plan) in err
    assert not out.exists()


def test_train_with_a_misspelled_plan_key_exits_1(pipeline, tmp_path,
                                                  capsys):
    plan = tmp_path / "plan.ini"
    plan.write_text("[stage1]\ndepth = 2\nstep = 4\nfreeze = none\n")
    out = tmp_path / "run"
    assert main(["train", "--manifest", pipeline["manifest"],
                 "--vocab", pipeline["vocab"], "--out-dir", str(out),
                 "--stage-plan", str(plan)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'step'" in err and str(plan) in err
    assert not out.exists()


def test_train_resume_with_another_seed_exits_1(pipeline, tmp_path, capsys):
    out = tmp_path / "resumed"
    assert main(["train", "--manifest", pipeline["manifest"],
                 "--vocab", pipeline["vocab"], "--out-dir", str(out),
                 "--stage-plan", pipeline["plan"], "--hidden-dim", "16",
                 "--decoder-layers", "1", "--frontend",
                 pipeline["frontend"], "--seed", "8", "--resume",
                 os.path.join(pipeline["run"], "stage1")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed 7" in err
    assert not out.exists()


def corpus_with_one_wider_file(pipeline, tmp_path):
    """A copy of the corpus whose last feature file has 10 dimensions
    per frame instead of 8, its frame count unchanged."""
    from asrkit.data import (load_manifest, read_feature_file,
                             resolve_features, write_feature_file)
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    manifest = str(corpus / "manifest.jsonl")
    last = load_manifest(manifest)[-1]
    path = resolve_features(manifest, last)
    frames = read_feature_file(path)
    write_feature_file(path, np.zeros((frames.shape[0], 10), np.float32))
    return manifest, last.utt_id


def test_pretrain_with_mixed_feature_dimensions_exits_1(pipeline, tmp_path,
                                                        capsys):
    manifest, utt_id = corpus_with_one_wider_file(pipeline, tmp_path)
    out = tmp_path / "fe"
    assert main(["pretrain", "--manifest", manifest, "--out-dir", str(out),
                 "--steps", "2", "--hidden-dim", "16", "--num-blocks", "1",
                 "--codebook-size", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and utt_id in err
    assert "10" in err and "8" in err
    assert not out.exists()


def test_train_with_mixed_feature_dimensions_exits_1(pipeline, tmp_path,
                                                     capsys):
    manifest, utt_id = corpus_with_one_wider_file(pipeline, tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--manifest", manifest,
                 "--vocab", pipeline["vocab"], "--out-dir", str(out),
                 "--stage-plan", pipeline["plan"], "--hidden-dim", "16",
                 "--decoder-layers", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and utt_id in err
    assert not out.exists()


def test_train_with_a_frontend_of_another_input_dim_exits_1(pipeline,
                                                            tmp_path,
                                                            capsys):
    from asrkit.ssl import Frontend, SslConfig, save_frontend
    fe_dir = tmp_path / "fe10"
    save_frontend(str(fe_dir), Frontend(SslConfig(
        input_dim=10, hidden_dim=16, num_blocks=1, codebook_size=4)))
    out = tmp_path / "run"
    assert main(["train", "--manifest", pipeline["manifest"],
                 "--vocab", pipeline["vocab"], "--out-dir", str(out),
                 "--stage-plan", pipeline["plan"], "--hidden-dim", "16",
                 "--decoder-layers", "1", "--frontend", str(fe_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(fe_dir) in err
    assert "8" in err and "10" in err
    assert not out.exists()


def test_train_checks_every_stage_freeze_before_training(pipeline,
                                                         tmp_path, capsys):
    plan = tmp_path / "plan.ini"
    plan.write_text("[stage1]\ndepth = 2\nsteps = 3\nwarmup = 2\n\n"
                    "[stage2]\ndepth = 3\nsteps = 3\nwarmup = 2\n"
                    "freeze = frontend, encodr\n\n"
                    "[stage3]\ndepth = 3\nsteps = 3\nwarmup = 2\n"
                    "freeze = none\n")
    out = tmp_path / "run"
    assert main(["train", "--manifest", pipeline["manifest"],
                 "--vocab", pipeline["vocab"], "--out-dir", str(out),
                 "--stage-plan", str(plan), "--hidden-dim", "16",
                 "--decoder-layers", "1", "--frontend",
                 pipeline["frontend"], "--seed", "7"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'encodr'" in err
    assert not (out / "stage1").exists()
    assert not (out / "metrics.jsonl").exists()


def test_pretrain_writes_a_nan_metric_as_null(pipeline, tmp_path,
                                              monkeypatch):
    from asrkit import ssl

    def one_nan_row(frontend, feats, steps, seed, peak_lr, log_cb):
        log_cb({"step": 1, "loss_total": float("nan"), "mlm_accuracy": 0.5})

    monkeypatch.setattr(ssl, "pretrain", one_nan_row)
    out = tmp_path / "fe"
    assert main(["pretrain", "--manifest", pipeline["manifest"],
                 "--out-dir", str(out), "--hidden-dim", "16",
                 "--num-blocks", "1", "--codebook-size", "4"]) == 0
    lines = open(out / "metrics.jsonl", encoding="utf-8").read()
    assert lines == ('{"loss_total": null, "mlm_accuracy": 0.5, '
                     '"step": 1}\n')


def test_train_resume(pipeline, tmp_path):
    out = str(tmp_path / "resumed")
    assert main(["train", "--manifest", pipeline["manifest"],
                 "--vocab", pipeline["vocab"], "--out-dir", out,
                 "--stage-plan", pipeline["plan"], "--hidden-dim", "16",
                 "--decoder-layers", "1", "--frontend",
                 pipeline["frontend"], "--seed", "7", "--resume",
                 os.path.join(pipeline["run"], "stage1")]) == 0
    a = open(os.path.join(pipeline["run"], "stage2", "params.bin"),
             "rb").read()
    b = open(os.path.join(out, "stage2", "params.bin"), "rb").read()
    assert a == b


def test_inspect_checkpoint(pipeline, capsys):
    assert main(["inspect-checkpoint", pipeline["model"]]) == 0
    out = capsys.readouterr().out
    assert "total:" in out
    assert "config:" in out
    assert "train state:" in out
    assert "encoder.blocks.0" in out


# -- exit codes ---------------------------------------------------------------


def test_unknown_flag_exits_1(capsys):
    assert main(["gen-data", "--no-such-flag"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_command_exits_1():
    assert main(["frobnicate"]) == 1


def test_missing_required_exits_1():
    assert main(["gen-data"]) == 1


def test_validation_error_exits_1(tmp_path, capsys):
    assert main(["gen-data", "--out-dir", str(tmp_path),
                 "--language", "en:abc"]) == 1
    assert "name:hours:charset" in capsys.readouterr().err


def test_runtime_error_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope")
    assert main(["decode", "--model", missing,
                 "--manifest", str(tmp_path / "m.jsonl"),
                 "--out", str(tmp_path / "h.jsonl")]) == 2
    assert "error" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "gen-data" in capsys.readouterr().out
