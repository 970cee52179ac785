"""Hash every artefact of one small seeded pipeline, to show that a
change meant to be exact leaves outputs bit-identical.

Run from the repository root, once on each commit to compare:

    python3 benchmarks/exact.py --seed 1 --dropout 1

The pipeline: a synthetic bilingual corpus, the test-suite model
sizes, a short pretrain, the 7-stage toy plan at a small steps_scale
(growth, frozen stages and the unfrozen final stage), then beam-4 and
beam-1 decodes of the held-out utterances.  --dropout 0 sets every
dropout rate to 0; --dropout 1 keeps the test-suite rates, so the
dropout streams are covered too.

One line per artefact: the frontend state with the pretrain history,
the stage checkpoints, the final model's named_state(), metrics.jsonl,
and the hypotheses with their joint/ctc/att scores.  Hashes depend on
the CPU, the BLAS and the kernel backend (printed first), so compare
only runs made on one machine; no hash is golden.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CORPUS_SPEC = dict(feature_dim=8, tokens_per_second=5, noise_std=0.05,
                   template_scale=1.5, utt_min_sec=1.2, utt_max_sec=2.4)
LANGUAGES = (("en", "abcd", 0.012), ("de", "cdef", 0.012))
FRONTEND_CFG = dict(input_dim=8, hidden_dim=32, num_blocks=2,
                    attention_heads=2, mask_prob=0.12, mask_span=4,
                    codebook_size=8, dropout=0.1)
ENCODER_CFG = dict(input_dim=32, hidden_dim=32, num_blocks=2,
                   attention_heads=2, cgmlp_units=32, dropout=0.1)
DECODER_CFG = dict(hidden_dim=32, num_layers=1, attention_heads=2,
                   dropout=0.4)
TRAIN_UTTS_PER_LANG = 8
HELD_UTTS_PER_LANG = 2
PRETRAIN_STEPS = 20
STEPS_SCALE = 0.02
MAX_LEN = 8
ARTEFACTS = ("frontend", "checkpoints", "model", "metrics", "hyps")


def _hash_state(h, state: dict) -> None:
    for name in sorted(state):
        arr = state[name]
        h.update(f"{name} {arr.dtype.str} {arr.shape}\n".encode())
        h.update(arr.tobytes())


def _hash_files(h, directory: str) -> None:
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\n")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())


def run(seed: int, dropout: bool, work_dir: str) -> dict[str, str]:
    """Run the pipeline under work_dir; returns a hex digest per name in
    ARTEFACTS."""
    from asrkit.beam import BeamConfig
    from asrkit.curriculum import build_stage_plan, run_curriculum
    from asrkit.data import (LanguageSpec, SyntheticSpec,
                             gen_synthetic_corpus, load_features,
                             load_manifest, save_manifest)
    from asrkit.decoder import DecoderConfig
    from asrkit.encoder import EncoderConfig
    from asrkit.model import AsrModel, ModelConfig
    from asrkit.ssl import Frontend, SslConfig, pretrain
    from asrkit.vocab import load_vocab

    rate = {} if dropout else {"dropout": 0.0}
    frontend_cfg = SslConfig(**{**FRONTEND_CFG, **rate})
    spec = SyntheticSpec(
        languages=tuple(LanguageSpec(*lang) for lang in LANGUAGES),
        seed=seed, **CORPUS_SPEC)
    corpus_dir = os.path.join(work_dir, "corpus")
    manifest, vocab_path, _ = gen_synthetic_corpus(spec, corpus_dir)
    train, held = [], []
    for lang, *_ in LANGUAGES:
        utts = [u for u in load_manifest(manifest) if u.language == lang]
        train.extend(utts[:TRAIN_UTTS_PER_LANG])
        held.extend(utts[TRAIN_UTTS_PER_LANG:
                         TRAIN_UTTS_PER_LANG + HELD_UTTS_PER_LANG])
    train_manifest = os.path.join(corpus_dir, "train.jsonl")
    save_manifest(train_manifest, train)
    digests = {name: hashlib.sha256() for name in ARTEFACTS}

    frontend = Frontend(frontend_cfg, seed=seed)
    history = pretrain(frontend, [load_features(manifest, u) for u in train],
                       steps=PRETRAIN_STEPS, seed=seed)
    _hash_state(digests["frontend"], frontend.named_state())
    digests["frontend"].update(json.dumps(history, sort_keys=True).encode())

    vocab = load_vocab(vocab_path)
    model = AsrModel(ModelConfig(
        frontend=frontend_cfg,
        encoder=EncoderConfig(**{**ENCODER_CFG, **rate}),
        decoder=DecoderConfig(**{**DECODER_CFG, **rate}),
        seed=seed), vocab)
    model.frontend.load_state(frontend.named_state())
    plan = build_stage_plan("toy", sorted(vocab.languages),
                            steps_scale=STEPS_SCALE, batch_max_frames=400)
    result = run_curriculum(model, train, train_manifest, plan, seed=seed,
                            out_dir=os.path.join(work_dir, "run"))
    for directory in result.checkpoint_dirs:
        digests["checkpoints"].update(
            os.path.basename(directory).encode() + b"\n")
        _hash_files(digests["checkpoints"], directory)
    _hash_state(digests["model"], result.model.named_state())
    with open(result.metrics_path, "rb") as fh:
        digests["metrics"].update(fh.read())

    for beam in (4, 1):
        cfg = BeamConfig(beam_size=beam, max_len=MAX_LEN)
        for utt in held:
            for res in result.model.transcribe(load_features(manifest, utt),
                                               cfg):
                digests["hyps"].update(
                    f"{beam} {utt.utt_id} {res.tokens} {res.joint.hex()} "
                    f"{res.ctc.hex()} {res.att.hex()}\n".encode())
    return {name: d.hexdigest() for name, d in digests.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--dropout", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from asrkit import kernels
    print(f"seed {args.seed} dropout {args.dropout} "
          f"backend {kernels.BACKEND}")
    with tempfile.TemporaryDirectory() as work_dir:
        for name, digest in run(args.seed, bool(args.dropout),
                                work_dir).items():
            print(f"{name:<12} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
