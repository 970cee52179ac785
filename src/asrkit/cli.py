"""Command-line entry points.

Exit codes: 0 success, 1 validation error (including bad arguments),
2 any other runtime failure, a non-finite value inside the network
(FloatingPointError) among them.
"""

import argparse
import json
import os
import sys

from .errors import ValidationError, AsrkitError


class Parser(argparse.ArgumentParser):
    # bad flags must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_language_arg(raw: str):
    from .data import LanguageSpec
    parts = raw.split(":", 2)
    if len(parts) != 3:
        raise ValidationError(
            f"--language must look like name:hours:charset, got {raw!r}")
    name, hours, charset = parts
    try:
        hours_f = float(hours)
    except ValueError:
        raise ValidationError(
            f"--language {raw!r}: hours must be a number") from None
    return LanguageSpec(name=name, charset=charset, hours=hours_f)


def cmd_gen_data(args) -> int:
    from .data import SyntheticSpec, gen_synthetic_corpus
    spec = SyntheticSpec(
        languages=tuple(_parse_language_arg(x) for x in args.language),
        feature_dim=args.feature_dim,
        tokens_per_second=args.tokens_per_second,
        noise_std=args.noise_std,
        utt_min_sec=args.min_sec,
        utt_max_sec=args.max_sec,
        seed=args.seed,
    )
    manifest, vocab, hours = gen_synthetic_corpus(spec, args.out_dir)
    print(f"wrote {manifest}")
    print(f"wrote {vocab}")
    print(f"wrote {hours}")
    return 0


def cmd_pretrain(args) -> int:
    from .data import load_features, validate_manifest
    from .serialization import metrics_row
    from .ssl import Frontend, SslConfig, pretrain, save_frontend
    utts = validate_manifest(args.manifest)
    feats = [load_features(args.manifest, u) for u in utts]
    cfg = SslConfig(
        input_dim=feats[0].frames.shape[1],
        hidden_dim=args.hidden_dim,
        num_blocks=args.num_blocks,
        mask_prob=args.mask_prob,
        mask_span=args.mask_span,
        codebook_size=args.codebook_size,
    )
    frontend = Frontend(cfg, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    log_path = os.path.join(args.out_dir, "metrics.jsonl")
    with open(log_path, "w", encoding="utf-8") as fh:
        def log(row):
            fh.write(metrics_row(row) + "\n")
            if args.verbose and row["step"] % 50 == 0:
                print(f"step {row['step']} loss {row['loss_total']:.4f} "
                      f"acc {row['mlm_accuracy']:.3f}")
        pretrain(frontend, feats, steps=args.steps, seed=args.seed,
                 peak_lr=args.peak_lr, log_cb=log)
    save_frontend(args.out_dir, frontend)
    print(f"wrote frontend checkpoint to {args.out_dir}")
    return 0


def cmd_train(args) -> int:
    from .curriculum import (build_stage_plan, load_stage_plan,
                             run_curriculum)
    from .data import validate_manifest
    from .decoder import DecoderConfig
    from .encoder import EncoderConfig
    from .model import AsrModel, ModelConfig
    from .ssl import SslConfig, load_frontend
    from .vocab import load_vocab

    vocab = load_vocab(args.vocab)
    utts = validate_manifest(args.manifest, vocab)
    languages = sorted(vocab.languages)
    if args.stage_plan in ("toy", "paper"):
        plan = build_stage_plan(args.stage_plan, languages,
                                steps_scale=args.steps_scale,
                                batch_max_frames=args.batch_max_frames)
    else:
        plan = load_stage_plan(args.stage_plan)

    dim = _feature_dim(args.manifest, utts[0])
    pretrained = None
    if args.frontend is not None:
        pretrained = load_frontend(args.frontend)
        frontend_cfg = pretrained.cfg
        if frontend_cfg.input_dim != dim:
            raise ValidationError(
                f"features have {dim} dimensions per frame; the frontend "
                f"in {args.frontend!r} takes {frontend_cfg.input_dim}")
    else:
        frontend_cfg = SslConfig(input_dim=dim,
                                 hidden_dim=args.hidden_dim,
                                 num_blocks=args.frontend_blocks)
    cfg = ModelConfig(
        frontend=frontend_cfg,
        encoder=EncoderConfig(
            input_dim=frontend_cfg.hidden_dim,
            hidden_dim=args.hidden_dim,
            num_blocks=plan.stages[0].encoder_depth,
            dropout=args.dropout,
        ),
        decoder=DecoderConfig(hidden_dim=args.hidden_dim,
                              num_layers=args.decoder_layers,
                              dropout=args.dropout),
        seed=args.seed,
    )
    model = AsrModel(cfg, vocab)
    if pretrained is not None:
        model.frontend.load_state(pretrained.named_state())
    result = run_curriculum(model, utts, args.manifest, plan,
                            seed=args.seed, out_dir=args.out_dir,
                            resume_from=args.resume,
                            log_cb=_train_logger(args))
    print(f"final checkpoint: {result.final_dir}")
    print(f"metrics: {result.metrics_path}")
    return 0


def _feature_dim(manifest_path: str, utt) -> int:
    from .data import read_feature_header, resolve_features
    return read_feature_header(resolve_features(manifest_path, utt))[1]


def _train_logger(args):
    if not args.verbose:
        return None

    def log(row):
        if row["step"] % 20 == 0:
            print(f"stage {row['stage']} step {row['step']} "
                  f"loss {row['loss_total']:.4f} lr {row['lr']:.2e}")
    return log


def cmd_decode(args) -> int:
    from .adapt import build_language_mask
    from .beam import BeamConfig
    from .data import load_features, load_manifest
    from .model import load_model
    model, _ = load_model(args.model)
    utts = load_manifest(args.manifest)
    cfg = BeamConfig(beam_size=args.beam, lambda_ctc=args.lambda_ctc,
                     nbest=args.nbest, max_len=args.max_len)
    model.check_max_len(cfg, args.language)
    adaptation = None
    if args.adapt_language is not None:
        adaptation = build_language_mask(args.adapt_language, model.vocab,
                                         epsilon=args.adapt_epsilon)
    # every utterance decodes before --out is written, so a failure
    # part way leaves no partial file
    lines = []
    for utt in utts:
        feat = load_features(args.manifest, utt)
        results = model.transcribe(feat, cfg, language=args.language,
                                   adaptation=adaptation)
        for rank, res in enumerate(results):
            row = {
                "utt_id": utt.utt_id,
                "language": utt.language,
                "text": model.result_text(res),
                "joint": res.joint,
                "ctc": res.ctc,
                "att": res.att,
                "truncated": res.truncated,
            }
            if args.nbest > 1:
                row["rank"] = rank
            lines.append(json.dumps(row, sort_keys=True,
                                    ensure_ascii=False) + "\n")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    print(f"wrote {args.out} ({len(utts)} utterances)")
    return 0


def cmd_score(args) -> int:
    from .scoring import (load_hours, load_jsonl_rows, save_report,
                          score_corpus)
    refs = load_jsonl_rows(args.refs, ("utt_id", "language"))
    for row in refs:
        if "text" not in row:
            if "transcript" not in row:
                raise ValidationError(
                    f"reference {row['utt_id']!r} has no text")
            row["text"] = row["transcript"]
    hyps = load_jsonl_rows(args.hyps, ("utt_id", "text"))
    hyps = [h for h in hyps if h.get("rank", 0) == 0]
    hours = load_hours(args.hours)
    char_scored = frozenset(
        x.strip() for x in args.cer_languages.split(",") if x.strip())
    report = score_corpus(refs, hyps, hours=hours, char_scored=char_scored)
    txt_path, json_path = save_report(report, args.out_dir)
    print(report.render_text())
    print(f"wrote {txt_path}")
    print(f"wrote {json_path}")
    return 0


def cmd_inspect(args) -> int:
    from . import serialization
    arrays = serialization.load_index(args.checkpoint)
    total = 0
    for name in sorted(arrays):
        meta = arrays[name]
        count = 1
        for d in meta["shape"]:
            count *= d
        total += count
        shape = "x".join(str(d) for d in meta["shape"]) or "scalar"
        print(f"{name}  {shape}  {meta['dtype']}")
    print(f"total: {len(arrays)} arrays, {total} elements")
    for label, filename in (("config", serialization.CONFIG_FILE),
                            ("train state", serialization.STATE_FILE)):
        if os.path.isfile(os.path.join(args.checkpoint, filename)):
            print(f"{label}:")
            print(json.dumps(
                serialization.load_json(args.checkpoint, filename),
                indent=1, sort_keys=True))
    return 0


def build_parser() -> Parser:
    parser = Parser(prog="asrkit",
                    description="Desk-scale multilingual speech "
                                "recognition toolkit.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--language", action="append", required=True,
                   metavar="NAME:HOURS:CHARSET",
                   help="repeatable, e.g. en:0.02:abcdef")
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--tokens-per-second", type=int, default=10)
    p.add_argument("--noise-std", type=float, default=0.3)
    p.add_argument("--min-sec", type=float, default=1.0)
    p.add_argument("--max-sec", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="self-supervised frontend training")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--hidden-dim", type=int, default=64)
    p.add_argument("--num-blocks", type=int, default=4)
    p.add_argument("--codebook-size", type=int, default=8)
    p.add_argument("--mask-prob", type=float, default=0.06)
    p.add_argument("--mask-span", type=int, default=4)
    p.add_argument("--peak-lr", type=float, default=2e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="staged curriculum training")
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--stage-plan", default="toy",
                   help="toy, paper, or a path to an INI plan")
    p.add_argument("--steps-scale", type=float, default=1.0)
    p.add_argument("--batch-max-frames", type=int, default=800)
    p.add_argument("--hidden-dim", type=int, default=64)
    p.add_argument("--decoder-layers", type=int, default=2)
    p.add_argument("--frontend-blocks", type=int, default=4,
                   help="frontend depth when training from scratch")
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--frontend", default=None,
                   help="pretrained frontend checkpoint directory")
    p.add_argument("--resume", default=None,
                   help="stage checkpoint directory to continue from")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", help="joint CTC/attention beam search")
    p.add_argument("--model", required=True,
                   help="checkpoint directory")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="hypotheses JSONL path")
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--lambda-ctc", type=float, default=0.3,
                   dest="lambda_ctc")
    p.add_argument("--language", default=None,
                   help="decoder language prompt token")
    p.add_argument("--adapt-language", default=None,
                   help="reweight encoder taps toward this language")
    p.add_argument("--adapt-epsilon", type=float, default=1e-4)
    p.add_argument("--nbest", type=int, default=1)
    p.add_argument("--max-len", type=int, default=64)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("score", help="error-rate report")
    p.add_argument("refs", help="JSONL with utt_id, text, language")
    p.add_argument("hyps", help="JSONL with utt_id, text")
    p.add_argument("hours", help="JSONL with language, hours")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--cer-languages", default="ja,zh,yue",
                   help="comma list of character-scored languages")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("inspect-checkpoint",
                       help="list checkpoint arrays and metadata")
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AsrkitError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout consumer (head, less) went away mid-print
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
