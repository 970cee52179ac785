"""Per-layer metrics from a traced run's spans and counts.

Layers are the asrkit modules; a span's layer is the first part of its
name.  Self time is a span's duration minus the time its child spans
cover.  A layer's share is its self time within the load part of the
traced round, over that part's wall time; "untraced" is the part no
span covers (the benchmark's loop and the program between spans).
"""

from collections import defaultdict

import numpy as np

from tracing import END, EXTRA, MAIN, NAME, PARENT, PHASE, START

TRAIN_PHASES = ("train.d2", "train.d6", "train.unfrozen")
DECODE_PHASES = ("decode.b4", "decode.b1")
LAYERS = ("tensor", "nn", "optim", "ssl", "encoder", "decoder", "kernels",
          "beam", "adapt", "model", "curriculum", "serialization", "data",
          "scoring")


class SpanStats:
    def __init__(self, tracer):
        self.spans = tracer.spans
        self.counts = tracer.counts
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self.self_s = [s[END] - s[START] - c
                       for s, c in zip(self.spans, child)]
        self.by_name = defaultdict(list)
        for i, s in enumerate(self.spans):
            self.by_name[s[NAME]].append(i)

    def select(self, name, phases=None):
        return [i for i in self.by_name.get(name, ())
                if phases is None or self.spans[i][PHASE] in phases]

    def calls(self, name, phases=None) -> int:
        return len(self.select(name, phases))

    def ms(self, name, phases=None) -> float:
        return 1e3 * sum(self.spans[i][END] - self.spans[i][START]
                         for i in self.select(name, phases))

    def self_ms(self, name, phases=None) -> float:
        return 1e3 * sum(self.self_s[i] for i in self.select(name, phases))

    def durations_ms(self, name, phases=None) -> list:
        return [1e3 * (self.spans[i][END] - self.spans[i][START])
                for i in self.select(name, phases)]

    def extra(self, name, phases=None) -> float:
        return float(sum(self.spans[i][EXTRA] or 0
                         for i in self.select(name, phases)))

    def counted(self, name, phases) -> int:
        return sum(self.counts[(name, p)] for p in phases)

    def layer_self_ms(self, main=True) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for s, own in zip(self.spans, self.self_s):
            if s[MAIN] == main:
                layer = s[NAME].split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + 1e3 * own
        return out


def _div(a, b) -> float:
    return float(a) / b if b else 0.0


def _p90(values) -> float:
    return float(np.percentile(values, 90)) if values else 0.0


def scored_utterance_ms(st: SpanStats) -> list:
    """Per-utterance scoring time inside score_corpus: the normalize
    spans since the previous edit distance plus the edit distance."""
    out, pending = [], 0.0
    for i in sorted(st.select("scoring.normalize_text", ("score",))
                    + st.select("scoring.edit_distance", ("score",))):
        s = st.spans[i]
        pending += s[END] - s[START]
        if s[NAME] == "scoring.edit_distance":
            out.append(1e3 * pending)
            pending = 0.0
    return out


def per_layer_metrics(tracer, run, decode_first, cer_b4, ms_b4, ms_b1,
                      kernel_ms) -> tuple:
    """Return ({name: (value, unit)}, {layer: self ms in the traced load})."""
    st = SpanStats(tracer)
    steps = st.calls("curriculum.train_step", TRAIN_PHASES)
    requests = st.calls("model.AsrModel.transcribe", DECODE_PHASES)
    b4 = st.calls("model.AsrModel.transcribe", ("decode.b4",))
    scored = st.calls("scoring.edit_distance", ("score",))
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    put("tensor.backward.ms_per_step",
        _div(st.ms("tensor.backward", TRAIN_PHASES), steps), "ms")
    put("tensor.apply_primitive.calls_per_step",
        _div(st.counted("tensor.apply_primitive", TRAIN_PHASES), steps),
        "count")
    put("tensor.apply_primitive.calls_per_utt",
        _div(st.counted("tensor.apply_primitive", DECODE_PHASES), requests),
        "count")
    put("nn.Module.mode_switch.calls_per_utt",
        _div(st.calls("nn.Module.mode_switch", DECODE_PHASES), requests),
        "count")
    put("nn.Module.mode_switch.ms_per_utt",
        _div(st.ms("nn.Module.mode_switch", DECODE_PHASES), requests), "ms")
    put("optim.AdamW.step.ms_per_step",
        _div(st.ms("optim.AdamW.step", TRAIN_PHASES), steps), "ms")
    put("optim.AdamW.params_updated",
        _div(st.extra("optim.AdamW.step", TRAIN_PHASES),
             st.calls("optim.AdamW.step", TRAIN_PHASES)), "count")
    fl = "ssl.Frontend.forward_latent"
    for label, phases in (("frozen", ("train.d2", "train.d6")),
                          ("unfrozen", ("train.unfrozen",)),
                          ("decode", DECODE_PHASES)):
        put(f"{fl}.ms_per_call.{label}",
            _div(st.ms(fl, phases), st.calls(fl, phases)), "ms")
    put("ssl.Frontend.ssl_loss.ms_per_step",
        _div(st.ms("ssl.Frontend.ssl_loss", ("pretrain",)),
             st.calls("ssl.Frontend.ssl_loss", ("pretrain",))), "ms")
    enc = "encoder.Encoder.encode"
    put(f"{enc}.ms_per_call.train",
        _div(st.ms(enc, TRAIN_PHASES), st.calls(enc, TRAIN_PHASES)), "ms")
    put(f"{enc}.ms_per_call.decode",
        _div(st.ms(enc, DECODE_PHASES), st.calls(enc, DECODE_PHASES)), "ms")
    put("encoder.Encoder.grow.ms",
        _div(st.ms("encoder.Encoder.grow"),
             st.calls("curriculum.run_curriculum")), "ms")
    put("decoder.Decoder.teacher_forced_loss.ms_per_step",
        _div(st.ms("decoder.Decoder.teacher_forced_loss", TRAIN_PHASES),
             steps), "ms")
    ds = "decoder.Decoder.decode_step"
    put(f"{ds}.calls_per_utt", _div(st.calls(ds, ("decode.b4",)), b4),
        "count")
    put(f"{ds}.ms_per_call",
        _div(st.ms(ds, ("decode.b4",)), st.calls(ds, ("decode.b4",))), "ms")
    for kernel in ("ctc_loss_grad", "ctc_prefix_all", "edit_counts"):
        name = f"kernels.{kernel}"
        calls = st.calls(name)
        put(f"{name}.calls", calls, "count")
        put(f"{name}.ms_per_call", _div(st.ms(name), calls), "ms")
        put(f"{name}.cells_per_s",
            _div(st.extra(name), st.ms(name) / 1e3), "cells/s")
        put(f"kernels.bench.{kernel}.ms", kernel_ms[kernel], "ms")
    put("kernels.ctc_prefix_all.calls_per_utt",
        _div(st.calls("kernels.ctc_prefix_all", ("decode.b4",)), b4),
        "count")
    put("beam.joint_beam_search.self_ms_per_utt",
        _div(st.self_ms("beam.joint_beam_search", ("decode.b4",)), b4),
        "ms")
    put("beam.hyp_ref_len_ratio",
        _div(decode_first.hyp_units, decode_first.ref_units), "ratio")
    put("beam.cer_b4", cer_b4, "ratio")
    put("beam.decode_ms_b4.p90", _p90(ms_b4), "ms")
    put("beam.decode_ms_b1.p90", _p90(ms_b1), "ms")
    ad = "adapt.apply_adaptation"
    put(f"{ad}.calls", st.calls(ad, DECODE_PHASES), "count")
    put(f"{ad}.ms_per_call",
        _div(st.ms(ad, DECODE_PHASES), st.calls(ad, DECODE_PHASES)), "ms")
    put("model.AsrModel.transcribe.self_ms_per_utt",
        _div(st.self_ms("model.AsrModel.transcribe", DECODE_PHASES),
             requests), "ms")
    ul = "model.AsrModel.utterance_losses"
    put(f"{ul}.ms_per_utt",
        _div(st.ms(ul, TRAIN_PHASES), st.calls(ul, TRAIN_PHASES)), "ms")
    for label in ("d2", "d6", "unfrozen"):
        put(f"curriculum.train_step.{label}.p90",
            _p90(st.durations_ms("curriculum.train_step",
                                 (f"train.{label}",))), "ms")
    put("curriculum.skipped_samples", run.skipped, "count")
    sa = "serialization.save_arrays"
    put(f"{sa}.ms_per_checkpoint", _div(st.ms(sa), st.calls(sa)), "ms")
    put(f"{sa}.bytes_per_checkpoint",
        _div(st.extra(sa), st.calls(sa)), "bytes")
    la = "serialization.load_arrays"
    put(f"{la}.ms", _div(st.ms(la), st.calls(la)), "ms")
    gen = "data.gen_synthetic_corpus"
    put(f"{gen}.s", _div(st.ms(gen) / 1e3, st.calls(gen)), "s")
    lf = "data.load_features"
    put(f"{lf}.ms_per_utt", _div(st.ms(lf), st.calls(lf)), "ms")
    put("scoring.normalize_text.ms_per_utt",
        _div(st.ms("scoring.normalize_text", ("score",)), scored), "ms")
    put("scoring.edit_distance.ms_per_utt",
        _div(st.ms("scoring.edit_distance", ("score",)), scored), "ms")
    put("scoring.utt_ms.p90", _p90(scored_utterance_ms(st)), "ms")
    put("trace.overhead_frac",
        run.traced_round_s / float(np.median(run.round_s)) - 1.0, "ratio")
    put("failed_frac", _div(run.failed, run.attempted), "ratio")

    layer_ms = st.layer_self_ms(main=True)
    wall_ms = 1e3 * run.traced_load_s
    for layer in LAYERS:
        put(f"share.{layer}", _div(layer_ms[layer], wall_ms), "ratio")
    put("share.untraced", 1.0 - _div(sum(layer_ms.values()), wall_ms),
        "ratio")
    return m, layer_ms
