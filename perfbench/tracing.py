"""Span tracer for the traced benchmark run.

Spans are recorded only from this package.  `Tracer.install` swaps a
timing wrapper in for each public asrkit callable named in TARGETS,
wherever an asrkit module holds a reference to it (a module attribute,
a name bound by `from x import y`, or a class attribute), and
`uninstall` puts the originals back.  The timed run never installs the
wrappers, so it executes asrkit exactly as a user does.

A span is [name, phase, main, start, end, parent, extra]:
  phase   the workload phase the benchmark (or the train_step wrapper)
          declared when the span opened, e.g. "train.d6" or "decode.b4";
  main    whether the span belongs to the workload's time-boxed load;
  parent  index of the enclosing span, -1 at the top;
  extra   a size the span carries (kernel cells, checkpoint bytes,
          parameters updated), or None.
"""

import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

NAME, PHASE, MAIN, START, END, PARENT, EXTRA = range(7)


def _kernel_cells_ctc_loss(args, kwargs, result):
    log_post, labels = args[0], args[1]
    return log_post.shape[0] * (2 * len(labels) + 1)


def _kernel_cells_prefix(args, kwargs, result):
    return args[0].shape[0] * args[0].shape[1]


def _kernel_cells_edit(args, kwargs, result):
    return len(args[0]) * len(args[1])


def _checkpoint_bytes(args, kwargs, result):
    directory = args[0]
    return sum(os.path.getsize(os.path.join(directory, f))
               for f in os.listdir(directory))


def _params_updated(args, kwargs, result):
    opt = args[0]
    return sum(1 for p in opt.params.values() if p.grad is not None)


# (module, attribute path, span name, extra-size function or "count").
# "count" targets are counted per phase instead of timed: they run
# thousands of times per step and a span each would swamp the trace.
TARGETS = (
    ("asrkit.tensor", "apply_primitive", "tensor.apply_primitive", "count"),
    ("asrkit.tensor", "backward", "tensor.backward", None),
    ("asrkit.nn", "Module.train", "nn.Module.mode_switch", None),
    ("asrkit.optim", "AdamW.step", "optim.AdamW.step", _params_updated),
    ("asrkit.ssl", "pretrain", "ssl.pretrain", None),
    ("asrkit.ssl", "Frontend.forward_latent",
     "ssl.Frontend.forward_latent", None),
    ("asrkit.ssl", "Frontend.ssl_loss", "ssl.Frontend.ssl_loss", None),
    ("asrkit.encoder", "Encoder.encode", "encoder.Encoder.encode", None),
    ("asrkit.encoder", "Encoder.grow", "encoder.Encoder.grow", None),
    ("asrkit.decoder", "Decoder.decode_step",
     "decoder.Decoder.decode_step", None),
    ("asrkit.decoder", "Decoder.teacher_forced_loss",
     "decoder.Decoder.teacher_forced_loss", None),
    ("asrkit.kernels", "ctc_loss_grad", "kernels.ctc_loss_grad",
     _kernel_cells_ctc_loss),
    ("asrkit.kernels", "ctc_prefix_all", "kernels.ctc_prefix_all",
     _kernel_cells_prefix),
    ("asrkit.kernels", "edit_counts", "kernels.edit_counts",
     _kernel_cells_edit),
    ("asrkit.beam", "joint_beam_search", "beam.joint_beam_search", None),
    ("asrkit.adapt", "apply_adaptation", "adapt.apply_adaptation", None),
    ("asrkit.model", "AsrModel.transcribe", "model.AsrModel.transcribe",
     None),
    ("asrkit.model", "AsrModel.utterance_losses",
     "model.AsrModel.utterance_losses", None),
    ("asrkit.curriculum", "run_curriculum", "curriculum.run_curriculum",
     None),
    ("asrkit.curriculum", "train_step", "curriculum.train_step", None),
    ("asrkit.serialization", "save_arrays", "serialization.save_arrays",
     _checkpoint_bytes),
    ("asrkit.serialization", "load_arrays", "serialization.load_arrays",
     None),
    ("asrkit.data", "gen_synthetic_corpus", "data.gen_synthetic_corpus",
     None),
    ("asrkit.data", "load_features", "data.load_features", None),
    ("asrkit.scoring", "normalize_text", "scoring.normalize_text", None),
    ("asrkit.scoring", "edit_distance", "scoring.edit_distance", None),
    ("asrkit.scoring", "score_corpus", "scoring.score_corpus", None),
)


class Tracer:
    """Collects spans and counts in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()   # (name, phase) -> calls
        self.phase = "setup"
        self.main = False
        # curriculum stage index -> phase name, set by the workload so
        # spans inside a train step carry the stage kind
        self.stage_phases: tuple[str, ...] = ()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    @contextmanager
    def section(self, phase: str, main: bool | None = None):
        """Declare the phase (and main/aux section) of enclosed work."""
        prev = self.phase, self.main
        self.phase = phase
        if main is not None:
            self.main = main
        try:
            yield
        finally:
            self.phase, self.main = prev

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.phase, self.main, time.perf_counter(),
                           None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _timed(self, name, fn, extra_fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if extra_fn is not None:
                tracer.spans[idx][EXTRA] = extra_fn(args, kwargs, result)
            return result
        return wrapper

    def _train_step(self, name, fn):
        tracer = self
        timed = self._timed(name, fn, None)

        def wrapper(*args, **kwargs):
            stage_index = kwargs.get("stage_index", args[5]
                                     if len(args) > 5 else None)
            phase = tracer.phase
            if stage_index is not None and stage_index < len(
                    tracer.stage_phases):
                phase = tracer.stage_phases[stage_index]
            with tracer.section(phase):
                return timed(*args, **kwargs)
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            counts[(name, tracer.phase)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        if self.installed:
            return
        for module_name, path, name, extra in TARGETS:
            module = sys.modules[module_name]
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                original = owner.__dict__[attr]
                owners = [owner]
            else:
                original = getattr(module, attr)
                owners = [m for key, m in list(sys.modules.items())
                          if (key == "asrkit" or key.startswith("asrkit."))
                          and m is not None
                          and any(v is original
                                  for v in vars(m).values())]
            if extra == "count":
                wrapped = self._counted(name, original)
            elif name == "curriculum.train_step":
                wrapped = self._train_step(name, original)
            else:
                wrapped = self._timed(name, original, extra)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._saved.append((owner, key, original))
                        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved = []
