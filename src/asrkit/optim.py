"""AdamW with a warmup-then-inverse-sqrt learning-rate schedule."""

import numpy as np

from .errors import ValidationError
from .tensor import Tensor


def warmup_inv_sqrt(step: int, peak_lr: float, warmup: int) -> float:
    """Linear ramp to peak_lr over `warmup` steps, then 1/sqrt decay."""
    if step < 1:
        raise ValidationError("schedule step starts at 1")
    return peak_lr * min(step / warmup, (warmup / step) ** 0.5)


BETA1 = 0.9
BETA2 = 0.98
EPS = 1e-8


class AdamW(object):
    """Adam over a named parameter dict, with the fixed moment decays
    BETA1 and BETA2 and EPS.  The weight decay is 0, so the update is
    plain Adam.

    Only the parameters handed to the constructor are ever updated, so
    freezing is done by leaving parameters out.  Those with a gradient
    at the first step fix the layout of the moments `m` and `v`, one
    flat float32 array each, and every step updates them with
    whole-array operations; each one rounds element by element, so the
    result is that of a per-parameter loop bit for bit.  A parameter
    without a gradient neither moves nor decays its moments; a step
    whose parameters with a gradient differ from the first step's
    raises ValidationError.

    Between steps the optimizer holds `m` and `v` only: the flat
    gradient and the update are allocated inside step(), once backward
    has freed the graph.  A gradient with a NaN or an infinity raises
    FloatingPointError naming the first such parameter, before the step
    count, the moments or any weight change.
    """

    def __init__(self, params: dict[str, Tensor], peak_lr: float = 1e-3,
                 warmup: int = 100):
        if warmup < 1:
            raise ValidationError("warmup must be at least 1")
        self.params = dict(params)
        self.peak_lr = peak_lr
        self.warmup = warmup
        self.t = 0
        # the names with a gradient at the first step, and each one's
        # (tensor, start, end) in the flat layout
        self._names = None
        self._layout = []

    @property
    def current_lr(self) -> float:
        return warmup_inv_sqrt(max(self.t, 1), self.peak_lr, self.warmup)

    def _build_layout(self, live: list[str]) -> None:
        self._names = live
        end = 0
        for name in live:
            p = self.params[name]
            self._layout.append((p, end, end + p.data.size))
            end += p.data.size
        self.m = np.zeros(end, dtype=np.float32)
        self.v = np.zeros(end, dtype=np.float32)

    def step(self) -> float:
        """Apply one update from the accumulated gradients; returns lr."""
        live = [n for n, p in self.params.items() if p.grad is not None]
        if self._names is None:
            self._build_layout(live)
        elif live != self._names:
            raise ValidationError(
                "the parameters with a gradient changed between steps")
        g = np.empty(self.m.size, dtype=np.float32)
        np.concatenate([p.grad.ravel() for p, _, _ in self._layout], out=g)
        if not np.isfinite(g).all():
            bad = next(name for name, (_, start, end)
                       in zip(self._names, self._layout)
                       if not np.isfinite(g[start:end]).all())
            raise FloatingPointError(
                f"non-finite gradient for parameter {bad!r}")
        self.t += 1
        lr = warmup_inv_sqrt(self.t, self.peak_lr, self.warmup)
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        m, v = self.m, self.v
        a = np.empty_like(g)
        m *= BETA1
        np.multiply(1.0 - BETA1, g, out=a)
        m += a
        v *= BETA2
        np.multiply(g, g, out=a)
        a *= 1.0 - BETA2
        v += a
        # a = lr * (m / bc1) / (sqrt(v / bc2) + EPS), the denominator in g
        np.divide(m, bc1, out=a)
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += EPS
        a /= g
        a *= lr
        for p, start, end in self._layout:
            p.data = p.data - a[start:end].reshape(p.data.shape)
        return lr
