"""AdamW with a warmup-then-inverse-sqrt learning-rate schedule."""

import numpy as np

from .errors import ValidationError
from .tensor import Tensor


def warmup_inv_sqrt(step: int, peak_lr: float, warmup: int) -> float:
    """Linear ramp to peak_lr over `warmup` steps, then 1/sqrt decay."""
    if step < 1:
        raise ValidationError("schedule step starts at 1")
    return peak_lr * min(step / warmup, (warmup / step) ** 0.5)


class AdamW(object):
    """Decoupled-weight-decay Adam over a named parameter dict.

    Only the parameters handed to the constructor are ever updated, so
    freezing is done by leaving parameters out.
    """

    def __init__(self, params: dict[str, Tensor], peak_lr: float = 1e-3,
                 warmup: int = 100, betas=(0.9, 0.98), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        if warmup < 1:
            raise ValidationError("warmup must be at least 1")
        self.params = dict(params)
        self.peak_lr = peak_lr
        self.warmup = warmup
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    @property
    def current_lr(self) -> float:
        return warmup_inv_sqrt(max(self.t, 1), self.peak_lr, self.warmup)

    def step(self) -> float:
        """Apply one update from the accumulated gradients; returns lr."""
        self.t += 1
        lr = warmup_inv_sqrt(self.t, self.peak_lr, self.warmup)
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = p.data - lr * update
        return lr
