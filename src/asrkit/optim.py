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
    freezing is done by leaving parameters out.
    """

    def __init__(self, params: dict[str, Tensor], peak_lr: float = 1e-3,
                 warmup: int = 100):
        if warmup < 1:
            raise ValidationError("warmup must be at least 1")
        self.params = dict(params)
        self.peak_lr = peak_lr
        self.warmup = warmup
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
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.data = p.data - lr * update
        return lr
