"""CTC: loss and prefix scoring.

The loss is a registered autodiff primitive backed by the kernel layer
(compiled when available); the posteriors that share one label, such as
the final layer's and the intermediate taps', are scored by one kernel
call.  Prefix scoring is pure inference math used by the joint beam
search; it carries per-hypothesis state arrays.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ImpossibleAlignmentError, ValidationError
from .tensor import Tensor, apply_primitive, register_primitive

register_primitive("ctc_loss")


def min_frames(labels) -> int:
    """Fewest frames that admit an alignment: one per label plus one
    blank between each adjacent repeat."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0
    repeats = int(np.sum(labels[1:] == labels[:-1]))
    return int(labels.size) + repeats


def ctc_losses(log_posts: list[Tensor], labels) -> list[Tensor]:
    """Negative log-probability of `labels` under each CTC posterior.

    log_posts: (T, V) log-posteriors of one shape with blank at id 0,
               e.g. the final layer's and the intermediate taps'.
    labels:    integer ids, none of them blank.

    One kernel call scores the whole stack; each loss is still its own
    "ctc_loss" primitive carrying its own gradient.
    """
    shape = log_posts[0].shape
    if any(lp.shape != shape for lp in log_posts):
        raise ValidationError("CTC posteriors of one label must share a shape")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValidationError("labels must be a 1-D id sequence")
    if labels.size and (labels.min() < 1 or labels.max() >= shape[1]):
        raise ValidationError(
            "labels must be non-blank ids within the vocabulary")
    need = min_frames(labels)
    if shape[0] < need:
        raise ImpossibleAlignmentError(
            f"label of length {labels.size} needs at least {need} frames, "
            f"got {shape[0]}")
    loss_vals, grads = kernels.ctc_loss_grad(
        np.stack([lp.data.astype(np.float64, copy=False)
                  for lp in log_posts]), labels)
    return [_ctc_record(lp, loss_val, grad)
            for lp, loss_val, grad in zip(log_posts, loss_vals, grads)]


def _ctc_record(log_post: Tensor, loss_val, grad: np.ndarray) -> Tensor:
    # the rule keeps the gradient in the posterior's dtype, not the
    # posterior itself
    out = np.asarray(loss_val, dtype=log_post.dtype)
    grad = grad.astype(log_post.dtype, copy=False)

    def bwd(g):
        return (g * grad,)

    return apply_primitive("ctc_loss", (log_post,), out, bwd)


def ctc_loss(log_post: Tensor, labels) -> Tensor:
    """ctc_losses for one (T, V) posterior."""
    return ctc_losses([log_post], labels)[0]


@dataclass
class PrefixState:
    """CTC prefix-scoring state for one hypothesis prefix.

    r[t, 0] / r[t, 1] are the log-probabilities that frames 0..t emit
    exactly this prefix with the last frame non-blank / blank.
    """

    r: np.ndarray            # (T, 2) float64
    last: int                # final token id, -1 for the empty prefix

    @property
    def empty(self) -> bool:
        return self.last < 0


def ctc_prefix_initial(log_post: np.ndarray) -> PrefixState:
    """State of the empty prefix: any run of blanks emits it."""
    log_post = np.asarray(log_post, dtype=np.float64)
    T = log_post.shape[0]
    r = np.full((T, 2), -np.inf)
    r[:, 1] = np.cumsum(log_post[:, 0])
    return PrefixState(r=r, last=-1)


def ctc_prefix_extend_all(log_post: np.ndarray, state: PrefixState):
    """Score every one-token extension of a prefix.

    Returns (psi: (V,) log prefix scores, r_new: (V, T, 2) state arrays).
    The blank column is meaningless (prefixes never contain blank).
    """
    return kernels.ctc_prefix_all(
        np.asarray(log_post, dtype=np.float64), state.last, state.r,
        state.empty)


def ctc_complete_logprob(state: PrefixState) -> float:
    """Log-probability that the CTC output equals the prefix exactly."""
    T = state.r.shape[0]
    return float(np.logaddexp(state.r[T - 1, 0], state.r[T - 1, 1]))
