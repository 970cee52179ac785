"""Kernel dispatch: compiled extension when available, numpy otherwise.

Set ASRKIT_PURE=1 to force the pure-python backend (useful for
debugging and for benchmarking the two against each other).

On either backend ctc_loss_grad takes one (T, V) posterior or a
(K, T, V) stack sharing one label.  The compiled kernel takes (T, V)
only, so a stack goes through it one posterior at a time.
"""

import os

import numpy as np

from . import pure

if os.environ.get("ASRKIT_PURE") == "1":
    _backend = pure
    BACKEND = "pure"
else:
    try:
        from . import _ctc_ext as _backend
        BACKEND = "compiled"
    except ImportError:
        _backend = pure
        BACKEND = "pure"


def stacked_ctc_loss_grad(kernel_2d):
    """ctc_loss_grad with the (K, T, V) form, from a kernel that takes
    one (T, V) posterior: one call per posterior."""
    def ctc_loss_grad(log_post, labels):
        if np.ndim(log_post) == 2:
            return kernel_2d(log_post, labels)
        pairs = [kernel_2d(lp, labels) for lp in log_post]
        return (np.array([loss for loss, _ in pairs]),
                np.stack([grad for _, grad in pairs]))
    return ctc_loss_grad


ctc_loss_grad = pure.ctc_loss_grad if _backend is pure \
    else stacked_ctc_loss_grad(_backend.ctc_loss_grad)
ctc_prefix_all = _backend.ctc_prefix_all
edit_counts = _backend.edit_counts

__all__ = ["BACKEND", "ctc_loss_grad", "ctc_prefix_all", "edit_counts", "pure",
           "stacked_ctc_loss_grad"]
