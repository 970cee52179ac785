"""The compiled kernels against the pure ones; skipped when the
compiled backend is not built (see test_kernel_dispatch.py for the
tests that run on either backend)."""

import numpy as np
import pytest

from asrkit.kernels import pure, stacked_ctc_loss_grad


def random_log_post(rng, frames, vocab):
    logits = rng.normal(size=(frames, vocab))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


compiled = pytest.importorskip("asrkit.kernels._ctc_ext",
                               reason="compiled backend not built")


@pytest.mark.parametrize("trial", range(20))
def test_ctc_loss_grad_backends_agree(trial):
    rng = np.random.default_rng(100 + trial)
    frames = int(rng.integers(4, 30))
    vocab = int(rng.integers(2, 8))
    labels = rng.integers(1, vocab, size=rng.integers(1, 4)).astype(np.int64)
    # keep the label fit feasible
    if frames < 2 * len(labels) + 1:
        frames = 2 * len(labels) + 1
    lp = random_log_post(rng, frames, vocab)
    loss_p, grad_p = pure.ctc_loss_grad(lp, labels)
    loss_c, grad_c = compiled.ctc_loss_grad(lp, labels)
    assert abs(loss_p - loss_c) < 1e-12
    np.testing.assert_allclose(grad_p, grad_c, atol=1e-12)


@pytest.mark.parametrize("trial", range(10))
def test_stacked_ctc_loss_grad_backends_agree(trial):
    rng = np.random.default_rng(150 + trial)
    labels = rng.integers(1, 4, size=rng.integers(0, 5)).astype(np.int64)
    frames = 2 * len(labels) + 1 + int(rng.integers(0, 20))
    lp = np.stack([random_log_post(rng, frames, 5) for _ in range(3)])
    loss_p, grad_p = pure.ctc_loss_grad(lp, labels)
    loss_c, grad_c = stacked_ctc_loss_grad(compiled.ctc_loss_grad)(
        lp, labels)
    assert loss_c.shape == (3,) and grad_c.shape == lp.shape
    np.testing.assert_allclose(loss_p, loss_c, atol=1e-12)
    np.testing.assert_allclose(grad_p, grad_c, atol=1e-12)


@pytest.mark.parametrize("trial", range(20))
def test_prefix_backends_agree(trial):
    rng = np.random.default_rng(200 + trial)
    frames = int(rng.integers(2, 20))
    vocab = int(rng.integers(2, 7))
    lp = random_log_post(rng, frames, vocab)
    r_prev = np.full((frames, 2), -np.inf)
    r_prev[:, 1] = np.cumsum(lp[:, 0])
    for last, empty in ((0, True), (1, False)):
        psi_p, rn_p = pure.ctc_prefix_all(lp, last, r_prev, empty)
        psi_c, rn_c = compiled.ctc_prefix_all(lp, last, r_prev, empty)
        np.testing.assert_allclose(psi_p, psi_c, atol=1e-12)
        np.testing.assert_allclose(rn_p, rn_c, atol=1e-12)


@pytest.mark.parametrize("trial", range(30))
def test_edit_counts_backends_agree(trial):
    rng = np.random.default_rng(300 + trial)
    ref = rng.integers(0, 4, size=rng.integers(0, 10)).tolist()
    hyp = rng.integers(0, 4, size=rng.integers(0, 10)).tolist()
    assert pure.edit_counts(ref, hyp) == compiled.edit_counts(ref, hyp)
