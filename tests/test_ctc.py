import itertools

import numpy as np
import pytest

from gradcheck import check_gradients
from oracles import two_pass_ctc_loss_grad
from asrkit import kernels, tensor as T
from asrkit.ctc import (PrefixState, ctc_complete_logprob, ctc_loss,
                          ctc_losses, ctc_prefix_extend_all,
                          ctc_prefix_initial, min_frames)
from asrkit.kernels import pure
from asrkit.errors import ImpossibleAlignmentError, ValidationError


def random_log_post(rng, frames, vocab):
    logits = rng.normal(size=(frames, vocab))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def brute_force_ctc(log_post, labels):
    """Sum path probabilities over every frame labeling that collapses to
    the target, by explicit enumeration."""
    frames, vocab = log_post.shape
    total = -np.inf
    for path in itertools.product(range(vocab), repeat=frames):
        out = []
        prev = None
        for s in path:
            if s != prev and s != 0:
                out.append(s)
            prev = s
        if out == list(labels):
            total = np.logaddexp(
                total, sum(log_post[t, path[t]] for t in range(frames)))
    return -total


def test_min_frames():
    assert min_frames(np.array([], dtype=np.int64)) == 0
    assert min_frames(np.array([1], dtype=np.int64)) == 1
    assert min_frames(np.array([1, 2], dtype=np.int64)) == 2
    assert min_frames(np.array([1, 1], dtype=np.int64)) == 3
    assert min_frames(np.array([1, 1, 1], dtype=np.int64)) == 5
    assert min_frames(np.array([1, 2, 2, 1], dtype=np.int64)) == 5


def test_loss_matches_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(40):
        frames = int(rng.integers(1, 6))
        vocab = int(rng.integers(2, 5))
        labels = rng.integers(1, vocab,
                              size=rng.integers(0, 4)).astype(np.int64)
        if frames < min_frames(labels):
            continue
        lp = random_log_post(rng, frames, vocab)
        got = ctc_loss(T.constant(lp), labels).item()
        want = brute_force_ctc(lp, labels)
        assert abs(got - want) < 1e-9


def test_empty_label_is_all_blank_path():
    rng = np.random.default_rng(1)
    lp = random_log_post(rng, 5, 4)
    got = ctc_loss(T.constant(lp), np.array([], dtype=np.int64)).item()
    assert abs(got - (-lp[:, 0].sum())) < 1e-12


def test_impossible_alignment_raises():
    rng = np.random.default_rng(2)
    lp = random_log_post(rng, 2, 4)
    with pytest.raises(ImpossibleAlignmentError):
        ctc_loss(T.constant(lp), np.array([1, 1], dtype=np.int64))


def test_blank_in_labels_rejected():
    rng = np.random.default_rng(3)
    lp = random_log_post(rng, 4, 4)
    with pytest.raises(ValidationError):
        ctc_loss(T.constant(lp), np.array([0, 1], dtype=np.int64))


def test_label_out_of_range_rejected():
    rng = np.random.default_rng(3)
    lp = random_log_post(rng, 4, 4)
    with pytest.raises(ValidationError):
        ctc_loss(T.constant(lp), np.array([4], dtype=np.int64))


def test_loss_gradient():
    labels = np.array([1, 2, 1], dtype=np.int64)

    def build(logits):
        return ctc_loss(T.log_softmax(logits), labels)
    rng = np.random.default_rng(11)
    check_gradients(build, [rng.normal(size=(7, 4))], tol=1e-5,
                    max_coords=12)


def test_loss_dtype_follows_input():
    rng = np.random.default_rng(4)
    lp = random_log_post(rng, 6, 4)
    labels = np.array([2], dtype=np.int64)
    assert ctc_loss(T.constant(lp.astype(np.float32)),
                    labels).data.dtype == np.float32
    assert ctc_loss(T.constant(lp), labels).data.dtype == np.float64


def random_stack(rng):
    """K posteriors sharing one label, with repeated labels, U = 0 and
    T = min_frames among the draws."""
    vocab = int(rng.integers(2, 9))
    labels = rng.integers(1, min(vocab, int(rng.integers(2, 4))),
                          size=rng.integers(0, 8)).astype(np.int64)
    frames = max(1, min_frames(labels) + int(rng.choice([0, 0, 1, 5, 40])))
    k = int(rng.integers(1, 4))
    logits = rng.normal(size=(k, frames, vocab)) * rng.choice([1.0, 8.0])
    lp = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    return lp, labels


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_stacked_kernel_equals_separate_calls():
    rng = np.random.default_rng(21)
    for _ in range(150):
        lp, labels = random_stack(rng)
        losses, grads = kernels.ctc_loss_grad(lp, labels)
        assert losses.shape == (len(lp),) and grads.shape == lp.shape
        for k in range(len(lp)):
            loss, grad = kernels.ctc_loss_grad(lp[k], labels)
            assert isinstance(loss, float)
            assert same_bytes(losses[k], loss)
            assert same_bytes(grads[k], grad)


def test_fused_kernel_equals_the_two_pass_reference():
    # beta as alpha of the reversed problem: the same sums in the same
    # order as a separate backward loop, so the same bits
    rng = np.random.default_rng(22)
    for _ in range(150):
        lp, labels = random_stack(rng)
        losses, grads = pure.ctc_loss_grad(lp, labels)
        for k in range(len(lp)):
            loss, grad = two_pass_ctc_loss_grad(lp[k], labels)
            assert same_bytes(losses[k], loss)
            assert same_bytes(grads[k], grad)


def test_stacked_losses_match_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(20):
        frames = int(rng.integers(1, 6))
        vocab = int(rng.integers(2, 5))
        labels = rng.integers(1, vocab,
                              size=rng.integers(0, 4)).astype(np.int64)
        if frames < min_frames(labels):
            continue
        lps = [random_log_post(rng, frames, vocab) for _ in range(3)]
        got = ctc_losses([T.constant(lp) for lp in lps], labels)
        for lp, loss in zip(lps, got):
            assert abs(loss.item() - brute_force_ctc(lp, labels)) < 1e-9


def test_losses_gradient():
    labels = np.array([1, 2, 2], dtype=np.int64)

    def build(a, b, c):
        final, *taps = ctc_losses(
            [T.log_softmax(x) for x in (a, b, c)], labels)
        return 0.3 * final + 0.5 * (taps[0] + taps[1])
    rng = np.random.default_rng(13)
    check_gradients(build, [rng.normal(size=(7, 4)) for _ in range(3)],
                    tol=1e-5, max_coords=8)


def test_losses_are_separate_primitives():
    rng = np.random.default_rng(14)
    lps = [T.Tensor(random_log_post(rng, 6, 4), requires_grad=True)
           for _ in range(3)]
    labels = np.array([1, 3], dtype=np.int64)
    losses = ctc_losses(lps, labels)
    T.backward(losses[1])
    assert lps[0].grad is None and lps[2].grad is None
    _, grad = kernels.ctc_loss_grad(lps[1].data, labels)
    assert same_bytes(lps[1].grad, grad)


def test_losses_need_one_shape():
    rng = np.random.default_rng(15)
    with pytest.raises(ValidationError):
        ctc_losses([T.constant(random_log_post(rng, 6, 4)),
                    T.constant(random_log_post(rng, 5, 4))],
                   np.array([1], dtype=np.int64))


def build_prefix(log_post, tokens):
    state = ctc_prefix_initial(log_post)
    for tok in tokens:
        psi, r_new = ctc_prefix_extend_all(log_post, state)
        state = PrefixState(r=r_new[tok], last=tok)
    return state


def test_prefix_complete_matches_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(10):
        lp = random_log_post(rng, 4, 3)
        for tokens in ([], [1], [2], [1, 2], [1, 1], [2, 1, 2]):
            state = build_prefix(lp, tokens)
            want = -brute_force_ctc(lp, tokens)
            got = ctc_complete_logprob(state)
            if want == -np.inf:
                assert got < -30
            else:
                assert abs(got - want) < 1e-9


def test_prefix_mass_partitions():
    """Complete probabilities over every possible output sequence sum
    to one: each alignment path collapses to exactly one sequence."""
    rng = np.random.default_rng(10)
    lp = random_log_post(rng, 3, 3)
    total = -np.inf
    seqs = [[]]
    for length in range(1, 4):
        seqs.extend([list(s) for s in
                     itertools.product([1, 2], repeat=length)])
    for seq in seqs:
        state = build_prefix(lp, seq)
        total = np.logaddexp(total, ctc_complete_logprob(state))
    assert abs(total) < 1e-9


def test_prefix_scores_decrease_with_extension():
    rng = np.random.default_rng(12)
    lp = random_log_post(rng, 6, 4)
    psi_1, _ = ctc_prefix_extend_all(lp, ctc_prefix_initial(lp))
    psi, _ = ctc_prefix_extend_all(lp, build_prefix(lp, [1]))
    for tok in (1, 2, 3):
        assert psi[tok] <= psi_1[1] + 1e-12


def test_prefix_repeat_needs_blank():
    """Extending by the same token requires an intervening blank, so the
    repeat score only collects paths through the blank state."""
    lp = np.log(np.array([
        [0.01, 0.98, 0.01],
        [0.01, 0.98, 0.01],
    ]))
    state = build_prefix(lp, [1])
    psi, _ = ctc_prefix_extend_all(lp, state)
    # [1, 1] needs blank between the two frames: impossible in 2 frames
    # with both frames emitting 1; only tiny mass fits
    assert psi[1] < np.log(0.01 * 0.98) + 1e-9
