"""The fused attention primitive against the head-by-head reference."""

import numpy as np
import pytest

from oracles import per_head_attention
from asrkit import tensor as T
from asrkit.nn import MultiHeadAttention, seed_dropout


def random_attention(rng):
    """A MultiHeadAttention with random heads, causality, bias radius and
    dropout, plus the shapes to call it with."""
    heads = int(rng.choice([1, 2, 4]))
    dim = heads * int(rng.integers(1, 5))
    cross = bool(rng.integers(2))
    radius = int(rng.integers(0, 4)) if rng.integers(2) else None
    mha = MultiHeadAttention(dim, heads, rng, causal=bool(rng.integers(2)),
                             rel_bias_radius=radius,
                             dropout=float(rng.choice([0.0, 0.3])))
    if radius is not None:
        mha.rel_table.data = rng.normal(
            size=mha.rel_table.shape).astype(np.float32)
    mha.train(bool(rng.integers(2)))
    # lengths past 8 reach numpy's unrolled and pairwise summation
    tq = int(rng.integers(1, 20))
    tk = int(rng.integers(1, 20)) if cross else None
    return mha, tq, tk


def per_head_call(mha, x, kv):
    """MultiHeadAttention.__call__ with the per-head reference inside."""
    source = x if kv is None else kv
    heads = per_head_attention(
        mha.wq(x), mha.wk(source), mha.wv(source), mha.heads,
        rel_table=mha.rel_table if kv is None else None, causal=mha.causal,
        p=mha.drop.p, rng=mha.drop.rng, training=mha.drop.training)
    return mha.wo(heads)


def outputs_and_grads(mha, call, arrays, weights, dtype, seed):
    for _, p in mha.named_parameters():
        p.data = p.data.astype(dtype)
    mha.zero_grad()
    seed_dropout(mha, seed)
    inputs = [T.Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
    out = call(mha, inputs[0], inputs[1] if len(inputs) == 2 else None)
    T.backward(T.sum_(out * T.constant(weights.astype(dtype))))
    return ([out.data] + [t.grad for t in inputs]
            + [p.grad for _, p in mha.named_parameters()])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fused_attention_equals_the_per_head_path(dtype):
    # same BLAS calls per head, same summation order, same dropout
    # stream: bit-identical outputs and gradients in either precision
    for trial in range(60):
        rng = np.random.default_rng(500 + trial)
        mha, tq, tk = random_attention(rng)
        dim = mha.wq.weight.shape[0]
        arrays = [rng.normal(size=(tq, dim))]
        if tk is not None:
            arrays.append(rng.normal(size=(tk, dim)))
        weights = rng.normal(size=(tq, dim))
        fused = outputs_and_grads(mha, MultiHeadAttention.__call__, arrays,
                                  weights, dtype, seed=trial)
        loop = outputs_and_grads(mha, per_head_call, arrays, weights,
                                 dtype, seed=trial)
        assert len(fused) == len(loop)
        for got, want in zip(fused, loop):
            if want is None:  # the bias table, unused by cross-attention
                assert got is None and tk is not None
                continue
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want), trial


def test_attention_draws_one_dropout_mask_from_the_stream():
    rng = np.random.default_rng(3)
    q, k, v = (T.constant(rng.normal(size=(4, 6))) for _ in range(3))
    stream = np.random.default_rng(8)
    T.attention(q, k, v, 2, p=0.5, rng=stream, training=True)
    expected = np.random.default_rng(8)
    expected.random((2, 4, 4))
    assert stream.random() == expected.random()


def test_attention_rejects_nan_scores():
    rng = np.random.default_rng(4)
    q = rng.normal(size=(3, 4))
    q[1, 2] = np.nan
    k, v = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    with pytest.raises(FloatingPointError):
        T.attention(T.constant(q), T.constant(k), T.constant(v), heads=2)
