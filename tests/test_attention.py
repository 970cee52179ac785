"""The fused attention primitive against the head-by-head reference and
against the earlier gather-based form of its relative-position bias."""

import numpy as np
import pytest

import tracemalloc

from oracles import gather_attention, per_head_attention
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


def call_with_grads(fn, arrays, table, heads, causal, p, seed, weights):
    q, k, v = (T.Tensor(a, requires_grad=True) for a in arrays)
    rel = T.Tensor(table, requires_grad=True)
    out = fn(q, k, v, heads, rel_table=rel, causal=causal, p=p,
             rng=np.random.default_rng(seed), training=p > 0.0)
    T.backward(T.sum_(out * T.constant(weights.astype(out.dtype))))
    return [out.data, q.grad, k.grad, v.grad, rel.grad]


def assert_same_bytes(got, want, case):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype, case
        assert g.shape == w.shape, case
        assert g.tobytes() == w.tobytes(), case


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("p", [0.0, 0.3])
def test_toeplitz_bias_equals_the_gathered_bias(dtype, p):
    # tq != tk (MultiHeadAttention only passes tq == tk), radii that clip
    # every offset, some and none
    rng = np.random.default_rng(1800)
    for trial in range(40):
        heads = int(rng.choice([1, 2, 3]))
        dim = heads * int(rng.integers(1, 4))
        tq = int(rng.integers(1, 20))
        tk = int(rng.choice([n for n in range(1, 20) if n != tq]))
        radius = [0, 1, max(tq, tk) + int(rng.integers(0, 3))][trial % 3]
        causal = bool(rng.integers(2))
        arrays = [rng.normal(size=(t, dim)).astype(dtype)
                  for t in (tq, tk, tk)]
        table = rng.normal(size=(2 * radius + 1, heads)).astype(dtype)
        weights = rng.normal(size=(tq, dim))
        case = (trial, heads, tq, tk, radius, causal)
        got = call_with_grads(T.attention, arrays, table, heads, causal, p,
                              trial, weights)
        want = call_with_grads(gather_attention, arrays, table, heads,
                               causal, p, trial, weights)
        assert got[0].dtype == dtype
        assert_same_bytes(got, want, case)


def test_a_wider_bias_table_promotes_the_scores_as_before():
    rng = np.random.default_rng(18)
    arrays = [rng.normal(size=(t, 4)).astype(np.float32) for t in (5, 7, 7)]
    table = rng.normal(size=(5, 2))  # float64 against float32 q, k, v
    weights = rng.normal(size=(5, 4))
    for p in (0.0, 0.3):
        got = call_with_grads(T.attention, arrays, table, 2, False, p, 4,
                              weights)
        want = call_with_grads(gather_attention, arrays, table, 2, False, p,
                               4, weights)
        assert got[0].dtype == np.float64
        assert_same_bytes(got, want, p)


def retained_bytes(make):
    """Bytes still allocated, by tracemalloc, while make()'s result lives."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = make()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del out  # alive until measured
    return held


def test_dropout_keeps_one_bit_per_mask_element():
    rng = np.random.default_rng(7)
    x = T.Tensor(rng.normal(size=(200, 200)).astype(np.float32),
                 requires_grad=True)
    stream = np.random.default_rng(8)
    held = retained_bytes(lambda: T.dropout(x, 0.1, stream, training=True))
    # the float32 output plus the packed mask; a bool mask is 8x that
    assert held <= x.data.nbytes + x.data.size // 8 + 2048, held


def test_training_attention_keeps_one_bit_per_mask_element():
    # what backward holds is the output's record: the float softmax
    # output, the per-head q, k and v and the packed mask.  A bool mask
    # would overshoot by 7/8·H·T² bytes; a float mask, the dropped-out
    # weights or an int64 (T, T) bias index by more
    heads, t, dim = 2, 200, 8
    rng = np.random.default_rng(5)
    q, k, v = (T.Tensor(rng.normal(size=(t, dim)).astype(np.float32),
                        requires_grad=True) for _ in range(3))
    table = T.Tensor(rng.normal(size=(2 * 16 + 1, heads)).astype(np.float32),
                     requires_grad=True)
    stream = np.random.default_rng(6)
    held = retained_bytes(lambda: T.attention(
        q, k, v, heads, rel_table=table, p=0.1, rng=stream, training=True))
    scores = heads * t * t
    assert held <= 4 * scores + scores // 8 + 4 * (4 * t * dim) \
        + 8 * 2 * t + 8192, held


def test_attention_backward_holds_under_three_score_arrays():
    # at the encoder's T = 240 and two heads: the weight gradient, its
    # product with probs for the row sums and the unpacked mask, not the
    # five and a half score-sized temporaries of an out-of-place backward
    heads, t, dim = 2, 240, 32
    rng = np.random.default_rng(9)
    q, k, v = (T.Tensor(rng.normal(size=(t, dim)).astype(np.float32),
                        requires_grad=True) for _ in range(3))
    table = T.Tensor(rng.normal(size=(2 * 16 + 1, heads)).astype(np.float32),
                     requires_grad=True)
    weights = T.constant(rng.normal(size=(t, dim)).astype(np.float32))
    out = T.attention(q, k, v, heads, rel_table=table, p=0.1,
                      rng=np.random.default_rng(10), training=True)
    loss = T.sum_(out * weights)
    del out
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        T.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3 * heads * t * t * 4, peak


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_packed_dropout_gives_the_bool_mask_bytes(dtype):
    # odd sizes leave a partial last byte in the packed mask
    rng = np.random.default_rng(11)
    for shape in [(1,), (3, 5), (7, 9, 2), (64, 33)]:
        x = T.Tensor(rng.normal(size=shape).astype(dtype),
                     requires_grad=True)
        g = rng.normal(size=shape).astype(dtype)
        out = T.dropout(x, 0.3, np.random.default_rng(12), training=True)
        T.backward(T.sum_(out * T.constant(g)))
        keep = np.random.default_rng(12).random(shape) >= 0.3
        scale = 1.0 / (1.0 - 0.3)
        assert out.data.tobytes() == (x.data * keep * scale).tobytes()
        assert x.grad.tobytes() == (g * keep * scale).tobytes()
