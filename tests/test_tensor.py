import gc
import weakref

import numpy as np
import pytest

from gradcheck import check_gradients
from oracles import (reshape, stacked_conv1d, stacked_depthwise_conv1d,
                     transpose)
from test_attention import retained_bytes
from asrkit import tensor as T
from asrkit.errors import GraphConstructionError

RNG = np.random.default_rng(42)


def r(*shape):
    return RNG.normal(size=shape)


def test_registry_contains_catalog():
    names = T.registered_primitives()
    for expected in ("matmul", "linear", "add", "mul", "softmax",
                     "log_softmax", "layer_norm", "conv1d",
                     "depthwise_conv1d", "glu", "swish", "embedding",
                     "concat", "slice", "sum", "cross_entropy", "dropout",
                     "attention"):
        assert expected in names


def test_unregistered_primitive_rejected():
    x = T.Tensor(r(3), requires_grad=True)
    with pytest.raises(GraphConstructionError):
        T.apply_primitive("no_such_op", [x], x.data.copy(), lambda g: [g])


def test_backward_requires_scalar():
    x = T.Tensor(r(3), requires_grad=True)
    with pytest.raises(GraphConstructionError):
        T.backward(x + x)


def test_backward_requires_grad():
    x = T.constant(r(3))
    y = T.sum_(x * x)
    with pytest.raises(GraphConstructionError):
        T.backward(y)


def test_no_grad_suppresses_graph():
    x = T.Tensor(r(3), requires_grad=True)
    with T.no_grad():
        y = T.sum_(x * x)
    assert not y.requires_grad


def test_grad_accumulates_across_uses():
    x = T.Tensor(np.array([2.0, 3.0]), requires_grad=True)
    y = T.sum_(x * x) + T.sum_(x * x)
    T.backward(y)
    np.testing.assert_allclose(x.grad, 4.0 * x.data)


def test_a_leaf_adds_each_contribution_as_it_comes():
    # x is used twice in each of two losses; over both backward passes
    # its gradient is the left-to-right sum of the four contributions,
    # not the sum of two per-pass sums
    rng = np.random.default_rng(23)
    a, b, c, d = (rng.normal(size=64).astype(np.float32) for _ in range(4))
    want = ((a + b) + c) + d
    assert want.tobytes() != ((a + b) + (c + d)).tobytes()
    x = T.Tensor(np.zeros(64, dtype=np.float32), requires_grad=True)
    for first, second in ((a, b), (c, d)):
        T.backward(T.sum_(x * T.constant(first))
                   + T.sum_(x * T.constant(second)))
    assert x.grad.tobytes() == want.tobytes()


def test_second_backward_through_a_consumed_graph_raises():
    x = T.Tensor(np.array([2.0, 3.0]), requires_grad=True)
    h = x * x
    y = T.sum_(h)
    T.backward(y)
    assert h.grad is None  # gradients land on leaves only
    first = x.grad.copy()
    with pytest.raises(GraphConstructionError):
        T.backward(y)
    # a new loss over a consumed intermediate is refused the same way
    with pytest.raises(GraphConstructionError):
        T.backward(T.sum_(h * 2.0))
    np.testing.assert_array_equal(x.grad, first)


def test_linear_is_matmul_plus_add_bit_for_bit():
    # its own stream leaves RNG's draws for the tests below as they were
    rng = np.random.default_rng(44)
    arrays = [rng.normal(size=s).astype(np.float32)
              for s in ((5, 4), (4, 3), (3,))]
    weights = T.constant(rng.normal(size=(5, 3)).astype(np.float32))

    def run(fn):
        x, w, b = (T.Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = fn(x, w, b)
        T.backward(T.sum_(out * weights))
        return [out.data, x.grad, w.grad, b.grad]

    fused = run(T.linear)
    pair = run(lambda x, w, b: T.matmul(x, w) + b)
    for got, want in zip(fused, pair):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_linear_rejects_mismatched_shapes():
    x = T.Tensor(np.ones((5, 4)), requires_grad=True)
    with pytest.raises(GraphConstructionError):
        T.linear(x, T.constant(np.ones((3, 2))), T.constant(np.ones(2)))
    with pytest.raises(GraphConstructionError):
        T.linear(x, T.constant(np.ones((4, 2))), T.constant(np.ones(3)))


def test_dtype_preserved():
    for dtype in (np.float32, np.float64):
        x = T.Tensor(r(4, 3).astype(dtype), requires_grad=True)
        y = T.sum_(T.softmax(x) * x)
        assert y.data.dtype == dtype
        T.backward(y)
        assert x.grad.dtype == dtype


# multipliers are bound once as default args so every finite-difference
# evaluation sees the same downstream weights
@pytest.mark.parametrize("name,builder,shapes", [
    ("matmul", lambda a, b: T.sum_(a @ b), [(3, 4), (4, 2)]),
    ("add", lambda a, b: T.sum_(a + b), [(3, 4), (3, 4)]),
    ("add_broadcast", lambda a, b: T.sum_(a + b), [(3, 4), (4,)]),
    ("mul", lambda a, b: T.sum_(a * b), [(3, 4), (3, 4)]),
    ("mul_broadcast", lambda a, b: T.sum_(a * b), [(3, 4), (1, 4)]),
    ("sub", lambda a, b: T.sum_(a - b), [(3, 4), (3, 4)]),
    ("neg", lambda a: T.sum_(-a), [(5,)]),
    ("softmax",
     lambda a, m=T.constant(r(3, 5)): T.sum_(T.softmax(a) * m), [(3, 5)]),
    ("log_softmax",
     lambda a, m=T.constant(r(3, 5)): T.sum_(T.log_softmax(a) * m),
     [(3, 5)]),
    ("layer_norm",
     lambda a, g, b, m=T.constant(r(4, 6)):
         T.sum_(T.layer_norm(a, g, b) * m),
     [(4, 6), (6,), (6,)]),
    ("rsub",
     lambda a, m=T.constant(r(3, 4)): T.sum_((1.0 - a) * m), [(3, 4)]),
    ("swish",
     lambda a, m=T.constant(r(3, 4)): T.sum_(T.swish(a) * m), [(3, 4)]),
    ("scalar_mul",
     lambda a, m=T.constant(r(3, 4)): T.sum_((0.5 * a) * m), [(3, 4)]),
    ("glu",
     lambda a, m=T.constant(r(5, 3)): T.sum_(T.glu(a) * m), [(5, 6)]),
    ("concat",
     lambda a, b, m=T.constant(r(3, 7)):
         T.sum_(T.concat([a, b], axis=1) * m),
     [(3, 4), (3, 3)]),
    ("slice",
     lambda a, m=T.constant(r(2, 3)): T.sum_(a[1:3, 2:5] * m), [(4, 6)]),
    ("sum_axis",
     lambda a, m=T.constant(r(4,)): T.sum_(T.sum_(a, axis=0) * m),
     [(3, 4)]),
    ("sum_keepdims",
     lambda a, m=T.constant(r(3, 1)):
         T.sum_(T.sum_(a, axis=1, keepdims=True) * m),
     [(3, 4)]),
    ("sub_broadcast",
     lambda a, b, m=T.constant(r(3, 4)): T.sum_((a - b) * m),
     [(3, 4), (4,)]),
    # registered by tests/oracles.py for the head-by-head reference
    ("transpose",
     lambda a, m=T.constant(r(4, 3)): T.sum_(transpose(a) * m), [(3, 4)]),
    ("reshape",
     lambda a, m=T.constant(r(2, 6)): T.sum_(reshape(a, (2, 6)) * m),
     [(3, 4)]),
])
def test_primitive_gradients(name, builder, shapes):
    check_gradients(builder, [r(*s) for s in shapes], tol=1e-5)


def test_conv1d_gradients():
    m1 = T.constant(r(6, 3))

    def build(x, w, b):
        return T.sum_(T.conv1d(x, w, b, stride=1) * m1)
    check_gradients(build, [r(6, 2), r(3, 2, 3), r(3)], tol=1e-5)

    m2 = T.constant(r(4, 3))

    def build_strided(x, w, b):
        return T.sum_(T.conv1d(x, w, b, stride=2) * m2)
    check_gradients(build_strided, [r(7, 2), r(3, 2, 3), r(3)], tol=1e-5)


def test_depthwise_conv1d_gradients():
    m = T.constant(r(6, 4))

    def build(x, w, b):
        return T.sum_(T.depthwise_conv1d(x, w, b) * m)
    check_gradients(build, [r(6, 4), r(3, 4), r(4)], tol=1e-5)


def test_embedding_gradients():
    ids = np.array([0, 2, 1, 2], dtype=np.int64)
    m = T.constant(r(4, 5))

    def build(table):
        return T.sum_(T.embedding(table, ids) * m)
    check_gradients(build, [r(3, 5)], tol=1e-5)


def test_attention_gradients():
    m_self = T.constant(r(5, 6))

    def build_self(q, k, v):
        return T.sum_(T.attention(q, k, v, heads=2) * m_self)
    check_gradients(build_self, [r(5, 6), r(5, 6), r(5, 6)], tol=1e-5)

    m_cross = T.constant(r(3, 8))

    def build_cross(q, k, v):
        return T.sum_(T.attention(q, k, v, heads=4) * m_cross)
    check_gradients(build_cross, [r(3, 8), r(6, 8), r(6, 8)], tol=1e-5)


def test_cross_entropy_gradients():
    targets = np.array([1, 0, 3], dtype=np.int64)

    def build(logits):
        return T.cross_entropy(logits, targets)
    check_gradients(build, [r(3, 4)], tol=1e-5)


def test_cross_entropy_matches_manual():
    logits = r(5, 7)
    targets = np.array([0, 6, 3, 3, 1], dtype=np.int64)
    loss = T.cross_entropy(T.constant(logits), targets).item()
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    manual = -logp[np.arange(5), targets].mean()
    assert abs(loss - manual) < 1e-12


def test_dropout_eval_is_identity():
    x = T.Tensor(r(10, 4), requires_grad=True)
    y = T.dropout(x, 0.5, np.random.default_rng(0), training=False)
    assert y is x


def test_dropout_backward_matches_mask():
    x = T.Tensor(r(200, 4), requires_grad=True)
    y = T.dropout(x, 0.25, np.random.default_rng(7), training=True)
    kept = y.data != 0.0
    np.testing.assert_allclose(y.data[kept], x.data[kept] / 0.75)
    frac = kept.mean()
    assert 0.6 < frac < 0.9
    T.backward(T.sum_(y * T.constant(np.ones_like(x.data))))
    expected = np.where(kept, 1.0 / 0.75, 0.0)
    np.testing.assert_allclose(x.grad, expected)


def test_matmul_values():
    a, b = r(3, 4), r(4, 5)
    out = (T.constant(a) @ T.constant(b)).data
    np.testing.assert_allclose(out, a @ b, rtol=1e-12)


def test_softmax_rows_normalize():
    p = T.softmax(T.constant(r(6, 9))).data
    np.testing.assert_allclose(p.sum(axis=1), np.ones(6), rtol=1e-12)
    lp = T.log_softmax(T.constant(r(6, 9))).data
    np.testing.assert_allclose(np.exp(lp).sum(axis=1), np.ones(6),
                               rtol=1e-12)


@pytest.mark.parametrize("op", [T.softmax, T.log_softmax])
def test_a_nan_in_one_row_raises(op):
    x = np.arange(12.0).reshape(3, 4)
    x[1, 2] = np.nan
    with pytest.raises(FloatingPointError, match="NaN"):
        op(T.Tensor(x, requires_grad=True))


def layer_norm_plus_input(x, gamma, beta, keep):
    """sum(layer_norm(x) + x); drops the layer_norm output unless keep."""
    h = T.layer_norm(x, gamma, beta)
    held = weakref.ref(h.data)
    loss = T.sum_(h + x)
    kept = h if keep else None
    del h
    gc.collect()
    return loss, held, kept


def test_an_intermediate_no_rule_reads_is_freed_with_its_tensor():
    # add's rule reads no input, so once the caller drops the
    # layer_norm output its array goes, while the graph still runs
    rng = np.random.default_rng(3)
    arrays = [rng.normal(size=(5, 4)), rng.normal(size=4),
              rng.normal(size=4)]
    grads = []
    for keep in (False, True):
        x, gamma, beta = (T.Tensor(a, requires_grad=True) for a in arrays)
        loss, held, kept = layer_norm_plus_input(x, gamma, beta, keep)
        assert (held() is None) == (not keep)
        T.backward(loss)
        grads.append([t.grad.tobytes() for t in (x, gamma, beta)])
    assert grads[0] == grads[1]


def conv_outputs_and_grads(conv, arrays, seed, **kwargs):
    inputs = [T.Tensor(a, requires_grad=True) for a in arrays]
    out = conv(*inputs, **kwargs)
    weights = np.random.default_rng(seed).normal(size=out.shape)
    T.backward(T.sum_(out * T.constant(weights.astype(out.dtype))))
    return [out.data] + [t.grad for t in inputs]


def test_strided_windows_match_the_stacked_convolutions():
    rng = np.random.default_rng(20)
    for trial in range(160):
        dtype = (np.float32, np.float64)[trial % 2]
        K = int(rng.integers(1, 8))
        # every third trial is shorter than the kernel
        t = int(rng.integers(1, K + 1)) if trial % 3 == 0 \
            else int(rng.integers(1, 40))
        cin, cout = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        x = rng.normal(size=(t, cin)).astype(dtype)
        depthwise = [x, rng.normal(size=(K, cin)).astype(dtype),
                     rng.normal(size=cin).astype(dtype)]
        full = [x, rng.normal(size=(K, cin, cout)).astype(dtype),
                rng.normal(size=cout).astype(dtype)]
        cases = [(T.depthwise_conv1d, stacked_depthwise_conv1d, depthwise,
                  {})]
        cases += [(T.conv1d, stacked_conv1d, full, {"stride": stride})
                  for stride in (1, 2)]
        for conv, reference, arrays, kwargs in cases:
            got = conv_outputs_and_grads(conv, arrays, trial, **kwargs)
            want = conv_outputs_and_grads(reference, arrays, trial, **kwargs)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == dtype
                assert a.tobytes() == b.tobytes(), (conv.__name__, t, K,
                                                    kwargs)


def test_conv1d_input_gradient_matches_the_scatter_add():
    # the strided += of each tap against oracles.stacked_conv1d's
    # np.add.at, over long inputs, wide kernels and strides up to 3
    rng = np.random.default_rng(24)
    for trial in range(60):
        dtype = (np.float32, np.float64)[trial % 2]
        t, K = int(rng.integers(1, 260)), int(rng.integers(1, 8))
        stride = int(rng.integers(1, 4))
        cin, cout = int(rng.integers(1, 33)), int(rng.integers(1, 33))
        arrays = [rng.normal(size=(t, cin)).astype(dtype),
                  rng.normal(size=(K, cin, cout)).astype(dtype),
                  rng.normal(size=cout).astype(dtype)]
        got = conv_outputs_and_grads(T.conv1d, arrays, trial, stride=stride)
        want = conv_outputs_and_grads(stacked_conv1d, arrays, trial,
                                      stride=stride)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), (t, K, stride, dtype)


@pytest.mark.parametrize("conv,reference,wshape", [
    (T.depthwise_conv1d, stacked_depthwise_conv1d, (7, 32)),
    (T.conv1d, stacked_conv1d, (3, 32, 32)),
])
def test_convolutions_keep_a_view_of_the_windows(conv, reference, wshape):
    # backward keeps the padded input, not a K-fold stack of windows
    rng = np.random.default_rng(4)
    x, w, b = (T.Tensor(rng.normal(size=shape).astype(np.float32),
                        requires_grad=True)
               for shape in ((240, 32), wshape, (32,)))
    strided = retained_bytes(lambda: conv(x, w, b))
    stacked = retained_bytes(lambda: reference(x, w, b))
    assert 2 * strided < stacked, (strided, stacked)
