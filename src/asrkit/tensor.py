"""Dense tensors with reverse-mode automatic differentiation.

Design notes:
  * Storage is a row-major numpy array, float32 for training and float64
    for numerical-oracle tests; ops preserve the input dtype.
  * The graph is built from per-output op records (op name, output dtype
    and shape, backward rule, and for each input either the input's own
    record, the input itself when it is a leaf that requires grad, or
    None).  Records link to records, not to tensors, so the graph holds
    only records, leaves and the arrays the backward rules capture: an
    intermediate array no rule reads is freed once the caller drops its
    Tensor.  backward() computes a depth-first postorder from the loss,
    which is a topological order, and visits each node exactly once.
  * Gradients land in .grad on leaves only (tensors with no op record,
    i.e. parameters and inputs); intermediate results pass their
    gradient on and keep .grad None.  A leaf accumulates additively, so
    two backward passes over two graphs without zero_grad add up.
  * backward consumes the graph: each op record drops its rule and its
    inputs once the rule has run, so saved buffers are freed as the pass
    goes.  A second backward through the same graph raises
    GraphConstructionError.
  * Only registered primitives may appear in a graph; attempting to
    record an unregistered op raises GraphConstructionError.  Other
    modules may register their own ops (the CTC loss does).
"""

import threading
from contextlib import contextmanager

import numpy as np

from .errors import GraphConstructionError

_FLOAT_DTYPES = (np.float32, np.float64)

_PRIMITIVES: set[str] = set()


def register_primitive(name: str) -> None:
    """Add an op name to the registry of graph-legal primitives."""
    _PRIMITIVES.add(name)


def registered_primitives() -> frozenset[str]:
    return frozenset(_PRIMITIVES)


for _name in (
    "matmul", "linear", "add", "mul", "softmax", "log_softmax", "layer_norm",
    "conv1d", "depthwise_conv1d", "glu", "swish", "embedding", "concat",
    "slice", "sum", "cross_entropy", "dropout", "attention",
):
    register_primitive(_name)


_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    prev = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


class _OpRecord:
    """One applied primitive: the backward rule for its output, the
    output's dtype and shape, and one link per input: the input's own
    record, the input itself when it is a leaf that requires grad, or
    None.  backward() empties rule and links once the rule has run."""

    __slots__ = ("op", "inputs", "backward", "dtype", "shape")

    def __init__(self, op, inputs, backward, dtype, shape):
        self.op = op
        self.inputs = inputs
        self.backward = backward
        self.dtype = dtype
        self.shape = shape


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_entry")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._entry = None

    # -- introspection ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    def zero_grad(self):
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphConstructionError(
                f"item() needs a single element, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other, self))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self))

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, _as_tensor(-1.0, self))

    def __sub__(self, other):
        return add(self, -_as_tensor(other, self))

    def __rsub__(self, other):
        return add(_as_tensor(other, self), -self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return slice_(self, key)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)


def _as_tensor(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.dtype))


def constant(data, dtype=None) -> Tensor:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype)
    return Tensor(arr)


def apply_primitive(name, inputs, out_data, backward) -> Tensor:
    """Record one primitive application and return its output tensor."""
    if name not in _PRIMITIVES:
        raise GraphConstructionError(f"unregistered primitive: {name!r}")
    needs = _grad_enabled() and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs:
        links = tuple(
            t._entry if t._entry is not None
            else t if t.requires_grad else None
            for t in inputs)
        out._entry = _OpRecord(name, links, backward, out.data.dtype,
                               out.data.shape)
    return out


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dx into .grad for every requires_grad leaf
    reachable from the scalar loss, consuming the graph.

    Intermediate tensors keep .grad None.  Each op record drops its rule
    and its input links once the rule has run, which frees the buffers
    it saved; a later backward that reaches a consumed record raises
    GraphConstructionError before any gradient changes.
    """
    if loss.data.size != 1:
        raise GraphConstructionError(
            f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise GraphConstructionError(
            "loss does not require grad; it is not connected to any parameters")
    root = loss if loss._entry is None else loss._entry

    # Depth-first postorder over op records and leaves (iterative: graphs
    # get deep).
    topo: list = []
    seen: set[int] = set()
    stack: list = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if type(node) is _OpRecord:
            if node.backward is None:
                raise GraphConstructionError(
                    "graph already consumed by an earlier backward; "
                    "run the forward pass again")
            for parent in node.inputs:
                if parent is not None and id(parent) not in seen:
                    stack.append((parent, False))

    messages: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    # popping drops topo's reference, so a record whose consumers have
    # all run is freed unless its output tensor is still held
    while topo:
        node = topo.pop()
        g = messages.pop(id(node), None)
        if type(node) is not _OpRecord:
            if g is not None:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        rule, inputs = node.backward, node.inputs
        node.backward, node.inputs = None, ()
        if g is None:
            continue
        for parent, gi in zip(inputs, rule(g)):
            if gi is None or parent is None:
                continue
            if type(parent) is _OpRecord:
                dtype, shape = parent.dtype, parent.shape
            else:
                dtype, shape = parent.data.dtype, parent.data.shape
            if type(gi) is not np.ndarray or gi.dtype != dtype:
                gi = np.asarray(gi, dtype=dtype)
            if gi.shape != shape:
                gi = gi.reshape(shape)
            acc = messages.get(id(parent))
            messages[id(parent)] = gi if acc is None else acc + gi


# ---------------------------------------------------------------------------
# primitive implementations
# ---------------------------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over axes that were broadcast to reach grad.shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise GraphConstructionError(
            f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def bwd(g):
        return g @ bd.T, ad.T @ g

    return apply_primitive("matmul", (a, b), out, bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b: (N, in) x (in, out) + (out,) -> (N, out)."""
    if (x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != (w.shape[1],)):
        raise GraphConstructionError(
            f"linear shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")
    xd, wd = x.data, w.data
    out = xd @ wd + b.data

    def bwd(g):
        return g @ wd.T, xd.T @ g, g.sum(axis=0)

    return apply_primitive("linear", (x, w, b), out, bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise GraphConstructionError(
            f"add shape mismatch: {a.shape} + {b.shape}") from None
    ash, bsh = a.data.shape, b.data.shape

    def bwd(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return apply_primitive("add", (a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise GraphConstructionError(
            f"mul shape mismatch: {a.shape} * {b.shape}") from None
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return apply_primitive("mul", (a, b), out, bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    m = np.max(x.data, axis=axis, keepdims=True)
    # a NaN input makes its row maximum NaN
    if np.isnan(m).any():
        raise FloatingPointError("softmax input contains NaN")
    shifted = x.data - m
    e = np.exp(shifted)
    out = e / np.sum(e, axis=axis, keepdims=True)

    def bwd(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return apply_primitive("softmax", (x,), out, bwd)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    m = np.max(x.data, axis=axis, keepdims=True)
    # a NaN input makes its row maximum NaN
    if np.isnan(m).any():
        raise FloatingPointError("log_softmax input contains NaN")
    shifted = x.data - m
    lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def bwd(g):
        return (g - soft * np.sum(g, axis=axis, keepdims=True),)

    return apply_primitive("log_softmax", (x,), out, bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise GraphConstructionError(
            f"layer_norm affine shape mismatch: x {x.shape}, "
            f"gamma {gamma.shape}, beta {beta.shape}")
    # np.add.reduce(...) / n is what ndarray.mean and .var compute,
    # without their Python wrappers
    n = x.shape[-1]
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / n
    centered = x.data - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gamma.data + beta.data
    gd = gamma.data

    def bwd(g):
        dxhat = g * gd
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / n
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n
        dx = (dxhat - m1 - xhat * m2) * inv
        reduce_axes = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=reduce_axes)
        dbeta = g.sum(axis=reduce_axes)
        return dx, dgamma, dbeta

    return apply_primitive("layer_norm", (x, gamma, beta), out, bwd)


def _same_pad(T: int, kernel: int, stride: int) -> tuple[int, int, int]:
    out_len = -(-T // stride)
    total = max((out_len - 1) * stride + kernel - T, 0)
    left = total // 2
    return out_len, left, total - left


def conv1d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """1-D convolution over time with same-padding: (T, Cin) -> (ceil(T/stride), Cout).

    Weight layout is (kernel, Cin, Cout); bias is (Cout,).
    """
    if x.ndim != 2 or w.ndim != 3 or x.shape[1] != w.shape[1]:
        raise GraphConstructionError(
            f"conv1d shape mismatch: x {x.shape}, w {w.shape}")
    T, cin = x.shape
    K, _, cout = w.shape
    if bias.shape != (cout,):
        raise GraphConstructionError(
            f"conv1d bias shape mismatch: {bias.shape} for Cout={cout}")
    out_len, pl, pr = _same_pad(T, K, stride)
    xp = np.zeros((T + pl + pr, cin), dtype=x.dtype)
    xp[pl:pl + T] = x.data
    windows = _windows(xp, out_len, K, stride)  # (out, K, cin)
    out = np.tensordot(windows, w.data, axes=([1, 2], [0, 1])) + bias.data
    wd = w.data
    idx = np.arange(out_len) * stride

    def bwd(g):
        # (K, cin, cout) from a C-ordered copy of the windows: over the
        # strided view, numpy would hand BLAS another layout, which sums
        # in another order
        gw = np.tensordot(np.ascontiguousarray(windows), g,
                          axes=([0], [0]))
        gxp = np.zeros_like(xp)
        for k in range(K):
            np.add.at(gxp, idx + k, g @ wd[k].T)
        return gxp[pl:pl + T], gw, g.sum(axis=0)

    return apply_primitive("conv1d", (x, w, bias), out, bwd)


def depthwise_conv1d(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Per-channel 1-D convolution, stride 1, same-padding.

    Weight layout is (kernel, C); bias is (C,).
    """
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise GraphConstructionError(
            f"depthwise_conv1d shape mismatch: x {x.shape}, w {w.shape}")
    T, C = x.shape
    K = w.shape[0]
    if bias.shape != (C,):
        raise GraphConstructionError(
            f"depthwise_conv1d bias shape mismatch: {bias.shape} for C={C}")
    _, pl, pr = _same_pad(T, K, 1)
    xp = np.zeros((T + pl + pr, C), dtype=x.dtype)
    xp[pl:pl + T] = x.data
    windows = _windows(xp, T, K, 1)  # (T, K, C)
    out = np.einsum("tkc,kc->tc", windows, w.data) + bias.data
    wd = w.data

    def bwd(g):
        # a C-ordered copy of the windows keeps einsum's summation order
        gw = np.einsum("tkc,tc->kc", np.ascontiguousarray(windows), g)
        gxp = np.zeros_like(xp)
        for k in range(K):
            gxp[k:k + T] += g * wd[k]
        return gxp[pl:pl + T], gw, g.sum(axis=0)

    return apply_primitive("depthwise_conv1d", (x, w, bias), out, bwd)


def _windows(xp: np.ndarray, n: int, kernel: int, stride: int) -> np.ndarray:
    """The read-only (n, kernel, C) view m[t, k] = xp[t * stride + k] of
    a padded (T, C) array: every convolution window without a copy."""
    step, chan = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, shape=(n, kernel, xp.shape[1]),
        strides=(stride * step, step, chan), writeable=False)


def glu(x: Tensor, axis: int = -1) -> Tensor:
    """Gated linear unit: split x in half along axis, a * sigmoid(b)."""
    n = x.shape[axis]
    if n % 2 != 0:
        raise GraphConstructionError(
            f"glu needs an even extent along axis {axis}, got {n}")
    a, b = np.split(x.data, 2, axis=axis)
    s = _sigmoid_np(b)
    out = a * s

    def bwd(g):
        ga = g * s
        gb = g * a * s * (1.0 - s)
        return (np.concatenate([ga, gb], axis=axis),)

    return apply_primitive("glu", (x,), out, bwd)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, each from
    # e = e^-|x| <= 1, so neither branch can overflow
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def swish(x: Tensor) -> Tensor:
    s = _sigmoid_np(x.data)
    out = x.data * s
    xd = x.data

    def bwd(g):
        return (g * (s + xd * s * (1.0 - s)),)

    return apply_primitive("swish", (x,), out, bwd)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: table (V, D) indexed by an integer array -> ids.shape + (D,).

    Serves token embeddings and, in the SSL loss, the gather of masked
    frames from a hidden sequence.
    """
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise GraphConstructionError("embedding ids must be integers")
    if table.ndim != 2:
        raise GraphConstructionError(
            f"embedding table must be 2-D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise GraphConstructionError(
            f"embedding id out of range for table with {table.shape[0]} rows")
    out = table.data[ids]
    V, D = table.shape

    def bwd(g):
        gt = np.zeros((V, D), dtype=g.dtype)
        np.add.at(gt, ids.ravel(), g.reshape(-1, D))
        return (gt,)

    return apply_primitive("embedding", (table,), out, bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise GraphConstructionError("concat of an empty list")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise GraphConstructionError(f"concat shape mismatch: {exc}") from None
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return apply_primitive("concat", tuple(tensors), out, bwd)


def slice_(x: Tensor, key) -> Tensor:
    """Slicing with python slice objects (no steps, no fancy indexing)."""
    if not isinstance(key, tuple):
        key = (key,)
    if len(key) > x.ndim:
        raise GraphConstructionError(
            f"slice key has {len(key)} axes for a {x.ndim}-D tensor")
    for k in key:
        if not isinstance(k, slice) or (k.step not in (None, 1)):
            raise GraphConstructionError(
                "slice supports contiguous python slices only")
    out = x.data[key].copy()
    shape = x.data.shape

    def bwd(g):
        gx = np.zeros(shape, dtype=g.dtype)
        gx[key] = g
        return (gx,)

    return apply_primitive("slice", (x,), out, bwd)


def sum_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.data.sum(axis=axis, keepdims=keepdims)
    shape = x.data.shape

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return apply_primitive("sum", (x,), out, bwd)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax."""
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise GraphConstructionError(
            f"cross_entropy shape mismatch: logits {logits.shape}, "
            f"targets {targets.shape}")
    if targets.size == 0:
        raise GraphConstructionError("cross_entropy on zero targets")
    if targets.min() < 0 or targets.max() >= logits.shape[1]:
        raise GraphConstructionError("cross_entropy target id out of range")
    m = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    n = targets.shape[0]
    out = np.asarray(-logp[np.arange(n), targets].mean(), dtype=logits.dtype)
    soft = np.exp(logp)

    def bwd(g):
        gl = soft.copy()
        gl[np.arange(n), targets] -= 1.0
        return (gl * (g / n),)

    return apply_primitive("cross_entropy", (logits,), out, bwd)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None,
            training: bool) -> Tensor:
    """Inverted dropout; exact identity (same tensor) when not training
    or at p = 0, the two cases that draw nothing from rng.  Backward
    keeps the mask as a bool array, a quarter of a float32 copy."""
    if not 0.0 <= p < 1.0:
        raise GraphConstructionError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = rng.random(x.shape) >= p
    scale = 1.0 / (1.0 - p)
    out = x.data * keep * scale

    def bwd(g):
        return (g * keep * scale,)

    return apply_primitive("dropout", (x,), out, bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              rel_table: Tensor | None = None, causal: bool = False,
              p: float = 0.0, rng: np.random.Generator | None = None,
              training: bool = False) -> Tensor:
    """Multi-head scaled dot-product attention as one primitive.

    q is (tq, H*d), k and v are (tk, H*d); the result is (tq, H*d), the
    heads side by side.  Head h computes
    dropout(softmax(q_h k_h^T / sqrt(d) + bias_h + mask)) v_h, where
    bias_h[i, j] = rel_table[clip(j - i, -R, R) + R, h] for a
    (2R+1, H) table, the causal mask adds -1e9 above the diagonal, and
    inverted dropout at rate p draws one (H, tq, tk) mask from rng.

    The bias depends only on j - i, so it is gathered once as an
    (H, tq+tk-1) row and added through a read-only Toeplitz view.
    Backward keeps the softmax output, the dropout mask as bool and the
    per-head q, k, v; it rebuilds the dropped-out weights and the bias
    bins from those when it runs.
    """
    if (q.ndim != 2 or k.ndim != 2 or v.shape != k.shape
            or q.shape[1] != k.shape[1] or q.shape[1] % heads != 0):
        raise GraphConstructionError(
            f"attention shape mismatch: q {q.shape}, k {k.shape}, "
            f"v {v.shape}, heads {heads}")
    if not 0.0 <= p < 1.0:
        raise GraphConstructionError(f"dropout rate must be in [0, 1), got {p}")
    tq, dim = q.shape
    tk = k.shape[0]
    d = dim // heads
    qh = q.data.reshape(tq, heads, d).transpose(1, 0, 2).copy()  # (H, tq, d)
    kt = k.data.reshape(tk, heads, d).transpose(1, 2, 0).copy()  # (H, d, tk)
    vh = v.data.reshape(tk, heads, d).transpose(1, 0, 2).copy()  # (H, tk, d)
    scale = np.asarray(1.0 / np.sqrt(d), dtype=q.dtype)
    scores = np.matmul(qh, kt) * scale
    inputs = (q, k, v)
    rows = 0  # relative bias table rows, 0 without a table
    if rel_table is not None:
        rows = rel_table.shape[0]
        radius = (rows - 1) // 2
        if rel_table.shape != (2 * radius + 1, heads):
            raise GraphConstructionError(
                f"relative bias table {rel_table.shape} for {heads} heads")
        # table row of every offset j - i from -(tq-1) to tk-1
        offset_ids = np.clip(np.arange(1 - tq, tk), -radius, radius) + radius
        bias = _toeplitz(rel_table.data.T[:, offset_ids], tq)
        if np.result_type(scores, bias) == scores.dtype:
            scores += bias
        else:  # a wider table promotes the scores, as an add would
            scores = scores + bias
        inputs += (rel_table,)
    if causal:
        scores += np.triu(np.full((tq, tk), -1e9, dtype=q.dtype), k=1)
    # a NaN score makes its row maximum NaN
    row_max = np.max(scores, axis=-1, keepdims=True)
    if np.isnan(row_max).any():
        raise FloatingPointError("attention softmax input contains NaN")
    probs = np.exp(np.subtract(scores, row_max, out=scores), out=scores)
    probs /= np.sum(probs, axis=-1, keepdims=True)
    keep = None
    keep_scale = 1.0 / (1.0 - p)
    if training and p > 0.0:
        keep = rng.random(probs.shape) >= p

    def dropped():
        return probs if keep is None else probs * keep * keep_scale

    def merge_heads(x):
        # (H, t, d) -> (t, H*d) as a fresh C-ordered array: a strided view
        # would change how numpy sums and multiplies it downstream
        return x.transpose(1, 0, 2).copy().reshape(x.shape[1], dim)

    out = merge_heads(np.matmul(dropped(), vh))

    def bwd(g):
        gh = g.reshape(tq, heads, d).transpose(1, 0, 2)
        gv = np.matmul(dropped().transpose(0, 2, 1), gh)
        gw = np.matmul(gh, vh.transpose(0, 2, 1))
        if keep is not None:
            gw = gw * keep * keep_scale
        gs = (gw - np.sum(gw * probs, axis=-1, keepdims=True)) * probs
        gsc = gs * scale
        gq = np.matmul(gsc, kt.transpose(0, 2, 1))
        gkt = np.matmul(qh.transpose(0, 2, 1), gsc)
        grads = (merge_heads(gq), merge_heads(gkt.transpose(0, 2, 1)),
                 merge_heads(gv))
        if not rows:
            return grads
        # one np.add.at over (head, offset) bins sums each bias entry's
        # scores in row order and in the table's dtype, as the per-head
        # embedding gather did; np.bincount would sum in float64
        bins = _toeplitz(offset_ids, tq) + rows * np.arange(heads)[:, None, None]
        gt = np.zeros(heads * rows, dtype=gs.dtype)
        np.add.at(gt, bins.ravel(), gs.ravel())
        return grads + (gt.reshape(heads, rows).T,)

    return apply_primitive("attention", inputs, out, bwd)


def _toeplitz(row: np.ndarray, tq: int) -> np.ndarray:
    """The read-only (..., tq, tk) view m[..., i, j] = row[..., tq-1-i+j]
    of a (..., tq+tk-1) array whose last axis runs over offsets j - i:
    row i starts at offset -i and steps back one element per row."""
    *lead, n = row.shape
    step = row.strides[-1]
    return np.lib.stride_tricks.as_strided(
        row[..., tq - 1:], shape=(*lead, tq, n - tq + 1),
        strides=(*row.strides[:-1], -step, step), writeable=False)
