"""Module system and shared neural building blocks."""

from contextlib import contextmanager

import numpy as np

from . import tensor as T
from .errors import CheckpointError, GraphConstructionError
from .rng import rng_for
from .tensor import Tensor

# FeedForward hidden width, as a multiple of the model width
FFN_MULT = 2
# relative-position bias clip radius of frontend and encoder self-attention
REL_BIAS_RADIUS = 8


def glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int,
           dtype=np.float32) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Module:
    """Base class: owns parameters and state, and a train/eval mode.

    One rule decides what a module owns, and walk() is the only place it
    is applied, so mode switches, dropout seeding, parameters and
    checkpoints all see the same tree: a module owns every Module and
    Tensor reachable through its public attributes, including inside
    lists, tuples and dicts.  Attributes named with a leading "_" are
    private and never walked.  Attribute definition order fixes the walk
    order; list items go by index and dict entries by key as a string.
    State is every Tensor owned; parameters are those with requires_grad.
    """

    def __init__(self):
        self._training = True

    @property
    def training(self) -> bool:
        return self._training

    def train(self, flag: bool = True):
        for m in self._walk_modules():
            m._training = flag
        return self

    def eval(self):
        return self.train(False)

    def walk(self, prefix: str = "") -> list:
        """[(dotted_name, item)] for this module and every Module and
        Tensor it owns, depth first, each module before what it owns."""
        walked = []
        stack = [(prefix, self)]
        while stack:
            entry = stack.pop()
            path, value = entry
            if isinstance(value, Tensor):
                walked.append(entry)
            elif isinstance(value, Module):
                walked.append(entry)
                head = f"{path}." if path else ""
                for name, sub in reversed(value.__dict__.items()):
                    if name[0] != "_" and isinstance(sub, _OWNING):
                        stack.append((head + name, sub))
            elif isinstance(value, dict):
                for key in reversed(sorted(value, key=str)):
                    stack.append((f"{path}.{key}", value[key]))
            elif isinstance(value, (list, tuple)):
                for i in reversed(range(len(value))):
                    stack.append((f"{path}.{i}", value[i]))
        return walked

    def _walk_modules(self):
        return [m for _, m in self.walk() if isinstance(m, Module)]

    def named_parameters(self, prefix: str = ""):
        """Yield (dotted_name, Tensor) for every trainable parameter."""
        for name, item in self.walk(prefix):
            if isinstance(item, Tensor) and item.requires_grad:
                yield name, item

    def named_state(self, prefix: str = ""):
        """Every owned Tensor's array by dotted name, for checkpointing."""
        return {name: item.data for name, item in self.walk(prefix)
                if isinstance(item, Tensor)}

    def load_state(self, arrays: dict[str, np.ndarray]):
        """Copy arrays into the owned Tensors, name for name.

        The names must be exactly those of named_state() and every shape
        must match; otherwise CheckpointError names the offending arrays
        and nothing is copied.
        """
        self.check_state({name: a.shape for name, a in arrays.items()})
        for name, t in self.walk():
            if isinstance(t, Tensor):
                t.data = arrays[name].astype(t.dtype, copy=True)

    def check_state(self, shapes: dict[str, tuple]) -> None:
        """Raise CheckpointError naming every fault unless shapes, a
        name -> shape map, has exactly named_state()'s names and shapes."""
        tensors = {name: item for name, item in self.walk()
                   if isinstance(item, Tensor)}
        faults = [f"missing {name}"
                  for name in sorted(tensors.keys() - shapes.keys())]
        faults += [f"unexpected {name}"
                   for name in sorted(shapes.keys() - tensors.keys())]
        faults += [f"shape mismatch loading {name}: {shapes[name]} "
                   f"vs {t.shape}"
                   for name, t in tensors.items()
                   if name in shapes and tuple(shapes[name]) != t.shape]
        if faults:
            raise CheckpointError("state does not match the model: "
                                  + "; ".join(faults))

    def zero_grad(self):
        for _, p in self.named_parameters():
            p.zero_grad()


# attribute values walk() looks into; anything else a module holds
# (configs, sizes, flags) owns nothing
_OWNING = (Tensor, Module, list, tuple, dict)


@contextmanager
def inference(module: Module):
    """Run the block with module in eval mode under no_grad.

    A module that was training is switched to eval and back; one already
    in eval mode is left as it is.
    """
    was_training = module.training
    if was_training:
        module.eval()
    try:
        with T.no_grad():
            yield
    finally:
        if was_training:
            module.train()


def parameter(data: np.ndarray) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float32), requires_grad=True)


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int,
                 rng: np.random.Generator | None = None,
                 zero_init: bool = False):
        super().__init__()
        if zero_init:
            if rng is not None:
                # burn the draw so sibling layers built from the same
                # stream initialize identically with or without zeroing
                glorot(rng, (in_dim, out_dim), in_dim, out_dim)
            w = np.zeros((in_dim, out_dim), dtype=np.float32)
        else:
            if rng is None:
                raise GraphConstructionError("Linear needs an rng unless zero_init")
            w = glorot(rng, (in_dim, out_dim), in_dim, out_dim)
        self.weight = parameter(w)
        self.bias = parameter(np.zeros(out_dim, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.gamma = parameter(np.ones(dim, dtype=np.float32))
        self.beta = parameter(np.zeros(dim, dtype=np.float32))
        self._eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta, eps=self._eps)


class Embedding(Module):
    def __init__(self, num_rows: int, dim: int, rng: np.random.Generator):
        super().__init__()
        scale = 1.0 / np.sqrt(dim)
        self.table = parameter(
            rng.normal(0.0, scale, size=(num_rows, dim)).astype(np.float32))

    def __call__(self, ids) -> Tensor:
        return T.embedding(self.table, ids)


class Dropout(Module):
    """Train-time dropout; identity in eval mode.

    Both training loops name each layer's stream every step
    (seed_dropout), so draws depend only on the seed and the step,
    never on call history.  The stream's Generator is built on the
    layer's first draw, so a layer that never draws never builds one.
    """

    def __init__(self, p: float = 0.0):
        super().__init__()
        self.p = p
        self._stream = (0,)
        self._rng = None

    @property
    def draws(self) -> bool:
        return self._training and self.p > 0.0

    @property
    def rng(self) -> np.random.Generator:
        """The named stream, built on first use."""
        if self._rng is None:
            self._rng = rng_for(*self._stream)
        return self._rng

    def __call__(self, x: Tensor) -> Tensor:
        return T.dropout(x, self.p, self.rng if self.draws else None,
                         self._training)


def seed_dropout(module: Module, seed: int, *labels: str) -> None:
    """Give each Dropout layer under module its own stream, named
    (seed, "dropout", *labels, i) with i the layer's position in the
    module walk, so no two layers draw the same numbers."""
    for i, mod in enumerate(module._walk_modules()):
        if isinstance(mod, Dropout):
            mod._stream = (seed, "dropout", *labels, str(i))
            mod._rng = None


class FeedForward(Module):
    """Position-wise feed-forward: Linear -> swish -> dropout -> Linear,
    FFN_MULT times wider inside."""

    def __init__(self, dim: int, rng: np.random.Generator,
                 dropout: float = 0.0, zero_out: bool = False):
        super().__init__()
        hidden = dim * FFN_MULT
        self.lin1 = Linear(dim, hidden, rng)
        self.lin2 = Linear(hidden, dim, rng, zero_init=zero_out)
        self.drop = Dropout(dropout)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(self.drop(T.swish(self.lin1(x))))


class MultiHeadAttention(Module):
    """Multi-head scaled dot-product attention over single utterances.

    Self-attention may add a learned relative-position bias (one scalar
    per clipped offset and head, zero-initialized) and a causal mask.
    Cross-attention passes a separate key/value sequence and uses neither.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator,
                 causal: bool = False, rel_bias_radius: int | None = None,
                 dropout: float = 0.0, zero_out: bool = False):
        super().__init__()
        if dim % heads != 0:
            raise GraphConstructionError(
                f"attention dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.causal = causal
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng, zero_init=zero_out)
        if rel_bias_radius is not None:
            self.rel_table = parameter(
                np.zeros((2 * rel_bias_radius + 1, heads), dtype=np.float32))
        else:
            self.rel_table = None
        self.drop = Dropout(dropout)

    def __call__(self, x: Tensor, kv: Tensor | None = None) -> Tensor:
        source = x if kv is None else kv
        heads = T.attention(
            self.wq(x), self.wk(source), self.wv(source), self.heads,
            rel_table=self.rel_table if kv is None else None,
            causal=self.causal, p=self.drop.p,
            rng=self.drop.rng if self.drop.draws else None,
            training=self.drop.training)
        return self.wo(heads)


def sinusoidal_positions(length: int, dim: int,
                         dtype=np.float32) -> np.ndarray:
    """Fixed sin/cos position table (length, dim)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / dim)
    table = np.zeros((length, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, : dim - dim // 2])
    return table.astype(dtype)
