"""The flat AdamW against the per-parameter reference."""

import numpy as np
import pytest

from oracles import PerParameterAdamW
from asrkit import tensor as T
from asrkit.errors import ValidationError
from asrkit.optim import AdamW


def make_params(rng):
    shapes = [(5, 3), (3,), (4, 4, 2), (1,), (7,)]
    return {f"p{i}": T.Tensor(rng.normal(size=s).astype(np.float32),
                              requires_grad=True)
            for i, s in enumerate(shapes)}


def copy_params(params):
    return {k: T.Tensor(p.data.copy(), requires_grad=True)
            for k, p in params.items()}


def test_flat_adamw_equals_the_per_parameter_loop():
    rng = np.random.default_rng(0)
    flat_params = make_params(rng)
    ref_params = copy_params(flat_params)
    flat = AdamW(flat_params, peak_lr=3e-3, warmup=4)
    ref = PerParameterAdamW(ref_params, peak_lr=3e-3, warmup=4)
    frozen = "p3"   # never receives a gradient
    for _ in range(10):
        for name in flat_params:
            if name == frozen:
                flat_params[name].grad = ref_params[name].grad = None
                continue
            g = (rng.normal(size=flat_params[name].shape)
                 * rng.choice([1e-4, 1.0, 30.0])).astype(np.float32)
            flat_params[name].grad = g
            ref_params[name].grad = g.copy()
        assert flat.step() == ref.step()
        for name in flat_params:
            got, want = flat_params[name].data, ref_params[name].data
            assert got.dtype == want.dtype == np.float32
            assert got.tobytes() == want.tobytes(), name


def test_parameter_without_a_gradient_stays_put():
    rng = np.random.default_rng(1)
    params = make_params(rng)
    before = params["p1"].data.copy()
    opt = AdamW(params)
    for _ in range(3):
        for name, p in params.items():
            p.grad = None if name == "p1" else np.ones_like(p.data)
        opt.step()
    assert params["p1"].data.tobytes() == before.tobytes()


def test_a_changed_gradient_set_raises():
    rng = np.random.default_rng(2)
    params = make_params(rng)
    opt = AdamW(params)
    for p in params.values():
        p.grad = np.ones_like(p.data)
    opt.step()
    params["p0"].grad = None
    before = {k: p.data.copy() for k, p in params.items()}
    with pytest.raises(ValidationError):
        opt.step()
    assert opt.t == 1
    for k, p in params.items():
        assert p.data.tobytes() == before[k].tobytes()


def big_params(n):
    rng = np.random.default_rng(3)
    params = {f"p{i}": T.Tensor(rng.normal(size=s).astype(np.float32),
                                requires_grad=True)
              for i, s in enumerate([(n // 2,), (n // 4, 2), (7,)])}
    for p in params.values():
        p.grad = rng.normal(size=p.shape).astype(np.float32)
    return params


def test_between_steps_adamw_holds_its_two_moments_only():
    import tracemalloc
    params = big_params(100_000)
    n = sum(p.data.size for p in params.values())
    tracemalloc.start()
    try:
        opt = AdamW(params)
        opt.step()
        opt.step()
        held = tracemalloc.get_traced_memory()[0]
        del opt
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # m and v; flat gradient and update buffers kept between steps
    # would double it
    assert freed <= 2 * 4 * n + 16 * 1024, (freed, n)


def snapshot(opt, params):
    return (opt.t, opt.m.tobytes(), opt.v.tobytes(),
            {k: p.data.tobytes() for k, p in params.items()})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_gradient_changes_nothing(bad):
    rng = np.random.default_rng(4)
    params = make_params(rng)
    opt = AdamW(params, peak_lr=1e-2, warmup=2)
    for _ in range(2):
        for p in params.values():
            p.grad = rng.normal(size=p.shape).astype(np.float32)
        opt.step()
    for p in params.values():
        p.grad = rng.normal(size=p.shape).astype(np.float32)
    params["p2"].grad[1, 3, 0] = bad
    params["p4"].grad[0] = bad
    before = snapshot(opt, params)
    with pytest.raises(FloatingPointError, match="'p2'"):
        opt.step()
    assert snapshot(opt, params) == before
    # the same step with a finite gradient goes through as usual
    params["p2"].grad[1, 3, 0] = params["p4"].grad[0] = 0.0
    opt.step()
    assert opt.t == 3
