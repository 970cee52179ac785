"""Brute-force reference implementations used to check the fast paths."""

import hashlib
import itertools
from functools import lru_cache

import numpy as np

from asrkit import tensor as T
from asrkit.beam import BeamResult, Hypothesis, prefix_head
from asrkit.ctc import (PrefixState, ctc_complete_logprob,
                        ctc_prefix_extend_all, ctc_prefix_initial)
from asrkit.errors import (GraphConstructionError, ImpossibleAlignmentError,
                           ValidationError)
from asrkit.model import ATT_WEIGHT, CTC_WEIGHT, TAP_WEIGHT
from asrkit.nn import Module, inference, seed_dropout
from asrkit.optim import BETA1, BETA2, EPS, warmup_inv_sqrt
from asrkit.rng import rng_for
from asrkit.ssl import (NUM_DISTRACTORS, masked_prediction_accuracy,
                        quantize, span_mask_indices)
from asrkit.tensor import Tensor
from asrkit.vocab import Vocab

# a five-token vocabulary whose CTC alphabet is exactly {blank, 1, 2}
TINY_TOKENS = ("<blank>", "a", "b", "<sos>", "<eos>")


def tiny_vocab() -> Vocab:
    return Vocab(tokens=TINY_TOKENS)


def collapse(path) -> tuple[int, ...]:
    out = []
    prev = None
    for p in path:
        if p != prev and p != 0:
            out.append(int(p))
        prev = p
    return tuple(out)


def ctc_logprob_by_sequence(log_post: np.ndarray) -> dict:
    """Total probability of every collapsed sequence, by enumerating all
    V^T frame paths."""
    t_len, v = log_post.shape
    table = {}
    for path in itertools.product(range(v), repeat=t_len):
        lp = sum(log_post[t, p] for t, p in enumerate(path))
        seq = collapse(path)
        table[seq] = np.logaddexp(table[seq], lp) if seq in table else lp
    return table


def two_pass_ctc_loss_grad(log_post: np.ndarray, labels: np.ndarray):
    """CTC loss and gradient for one (T, V) posterior, with alpha and
    beta as two separate loops over T: the reference for the fused
    kernel, which must match it bit for bit."""
    log_post = np.ascontiguousarray(log_post, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    t_len, _ = log_post.shape
    S = 2 * labels.shape[0] + 1
    ext = np.zeros(S, dtype=np.int64)
    ext[1::2] = labels

    alpha = np.full((t_len, S), -np.inf)
    alpha[0, 0] = log_post[0, 0]
    if S > 1:
        alpha[0, 1] = log_post[0, ext[1]]
    same_as_two_back = np.zeros(S, dtype=bool)
    if S > 2:
        same_as_two_back[2:] = ext[2:] == ext[:-2]
    for t in range(1, t_len):
        prev = alpha[t - 1]
        step = np.full(S, -np.inf)
        step[1:] = prev[:-1]
        skip = np.full(S, -np.inf)
        skip[2:] = prev[:-2]
        skip[(ext == 0) | same_as_two_back] = -np.inf
        alpha[t] = np.logaddexp(np.logaddexp(prev, step), skip) \
            + log_post[t, ext]

    total = alpha[t_len - 1, S - 1]
    if S > 1:
        total = np.logaddexp(total, alpha[t_len - 1, S - 2])

    beta = np.full((t_len, S), -np.inf)
    beta[t_len - 1, S - 1] = log_post[t_len - 1, ext[S - 1]]
    if S > 1:
        beta[t_len - 1, S - 2] = log_post[t_len - 1, ext[S - 2]]
    for t in range(t_len - 2, -1, -1):
        nxt = beta[t + 1]
        step = np.full(S, -np.inf)
        step[:-1] = nxt[1:]
        skip = np.full(S, -np.inf)
        skip[:-2] = nxt[2:]
        blocked = np.zeros(S, dtype=bool)
        blocked[:-2] = (ext[2:] == 0) | (ext[2:] == ext[:-2])
        skip[blocked] = -np.inf
        beta[t] = np.logaddexp(np.logaddexp(nxt, step), skip) \
            + log_post[t, ext]

    gamma = alpha + beta - log_post[:, ext] - total
    grad = np.zeros_like(log_post)
    occ = np.exp(gamma)
    occ[~np.isfinite(gamma)] = 0.0
    for s in range(S):
        grad[:, ext[s]] -= occ[:, s]
    return -float(total), grad


def out_of_place_ctc_loss_grad(log_post: np.ndarray, labels: np.ndarray):
    """kernels.pure.ctc_loss_grad as it was before it built the state
    occupancies in place: the emissions and the forward variables live
    to the end, and gamma is a fresh array, gathering log_post again.
    The in-place kernel must match it bit for bit."""
    log_post = np.ascontiguousarray(log_post, dtype=np.float64)
    if log_post.ndim == 2:
        loss, grad = out_of_place_ctc_loss_grad(log_post[None], labels)
        return float(loss[0]), grad[0]
    labels = np.asarray(labels, dtype=np.int64)
    K, t_len, _ = log_post.shape
    S = 2 * labels.shape[0] + 1
    ext = np.zeros(S, dtype=np.int64)
    ext[1::2] = labels

    def skip_allowed(ext):
        allowed = ext != 0
        allowed[2:] &= ext[2:] != ext[:-2]
        return allowed

    emit = np.empty((t_len, 2 * K, S))
    emit[:, :K] = log_post[:, :, ext].transpose(1, 0, 2)
    emit[:, K:] = emit[::-1, :K, ::-1]
    can_skip = np.empty((2 * K, S), dtype=bool)
    can_skip[:K] = skip_allowed(ext)
    can_skip[K:] = skip_allowed(ext[::-1])
    can_skip = can_skip[:, 2:]

    fwd = np.full((t_len, 2 * K, S), -np.inf)
    fwd[0, :, 0] = emit[0, :, 0]
    if S > 1:
        fwd[0, :, 1] = emit[0, :, 1]
    step = np.full((2 * K, S), -np.inf)
    skip = np.full((2 * K, S), -np.inf)
    for t in range(1, t_len):
        prev = fwd[t - 1]
        step[:, 1:] = prev[:, :-1]
        np.copyto(skip[:, 2:], prev[:, :-2], where=can_skip)
        cur = fwd[t]
        np.logaddexp(prev, step, out=cur)
        np.logaddexp(cur, skip, out=cur)
        cur += emit[t]

    alpha = fwd[:, :K].transpose(1, 0, 2)
    beta = fwd[::-1, K:, ::-1].transpose(1, 0, 2)
    total = alpha[:, t_len - 1, S - 1]
    if S > 1:
        total = np.logaddexp(total, alpha[:, t_len - 1, S - 2])
    gamma = (alpha + beta - log_post[:, :, ext]
             - total[:, None, None])
    occ = np.exp(gamma)
    occ[~np.isfinite(gamma)] = 0.0
    grad = np.zeros_like(log_post)
    for s in range(S):
        grad[:, :, ext[s]] -= occ[:, :, s]
    return -total, grad


def seeded_decode_fn(seed: int, width: int):
    """A deterministic fake decoder: each prefix maps to a fixed
    normalized log-probability row."""

    def decode_fn(prefix):
        rng = rng_for(seed, "fake-att", *[str(int(p)) for p in prefix])
        row = rng.normal(size=width)
        return row - np.logaddexp.reduce(row)

    return decode_fn


def brute_force_counts(ref, hyp):
    """Minimal (S, D, I), preferring more substitutions among
    minimal-cost alignments.  Independent recursive formulation."""
    n, m = len(ref), len(hyp)

    @lru_cache(maxsize=None)
    def best(i, j):
        # (total, -substitutions, (S, D, I)) of the best suffix alignment
        if i == n and j == m:
            return (0, 0, (0, 0, 0))
        cands = []
        if i < n:
            t, ns, (s, d, ii) = best(i + 1, j)
            cands.append((t + 1, ns, (s, d + 1, ii)))
        if j < m:
            t, ns, (s, d, ii) = best(i, j + 1)
            cands.append((t + 1, ns, (s, d, ii + 1)))
        if i < n and j < m:
            sub = int(ref[i] != hyp[j])
            t, ns, (s, d, ii) = best(i + 1, j + 1)
            cands.append((t + sub, ns - sub, (s + sub, d, ii)))
        return min(cands)

    return best(0, 0)[2]


def joint_brute_force(log_post: np.ndarray, decode_fn, vocab: Vocab,
                      lambda_ctc: float, max_len: int,
                      language: str | None = None):
    """Argmax of the joint score over every character sequence up to
    max_len, with the searcher's tie-break: higher joint, then shorter,
    then lexicographically smaller."""
    head = (vocab.sos_id,)
    if language is not None:
        head = (vocab.sos_id, vocab.lang_id(language))
    ctc_table = ctc_logprob_by_sequence(log_post)
    eos = vocab.eos_id
    best = None
    for n in range(max_len + 1):
        for seq in itertools.product(vocab.char_ids, repeat=n):
            att = 0.0
            for i, c in enumerate(seq):
                att += float(decode_fn(head + seq[:i])[c])
            att += float(decode_fn(head + seq)[eos])
            ctc = float(ctc_table.get(seq, -np.inf))
            # a zero-weighted term is left out, so 0 * -inf adds nothing
            joint = sum(w * x for w, x in ((lambda_ctc, ctc),
                                           (1.0 - lambda_ctc, att)) if w)
            key = (-joint, n, seq)
            if best is None or key < best[0]:
                best = (key, seq, joint, ctc, att)
    _, seq, joint, ctc, att = best
    return seq, joint, ctc, att


def full_beam_search(ctc_log_post: np.ndarray, decode_fn, vocab: Vocab, cfg,
                     language: str | None = None) -> list:
    """joint_beam_search without early stopping: every step up to
    max_len runs, so every hypothesis the beam admits gets its chance to
    finish."""
    eos = vocab.eos_id
    head = prefix_head(vocab, language)
    live = [Hypothesis(tokens=(), ctc_state=ctc_prefix_initial(ctc_log_post),
                       att_logprob=0.0, ctc_logprob=0.0,
                       lambda_ctc=cfg.lambda_ctc)]
    finished = []
    for _ in range(cfg.max_len + 1):
        if not live:
            break
        extensions = []
        for hyp in live:
            att_next = decode_fn(head + hyp.tokens)
            psi, r_new = ctc_prefix_extend_all(ctc_log_post, hyp.ctc_state)
            if len(hyp.tokens) < cfg.max_len:
                for c in vocab.char_ids:
                    extensions.append(Hypothesis(
                        tokens=hyp.tokens + (c,),
                        ctc_state=PrefixState(r=r_new[c], last=int(c)),
                        att_logprob=hyp.att_logprob + float(att_next[c]),
                        ctc_logprob=float(psi[c]),
                        lambda_ctc=cfg.lambda_ctc))
            finished.append(Hypothesis(
                tokens=hyp.tokens,
                ctc_state=None,
                att_logprob=hyp.att_logprob + float(att_next[eos]),
                ctc_logprob=ctc_complete_logprob(hyp.ctc_state),
                lambda_ctc=cfg.lambda_ctc))
        extensions.sort(key=Hypothesis.sort_key)
        live = extensions[: cfg.beam_size]
    finished.sort(key=Hypothesis.sort_key)
    return [BeamResult(tokens=h.tokens, joint=h.joint, ctc=h.ctc_logprob,
                       att=h.att_logprob)
            for h in finished[: cfg.nbest]]


def full_search_transcribe(model, feat, cfg, language: str | None = None
                           ) -> list:
    """AsrModel.transcribe with full_beam_search in place of the
    early-stopping search; the model's train/eval mode is restored."""
    with inference(model):
        enc = model.encode(feat)

        def decode_fn(prefix):
            return model.decoder.decode_step(enc, np.asarray(prefix))

        return full_beam_search(
            enc.final_log_posterior.data.astype(np.float64), decode_fn,
            model.vocab, cfg, language=language)


# two 2-D primitives only the head-by-head reference below needs;
# registered here so graphs built by the reference stay legal
T.register_primitive("transpose")
T.register_primitive("reshape")


def transpose(x):
    if x.ndim != 2:
        raise GraphConstructionError(
            f"transpose expects a 2-D tensor, got {x.shape}")
    out = x.data.T.copy()

    def bwd(g):
        return (g.T,)

    return T.apply_primitive("transpose", (x,), out, bwd)


def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise GraphConstructionError(
            f"cannot reshape {x.shape} to {shape}") from None
    old = x.data.shape

    def bwd(g):
        return (g.reshape(old),)

    return T.apply_primitive("reshape", (x,), out.copy(), bwd)


def per_head_attention(q, k, v, heads: int, rel_table=None,
                       causal: bool = False, p: float = 0.0, rng=None,
                       training: bool = False):
    """tensor.attention built head by head from 2-D primitives: slices,
    a transpose, two matmuls, the bias gathered through embedding, the
    mask, softmax and dropout per head, then a concat of the heads."""
    tq, dim = q.shape
    tk = k.shape[0]
    head_dim = dim // heads
    scale = 1.0 / np.sqrt(head_dim)

    bias3 = None
    if rel_table is not None:
        radius = (rel_table.shape[0] - 1) // 2
        offsets = np.arange(tk)[None, :] - np.arange(tq)[:, None]
        ids = np.clip(offsets, -radius, radius) + radius
        bias3 = T.embedding(rel_table, ids)  # (tq, tk, heads)

    mask = None
    if causal:
        mask = T.constant(
            np.triu(np.full((tq, tk), -1e9, dtype=q.dtype), k=1))

    outs = []
    for h in range(heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        qh = q[:, lo:hi]
        kh = k[:, lo:hi]
        vh = v[:, lo:hi]
        scores = T.matmul(qh, transpose(kh)) * scale
        if bias3 is not None:
            scores = scores + reshape(bias3[:, :, h:h + 1], (tq, tk))
        if mask is not None:
            scores = scores + mask
        attn = T.dropout(T.softmax(scores, axis=-1), p, rng, training)
        outs.append(T.matmul(attn, vh))
    return T.concat(outs, axis=1)


def gather_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                     rel_table: Tensor | None = None, causal: bool = False,
                     p: float = 0.0, rng: np.random.Generator | None = None,
                     training: bool = False) -> Tensor:
    """tensor.attention as it was before the Toeplitz bias: the bias is
    gathered through a saved (tq, tk) int64 `ids` array, and backward
    keeps the float dropout mask and the dropped-out weights.

    Multi-head scaled dot-product attention as one primitive.

    q is (tq, H*d), k and v are (tk, H*d); the result is (tq, H*d), the
    heads side by side.  Head h computes
    dropout(softmax(q_h k_h^T / sqrt(d) + bias_h + mask)) v_h, where
    bias_h[i, j] = rel_table[clip(j - i, -R, R) + R, h] for a
    (2R+1, H) table, the causal mask adds -1e9 above the diagonal, and
    inverted dropout at rate p draws one (H, tq, tk) mask from rng.
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
    if rel_table is not None:
        radius = (rel_table.shape[0] - 1) // 2
        if rel_table.shape != (2 * radius + 1, heads):
            raise GraphConstructionError(
                f"relative bias table {rel_table.shape} for {heads} heads")
        offsets = np.arange(tk)[None, :] - np.arange(tq)[:, None]
        ids = np.clip(offsets, -radius, radius) + radius  # (tq, tk)
        scores = scores + rel_table.data.T[:, ids]
        inputs += (rel_table,)
    if causal:
        scores = scores + np.triu(np.full((tq, tk), -1e9, dtype=q.dtype), k=1)
    if np.isnan(scores).any():
        raise FloatingPointError("attention softmax input contains NaN")
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    probs = e / np.sum(e, axis=-1, keepdims=True)
    weights, keep = probs, None
    keep_scale = 1.0 / (1.0 - p)
    if training and p > 0.0:
        keep = (rng.random(probs.shape) >= p).astype(probs.dtype)
        weights = probs * keep * keep_scale

    def merge_heads(x):
        # (H, t, d) -> (t, H*d) as a fresh C-ordered array: a strided view
        # would change how numpy sums and multiplies it downstream
        return x.transpose(1, 0, 2).copy().reshape(x.shape[1], dim)

    out = merge_heads(np.matmul(weights, vh))

    def bwd(g):
        gh = g.reshape(tq, heads, d).transpose(1, 0, 2)
        gv = np.matmul(weights.transpose(0, 2, 1), gh)
        gw = np.matmul(gh, vh.transpose(0, 2, 1))
        if keep is not None:
            gw = gw * keep * keep_scale
        gs = (gw - np.sum(gw * probs, axis=-1, keepdims=True)) * probs
        gsc = gs * scale
        gq = np.matmul(gsc, kt.transpose(0, 2, 1))
        gkt = np.matmul(qh.transpose(0, 2, 1), gsc)
        grads = (merge_heads(gq), merge_heads(gkt.transpose(0, 2, 1)),
                 merge_heads(gv))
        if rel_table is None:
            return grads
        # one np.add.at over (head, offset) bins sums each bias entry's
        # scores in row order and in the table's dtype, as the per-head
        # embedding gather did; np.bincount would sum in float64
        rows = rel_table.shape[0]
        bins = ids.ravel() + rows * np.arange(heads)[:, None]
        gt = np.zeros(heads * rows, dtype=gs.dtype)
        np.add.at(gt, bins.ravel(), gs.ravel())
        return grads + (gt.reshape(heads, rows).T,)

    return T.apply_primitive("attention", inputs, out, bwd)


def store_every_grad_backward(loss) -> dict:
    """Backward that keeps the graph and a gradient copy for every op
    record, returned as {record: gradient}: the reference for
    tensor.backward, which writes .grad on leaves only and consumes the
    graph, and must give every leaf the same bytes.  It walks records
    and leaves in the engine's order, so every sum runs in that order,
    and a leaf adds each contribution into .grad as it comes, as the
    engine's leaves do."""
    if loss.data.size != 1:
        raise GraphConstructionError(
            f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise GraphConstructionError(
            "loss does not require grad; it is not connected to any parameters")
    root = loss if loss._entry is None else loss._entry

    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if isinstance(node, T._OpRecord):
            for parent in node.inputs:
                if parent is not None and id(parent) not in seen:
                    stack.append((parent, False))

    stored = {}
    messages = {id(root): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = messages.pop(id(node), None)
        if g is None:
            continue
        if not isinstance(node, T._OpRecord):
            # only a loss that is itself a leaf gets here with a message
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        stored[node] = g.copy()
        for parent, gi in zip(node.inputs, node.backward(g)):
            if gi is None or parent is None:
                continue
            if isinstance(parent, T._OpRecord):
                dtype, shape = parent.dtype, parent.shape
            else:
                dtype, shape = parent.data.dtype, parent.data.shape
            gi = np.asarray(gi, dtype=dtype)
            if gi.shape != shape:
                gi = gi.reshape(shape)
            if isinstance(parent, T._OpRecord):
                acc = messages.get(id(parent))
                messages[id(parent)] = gi if acc is None else acc + gi
            else:
                parent.grad = gi.copy() if parent.grad is None \
                    else parent.grad + gi
    return stored


def stacked_conv1d(x: Tensor, w: Tensor, bias: Tensor,
                   stride: int = 1) -> Tensor:
    """tensor.conv1d as it was before the strided windows: the windows
    are an np.stack copy, which backward keeps."""
    T_, cin = x.shape
    K, _, cout = w.shape
    out_len, pl, pr = T._same_pad(T_, K, stride)
    xp = np.zeros((T_ + pl + pr, cin), dtype=x.dtype)
    xp[pl:pl + T_] = x.data
    idx = np.arange(out_len) * stride
    windows = np.stack([xp[idx + k] for k in range(K)], axis=1)
    out = np.tensordot(windows, w.data, axes=([1, 2], [0, 1])) + bias.data
    wd = w.data

    def bwd(g):
        gw = np.tensordot(windows, g, axes=([0], [0]))
        gxp = np.zeros_like(xp)
        for k in range(K):
            np.add.at(gxp, idx + k, g @ wd[k].T)
        return gxp[pl:pl + T_], gw, g.sum(axis=0)

    return T.apply_primitive("conv1d", (x, w, bias), out, bwd)


def stacked_depthwise_conv1d(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """tensor.depthwise_conv1d as it was before the strided windows: the
    windows are an np.stack copy, which backward keeps."""
    T_, C = x.shape
    K = w.shape[0]
    _, pl, pr = T._same_pad(T_, K, 1)
    xp = np.zeros((T_ + pl + pr, C), dtype=x.dtype)
    xp[pl:pl + T_] = x.data
    windows = np.stack([xp[k:k + T_] for k in range(K)], axis=1)
    out = np.einsum("tkc,kc->tc", windows, w.data) + bias.data
    wd = w.data

    def bwd(g):
        gw = np.einsum("tkc,tc->kc", windows, g)
        gxp = np.zeros_like(xp)
        for k in range(K):
            gxp[k:k + T_] += g * wd[k]
        return gxp[pl:pl + T_], gw, g.sum(axis=0)

    return T.apply_primitive("depthwise_conv1d", (x, w, bias), out, bwd)


def combined_backward_train_step(model, opt, batch, features_by_id,
                                 seed: int, stage_index: int, step: int,
                                 frozen_latents: dict | None = None) -> dict:
    """curriculum.train_step as it was before per-utterance backward:
    every utterance is forwarded, a skipped one included, and one
    backward runs over the mean of the batch's losses, so the whole
    batch's graph is live at once."""
    seed_dropout(model, seed, str(stage_index), str(step))
    losses = []
    skipped = 0
    parts = {"ctc": 0.0, "att": 0.0, "taps": 0.0}
    for utt in batch:
        feat = features_by_id[utt.utt_id]
        if frozen_latents is None:
            latent = model.frontend.forward_latent(T.constant(feat.frames))
        else:
            if utt.utt_id not in frozen_latents:
                frozen_latents[utt.utt_id] = \
                    model.frontend.extract_features(feat)
            latent = T.constant(frozen_latents[utt.utt_id])
        try:
            comp = model.utterance_losses(latent, utt.transcript,
                                          utt.language)
        except ImpossibleAlignmentError:
            skipped += 1
            continue
        total = CTC_WEIGHT * comp["ctc"] + ATT_WEIGHT * comp["att"]
        parts["ctc"] += comp["ctc"].item()
        parts["att"] += comp["att"].item()
        if "taps" in comp:
            total = total + TAP_WEIGHT * comp["taps"]
            parts["taps"] += comp["taps"].item()
        losses.append(total)
    if not losses:
        return {"loss_total": float("nan"), "loss_ctc": float("nan"),
                "loss_att": float("nan"), "loss_taps": float("nan"),
                "lr": opt.current_lr, "skipped_samples": skipped}
    mean_loss = losses[0]
    for x in losses[1:]:
        mean_loss = mean_loss + x
    mean_loss = mean_loss * (1.0 / len(losses))
    model.zero_grad()
    T.backward(mean_loss)
    lr = opt.step()
    n = len(losses)
    return {
        "loss_total": mean_loss.item(),
        "loss_ctc": parts["ctc"] / n,
        "loss_att": parts["att"] / n,
        "loss_taps": parts["taps"] / n,
        "lr": lr,
        "skipped_samples": skipped,
    }


def per_character_render_frames(spec, templates: dict, lang, index: int,
                                chars: str) -> np.ndarray:
    """data._render_frames as it was before one noise draw per
    utterance: one draw and one add per character."""
    rng = rng_for(spec.seed, "noise", lang.name, str(index))
    fpt = spec.frames_per_token
    frames = np.empty((len(chars) * fpt, spec.feature_dim), dtype=np.float32)
    for i, ch in enumerate(chars):
        seg = templates[ch][None, :] + rng.normal(
            0.0, spec.noise_std, size=(fpt, spec.feature_dim))
        frames[i * fpt:(i + 1) * fpt] = seg.astype(np.float32)
    return frames


def list_rng_for(seed: int, *labels: str) -> np.random.Generator:
    """rng.rng_for with the SeedSequence key built as a list of Python
    ints: the seed, then four little-endian u32 words of each label's
    SHA-256."""
    entropy = [int(seed)]
    for label in labels:
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        entropy.extend(int.from_bytes(digest[i:i + 4], "little")
                       for i in range(0, 16, 4))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


class PerParameterAdamW:
    """AdamW as one loop over the parameters, with one pair of moment
    arrays each: the reference for the flat optimizer."""

    def __init__(self, params, peak_lr=1e-3, warmup=100):
        self.params = dict(params)
        self.peak_lr = peak_lr
        self.warmup = warmup
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self) -> float:
        self.t += 1
        lr = warmup_inv_sqrt(self.t, self.peak_lr, self.warmup)
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.data = p.data - lr * update
        return lr


# -- the two module walkers nn.Module.walk replaced ---------------------------
#
# _modules_in drove train/eval and seed_dropout; _named_state_in drove
# named_parameters, named_state, load_state and zero_grad.  They are kept
# as they were, with the Buffer class that held the SSL codebook, as the
# reference for the one walk: on the models asrkit builds, both must see
# what Module.walk sees, in the same order.


class Buffer:
    """Persistent non-trainable array owned by a module (e.g. a codebook)."""

    __slots__ = ("value",)

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value)


def _join(prefix, name):
    return f"{prefix}.{name}" if prefix else name


def _modules_in(value):
    if isinstance(value, Module):
        yield value
        for sub in value.__dict__.values():
            yield from _modules_in(sub)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _modules_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _modules_in(item)


def _named_state_in(value, path):
    """Yield (dotted_name, holder) for every trainable Tensor and Buffer
    reachable from value, in attribute order; dict entries go by key."""
    if isinstance(value, Tensor):
        if value.requires_grad:
            yield path, value
    elif isinstance(value, Buffer):
        yield path, value
    elif isinstance(value, Module):
        for name, sub in value.__dict__.items():
            if not name.startswith("_"):
                yield from _named_state_in(sub, _join(path, name))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _named_state_in(item, f"{path}.{i}")
    elif isinstance(value, dict):
        for key in sorted(value, key=str):
            yield from _named_state_in(value[key], f"{path}.{key}")


def two_walk_modules(module):
    """The module walk behind train/eval and seed_dropout before the one
    walk: the module, then _modules_in over every attribute."""
    yield module
    for value in module.__dict__.values():
        yield from _modules_in(value)


# -- the per-frame contrastive loop Frontend.ssl_loss replaced ---------------
#
# Frontend.apply_span_mask and Frontend.ssl_loss as they were, with `self`
# renamed: the masked input as five primitives, and one slice, (1 x 5)
# matmul and scale per masked frame joined by a concat.  The one-product
# form draws the same distractors and must agree with this to rounding.


def per_frame_apply_span_mask(frontend, frames: np.ndarray,
                              rng: np.random.Generator):
    cfg = frontend.cfg
    T_len = frames.shape[0]
    if T_len < cfg.mask_span:
        raise ValidationError(
            f"need at least mask_span={cfg.mask_span} frames, "
            f"got {T_len}")
    idx = span_mask_indices(T_len, rng, cfg.mask_prob, cfg.mask_span)
    if idx.size == 0:
        idx = span_mask_indices(T_len, rng, cfg.mask_prob, cfg.mask_span)
    if idx.size == 0:
        idx = np.arange(cfg.mask_span, dtype=np.int64)
    sel = np.zeros((T_len, 1), dtype=frames.dtype)
    sel[idx] = 1.0
    sel_t = T.constant(sel)
    x = T.constant(frames)
    masked = x * (1.0 - sel_t) + frontend.mask_emb * sel_t
    return masked, idx


def per_frame_ssl_loss(frontend, feat, rng: np.random.Generator):
    cfg = frontend.cfg
    frames = feat.frames
    masked_x, midx = per_frame_apply_span_mask(frontend, frames, rng)
    codes = quantize(frames, frontend.codebook.data)
    mcodes = codes[midx]

    final, tapped = frontend.forward_latent(
        masked_x, tap=cfg.contrastive_tap_block)

    # masked prediction: classify the code id from the final block
    mlm_logits = frontend.mlm_head(T.embedding(final, midx))
    loss_mlm = T.cross_entropy(mlm_logits, mcodes)

    # contrastive: true code vector vs codes of other masked positions
    cvecs = frontend.contrastive_head(T.embedding(tapped, midx))
    scale = 1.0 / np.sqrt(cfg.input_dim)
    rows = []
    n_masked = midx.size
    for i in range(n_masked):
        if n_masked > 1:
            others = rng.choice(n_masked - 1, size=NUM_DISTRACTORS,
                                replace=True)
            others[others >= i] += 1
            cand_codes = np.concatenate([[mcodes[i]], mcodes[others]])
        else:
            cand_codes = np.concatenate(
                [[mcodes[i]],
                 rng.integers(0, cfg.codebook_size,
                              size=NUM_DISTRACTORS)])
        cand = T.constant(
            frontend.codebook.data[cand_codes].T.astype(np.float32))
        rows.append(T.matmul(cvecs[i:i + 1, :], cand) * scale)
    con_logits = T.concat(rows, axis=0)
    loss_con = T.cross_entropy(
        con_logits, np.zeros(n_masked, dtype=np.int64))

    loss = loss_con + loss_mlm
    metrics = {
        "loss_mlm": loss_mlm.item(),
        "loss_contrastive": loss_con.item(),
        "masked_frames": n_masked,
        "masked_fraction": n_masked / frames.shape[0],
        "mlm_accuracy": masked_prediction_accuracy(
            mlm_logits.data, mcodes),
    }
    return loss, metrics
