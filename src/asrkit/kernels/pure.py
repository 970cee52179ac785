"""Pure-numpy kernels: CTC forward-backward, CTC prefix scoring, edit counts.

These are the loop-heavy inner kernels; asrkit.kernels._ctc_ext holds a
compiled twin with the same semantics, whose ctc_loss_grad takes only a
(T, V) posterior (asrkit.kernels lifts it to a (K, T, V) stack).  All
probability math is float64 log-space regardless of caller dtype.
"""

import numpy as np

NEG_INF = -np.float64(np.inf)


def ctc_loss_grad(log_post: np.ndarray, labels: np.ndarray):
    """CTC negative log-likelihood and its gradient w.r.t. log_post.

    log_post: (T, V) float64 log-posteriors (rows normalized), blank id 0,
              or (K, T, V): K posteriors sharing one label.
    labels:   (U,) int32 label ids, no blanks.  The caller guarantees the
              label fits in T frames.
    Returns (loss: float, grad: (T, V) float64) for one posterior and
    (loss: (K,), grad: (K, T, V)) for a stack.

    One recursion over T runs alpha for all K posteriors and beta as
    alpha of the time- and state-reversed problem (Graves et al., 2006),
    as 2K rows of S = 2U + 1 states.
    """
    log_post = np.ascontiguousarray(log_post, dtype=np.float64)
    if log_post.ndim == 2:
        loss, grad = ctc_loss_grad(log_post[None], labels)
        return float(loss[0]), grad[0]
    labels = np.asarray(labels, dtype=np.int64)
    K, T, V = log_post.shape
    U = labels.shape[0]
    S = 2 * U + 1
    ext = np.zeros(S, dtype=np.int64)
    ext[1::2] = labels

    # emit[t, r]: the emissions of row r at frame t; rows K.. hold the
    # reversed problem
    emit = np.empty((T, 2 * K, S))
    emit[:, :K] = log_post[:, :, ext].transpose(1, 0, 2)
    emit[:, K:] = emit[::-1, :K, ::-1]
    can_skip = np.empty((2 * K, S), dtype=bool)
    can_skip[:K] = _skip_allowed(ext)
    can_skip[K:] = _skip_allowed(ext[::-1])
    can_skip = can_skip[:, 2:]

    fwd = _forward(emit, can_skip)
    alpha = fwd[:, :K]
    total = alpha[T - 1, :, S - 1].copy()
    if S > 1:
        total = np.logaddexp(total, alpha[T - 1, :, S - 2])

    # state occupancy gamma = alpha + beta - emission - total, summed
    # left to right: alpha and beta both include the frame-t emission,
    # so it is subtracted once.  gamma is built in place in the half of
    # emit that held the reversed problem, which the recursion no longer
    # needs, and fwd is freed as soon as gamma holds alpha + beta
    gamma = np.add(alpha, fwd[::-1, K:, ::-1], out=emit[:, K:])
    del alpha, fwd
    gamma -= emit[:, :K]
    gamma -= total[:, None]
    lost = ~np.isfinite(gamma)
    np.exp(gamma, out=gamma)
    gamma[lost] = 0.0
    occ = gamma.transpose(1, 0, 2)
    grad = np.zeros_like(log_post)
    for s in range(S):
        grad[:, :, ext[s]] -= occ[:, :, s]
    return -total, grad


def _forward(emit: np.ndarray, can_skip: np.ndarray) -> np.ndarray:
    """The (T, R, S) log-space forward variables of R rows of S states
    from their (T, R, S) emissions; can_skip (R, S - 2) says which
    states from the third on may be entered from two states back."""
    T, _, S = emit.shape
    fwd = np.full(emit.shape, NEG_INF)
    fwd[0, :, 0] = emit[0, :, 0]
    if S > 1:
        fwd[0, :, 1] = emit[0, :, 1]
    step = np.full(emit.shape[1:], NEG_INF)
    skip = np.full(emit.shape[1:], NEG_INF)
    for t in range(1, T):
        prev = fwd[t - 1]
        step[:, 1:] = prev[:, :-1]
        np.copyto(skip[:, 2:], prev[:, :-2], where=can_skip)
        cur = fwd[t]
        np.logaddexp(prev, step, out=cur)
        np.logaddexp(cur, skip, out=cur)
        cur += emit[t]
    return fwd


def _skip_allowed(ext: np.ndarray) -> np.ndarray:
    """Per state of the extended label: may alpha skip into it from two
    states back?  Never into a blank or a repeated label."""
    allowed = ext != 0
    allowed[2:] &= ext[2:] != ext[:-2]
    return allowed


def ctc_prefix_all(log_post: np.ndarray, last: int, r_prev: np.ndarray,
                   empty: bool):
    """Extend one CTC prefix by every vocabulary token at once.

    log_post: (T, V) float64 log-posteriors, blank id 0.
    last:     id of the prefix's final token (ignored when empty=True).
    r_prev:   (T, 2) float64; column 0 = log p(prefix, last frame non-blank),
              column 1 = log p(prefix, last frame blank), per frame.
    empty:    True when the prefix has no tokens yet.

    Returns (psi: (V,) prefix scores for each one-token extension,
             r_new: (V, T, 2) the extensions' state arrays).
    Columns for blank or other never-extended ids are computed but
    meaningless; callers mask them out.
    """
    log_post = np.ascontiguousarray(log_post, dtype=np.float64)
    T, V = log_post.shape
    r_prev = np.asarray(r_prev, dtype=np.float64)

    # phi[t, c]: mass of the old prefix at frame t usable before emitting c;
    # an extension repeating the last token may only come out of blank.
    phi = np.broadcast_to(
        np.logaddexp(r_prev[:, 0], r_prev[:, 1])[:, None], (T, V)).copy()
    if not empty and last >= 0:
        phi[:, last] = r_prev[:, 1]

    r_nb = np.full((T, V), NEG_INF)
    r_b = np.full((T, V), NEG_INF)
    psi = np.full(V, NEG_INF)

    phi_start = np.full(V, 0.0 if empty else NEG_INF)
    r_nb[0] = log_post[0] + phi_start
    psi = phi_start + log_post[0]
    for t in range(1, T):
        r_nb[t] = log_post[t] + np.logaddexp(r_nb[t - 1], phi[t - 1])
        r_b[t] = log_post[t, 0] + np.logaddexp(r_b[t - 1], r_nb[t - 1])
        psi = np.logaddexp(psi, phi[t - 1] + log_post[t])

    r_new = np.stack([r_nb.T, r_b.T], axis=2)  # (V, T, 2)
    return psi, r_new


def edit_counts(ref: np.ndarray, hyp: np.ndarray):
    """Levenshtein alignment counts (substitutions, deletions, insertions).

    Among all minimum-total-edit alignments, the one maximizing the number
    of substitutions is chosen (equivalently, minimizing deletions +
    insertions), which makes the count triple unique.
    """
    ref = np.asarray(ref, dtype=np.int64)
    hyp = np.asarray(hyp, dtype=np.int64)
    n, m = len(ref), len(hyp)
    # per cell: (total edits, deletions + insertions), minimized
    # lexicographically
    total = np.zeros((n + 1, m + 1), dtype=np.int64)
    di = np.zeros((n + 1, m + 1), dtype=np.int64)
    total[:, 0] = np.arange(n + 1)
    di[:, 0] = np.arange(n + 1)
    total[0, :] = np.arange(m + 1)
    di[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub_cost = 0 if ref[i - 1] == hyp[j - 1] else 1
            best_t = total[i - 1, j - 1] + sub_cost
            best_di = di[i - 1, j - 1]
            t_del = total[i - 1, j] + 1
            d_del = di[i - 1, j] + 1
            if (t_del, d_del) < (best_t, best_di):
                best_t, best_di = t_del, d_del
            t_ins = total[i, j - 1] + 1
            d_ins = di[i, j - 1] + 1
            if (t_ins, d_ins) < (best_t, best_di):
                best_t, best_di = t_ins, d_ins
            total[i, j] = best_t
            di[i, j] = best_di
    t, d_plus_i = int(total[n, m]), int(di[n, m])
    # d - i is pinned by the length difference
    deletions = (d_plus_i + (n - m)) // 2
    insertions = d_plus_i - deletions
    subs = t - d_plus_i
    return subs, deletions, insertions
