# cython: language_level=3
"""Compiled kernels: CTC forward-backward, CTC prefix scoring, edit counts.

Same semantics as asrkit.kernels.pure, except that ctc_loss_grad takes
one (T, V) posterior only; asrkit.kernels lifts it to a (K, T, V) stack
and picks whichever backend is available.
"""

import numpy as np

cimport numpy as cnp
from libc.math cimport exp, log1p, INFINITY, isinf

cnp.import_array()


cdef inline double logaddexp2_(double a, double b) nogil:
    if a == -INFINITY:
        return b
    if b == -INFINITY:
        return a
    if a >= b:
        return a + log1p(exp(b - a))
    return b + log1p(exp(a - b))


def ctc_loss_grad(log_post, labels):
    """CTC negative log-likelihood and gradient w.r.t. log posteriors."""
    cdef cnp.ndarray[cnp.float64_t, ndim=2] lp = \
        np.ascontiguousarray(log_post, dtype=np.float64)
    cdef cnp.ndarray[cnp.int64_t, ndim=1] lab = \
        np.asarray(labels, dtype=np.int64)
    cdef Py_ssize_t T = lp.shape[0]
    cdef Py_ssize_t V = lp.shape[1]
    cdef Py_ssize_t U = lab.shape[0]
    cdef Py_ssize_t S = 2 * U + 1
    cdef cnp.ndarray[cnp.int64_t, ndim=1] ext = np.zeros(S, dtype=np.int64)
    cdef Py_ssize_t i, t, s
    for i in range(U):
        ext[2 * i + 1] = lab[i]

    cdef cnp.ndarray[cnp.float64_t, ndim=2] alpha = \
        np.full((T, S), -np.inf, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=2] beta = \
        np.full((T, S), -np.inf, dtype=np.float64)
    cdef double acc, total
    alpha[0, 0] = lp[0, 0]
    if S > 1:
        alpha[0, 1] = lp[0, ext[1]]
    for t in range(1, T):
        for s in range(S):
            acc = alpha[t - 1, s]
            if s >= 1:
                acc = logaddexp2_(acc, alpha[t - 1, s - 1])
            if s >= 2 and ext[s] != 0 and ext[s] != ext[s - 2]:
                acc = logaddexp2_(acc, alpha[t - 1, s - 2])
            alpha[t, s] = acc + lp[t, ext[s]]

    total = alpha[T - 1, S - 1]
    if S > 1:
        total = logaddexp2_(total, alpha[T - 1, S - 2])

    beta[T - 1, S - 1] = lp[T - 1, ext[S - 1]]
    if S > 1:
        beta[T - 1, S - 2] = lp[T - 1, ext[S - 2]]
    for t in range(T - 2, -1, -1):
        for s in range(S):
            acc = beta[t + 1, s]
            if s + 1 < S:
                acc = logaddexp2_(acc, beta[t + 1, s + 1])
            if s + 2 < S and ext[s + 2] != 0 and ext[s + 2] != ext[s]:
                acc = logaddexp2_(acc, beta[t + 1, s + 2])
            beta[t, s] = acc + lp[t, ext[s]]

    cdef cnp.ndarray[cnp.float64_t, ndim=2] grad = \
        np.zeros((T, V), dtype=np.float64)
    cdef double g
    for t in range(T):
        for s in range(S):
            # alpha and beta both include the frame-t emission; drop one copy
            g = alpha[t, s] + beta[t, s] - lp[t, ext[s]] - total
            if not isinf(g):
                grad[t, ext[s]] -= exp(g)
    return -total, grad


def ctc_prefix_all(log_post, last, r_prev, empty):
    """Extend one CTC prefix by every vocabulary token at once."""
    cdef cnp.ndarray[cnp.float64_t, ndim=2] lp = \
        np.ascontiguousarray(log_post, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=2] rp = \
        np.ascontiguousarray(r_prev, dtype=np.float64)
    cdef Py_ssize_t T = lp.shape[0]
    cdef Py_ssize_t V = lp.shape[1]
    cdef Py_ssize_t last_id = -1 if empty else last
    cdef bint is_empty = bool(empty)

    cdef cnp.ndarray[cnp.float64_t, ndim=2] phi = \
        np.empty((T, V), dtype=np.float64)
    cdef Py_ssize_t t, c
    cdef double both
    for t in range(T):
        both = logaddexp2_(rp[t, 0], rp[t, 1])
        for c in range(V):
            phi[t, c] = both
        if last_id >= 0:
            phi[t, last_id] = rp[t, 1]

    cdef cnp.ndarray[cnp.float64_t, ndim=3] r_new = \
        np.full((V, T, 2), -np.inf, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] psi = \
        np.full(V, -np.inf, dtype=np.float64)
    cdef double phi_start = 0.0 if is_empty else -INFINITY
    for c in range(V):
        r_new[c, 0, 0] = lp[0, c] + phi_start
        psi[c] = phi_start + lp[0, c]
    for t in range(1, T):
        for c in range(V):
            r_new[c, t, 0] = lp[t, c] + \
                logaddexp2_(r_new[c, t - 1, 0], phi[t - 1, c])
            r_new[c, t, 1] = lp[t, 0] + \
                logaddexp2_(r_new[c, t - 1, 1], r_new[c, t - 1, 0])
            psi[c] = logaddexp2_(psi[c], phi[t - 1, c] + lp[t, c])
    return psi, r_new


def edit_counts(ref, hyp):
    """Levenshtein counts (S, D, I), substitutions preferred among minima."""
    cdef cnp.ndarray[cnp.int64_t, ndim=1] r = np.asarray(ref, dtype=np.int64)
    cdef cnp.ndarray[cnp.int64_t, ndim=1] h = np.asarray(hyp, dtype=np.int64)
    cdef Py_ssize_t n = r.shape[0]
    cdef Py_ssize_t m = h.shape[0]
    cdef cnp.ndarray[cnp.int64_t, ndim=2] total = \
        np.zeros((n + 1, m + 1), dtype=np.int64)
    cdef cnp.ndarray[cnp.int64_t, ndim=2] di = \
        np.zeros((n + 1, m + 1), dtype=np.int64)
    cdef Py_ssize_t i, j
    cdef cnp.int64_t best_t, best_di, cand_t, cand_di, sub_cost
    for i in range(n + 1):
        total[i, 0] = i
        di[i, 0] = i
    for j in range(m + 1):
        total[0, j] = j
        di[0, j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub_cost = 0 if r[i - 1] == h[j - 1] else 1
            best_t = total[i - 1, j - 1] + sub_cost
            best_di = di[i - 1, j - 1]
            cand_t = total[i - 1, j] + 1
            cand_di = di[i - 1, j] + 1
            if cand_t < best_t or (cand_t == best_t and cand_di < best_di):
                best_t = cand_t
                best_di = cand_di
            cand_t = total[i, j - 1] + 1
            cand_di = di[i, j - 1] + 1
            if cand_t < best_t or (cand_t == best_t and cand_di < best_di):
                best_t = cand_t
                best_di = cand_di
            total[i, j] = best_t
            di[i, j] = best_di
    cdef cnp.int64_t t_fin = total[n, m]
    cdef cnp.int64_t dpi = di[n, m]
    cdef cnp.int64_t deletions = (dpi + (n - m)) // 2
    return int(t_fin - dpi), int(deletions), int(dpi - deletions)
