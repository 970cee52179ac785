"""Correctness checks the benchmark runs on the program's outputs.

Each check raises CheckFailed naming itself; run.py turns that into a
non-zero exit.  The edit-distance reference here is written
independently of asrkit.kernels so the score workload can verify the
kernel's S/D/I totals.
"""

import math

import numpy as np


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def losses_finite(rows, what: str) -> None:
    """Every logged training loss is a finite number."""
    for row in rows:
        loss = row["loss_total"]
        if not math.isfinite(loss):
            raise CheckFailed("loss_finite",
                              f"{what} step {row.get('step')} logged {loss}")


def loss_decreases(rows, what: str, window: int = 10) -> None:
    """The mean of the last `window` losses is below that of the first."""
    losses = [row["loss_total"] for row in rows]
    window = min(window, len(losses) // 2)
    if window < 1:
        raise CheckFailed("loss_decreases", f"{what}: too few steps logged")
    first = sum(losses[:window]) / window
    last = sum(losses[-window:]) / window
    if not last < first:
        raise CheckFailed(
            "loss_decreases",
            f"{what}: mean of last {window} losses {last:.4f} is not below "
            f"the first {window} {first:.4f}")


def arrays_identical(name: str, a: np.ndarray, b: np.ndarray) -> None:
    """Bit-for-bit equality of two arrays."""
    if a.shape != b.shape or a.dtype != b.dtype or not np.array_equal(
            a.view(np.uint8), b.view(np.uint8)):
        raise CheckFailed("checkpoint_roundtrip",
                          f"{name}: reloaded output differs from in-memory")


def joint_consistent(rows, lambda_ctc: float) -> None:
    """joint == lambda * ctc + (1 - lambda) * att for every result row."""
    for row in rows:
        want = lambda_ctc * row["ctc"] + (1.0 - lambda_ctc) * row["att"]
        if not math.isclose(row["joint"], want, rel_tol=1e-9, abs_tol=1e-9):
            raise CheckFailed(
                "joint_score",
                f"{row['utt_id']}: joint {row['joint']!r} != "
                f"{lambda_ctc}*ctc + {1.0 - lambda_ctc}*att = {want!r}")


def decode_repeatable(first: list, second: list, utt_id: str) -> None:
    """Two decodes of one utterance give identical results."""
    if first != second:
        raise CheckFailed("decode_repeatable",
                          f"{utt_id}: second decode differs from the first")


def reference_edit_counts(ref: list, hyp: list) -> tuple[int, int, int]:
    """(S, D, I) of a minimal alignment preferring substitutions.

    Plain row-by-row dynamic programming over (total edits, -subs),
    minimized lexicographically, carrying the S/D/I triple per cell.
    """
    prev = [(j, 0, (0, 0, j)) for j in range(len(hyp) + 1)]
    for i, r in enumerate(ref, start=1):
        cur = [(i, 0, (0, i, 0))]
        for j, h in enumerate(hyp, start=1):
            t, ns, (s, d, n) = prev[j - 1]
            miss = int(r != h)
            best = (t + miss, ns - miss, (s + miss, d, n))
            t, ns, (s, d, n) = prev[j]
            best = min(best, (t + 1, ns, (s, d + 1, n)))
            t, ns, (s, d, n) = cur[j - 1]
            best = min(best, (t + 1, ns, (s, d, n + 1)))
            cur.append(best)
        prev = cur
    return prev[-1][2]


def score_totals_match(report, expected: dict, extra_hyps: int) -> None:
    """Per-language S/D/I and unit totals equal the reference DP's.

    expected: language -> (S, D, I, reference units).
    """
    got = {ls.language: (ls.substitutions, ls.deletions, ls.insertions,
                         ls.num_ref_units)
           for ls in report.per_language}
    if got != expected:
        raise CheckFailed("score_counts",
                          f"score_corpus totals {got} != reference {expected}")
    if len(report.errors) != extra_hyps:
        raise CheckFailed(
            "score_counts",
            f"{len(report.errors)} unmatched hypotheses reported, "
            f"{extra_hyps} expected")
