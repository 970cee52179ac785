"""Label-synchronous beam search over the joint CTC + decoder score.

Each step expands every live hypothesis over the vocabulary's characters,
scoring extensions with the decoder's next-token log-probability and the
CTC prefix score on the final CTC posterior, combined as

    joint = lambda_ctc * ctc + (1 - lambda_ctc) * att

with a term whose weight is 0 left out, so at lambda_ctc = 0 a
CTC-impossible prefix (ctc = -inf) scores its attention term rather
than 0 * -inf = NaN, and likewise for att = -inf at lambda_ctc = 1.
A hypothesis finishes on <eos>; its CTC term then switches to the total
probability that the CTC output equals the prefix exactly, making
finished scores comparable.  Ties order by (higher joint, shorter,
lexicographically smaller tokens).

The search stops once no live hypothesis can still reach the n-best
list, so its cost follows the output length rather than max_len.  The
stop is exact, not a heuristic: an extension never raises a score when
the decoder's log-probabilities are <= 0, a CTC prefix probability
cannot grow as the prefix does, and the exact-match probability of a
prefix is at most its prefix probability.  After each step the search
therefore ends when the nbest-th finished hypothesis scores at least
the best live one (plus a rounding margin, STOP_RTOL): every later
finisher would score no higher and, being longer, lose the tie.  The
rule applies while every decoder row seen so far is <= 0 (a NaN entry
fails that test); otherwise the search runs to max_len.  Either way the n-best list is the one running to max_len
would give.  max_len must be >= 0, so the empty hypothesis always
finishes and every search returns nbest results.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .ctc import (PrefixState, ctc_complete_logprob, ctc_prefix_extend_all,
                  ctc_prefix_initial)
from .errors import ValidationError
from .vocab import Vocab

# relative slack on the early-stop test: covers float rounding in the
# CTC prefix scores, far below any score gap that decides a ranking
STOP_RTOL = 1e-9


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int = 4
    lambda_ctc: float = 0.3
    max_len: int = 64
    nbest: int = 1

    def __post_init__(self):
        if not 0.0 <= self.lambda_ctc <= 1.0:
            raise ValidationError("lambda_ctc must lie in [0, 1]")
        if self.beam_size < 1:
            raise ValidationError("beam_size must be at least 1")
        if self.nbest < 1 or self.nbest > self.beam_size:
            raise ValidationError("nbest must lie in [1, beam_size]")
        if self.max_len < 0:
            raise ValidationError("max_len must be at least 0")


@dataclass
class Hypothesis:
    tokens: tuple[int, ...]        # character ids, no specials
    ctc_state: PrefixState | None
    att_logprob: float
    ctc_logprob: float
    lambda_ctc: float
    finished: bool = False

    @property
    def joint(self) -> float:
        if self.lambda_ctc == 0.0:
            return self.att_logprob
        if self.lambda_ctc == 1.0:
            return self.ctc_logprob
        return (self.lambda_ctc * self.ctc_logprob
                + (1.0 - self.lambda_ctc) * self.att_logprob)

    def sort_key(self):
        return (-self.joint, len(self.tokens), self.tokens)


@dataclass
class BeamResult:
    tokens: tuple[int, ...]
    joint: float
    ctc: float
    att: float
    # always False: every search finishes the empty hypothesis; kept as
    # the `truncated` field of hyps.jsonl rows
    truncated: bool = False


def prefix_head(vocab: Vocab, language: str | None) -> tuple[int, ...]:
    """Decoder-side ids ahead of the characters: <sos>, then the
    language prompt when one is given."""
    if language is None:
        return (vocab.sos_id,)
    return (vocab.sos_id, vocab.lang_id(language))


def joint_beam_search(ctc_log_post: np.ndarray, decode_fn, vocab: Vocab,
                      cfg: BeamConfig, language: str | None = None
                      ) -> list[BeamResult]:
    """Search for the best character sequences.

    ctc_log_post: (T', V) final CTC log-posteriors (numpy).
    decode_fn:    maps a full decoder-side prefix (sos, language,
                  chars...) to a V-vector of next-token log-probs.

    Returns the nbest best finished hypotheses.  The search ends early
    once the n-best list is settled (see the module docstring).
    """
    eos = vocab.eos_id
    head = prefix_head(vocab, language)

    live = [Hypothesis(tokens=(), ctc_state=ctc_prefix_initial(ctc_log_post),
                       att_logprob=0.0, ctc_logprob=0.0,
                       lambda_ctc=cfg.lambda_ctc)]
    finished: list[Hypothesis] = []
    can_stop = True

    for _ in range(cfg.max_len + 1):
        if not live:
            break
        extensions: list[Hypothesis] = []
        for hyp in live:
            att_next = decode_fn(head + hyp.tokens)
            can_stop = can_stop and bool(np.all(att_next <= 0.0))
            psi, r_new = ctc_prefix_extend_all(ctc_log_post, hyp.ctc_state)
            for c in vocab.char_ids:
                if len(hyp.tokens) >= cfg.max_len:
                    continue
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
                lambda_ctc=cfg.lambda_ctc,
                finished=True))
        extensions.sort(key=Hypothesis.sort_key)
        live = extensions[: cfg.beam_size]
        if can_stop and live and len(finished) >= cfg.nbest:
            bound = heapq.nsmallest(cfg.nbest, finished,
                                    key=Hypothesis.sort_key)[-1].joint
            if bound >= live[0].joint + STOP_RTOL * max(1.0, abs(bound)):
                break

    finished.sort(key=Hypothesis.sort_key)
    return [BeamResult(tokens=h.tokens, joint=h.joint, ctc=h.ctc_logprob,
                       att=h.att_logprob)
            for h in finished[: cfg.nbest]]

