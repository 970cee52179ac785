"""Text normalization, WER/CER scoring, and per-language reporting.

The normalizer is a fixed, versioned rule set (it does not claim
bit-compatibility with any external tool): lowercase, strip a documented
punctuation set, collapse whitespace; character-scored languages also
lose all spaces.  Error rates are (S + D + I) / reference units, with
units being words (WER) or characters (CER).

Languages group into resource ranks by training hours: more than 100
hours is High, 20 to 100 inclusive is Middle, under 20 is Low.
"""

import json
import os
import unicodedata
from dataclasses import dataclass, field

from . import kernels
from .errors import ValidationError

# every character in this string is removed by the normalizer
PUNCTUATION = (
    ".,!?;:'\"()[]{}<>«»„“”‘’…·-–—_/\\|@#$%^&*+=~`"
    "。、！？；：「」『』（）〈〉《》・〜"
)

# languages scored on characters rather than words, by default
DEFAULT_CHAR_SCORED = frozenset({"ja", "zh", "yue"})

HIGH_HOURS = 100.0
LOW_HOURS = 20.0

_PUNCT_SET = frozenset(PUNCTUATION)


def resource_rank(hours: float) -> str:
    """High above 100 hours, Middle for 20-100 (inclusive), Low below 20."""
    if hours > HIGH_HOURS:
        return "High"
    if hours >= LOW_HOURS:
        return "Middle"
    return "Low"


def normalize_text(text: str, language: str = "",
                   char_scored: frozenset = DEFAULT_CHAR_SCORED) -> str:
    """Apply the repo's normalization rules; idempotent."""
    text = unicodedata.normalize("NFKC", text).lower()
    text = "".join(" " if ch in _PUNCT_SET else ch for ch in text)
    text = " ".join(text.split())
    if language in char_scored:
        text = text.replace(" ", "")
    return text


def scoring_units(text: str, language: str,
                  char_scored: frozenset = DEFAULT_CHAR_SCORED) -> list[str]:
    norm = normalize_text(text, language, char_scored)
    if language in char_scored:
        return list(norm)
    return norm.split()


def edit_distance(ref_units, hyp_units) -> tuple[int, int, int]:
    """(substitutions, deletions, insertions) of a minimal alignment;
    among minimal alignments, substitutions are preferred."""
    table: dict[str, int] = {}
    def ids(units):
        out = []
        for u in units:
            if u not in table:
                table[u] = len(table)
            out.append(table[u])
        return out
    return kernels.edit_counts(ids(list(ref_units)), ids(list(hyp_units)))


@dataclass
class LanguageScore:
    language: str
    metric: str            # "WER" or "CER"
    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0
    num_ref_units: int = 0
    num_utterances: int = 0
    hours: float | None = None

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def error_rate(self) -> float:
        if self.num_ref_units == 0:
            return 0.0 if self.errors == 0 else float("inf")
        return self.errors / self.num_ref_units

    @property
    def rank(self) -> str:
        return "Unranked" if self.hours is None else resource_rank(self.hours)


@dataclass
class ScoreReport:
    per_language: list[LanguageScore]
    errors: list[str] = field(default_factory=list)

    def rank_aggregates(self) -> dict[str, dict]:
        agg: dict[str, dict] = {}
        for ls in self.per_language:
            a = agg.setdefault(ls.rank, {
                "languages": 0, "errors": 0, "num_ref_units": 0})
            a["languages"] += 1
            a["errors"] += ls.errors
            a["num_ref_units"] += ls.num_ref_units
        for a in agg.values():
            units = a["num_ref_units"]
            a["error_rate"] = (a["errors"] / units) if units else 0.0
        return agg

    def to_dict(self) -> dict:
        return {
            "per_language": [
                {
                    "language": ls.language,
                    "metric": ls.metric,
                    "error_rate": ls.error_rate,
                    "substitutions": ls.substitutions,
                    "deletions": ls.deletions,
                    "insertions": ls.insertions,
                    "num_ref_units": ls.num_ref_units,
                    "num_utterances": ls.num_utterances,
                    "hours": ls.hours,
                    "rank": ls.rank,
                }
                for ls in sorted(self.per_language,
                                 key=lambda s: s.language)
            ],
            "per_rank": self.rank_aggregates(),
            "errors": list(self.errors),
        }

    def render_text(self) -> str:
        lines = []
        header = (f"{'language':<10} {'metric':<6} {'rate%':>8} "
                  f"{'S':>6} {'D':>6} {'I':>6} {'units':>8} {'rank':<8}")
        lines.append(header)
        lines.append("-" * len(header))
        for ls in sorted(self.per_language, key=lambda s: s.language):
            lines.append(
                f"{ls.language:<10} {ls.metric:<6} "
                f"{100.0 * ls.error_rate:>8.2f} {ls.substitutions:>6} "
                f"{ls.deletions:>6} {ls.insertions:>6} "
                f"{ls.num_ref_units:>8} {ls.rank:<8}")
        lines.append("")
        lines.append(f"{'rank':<10} {'rate%':>8} {'errors':>8} "
                     f"{'units':>8} {'langs':>6}")
        agg = self.rank_aggregates()
        for rank in ("High", "Middle", "Low", "Unranked"):
            if rank not in agg:
                continue
            a = agg[rank]
            lines.append(f"{rank:<10} {100.0 * a['error_rate']:>8.2f} "
                         f"{a['errors']:>8} {a['num_ref_units']:>8} "
                         f"{a['languages']:>6}")
        for err in self.errors:
            lines.append(f"error: {err}")
        return "\n".join(lines) + "\n"


def score_corpus(refs: list[dict], hyps: list[dict],
                 hours: dict[str, float] | None = None,
                 char_scored: frozenset = DEFAULT_CHAR_SCORED
                 ) -> ScoreReport:
    """Score hypotheses against references.

    refs / hyps: lists of {utt_id, text, language}.  A reference without
    a hypothesis scores as an empty hypothesis (all deletions); a
    hypothesis without a reference is recorded as an error and skipped.
    """
    ref_by_id = {}
    for row in refs:
        if row["utt_id"] in ref_by_id:
            raise ValidationError(f"duplicate reference {row['utt_id']!r}")
        ref_by_id[row["utt_id"]] = row
    hyp_by_id = {}
    errors = []
    for row in hyps:
        if row["utt_id"] in hyp_by_id:
            raise ValidationError(f"duplicate hypothesis {row['utt_id']!r}")
        if row["utt_id"] not in ref_by_id:
            errors.append(f"hypothesis {row['utt_id']!r} has no reference")
            continue
        hyp_by_id[row["utt_id"]] = row

    scores: dict[str, LanguageScore] = {}
    hours = hours or {}
    for utt_id in ref_by_id:
        ref = ref_by_id[utt_id]
        lang = ref["language"]
        metric = "CER" if lang in char_scored else "WER"
        ls = scores.get(lang)
        if ls is None:
            ls = LanguageScore(language=lang, metric=metric,
                               hours=hours.get(lang))
            scores[lang] = ls
        ref_units = scoring_units(ref["text"], lang, char_scored)
        hyp_row = hyp_by_id.get(utt_id)
        hyp_units = scoring_units(hyp_row["text"], lang, char_scored) \
            if hyp_row else []
        s, d, i = edit_distance(ref_units, hyp_units)
        ls.substitutions += s
        ls.deletions += d
        ls.insertions += i
        ls.num_ref_units += len(ref_units)
        ls.num_utterances += 1
    return ScoreReport(per_language=list(scores.values()), errors=errors)


# row fields that, where present, must hold strings
STRING_FIELDS = ("utt_id", "text", "transcript", "language")


def _numbered_rows(path: str, required: tuple[str, ...]):
    """Yield (line number, row) for each non-blank line, which must hold
    a JSON object with the required keys and a string in each of
    STRING_FIELDS it has; ValidationError names path:line otherwise."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise ValidationError(
                    f"{path}:{lineno} is not valid JSON: {exc}") from None
            if not isinstance(row, dict):
                raise ValidationError(
                    f"{path}:{lineno} does not hold a JSON object")
            for key in required:
                if key not in row:
                    raise ValidationError(
                        f"{path}:{lineno} is missing {key!r}")
            for key in STRING_FIELDS:
                if key in row and not isinstance(row[key], str):
                    raise ValidationError(
                        f"{path}:{lineno} has {key} {row[key]!r}, "
                        f"not a string")
            yield lineno, row


def load_jsonl_rows(path: str, required: tuple[str, ...]) -> list[dict]:
    return [row for _, row in _numbered_rows(path, required)]


def load_hours(path: str) -> dict[str, float]:
    hours = {}
    for lineno, row in _numbered_rows(path, ("language", "hours")):
        try:
            hours[row["language"]] = float(row["hours"])
        except (TypeError, ValueError):
            raise ValidationError(
                f"{path}:{lineno} has hours {row['hours']!r}, "
                f"not a number") from None
    return hours


def save_report(report: ScoreReport, out_dir: str) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    txt_path = os.path.join(out_dir, "report.txt")
    json_path = os.path.join(out_dir, "report.json")
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(report.render_text())
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=1, sort_keys=True,
                  ensure_ascii=False)
        fh.write("\n")
    return txt_path, json_path
