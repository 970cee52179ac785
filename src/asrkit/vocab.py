"""Token vocabulary shared by the CTC branch and the decoder.

Layout: id 0 is the CTC blank, then <sos>, <eos>, then the character
tokens (sorted), then one <lang:xx> token per language.  Per-language
charsets map each language to the character ids it may emit; blank and
the special tokens never appear in a charset.
"""

import json
from dataclasses import dataclass, field

from .errors import ValidationError

BLANK_TOKEN = "<blank>"
SOS_TOKEN = "<sos>"
EOS_TOKEN = "<eos>"


def _lang_token(language: str) -> str:
    return f"<lang:{language}>"


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]
    charsets: dict[str, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise ValidationError("vocabulary tokens must be unique")
        if not self.tokens or self.tokens[0] != BLANK_TOKEN:
            raise ValidationError(f"token id 0 must be {BLANK_TOKEN}")
        if SOS_TOKEN not in self.tokens or EOS_TOKEN not in self.tokens:
            raise ValidationError("vocabulary must contain <sos> and <eos>")
        for lang, ids in self.charsets.items():
            if self.blank_id in ids:
                raise ValidationError(
                    f"blank must not appear in charset of {lang!r}")

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def blank_id(self) -> int:
        return 0

    @property
    def sos_id(self) -> int:
        return self.tokens.index(SOS_TOKEN)

    @property
    def eos_id(self) -> int:
        return self.tokens.index(EOS_TOKEN)

    def id_of(self, token: str) -> int:
        try:
            return self.tokens.index(token)
        except ValueError:
            raise ValidationError(f"unknown token {token!r}") from None

    def lang_id(self, language: str) -> int:
        return self.id_of(_lang_token(language))

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(sorted(self.charsets))

    def charset_ids(self, language: str) -> frozenset[int]:
        if language not in self.charsets:
            raise ValidationError(f"unknown language {language!r}")
        return self.charsets[language]

    @property
    def char_ids(self) -> tuple[int, ...]:
        """Ids of ordinary character tokens (the decodable alphabet)."""
        special = {self.blank_id, self.sos_id, self.eos_id}
        special.update(self.lang_id(lang) for lang in self.charsets)
        return tuple(i for i in range(self.size) if i not in special)

    def encode_transcript(self, text: str, language: str) -> list[int]:
        allowed = self.charset_ids(language)
        ids = []
        for ch in text:
            i = self.id_of(ch)
            if i not in allowed:
                raise ValidationError(
                    f"character {ch!r} is not in the charset of {language!r}")
            ids.append(i)
        return ids

    def decode_ids(self, ids) -> str:
        return "".join(self.tokens[i] for i in ids)

    def to_dict(self) -> dict:
        return {
            "tokens": list(self.tokens),
            "languages": {
                lang: sorted(self.tokens[i] for i in ids)
                for lang, ids in self.charsets.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Vocab":
        tokens = tuple(payload["tokens"])
        charsets = {}
        for lang, chars in payload.get("languages", {}).items():
            try:
                charsets[lang] = frozenset(tokens.index(c) for c in chars)
            except ValueError as exc:
                raise ValidationError(
                    f"charset of {lang!r} refers to a missing token: {exc}"
                ) from None
        return cls(tokens=tokens, charsets=charsets)


def build_vocab(language_charsets: dict[str, str]) -> Vocab:
    """Build a vocabulary from {language: string of characters}."""
    if not language_charsets:
        raise ValidationError("at least one language is required")
    chars = sorted({ch for cs in language_charsets.values() for ch in cs})
    if not chars:
        raise ValidationError("charsets are all empty")
    tokens = [BLANK_TOKEN, SOS_TOKEN, EOS_TOKEN] + chars
    tokens += [_lang_token(lang) for lang in sorted(language_charsets)]
    tokens = tuple(tokens)
    charsets = {
        lang: frozenset(tokens.index(ch) for ch in set(cs))
        for lang, cs in language_charsets.items()
    }
    return Vocab(tokens=tokens, charsets=charsets)


def save_vocab(path: str, vocab: Vocab) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(vocab.to_dict(), fh, ensure_ascii=False, indent=1,
                  sort_keys=True)
        fh.write("\n")


def load_vocab(path: str) -> Vocab:
    """Read a vocabulary file; one that does not parse or does not hold
    a vocabulary raises ValidationError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    try:
        return Vocab.from_dict(payload)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValidationError(
            f"{path} does not hold a vocabulary: {exc!r}") from None
