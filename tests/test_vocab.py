"""Vocabulary layout, per-language charsets, and round trips."""

import pytest

from asrkit.errors import ValidationError
from asrkit.vocab import (Vocab, build_vocab, load_vocab, save_vocab,
                            BLANK_TOKEN, EOS_TOKEN, SOS_TOKEN)


def test_layout_is_blank_specials_chars_langs():
    vocab = build_vocab({"en": "ba", "de": "cb"})
    assert vocab.tokens[0] == BLANK_TOKEN
    assert vocab.tokens[1] == SOS_TOKEN
    assert vocab.tokens[2] == EOS_TOKEN
    assert vocab.tokens[3:6] == ("a", "b", "c")  # sorted characters
    assert vocab.tokens[6:] == ("<lang:de>", "<lang:en>")
    assert vocab.size == 8
    assert vocab.blank_id == 0
    assert vocab.char_ids == (3, 4, 5)
    assert vocab.languages == ("de", "en")


def test_charsets_are_per_language():
    vocab = build_vocab({"en": "ab", "de": "bc"})
    assert vocab.charset_ids("en") == {vocab.id_of("a"), vocab.id_of("b")}
    assert vocab.charset_ids("de") == {vocab.id_of("b"), vocab.id_of("c")}
    with pytest.raises(ValidationError):
        vocab.charset_ids("fr")


def test_encode_decode():
    vocab = build_vocab({"en": "ab"})
    ids = vocab.encode_transcript("aba", "en")
    assert vocab.decode_ids(ids) == "aba"
    with pytest.raises(ValidationError):
        vocab.encode_transcript("az", "en")
    # a character known to the vocab but outside this language's charset
    vocab2 = build_vocab({"en": "ab", "de": "cd"})
    with pytest.raises(ValidationError):
        vocab2.encode_transcript("ac", "en")


def test_lang_id_and_unknown_token():
    vocab = build_vocab({"en": "ab"})
    assert vocab.tokens[vocab.lang_id("en")] == "<lang:en>"
    with pytest.raises(ValidationError):
        vocab.id_of("<lang:xx>")


def test_vocab_validation():
    with pytest.raises(ValidationError):
        Vocab(tokens=("x", SOS_TOKEN, EOS_TOKEN))  # blank must be id 0
    with pytest.raises(ValidationError):
        Vocab(tokens=(BLANK_TOKEN, SOS_TOKEN))  # <eos> missing
    with pytest.raises(ValidationError):
        Vocab(tokens=(BLANK_TOKEN, SOS_TOKEN, EOS_TOKEN, "a", "a"))
    with pytest.raises(ValidationError):
        Vocab(tokens=(BLANK_TOKEN, SOS_TOKEN, EOS_TOKEN),
              charsets={"en": frozenset({0})})  # blank inside a charset
    with pytest.raises(ValidationError):
        build_vocab({})
    with pytest.raises(ValidationError):
        build_vocab({"en": ""})


def test_round_trip(tmp_path):
    vocab = build_vocab({"en": "abc", "ja": "ぁあ"})
    path = str(tmp_path / "vocab.json")
    save_vocab(path, vocab)
    back = load_vocab(path)
    assert back.tokens == vocab.tokens
    assert back.charsets == vocab.charsets


def test_from_dict_rejects_missing_tokens():
    with pytest.raises(ValidationError):
        Vocab.from_dict({"tokens": [BLANK_TOKEN, SOS_TOKEN, EOS_TOKEN],
                         "languages": {"en": ["z"]}})


def test_load_vocab_rejects_a_file_that_is_not_a_vocabulary(tmp_path):
    path = tmp_path / "vocab.json"
    for text in ("{not json", "[1, 2]", '{"languages": {}}'):
        path.write_text(text)
        with pytest.raises(ValidationError, match="vocab.json"):
            load_vocab(str(path))
