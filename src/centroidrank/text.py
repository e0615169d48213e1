"""Text normalization: tokenization and rule-based sentence splitting.

Sentences are the retrieval unit of this library, so the splitter is
deliberately deterministic: no learned models, no locale tables, just
terminator punctuation plus a short abbreviation list. ASCII text is
tokenized by ``bytes`` methods, other text by a regex; both give the same
tokens.
"""

from __future__ import annotations

import re

# Maximal runs of alphanumeric characters (underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# The same tokens for ASCII text, where [^\W_] is exactly [A-Za-z0-9]: this
# table lowercases letters and turns every other ASCII byte into a space.
# Its upper half is never read.
_ASCII_TOKEN_BYTES = bytes(
    ord(c.lower()) if c.isalnum() else ord(" ") for c in map(chr, range(128))
) + bytes(128)

# Token right before a '.' candidate boundary, possibly with internal dots
# ("e.g", "i.e").
_PRECEDING_TOKEN_RE = re.compile(r"([A-Za-z0-9]+(?:\.[A-Za-z0-9]+)*)\Z")

# A terminator, whitespace, and the next sentence's first character (not consumed).
_BOUNDARY_RE = re.compile(r"([.!?])\s+(?=(\S))")

#: Dot-abbreviations that never end a sentence.
ABBREVIATIONS = frozenset({"fig", "al", "e.g", "i.e", "dr", "vs", "etc"})

# A window of W characters before a '.' finds the whole text's token when
# that token starts inside it, as the pattern reads nothing before its
# start. A longer token is cut at the window's first alphanumeric, at most
# one character in, so the cut token keeps at least W - 1 characters. With
# W - 1 above every abbreviation's length, neither the cut nor the whole
# token is an abbreviation.
_LOOK_BACK = max(map(len, ABBREVIATIONS)) + 2


class TokenSequence(tuple):
    """Normalized tokens of a text: lowercase, non-empty, no whitespace.

    A plain tuple of the tokens. ``tokens`` is kept for the readers that
    still unwrap it: ``perfbench/test_perfbench.py``, ``tests/test_text.py``
    and ``tests/test_evaluation.py``.
    """

    __slots__ = ()

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self)


def tokenize(raw: str) -> TokenSequence:
    """Split ``raw`` into lowercase tokens on every non-alphanumeric character.

    Empty fragments are discarded; digit runs are kept as tokens. Empty
    input yields an empty sequence.

    ASCII text is lowercased and split as a whole, with no Python call per
    token. Other text lowercases each token on its own: lowering the whole
    string would differ, as with ``İ`` (two code points) or a final ``Σ``.
    """
    if raw.isascii():
        return TokenSequence(raw.encode().translate(_ASCII_TOKEN_BYTES).decode().split())
    return TokenSequence(map(str.lower, _TOKEN_RE.findall(raw)))


def split_sentences(document_text: str) -> list[tuple[str, int]]:
    """Split a document into (sentence_text, char_offset) pairs.

    One regex scan finds each '.', '!' or '?' followed by whitespace; a
    sentence starts at the first character after that whitespace if it
    is an uppercase letter or digit, unless the token before a '.' is a
    known abbreviation. Sentences are contiguous spans of the input with
    surrounding whitespace trimmed, so offsets are strictly increasing and
    the non-whitespace content of the input is preserved.
    """
    starts = [0]
    for m in _BOUNDARY_RE.finditer(document_text):
        terminator, nxt = m.groups()
        if not (nxt.isupper() or nxt.isdigit()):
            continue
        if terminator == ".":
            end = m.start()
            token = _PRECEDING_TOKEN_RE.search(document_text, max(0, end - _LOOK_BACK), end)
            if token and token.group(1).lower() in ABBREVIATIONS:
                continue
        starts.append(m.end())

    sentences: list[tuple[str, int]] = []
    for idx, begin in enumerate(starts):
        end = starts[idx + 1] if idx + 1 < len(starts) else len(document_text)
        chunk = document_text[begin:end]
        stripped = chunk.strip()
        if not stripped:
            continue
        offset = begin + (len(chunk) - len(chunk.lstrip()))
        sentences.append((stripped, offset))
    return sentences
