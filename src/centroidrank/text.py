"""Text normalization: tokenization and rule-based sentence splitting.

Sentences are the retrieval unit of this library, so the splitter is
deliberately deterministic: no learned models, no locale tables, just
terminator punctuation plus a short abbreviation list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Maximal runs of alphanumeric characters (underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Token preceding a '.' candidate boundary, possibly with internal dots
# ("e.g", "i.e").
_PRECEDING_TOKEN_RE = re.compile(r"([A-Za-z0-9]+(?:\.[A-Za-z0-9]+)*)$")

_TERMINATORS = frozenset(".!?")

#: Dot-abbreviations that never end a sentence.
ABBREVIATIONS = frozenset({"fig", "al", "e.g", "i.e", "dr", "vs", "etc"})


@dataclass(frozen=True)
class TokenSequence:
    """Normalized tokens of a text span.

    ``tokens`` are lowercase, non-empty, and contain no whitespace;
    ``source_span`` is the (start, end) character range of the original
    text they were drawn from.
    """

    tokens: tuple[str, ...]
    source_span: tuple[int, int]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def __getitem__(self, i):
        return self.tokens[i]


def tokenize(raw: str) -> TokenSequence:
    """Split ``raw`` into lowercase tokens on every non-alphanumeric character.

    Empty fragments are discarded; digit runs are kept as tokens. Empty
    input yields an empty sequence.
    """
    tokens = tuple(map(str.lower, _TOKEN_RE.findall(raw)))
    return TokenSequence(tokens=tokens, source_span=(0, len(raw)))


def _preceding_token(text: str, end: int) -> str:
    """Lowercased token immediately before position ``end``, '' if none."""
    # abbreviations are short; a bounded window keeps the scan O(1)
    window_start = max(0, end - 40)
    m = _PRECEDING_TOKEN_RE.search(text, window_start, end)
    return m.group(1).lower() if m else ""


def split_sentences(document_text: str) -> list[tuple[str, int]]:
    """Split a document into (sentence_text, char_offset) pairs.

    A boundary is placed after '.', '!' or '?' followed by whitespace and
    an uppercase letter or digit, unless the token before a '.' is a known
    abbreviation. Sentences are contiguous spans of the input with
    surrounding whitespace trimmed, so offsets are strictly increasing and
    the non-whitespace content of the input is preserved.
    """
    n = len(document_text)
    starts = [0]
    for i, ch in enumerate(document_text):
        if ch not in _TERMINATORS:
            continue
        j = i + 1
        if j >= n or not document_text[j].isspace():
            continue
        k = j
        while k < n and document_text[k].isspace():
            k += 1
        if k >= n:
            continue
        nxt = document_text[k]
        if not (nxt.isupper() or nxt.isdigit()):
            continue
        if ch == "." and _preceding_token(document_text, i) in ABBREVIATIONS:
            continue
        starts.append(k)

    sentences: list[tuple[str, int]] = []
    for idx, begin in enumerate(starts):
        end = starts[idx + 1] if idx + 1 < len(starts) else n
        chunk = document_text[begin:end]
        stripped = chunk.strip()
        if not stripped:
            continue
        offset = begin + (len(chunk) - len(chunk.lstrip()))
        sentences.append((stripped, offset))
    return sentences
