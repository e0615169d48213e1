"""Text normalization: tokenization and rule-based sentence splitting.

Sentences are the retrieval unit of this library, so the splitter is
deliberately deterministic: no learned models, no locale tables, just
terminator punctuation plus a short abbreviation list. The module also
holds :func:`open_text`, the one path-or-stream opener every file reader
and writer in the package goes through.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from typing import IO, Iterator, Union

PathOrIO = Union[str, os.PathLike, IO[str]]

# Maximal runs of alphanumeric characters (underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Token preceding a '.' candidate boundary, possibly with internal dots
# ("e.g", "i.e").
_PRECEDING_TOKEN_RE = re.compile(r"([A-Za-z0-9]+(?:\.[A-Za-z0-9]+)*)$")

# A terminator, whitespace, and the next sentence's first character (not consumed).
_BOUNDARY_RE = re.compile(r"([.!?])\s+(?=(\S))")

#: Dot-abbreviations that never end a sentence.
ABBREVIATIONS = frozenset({"fig", "al", "e.g", "i.e", "dr", "vs", "etc"})


@contextmanager
def open_text(source: PathOrIO, mode: str = "r") -> Iterator[IO[str]]:
    """Yield a caller's text stream as-is, left open; given a path, yield
    the file opened as UTF-8 in ``mode`` and close it on exit."""
    if hasattr(source, "write" if "w" in mode else "read"):
        yield source  # type: ignore[misc]
    else:
        with open(source, mode, encoding="utf-8") as handle:
            yield handle


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
    """
    return TokenSequence(map(str.lower, _TOKEN_RE.findall(raw)))


def _preceding_token(text: str, end: int) -> str:
    """Lowercased token immediately before position ``end``, '' if none."""
    # abbreviations are short; a bounded window keeps the scan O(1)
    window_start = max(0, end - 40)
    m = _PRECEDING_TOKEN_RE.search(text, window_start, end)
    return m.group(1).lower() if m else ""


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
        if (
            terminator == "."
            and _preceding_token(document_text, m.start()) in ABBREVIATIONS
        ):
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
