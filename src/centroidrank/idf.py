"""Inverse-document-frequency tables.

A table is built from one corpus and carries a provenance label; the
retrieval pipeline keeps two of them, one over the document collection and
one over a question collection, because the two word distributions differ
sharply (question words are ubiquitous in questions but rare in prose).

Weights use the smoothed form ln((N + 1) / (df + 1)), which is finite and
non-negative for every token, including unseen ones (df = 0).
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

# "\n" and "\r" each end a line when the table is read, and a tab splits a
# row; the label is the rest of the header line, so a tab in it reads back.
_LINE_BREAK = re.compile("[\n\r]")
_UNWRITABLE = re.compile("[\t\n\r]")


@dataclass
class IdfTable:
    """Document-frequency statistics for one corpus."""

    n_docs: int
    df: dict[str, int] = field(default_factory=dict)
    corpus_label: str = ""

    def __post_init__(self) -> None:
        if self.n_docs < 1:
            raise ValueError(f"n_docs must be >= 1, got {self.n_docs}")
        try:
            float(self.n_docs + 1)  # the numerator of every weight
        except OverflowError:
            raise ValueError("n_docs + 1 has no float value") from None
        for token, count in self.df.items():
            if not 1 <= count <= self.n_docs:
                raise ValueError(
                    f"df[{token!r}] = {count} outside [1, {self.n_docs}]"
                )

    def weight(self, token: str) -> float:
        """ln((n_docs + 1) / (df + 1)); unseen tokens use df = 0."""
        return math.log((self.n_docs + 1) / (self.df.get(token, 0) + 1))


def build_idf(corpus: Iterable[Sequence[str]], label: str = "") -> IdfTable:
    """Count document frequencies over an iterable of token sequences.

    Each sequence is one corpus unit; a token is counted once per unit it
    appears in. Raises ValueError on an empty corpus.
    """
    df: dict[str, int] = {}
    n_docs = 0
    for unit in corpus:
        n_docs += 1
        for token in set(unit):
            df[token] = df.get(token, 0) + 1
    if n_docs == 0:
        raise ValueError("cannot build an idf table from an empty corpus")
    return IdfTable(n_docs=n_docs, df=df, corpus_label=label)


def save_idf(table: IdfTable, sink: str | os.PathLike) -> None:
    """Write a table as '#n_docs <N> <label>' plus token<TAB>df lines."""
    # Checked before the sink is opened, so a refused table leaves it as it was.
    if _LINE_BREAK.search(table.corpus_label):
        raise ValueError(f"idf label {table.corpus_label!r} contains a line break")
    for token in table.df:
        if _UNWRITABLE.search(token):
            raise ValueError(f"idf token {token!r} contains a tab or line break")
    if "" in table.df:
        raise ValueError("empty idf token")
    with open(sink, "w", encoding="utf-8") as handle:
        handle.write(f"#n_docs {table.n_docs} {table.corpus_label}\n")
        for token in sorted(table.df):
            handle.write(f"{token}\t{table.df[token]}\n")


def load_idf(source: str | os.PathLike) -> IdfTable:
    """Parse the table file at ``source``, as :func:`save_idf` writes it.

    Raises ValueError naming the line for malformed rows, a document count
    N for which N + 1 has no float value, counts that violate
    1 <= df <= n_docs, or a token listed on an earlier line. Counts are read
    by ``int()``, so one of more than 4 300 digits is malformed.
    """
    with open(source, encoding="utf-8") as handle:
        header = handle.readline()
        if not header:
            raise ValueError("empty idf file")
        header = header.rstrip("\n")
        parts = header.split(" ", 2)
        if len(parts) < 2 or parts[0] != "#n_docs":
            raise ValueError(f"line 1: expected '#n_docs <N> <label>', got {header!r}")
        try:
            n_docs = int(parts[1])
            float(n_docs + 1)  # the numerator of every weight
        except ValueError:
            raise ValueError(f"line 1: malformed document count {parts[1]!r}") from None
        except OverflowError:
            raise ValueError("line 1: document count N + 1 has no float value") from None
        label = parts[2] if len(parts) == 3 else ""

        df: dict[str, int] = {}
        for line_no, raw_line in enumerate(handle, start=2):
            line = raw_line.rstrip("\n")
            if not line:
                continue
            token, sep, count_text = line.partition("\t")
            if not sep or not token:
                raise ValueError(f"line {line_no}: expected '<token>\\t<df>', got {line!r}")
            try:
                count = int(count_text)
            except ValueError:
                raise ValueError(f"line {line_no}: malformed df {count_text!r}") from None
            if not 1 <= count <= n_docs:
                raise ValueError(
                    f"line {line_no}: df {count} outside [1, {n_docs}] for {token!r}"
                )
            if token in df:
                raise ValueError(f"line {line_no}: duplicate token {token!r}")
            df[token] = count
    return IdfTable(n_docs=n_docs, df=df, corpus_label=label)
