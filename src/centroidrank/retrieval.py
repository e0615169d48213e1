"""Sentence-level passage indexing and centroid-distance ranking.

Each document is split into sentences; each sentence becomes a passage,
one row of two centroid matrices (uniform and document-idf weighted).
Ranking compares the question centroid against every candidate row of
the matching matrix in one matrix-vector product, under one of three
schemes:

* ``cd``      uniform question centroid vs uniform passage centroid
* ``cd-idf``  document-idf question centroid vs idf passage centroid
* ``cd-q``    question-corpus-idf question centroid vs idf passage centroid

plus a seeded random baseline (``rnd``). Output order is total: ascending
distance, ties broken by ascending passage id.
"""

from __future__ import annotations

import random
import re
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .idf import IdfTable
from .semantic import centroid
from .text import PathOrIO, open_text, split_sentences, tokenize


class Method(str, Enum):
    CD = "cd"
    CD_IDF = "cd-idf"
    CD_Q = "cd-q"
    RND = "rnd"


class Passage(NamedTuple):
    """One indexed sentence; its centroids are its row in the index matrices."""

    passage_id: str
    doc_id: str
    text: str


def _frozen(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


class PassageIndex:
    """Immutable sentence index.

    ``passages`` are sorted by passage id, and row ``i`` of ``uniform`` and
    ``idf`` (C-contiguous float64, shape ``(n, dim)``) holds the raw
    centroids of ``passages[i]``. ``doc_index`` maps each document to the
    ascending row indices of its passages; the rows of one document need
    not be contiguous (``d#1`` sorts between ``d`` and ``d``'s later rows
    when ``d#1`` is itself a document id).
    """

    def __init__(
        self,
        dim: int,
        passages: list[Passage],
        uniform: np.ndarray,
        idf: np.ndarray,
    ) -> None:
        order = sorted(range(len(passages)), key=lambda row: passages[row].passage_id)
        if order != list(range(len(passages))):
            passages = [passages[row] for row in order]
            uniform, idf = uniform[order], idf[order]
        self.dim = dim
        self.passages = passages
        self.uniform = _frozen(np.ascontiguousarray(uniform, dtype=np.float64))
        self.idf = _frozen(np.ascontiguousarray(idf, dtype=np.float64))
        self.uniform_norms = _frozen(np.linalg.norm(self.uniform, axis=1))
        self.idf_norms = _frozen(np.linalg.norm(self.idf, axis=1))
        rows: dict[str, list[int]] = {}
        for row, passage in enumerate(passages):
            rows.setdefault(passage.doc_id, []).append(row)
        self.doc_index = {
            doc_id: _frozen(np.array(doc_rows, dtype=np.intp))
            for doc_id, doc_rows in rows.items()
        }

    def __len__(self) -> int:
        return len(self.passages)


@dataclass
class RankedList:
    """Top-k retrieval result: (passage_id, distance) pairs in rank order."""

    question_id: str
    method: Method
    items: list[tuple[str, float]] = field(default_factory=list)


def build_index(
    documents: Iterable[tuple[str, str]],
    embeddings: EmbeddingTable,
    doc_idf: IdfTable,
) -> PassageIndex:
    """Sentence-split documents and precompute both centroids per passage.

    Passage ids are ``<doc_id>#<sentence_ordinal>``. Duplicate document ids
    raise ValueError.
    """
    passages: list[Passage] = []
    seen: set[str] = set()
    for doc_id, text in documents:
        if doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
        for ordinal, (sentence, _offset) in enumerate(split_sentences(text)):
            passages.append(Passage(f"{doc_id}#{ordinal}", doc_id, sentence))
    passages.sort(key=lambda p: p.passage_id)
    uniform = np.empty((len(passages), embeddings.dim), dtype=np.float64)
    idf = np.empty_like(uniform)
    for row, passage in enumerate(passages):
        tokens = tokenize(passage.text)
        uniform[row] = centroid(tokens, embeddings)
        idf[row] = centroid(tokens, embeddings, doc_idf)
    return PassageIndex(embeddings.dim, passages, uniform, idf)


def _candidate_rows(
    index: PassageIndex, candidate_docs: set[str] | None
) -> np.ndarray | None:
    """Ascending rows of the candidate documents; None means every row."""
    if candidate_docs is None:
        return None
    unknown = sorted(d for d in candidate_docs if d not in index.doc_index)
    if unknown:
        raise ValueError(f"unknown doc_id(s) in candidate set: {', '.join(unknown)}")
    if not candidate_docs:
        return np.empty(0, dtype=np.intp)
    return np.sort(np.concatenate([index.doc_index[d] for d in candidate_docs]))


def rank(
    index: PassageIndex,
    question: Sequence[str],
    method: Method | str,
    k: int,
    embeddings: EmbeddingTable,
    doc_idf: IdfTable | None = None,
    question_idf: IdfTable | None = None,
    candidate_docs: set[str] | None = None,
    question_id: str = "",
) -> RankedList:
    """Score candidate passages against the question and return the top k.

    The question centroid follows the method (uniform for ``cd``, document
    idf for ``cd-idf``, question idf for ``cd-q``); the passage side uses
    the uniform centroids for ``cd`` and the idf centroids otherwise. When
    ``candidate_docs`` is given, only passages from those documents are
    scored; unknown ids raise ValueError, as does an embedding table whose
    dimension differs from the index's.
    """
    method = Method(method)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if embeddings.dim != index.dim:
        raise ValueError(
            f"dimension mismatch: index dim {index.dim}, embeddings dim {embeddings.dim}"
        )
    if method is Method.CD:
        q = centroid(question, embeddings)
    elif method is Method.CD_IDF:
        if doc_idf is None:
            raise ValueError("cd-idf requires a document idf table")
        q = centroid(question, embeddings, doc_idf)
    elif method is Method.CD_Q:
        if question_idf is None:
            raise ValueError("cd-q requires a question idf table")
        q = centroid(question, embeddings, question_idf)
    else:
        raise ValueError("rnd has no distance ranking; use random_baseline()")

    if method is Method.CD:
        matrix, norms = index.uniform, index.uniform_norms
    else:
        matrix, norms = index.idf, index.idf_norms
    rows = _candidate_rows(index, candidate_docs)
    if rows is not None:
        matrix, norms = matrix[rows], norms[rows]
    # einsum reduces each row with the same instruction sequence wherever
    # the row sits, so identical passages get bit-identical scores and tie
    # exactly; a BLAS mat-vec may round a row differently by position.
    dots = np.einsum("ij,j->i", matrix, q)
    denominators = norms * float(np.linalg.norm(q))
    # A zero row or a zero question keeps similarity 0: the neutral 1.0.
    similarity = np.divide(
        dots, denominators, out=np.zeros_like(dots), where=denominators > 0.0
    )
    distances = 1.0 - np.clip(similarity, -1.0, 1.0)
    pool = np.arange(len(distances))
    if k < len(distances):
        # Only rows that beat or tie the k-th smallest distance can make the
        # top k; flatnonzero keeps them in row order.
        pool = np.flatnonzero(distances <= np.partition(distances, k - 1)[k - 1])
    # Rows are in passage-id order, so a stable sort breaks ties by id.
    top = pool[np.argsort(distances[pool], kind="stable")[:k]]
    top_rows = top if rows is None else rows[top]
    return RankedList(
        question_id=question_id,
        method=method,
        items=[
            (index.passages[row].passage_id, distance)
            for row, distance in zip(top_rows.tolist(), distances[top].tolist())
        ],
    )


def random_baseline(
    index: PassageIndex,
    candidate_docs: set[str] | None,
    k: int,
    seed: int,
    question_id: str = "",
) -> RankedList:
    """Draw k distinct candidate passages uniformly, deterministic in seed.

    Scores are recorded as 0.0; the selection is reported in passage-id
    order (the tie rule for equal scores). Raises ValueError when the
    candidate set is empty or k < 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows = _candidate_rows(index, candidate_docs)
    if rows is None:
        candidates = [p.passage_id for p in index.passages]
    else:
        candidates = [index.passages[row].passage_id for row in rows.tolist()]
    if not candidates:
        raise ValueError("empty candidate set")
    rng = random.Random(seed)
    chosen = rng.sample(candidates, min(k, len(candidates)))
    return RankedList(
        question_id=question_id,
        method=Method.RND,
        items=[(pid, 0.0) for pid in sorted(chosen)],
    )


_ESCAPES = [("\\", "\\\\"), ("\t", "\\t"), ("\n", "\\n")]


def _escape(text: str) -> str:
    for raw, escaped in _ESCAPES:
        text = text.replace(raw, escaped)
    return text


_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n"}
_ESCAPED_RE = re.compile(r"\\(.)", re.DOTALL)


def _unescape(text: str) -> str:
    # An unknown escape, or a trailing lone backslash, is kept as written.
    return _ESCAPED_RE.sub(lambda m: _UNESCAPES.get(m.group(1), m.group(0)), text)


def save_index(index: PassageIndex, sink: PathOrIO) -> None:
    """Write '#dim <d>' then one tab-separated line per passage."""
    with open_text(sink, "w") as handle:
        handle.write(f"#dim {index.dim}\n")
        for p, uniform, idf in zip(index.passages, index.uniform, index.idf):
            handle.write(
                "\t".join(
                    (
                        p.passage_id,
                        p.doc_id,
                        _escape(p.text),
                        ",".join(map(repr, uniform.tolist())),
                        ",".join(map(repr, idf.tolist())),
                    )
                )
                + "\n"
            )


def _parse_components(text: str, dim: int, line_no: int, out: array) -> None:
    """Append the ``dim`` comma-separated floats in ``text`` to ``out``."""
    values = text.split(",")
    if len(values) != dim:
        raise ValueError(f"line {line_no}: expected {dim} components, got {len(values)}")
    try:
        out.extend(map(float, values))
    except ValueError:
        raise ValueError(f"line {line_no}: malformed centroid components") from None


def load_index(source: PathOrIO) -> PassageIndex:
    """Parse an index written by :func:`save_index`.

    Raises ValueError naming the line for a malformed row or a passage id
    seen on an earlier line.
    """
    with open_text(source) as handle:
        header = handle.readline()
        if not header:
            raise ValueError("empty index stream")
        header = header.rstrip("\n")
        parts = header.split(" ")
        if len(parts) != 2 or parts[0] != "#dim":
            raise ValueError(f"line 1: expected '#dim <d>', got {header!r}")
        try:
            dim = int(parts[1])
        except ValueError:
            raise ValueError(f"line 1: malformed dimension {parts[1]!r}") from None

        passages: list[Passage] = []
        seen: set[str] = set()
        uniform, idf = array("d"), array("d")
        for line_no, raw_line in enumerate(handle, start=2):
            line = raw_line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise ValueError(f"line {line_no}: expected 5 tab-separated fields")
            passage_id, doc_id, escaped_text, uniform_text, idf_text = fields
            if passage_id in seen:
                raise ValueError(f"line {line_no}: duplicate passage id {passage_id!r}")
            seen.add(passage_id)
            _parse_components(uniform_text, dim, line_no, uniform)
            _parse_components(idf_text, dim, line_no, idf)
            passages.append(Passage(passage_id, doc_id, _unescape(escaped_text)))
    shape = (len(passages), dim)
    return PassageIndex(
        dim,
        passages,
        np.frombuffer(uniform, dtype=np.float64).reshape(shape),
        np.frombuffer(idf, dtype=np.float64).reshape(shape),
    )
