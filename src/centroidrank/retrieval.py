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

import json
import os
import random
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .idf import IdfTable
from .runs import Method, RankedList, check_method  # Method is also read from here
from .semantic import centroid, centroids, cosine_distances
from .text import split_sentences, tokenize


class Passage(NamedTuple):
    """One indexed sentence; its centroids are its row in the index matrices."""

    passage_id: str
    doc_id: str
    text: str


def _frozen(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


class PassageIndex:
    """Sentence index whose data is immutable.

    ``passages`` come in strictly ascending passage-id order (ValueError
    otherwise), and row ``i`` of ``uniform`` and ``idf`` (C-contiguous
    float64, shape ``(n, dim)``; ``dim`` is their width) holds the raw
    centroids of ``passages[i]``. ``doc_index`` maps each document to the
    ascending row indices of its passages; the rows of one document need
    not be contiguous (``d#1`` sorts between ``d`` and ``d``'s later rows
    when ``d#1`` is itself a document id). The mutable parts are two memos
    of data derived from that, never filled by building, loading or
    ranking: each passage's tokens, filled by :meth:`passage_tokens` on
    first use, and the relevant passage ids per judged ``(t, gold
    snippets)``, filled by :func:`~centroidrank.evaluation.build_judgments`.
    The second grows with the distinct snippet lists judged on the index.
    """

    def __init__(self, passages: list[Passage], uniform: np.ndarray, idf: np.ndarray) -> None:
        for before, after in zip(passages, passages[1:]):
            if after.passage_id <= before.passage_id:
                raise ValueError(
                    f"passage id {after.passage_id!r} does not sort after {before.passage_id!r}"
                )
        self.passages = passages
        self.uniform = _frozen(np.ascontiguousarray(uniform, dtype=np.float64))
        self.dim = self.uniform.shape[1]
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
        self._tokens: dict[int, tuple[str, ...]] = {}
        self._judged: dict[tuple, frozenset[str]] = {}

    def __len__(self) -> int:
        return len(self.passages)

    def passage_tokens(self, row: int) -> tuple[str, ...]:
        """``tokenize(passages[row].text)``, computed on first use and kept.

        Threads that share the index may each compute a row's first call;
        they get equal tokens, and one of them is kept.
        """
        tokens = self._tokens.get(row)
        if tokens is None:
            tokens = self._tokens[row] = tokenize(self.passages[row].text)
        return tokens


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
    uniform, idf = centroids(
        (tokenize(passage.text) for passage in passages), embeddings, [None, doc_idf.weight]
    )
    return PassageIndex(passages, uniform, idf)


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
    scored; unknown ids raise ValueError, as do an embedding table whose
    dimension differs from the index's and what
    :func:`~centroidrank.runs.check_method` refuses.
    """
    method = check_method(method, k, embeddings, doc_idf, question_idf)
    if method is Method.RND:
        raise ValueError("rnd has no distance ranking; use random_baseline()")
    if embeddings.dim != index.dim:
        raise ValueError(
            f"dimension mismatch: index dim {index.dim}, embeddings dim {embeddings.dim}"
        )
    idf = {Method.CD: None, Method.CD_IDF: doc_idf, Method.CD_Q: question_idf}[method]
    q = centroid(question, embeddings, idf)
    if idf is None:
        matrix, norms = index.uniform, index.uniform_norms
    else:
        matrix, norms = index.idf, index.idf_norms
    rows = _candidate_rows(index, candidate_docs)
    if rows is not None:
        matrix, norms = matrix[rows], norms[rows]
    distances = cosine_distances(matrix, norms, q)
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
    rows = range(len(index)) if candidate_docs is None else _candidate_rows(index, candidate_docs)
    candidates = [index.passages[row].passage_id for row in rows]
    if not candidates:
        raise ValueError("empty candidate set")
    rng = random.Random(seed)
    chosen = rng.sample(candidates, min(k, len(candidates)))
    return RankedList(
        question_id=question_id,
        method=Method.RND,
        items=[(pid, 0.0) for pid in sorted(chosen)],
    )


_UNIFORM, _IDF, _PASSAGES = "uniform.npy", "idf.npy", "passages.jsonl"


def save_index(index: PassageIndex, directory: str | os.PathLike) -> None:
    """Write the index as a directory of standard files.

    ``uniform.npy`` and ``idf.npy`` hold the two centroid matrices
    (``np.save``); ``passages.jsonl`` holds one ``[passage_id, doc_id,
    text]`` JSON array per row. The directory is created if needed, and
    the files of an index already there are replaced.
    """
    os.makedirs(directory, exist_ok=True)
    np.save(os.path.join(directory, _UNIFORM), index.uniform)
    np.save(os.path.join(directory, _IDF), index.idf)
    with open(os.path.join(directory, _PASSAGES), "w", encoding="utf-8") as handle:
        for passage in index.passages:
            handle.write(json.dumps(passage, ensure_ascii=False) + "\n")


def _load_matrix(directory: str | os.PathLike, name: str) -> np.ndarray:
    try:
        matrix = np.load(os.path.join(directory, name), allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ValueError(f"{name}: not a readable .npy matrix ({exc})") from None
    if not isinstance(matrix, np.ndarray) or matrix.ndim != 2 or matrix.dtype != np.float64:
        raise ValueError(f"{name}: expected a 2-d float64 matrix")
    if not np.isfinite(matrix).all():
        raise ValueError(f"{name}: non-finite value")
    return matrix


def load_index(directory: str | os.PathLike) -> PassageIndex:
    """Read an index directory written by :func:`save_index`.

    A missing file raises OSError. Raises ValueError naming the file for a
    matrix file that is empty, truncated or not ``.npy``, a matrix that is
    not 2-d float64 or holds a NaN or an infinity, matrices of different
    shapes, a passage line that is not three strings, whose passage id is
    not ``<doc_id>#<n>`` (``n`` ASCII digits) or does not sort after the
    previous line's (naming the line), or a passage count that differs
    from the matrix rows.
    """
    uniform = _load_matrix(directory, _UNIFORM)
    idf = _load_matrix(directory, _IDF)
    if uniform.shape != idf.shape:
        raise ValueError(
            f"{_UNIFORM} shape {uniform.shape} differs from {_IDF} shape {idf.shape}"
        )
    passages: list[Passage] = []
    with open(os.path.join(directory, _PASSAGES), encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                fields = json.loads(line)
            except json.JSONDecodeError:
                fields = None
            if not (
                isinstance(fields, list)
                and len(fields) == 3
                and all(isinstance(f, str) for f in fields)
            ):
                raise ValueError(
                    f"{_PASSAGES} line {line_no}: expected [passage_id, doc_id, text]"
                )
            passage = Passage(*fields)
            ordinal = passage.passage_id[len(passage.doc_id) + 1 :]
            if not (
                passage.passage_id == f"{passage.doc_id}#{ordinal}"
                and ordinal.isascii()
                and ordinal.isdigit()
            ):
                raise ValueError(
                    f"{_PASSAGES} line {line_no}: passage id {passage.passage_id!r} "
                    f"is not {passage.doc_id + '#<n>'!r}"
                )
            if passages and passage.passage_id <= passages[-1].passage_id:
                raise ValueError(
                    f"{_PASSAGES} line {line_no}: passage id {passage.passage_id!r} "
                    f"does not sort after {passages[-1].passage_id!r}"
                )
            passages.append(passage)
    if len(passages) != len(uniform):
        raise ValueError(
            f"{_PASSAGES} has {len(passages)} passages, the matrices {len(uniform)} rows"
        )
    return PassageIndex(passages, uniform, idf)
