"""Sentence-level passage indexing and centroid-distance ranking.

Each document is split into sentences; each sentence becomes a passage,
one row of two centroid matrices (uniform and document-idf weighted).
Ranking scores the question centroid against the candidate rows of the
matching matrix with one ``einsum``, under one of three schemes:

* ``cd``      uniform question centroid vs uniform passage centroid
* ``cd-idf``  document-idf question centroid vs idf passage centroid
* ``cd-q``    question-corpus-idf question centroid vs idf passage centroid

plus a seeded random baseline (``rnd``). Output order is total: ascending
distance, ties broken by ascending passage id. Over the whole index, a
float32 screen of unit rows first chooses the rows that can still reach
the top k; the scores and the order are those of scoring every row.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.lib import format as npy

from .embeddings import EmbeddingTable
from .idf import IdfTable
from .runs import Method, RankedList, check_at_least_one, check_method  # Method is re-exported
from .semantic import centroid, centroids, cosine_distances, row_norms
from .text import split_sentences, tokenize


class Passage(NamedTuple):
    """One indexed sentence; its document is ``passage_id`` up to the last ``#``."""

    passage_id: str
    text: str


def _frozen(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


class PassageIndex:
    """Sentence index whose data is immutable.

    ``passages`` is a tuple, the index's own copy of the passages it is
    given. Row ``i`` of ``uniform`` and ``idf`` (C-contiguous float64,
    shape ``(n, dim)``; ``dim`` is their width) holds the raw centroids of
    ``passages[i]``. ``doc_index`` maps each document, a passage id up to
    its last ``#``, to the ascending row indices of its passages; the rows
    of one document need not be contiguous (``d#1`` sorts between ``d`` and
    ``d``'s later rows when ``d#1`` is itself a document id). The index
    checks its own data, built or loaded alike, and raises ValueError for
    matrices that are not 2-d or differ in shape, a passage count that
    differs from the rows, a passage id that is not ``<doc_id>#<n>`` (``n``
    ASCII digits) or does not sort after the one before it (naming
    ``passages[i]``), and a row whose norm is not finite (naming its
    passage). The one mutable part is a memo derived from that, never
    filled by building or loading: the float32 screen of ``uniform`` or
    ``idf``, filled by :meth:`screen` when :func:`rank` first scores the
    whole index with it.
    """

    def __init__(self, passages: list[Passage], uniform: np.ndarray, idf: np.ndarray) -> None:
        self.uniform = _frozen(np.ascontiguousarray(uniform, dtype=np.float64))
        self.idf = _frozen(np.ascontiguousarray(idf, dtype=np.float64))
        if self.uniform.ndim != 2 or self.idf.shape != self.uniform.shape:
            raise ValueError(
                f"uniform shape {self.uniform.shape} and idf shape {self.idf.shape}: "
                "expected two 2-d matrices of one shape"
            )
        if len(passages) != len(self.uniform):
            raise ValueError(f"{len(passages)} passages, {len(self.uniform)} matrix rows")
        rows: dict[str, list[int]] = {}
        previous = ""  # sorts before every id, since an id holds a '#'
        for row, (passage_id, _text) in enumerate(passages):
            doc_id, sep, ordinal = passage_id.rpartition("#")
            if not (sep and ordinal.isascii() and ordinal.isdigit()):
                raise ValueError(
                    f"passages[{row}]: passage id {passage_id!r} is not '<doc_id>#<n>'"
                )
            if passage_id <= previous:
                raise ValueError(
                    f"passages[{row}]: passage id {passage_id!r} does not sort after {previous!r}"
                )
            previous = passage_id
            rows.setdefault(doc_id, []).append(row)
        self.passages = tuple(passages)
        self.dim = self.uniform.shape[1]
        self.uniform_norms = _finite_norms(self.uniform, "uniform", passages)
        self.idf_norms = _finite_norms(self.idf, "idf", passages)
        self.doc_index = {
            doc_id: _frozen(np.array(doc_rows, dtype=np.intp))
            for doc_id, doc_rows in rows.items()
        }
        self._screens: dict[str, np.ndarray | None] = {}

    def __len__(self) -> int:
        return len(self.passages)

    def screen(self, name: str) -> np.ndarray | None:
        """Each row of matrix ``name`` (``"uniform"`` or ``"idf"``) over its
        norm, in float32 (zero rows stay zero), computed on first use and
        kept; None when a nonzero norm lies outside [2**-100, 2**100].
        Threads may each compute it first; they get equal screens.
        """
        if name not in self._screens:
            self._screens[name] = _unit_rows32(
                getattr(self, name), getattr(self, name + "_norms")
            )
        return self._screens[name]


def _finite_norms(matrix: np.ndarray, name: str, passages: list[Passage]) -> np.ndarray:
    with np.errstate(over="ignore"):  # refused below, naming the passage
        norms = row_norms(matrix)
    bad = np.flatnonzero(~np.isfinite(norms))
    if len(bad):
        raise ValueError(
            f"passage {passages[bad[0]].passage_id!r}: {name} centroid norm "
            f"{norms[bad[0]]} is not finite"
        )
    return _frozen(norms)


# Screening needs every nonzero norm, the question's included, within
# [2**-100, 2**100]. Beyond it float64 sums of squares and products of two
# norms can underflow or overflow, so einsum no longer tracks the cosine,
# and float32 entries would overflow or flush to zero; such an index or
# question is scored row by row.
_SCREEN_LIMIT = 2.0**100


def _unit_rows32(matrix: np.ndarray, norms: np.ndarray) -> np.ndarray | None:
    with np.errstate(over="ignore"):  # a subnormal norm; refused below
        scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms != 0.0)
    if max(norms.max(initial=0.0), scale.max(initial=0.0)) > _SCREEN_LIMIT:
        return None
    # Cast first, then scale in float32: one pass over the float64 matrix.
    # Entries are at most 2**100 here, far inside the float32 range.
    screen = matrix.astype(np.float32)
    screen *= scale.astype(np.float32)[:, None]
    return _frozen(screen)


def _screen_slack(dim: int) -> float:
    """δ, a bound on |d_b - d_e| for any row: d_b is the screen distance
    ``1 - vecdot(screen row, fl32(q / Q))``, d_e the einsum distance that
    :func:`~centroidrank.semantic.cosine_distances` returns."""
    # u = 2**-24 and v = 2**-53 are the float32 and float64 unit roundoffs;
    # a row m has stored norm N, the question q norm Q, both in
    # [2**-100, 2**100], and c = m.q / (N Q).
    # * A screen entry fl32(fl32(m_i) * fl32(fl64(1 / N))) is
    #   (m_i / N)(1 + a) + e, |a| <= 3u + v + 4u^2 (three float32 roundings
    #   and one float64); |e| <= 2**-49 covers a subnormal float32 result,
    #   magnified at most 2**100 by the scale. A question entry
    #   fl32(fl64(q_i / Q)) is (q_i / Q)(1 + b) + f, |b| <= u + v,
    #   |f| <= 2**-150.
    # * Inside the norm range nothing underflows that matters, so N and Q
    #   are within d v of the true norms and sum |m_i q_i| / (N Q) <= 1 + 2dv.
    #   The exact dot product of the two screen vectors is then within
    #   4u + 8u^2 + sqrt(d) 2**-48 + 3dv of c, and each vector has norm at
    #   most 1 + 5u.
    # * vecdot adds at most γ_d (1 + 5u) + d 2**-150, γ_d = d u / (1 - d u),
    #   in any order of summation, with or without FMA (the last term is
    #   products that underflow).
    # * einsum's similarity is within (d + 3) v of c; clipping it, as
    #   cosine_distances does and the screen need not, moves it by at most
    #   its distance from c, since |c| <= 1 + 2dv. Rounding 1 - s and the
    #   threshold T_b + 2δ costs a few v more.
    # Summed and rounded up, δ ~= 1.22e-5 at d = 200:
    u, v = 2.0**-24, 2.0**-53
    if dim * u >= 0.5:
        return math.inf
    gamma = dim * u / (1 - dim * u)
    return 5 * u + gamma * (1 + 8 * u) + math.sqrt(dim) * 2.0**-47 + 32 * (dim + 4) * v


def _screened_rows(
    index: PassageIndex, name: str, q: np.ndarray, q_norm: float, k: int
) -> np.ndarray | None:
    """Ascending rows that can still reach the top k by einsum distance,
    chosen on ``index.screen(name)``; None when the screen cannot choose."""
    if not 1 / _SCREEN_LIMIT <= q_norm <= _SCREEN_LIMIT:
        return None
    screen = index.screen(name)
    if screen is None:
        return None
    # vecdot runs on one thread; a BLAS mat-vec (``@``) may use more, and
    # they slowed long runs of rank below scoring every row.
    d_b = 1.0 - np.vecdot(screen, (q / q_norm).astype(np.float32)).astype(np.float64)
    # The k rows with d_b <= T_b have d_e <= T_b + δ, so the k-th smallest
    # d_e, T_e, is at most T_b + δ; a row with d_e <= T_e then has
    # d_b <= T_b + 2δ. Every row of the top k, and every row tied with its
    # last, is kept, in row order.
    threshold = np.partition(d_b, k - 1)[k - 1] + 2 * _screen_slack(index.dim)
    return np.flatnonzero(d_b <= threshold)


def build_index(
    documents: Iterable[tuple[str, str]],
    embeddings: EmbeddingTable,
    doc_idf: IdfTable,
) -> PassageIndex:
    """Sentence-split documents and precompute both centroids per passage.

    Passage ids are ``<doc_id>#<sentence_ordinal>``. Duplicate document ids
    raise ValueError, as does a centroid whose norm overflows, naming its
    passage: with vectors or weights large enough that a weighted sum or
    a sum of squares passes the float64 range (about 1.8e308; a centroid
    norm past about 1.3e154 does).
    """
    passages: list[Passage] = []
    seen: set[str] = set()
    for doc_id, text in documents:
        if doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
        for ordinal, (sentence, _offset) in enumerate(split_sentences(text)):
            passages.append(Passage(f"{doc_id}#{ordinal}", sentence))
    passages.sort(key=lambda p: p.passage_id)
    uniform, idf = centroids(
        (tokenize(passage.text) for passage in passages), embeddings, doc_idf.weight
    )
    return PassageIndex(passages, uniform, idf)


def _check_dim(index: PassageIndex, embeddings: EmbeddingTable) -> EmbeddingTable:
    """``embeddings``, once its width is known to be the index's."""
    if embeddings.dim != index.dim:
        raise ValueError(
            f"dimension mismatch: index dim {index.dim}, embeddings dim {embeddings.dim}"
        )
    return embeddings


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
    dimension differs from the index's, a question centroid whose norm is
    not finite, and what :func:`~centroidrank.runs.check_method` refuses.

    Without ``candidate_docs``, with k below the passage count and a
    question centroid whose norm lies in [2**-100, 2**100], the rows that
    can reach the top k are first chosen on :meth:`PassageIndex.screen`
    (kept on the index), and only they are scored. Ids and distances are
    those of scoring every row.
    """
    method = check_method(method, k, embeddings, doc_idf, question_idf)
    if method is Method.RND:
        raise ValueError("rnd has no distance ranking; use random_baseline()")
    _check_dim(index, embeddings)
    idf = {Method.CD: None, Method.CD_IDF: doc_idf, Method.CD_Q: question_idf}[method]
    q = centroid(question, embeddings, idf)
    q_norm = float(np.linalg.norm(q))  # numpy warns when it overflows
    if not math.isfinite(q_norm):
        raise ValueError(
            f"question {question_id or ' '.join(question)!r}: centroid norm {q_norm} "
            "is not finite"
        )
    name = "uniform" if idf is None else "idf"
    matrix, norms = getattr(index, name), getattr(index, name + "_norms")
    rows = _candidate_rows(index, candidate_docs)
    if rows is None and k < len(index):
        rows = _screened_rows(index, name, q, q_norm, k)
    if rows is not None:
        matrix, norms = matrix[rows], norms[rows]
    distances = cosine_distances(matrix, norms, q, q_norm)
    # Rows are in passage-id order, so a stable sort breaks ties by id.
    top = np.argsort(distances, kind="stable")[:k]
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
    check_at_least_one("k", k)
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

# ``json.dumps(passage, ensure_ascii=False)``, with one encoder for every
# line: given an option, ``json.dumps`` builds a new encoder per call.
_PASSAGE_LINE = json.JSONEncoder(ensure_ascii=False)


def save_index(index: PassageIndex, directory: str | os.PathLike) -> None:
    """Write the index as a directory of standard files.

    ``uniform.npy`` and ``idf.npy`` hold the two centroid matrices
    (``np.save``); ``passages.jsonl`` holds one ``[passage_id, text]``
    JSON array per row. The directory is created if needed, and the files
    of an index already there are replaced.
    """
    os.makedirs(directory, exist_ok=True)
    np.save(os.path.join(directory, _UNIFORM), index.uniform)
    np.save(os.path.join(directory, _IDF), index.idf)
    with open(os.path.join(directory, _PASSAGES), "w", encoding="utf-8") as handle:
        handle.writelines(_PASSAGE_LINE.encode(passage) + "\n" for passage in index.passages)


def _load_matrix(directory: str | os.PathLike, name: str) -> np.ndarray:
    """The float64 array of ``.npy`` file ``name``, read without unpickling.
    Another dtype, or a header shape that needs more data than the file
    holds, is refused before anything is allocated."""
    with open(os.path.join(directory, name), "rb") as handle:
        try:
            version = npy.read_magic(handle)  # 2.0 and 3.0 share one header layout
            read = npy.read_array_header_1_0 if version == (1, 0) else npy.read_array_header_2_0
            shape, _fortran_order, dtype = read(handle)
            if dtype == np.float64:
                need = math.prod(shape) * dtype.itemsize
                held = os.fstat(handle.fileno()).st_size - handle.tell()
                if need > held:
                    raise ValueError(f"shape {shape} needs {need} bytes, the file holds {held}")
                handle.seek(0)
                return npy.read_array(handle, allow_pickle=False)
        except (ValueError, EOFError) as exc:
            raise ValueError(f"{name}: not a readable .npy matrix ({exc})") from None
    raise ValueError(f"{name}: expected a float64 matrix, got {dtype}")


def load_index(directory: str | os.PathLike) -> PassageIndex:
    """Read an index directory written by :func:`save_index`.

    Only the files' format is checked here. A missing file raises OSError.
    ValueError names the file for a matrix file that is empty, truncated,
    not ``.npy`` or whose header shape needs more data than it holds, a
    matrix that is not float64, or a passage line that is not a JSON array
    of two strings (naming the line), such as each line of an index
    written with a doc id field. The rest is :class:`PassageIndex`'s to
    refuse, where ``passages[i]`` is line ``i + 1`` of ``passages.jsonl``.
    """
    uniform = _load_matrix(directory, _UNIFORM)
    idf = _load_matrix(directory, _IDF)
    passages: list[Passage] = []
    with open(os.path.join(directory, _PASSAGES), encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                fields = json.loads(line)
            except json.JSONDecodeError:
                fields = None
            if not (
                isinstance(fields, list)
                and len(fields) == 2
                and all(isinstance(f, str) for f in fields)
            ):
                raise ValueError(f"{_PASSAGES} line {line_no}: expected [passage_id, text]")
            passages.append(Passage(*fields))
    return PassageIndex(passages, uniform, idf)
