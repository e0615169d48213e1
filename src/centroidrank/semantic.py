"""Weighted centroid vectors and cosine distance.

A token sequence is represented by the weighted average of its word
vectors, a read-only float64 array. Tokens without an embedding, or with
weight 0, contribute nothing, to either the numerator or the weight
normalizer, so out-of-vocabulary noise does not dilute the covered
content. All arithmetic is 64-bit.

Every centroid is summed the same way, with ``+=`` in token order:
weight times vector added to a sum that starts at +0.0, the weights added
to another, the zero vector when the weight sum is 0.0, and the division
last. :func:`weighted_centroid` and :func:`centroid` do this one token at
a time. :func:`centroids` does it for many sequences under several
weightings at once: each sequence is mapped to the embedding rows of its
covered tokens once, each distinct token's weight is looked up once, and
token position ``j`` of up to ``_CHUNK_ROWS`` sequences is added in one
step. No centroid depends on how NumPy orders a reduction.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingTable

# Sequences summed side by side: each sum holds 0.4 MB at 200 dimensions.
# Summing all 4 000 sequences of a benchmark build at once raised the peak
# memory of the call from 17 to 40 MB, and was no faster.
_CHUNK_ROWS = 256

Weight = Callable[[str], float]


def centroids(
    token_lists: Iterable[Sequence[str]],
    embeddings: EmbeddingTable,
    weights: Sequence[Weight | None],
) -> list[np.ndarray]:
    """One read-only ``(n, dim)`` matrix per entry of ``weights``, whose row
    ``i`` is the centroid of the ``i``-th token sequence under that weight.

    A weight of None is the uniform weight 1.0. ``token_lists`` is read
    once, one sequence at a time.
    """
    vocab = embeddings.vocab
    ids = array("q")  # embedding rows of the covered tokens, list by list
    counts = array("q")  # covered tokens per list
    distinct: set[str] = set()
    for tokens in token_lists:
        rows = [row for row in map(vocab.get, tokens) if row is not None]
        ids.extend(rows)
        counts.append(len(rows))
        distinct.update(tokens)
    token_weights = []
    for weight in weights:
        if weight is None:
            token_weights.append(np.ones(len(ids)))
        else:
            by_row = {vocab[t]: float(weight(t)) for t in distinct if t in vocab}
            token_weights.append(np.fromiter(map(by_row.__getitem__, ids), np.float64, len(ids)))
    del distinct
    ids, counts = np.array(ids, dtype=np.intp), np.array(counts, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    dim = embeddings.dim
    outs = [np.zeros((len(counts), dim)) for _ in weights]

    # Longest first, so that the sequences still running at a token
    # position are a prefix of their chunk; uncovered lists stay zero.
    order = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    for first in range(0, len(order), _CHUNK_ROWS):
        chunk = order[first : first + _CHUNK_ROWS]
        lengths, chunk_starts = counts[chunk], starts[chunk]
        sums = [np.zeros((len(chunk), dim)) for _ in weights]
        totals = [np.zeros(len(chunk)) for _ in weights]
        for j in range(lengths[0]):
            at = chunk_starts[: np.count_nonzero(lengths > j)] + j
            vectors = embeddings.matrix[ids[at]]
            for acc, total, token_weight in zip(sums, totals, token_weights):
                w = token_weight[at]
                acc[: len(at)] += w[:, None] * vectors
                total[: len(at)] += w
        for out, acc, total in zip(outs, sums, totals):
            out[chunk] = _divided(acc, total[:, None])
    for out in outs:
        out.flags.writeable = False
    return outs


def _divided(numerator: np.ndarray, divisor) -> np.ndarray:
    """``numerator / divisor``, but +0.0 where the divisor is 0.0: a
    centroid whose weights cancel is zero, and so is the similarity of a
    zero vector."""
    nonzero = divisor != 0.0
    return np.where(nonzero, numerator / np.where(nonzero, divisor, 1.0), 0.0)


def weighted_centroid(
    tokens: Sequence[str],
    embeddings: EmbeddingTable,
    weight: Weight | None,
) -> np.ndarray:
    """Sum of weight(t) * vector(t) over covered tokens, divided by the
    weight sum; None weighs every token 1.0. Degenerate inputs (nothing
    covered, weights summing to zero) yield the zero vector rather than an
    error.

    This is the one-row case of :func:`centroids`, with the same sums.
    """
    vocab, matrix = embeddings.vocab, embeddings.matrix
    acc = np.zeros(embeddings.dim)
    total = 0.0
    for token in tokens:
        row = vocab.get(token)
        if row is not None:
            w = 1.0 if weight is None else float(weight(token))
            acc += w * matrix[row]
            total += w
    result = _divided(acc, total)
    result.flags.writeable = False
    return result


def centroid(
    tokens: Sequence[str],
    embeddings: EmbeddingTable,
    idf=None,
) -> np.ndarray:
    """Uniform centroid when ``idf`` is None, idf-weighted otherwise.

    ``idf`` is anything with a ``weight(token) -> float`` method (normally
    an :class:`~centroidrank.idf.IdfTable`).
    """
    return weighted_centroid(tokens, embeddings, None if idf is None else idf.weight)


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(matrix, axis=1)``, bit for bit, ``_CHUNK_ROWS`` rows
    at a time: the squares of a whole index would be a second copy of it."""
    norms = np.empty(len(matrix))
    for first in range(0, len(matrix), _CHUNK_ROWS):
        norms[first : first + _CHUNK_ROWS] = np.linalg.norm(
            matrix[first : first + _CHUNK_ROWS], axis=1
        )
    return norms


def cosine_distances(
    matrix: np.ndarray, norms: np.ndarray, q: np.ndarray, q_norm: float
) -> np.ndarray:
    """1 - cos(angle) between each row of ``matrix``, whose norms are
    ``norms``, and the vector ``q``, whose norm is ``q_norm``, each in
    [0, 2].

    A zero row or a zero ``q`` gives the neutral distance 1.0, so all-OOV
    passages stay rankable without ever outranking a positively matching
    one.
    """
    # einsum reduces each row with the same instruction sequence wherever
    # the row sits, so identical rows get bit-identical distances; a BLAS
    # mat-vec may round a row differently by position.
    dots = np.einsum("ij,j->i", matrix, q)
    similarity = _divided(dots, norms * q_norm)
    # 64-bit rounding can push |similarity| a few ulps past 1.
    return 1.0 - np.clip(similarity, -1.0, 1.0)


def cosine_distance(u, v) -> float:
    """1 - cos(angle) between two array-likes, in [0, 2]: the one-row case
    of :func:`cosine_distances`."""
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    a, b = a.reshape(1, -1), b.reshape(-1)
    return float(cosine_distances(a, np.linalg.norm(a, axis=1), b, float(np.linalg.norm(b)))[0])
