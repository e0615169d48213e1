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
a time. :func:`centroids` does it for many sequences at once, uniform and
weighted side by side: each distinct token's embedding row and weight are
looked up once and gathered by NumPy, the uniform sum adds the vectors
themselves, and token position ``j`` of up to ``_CHUNK_ROWS`` sequences
is added in one step. No centroid depends on how NumPy orders a
reduction.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import count, repeat
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
    weight: Weight,
) -> tuple[np.ndarray, np.ndarray]:
    """The read-only ``(n, dim)`` matrices ``(uniform, weighted)``, whose
    rows ``i`` are the centroids of the ``i``-th token sequence with every
    token weighing 1.0 and under ``weight``.

    The uniform sums add the vectors themselves, since ``1.0 * v`` is
    ``v``, and divide by the covered token count, which adding 1.0 per
    token reaches exactly. ``token_lists`` is read once, one sequence at a
    time.
    """
    # Each distinct token gets a slot when first seen, inside the dict, so
    # reading a sequence makes no Python call per token.
    slot_of: defaultdict[str, int] = defaultdict(count().__next__)
    slots: list[int] = []  # the slot of every token, sequence by sequence
    ends: list[int] = []  # where each sequence ends in ``slots``
    for tokens in token_lists:
        slots += map(slot_of.__getitem__, tokens)
        ends.append(len(slots))
    distinct = list(slot_of)  # tokens in slot order
    del slot_of
    slot_rows = np.fromiter(
        map(embeddings.vocab.get, distinct, repeat(-1)), np.intp, len(distinct)
    )
    covered_slots = np.flatnonzero(slot_rows >= 0)
    slots = np.fromiter(slots, np.intp, len(slots))
    covered = slot_rows[slots] >= 0
    slots = slots[covered]  # of the covered tokens only, from here on
    ids = slot_rows[slots]
    covered_ends = np.concatenate(([0], np.cumsum(covered)))[ends]
    counts = np.diff(covered_ends, prepend=0)
    starts = covered_ends - counts
    del covered
    # Each distinct covered token is weighed once, and its weight gathered
    # by slot: two tokens that share an embedding row keep their own weights.
    slot_weights = np.zeros(len(distinct))
    slot_weights[covered_slots] = [float(weight(distinct[s])) for s in covered_slots.tolist()]
    token_weights = slot_weights[slots]
    del slots, distinct
    dim = embeddings.dim
    uniform, weighted = np.zeros((len(counts), dim)), np.zeros((len(counts), dim))

    # Longest first, so that the sequences still running at a token
    # position are a prefix of their chunk; uncovered lists stay zero.
    order = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    for first in range(0, len(order), _CHUNK_ROWS):
        chunk = order[first : first + _CHUNK_ROWS]
        lengths, chunk_starts = counts[chunk], starts[chunk]
        plain, scaled = np.zeros((len(chunk), dim)), np.zeros((len(chunk), dim))
        total = np.zeros(len(chunk))
        for j in range(lengths[0]):
            at = chunk_starts[: np.count_nonzero(lengths > j)] + j
            m = len(at)
            vectors = embeddings.matrix[ids[at]]
            w = token_weights[at]
            plain[:m] += vectors
            total[:m] += w
            scaled[:m] += np.multiply(vectors, w[:, None], out=vectors)
        uniform[chunk] = np.divide(plain, lengths[:, None], out=plain)
        weighted[chunk] = _divided(scaled, total[:, None])
    uniform.flags.writeable = weighted.flags.writeable = False
    return uniform, weighted


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
