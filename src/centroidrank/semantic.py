"""Weighted centroid vectors and cosine distance.

A token sequence is represented by the weighted average of its word
vectors, a read-only float64 array. Tokens without an embedding
contribute nothing, to either the numerator or the weight normalizer, so
out-of-vocabulary noise does not dilute the covered content. All
arithmetic is 64-bit.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .embeddings import EmbeddingTable


def weighted_centroid(
    tokens: Sequence[str],
    embeddings: EmbeddingTable,
    weight: Callable[[str], float],
) -> np.ndarray:
    """Sum of weight(t) * vector(t) over covered tokens, divided by the
    weight sum. Degenerate inputs (nothing covered, weights summing to
    zero) yield the zero vector rather than an error."""
    acc = np.zeros(embeddings.dim, dtype=np.float64)
    weight_sum = 0.0
    for token in tokens:
        vector = embeddings.lookup(token)
        if vector is None:
            continue
        w = float(weight(token))
        if w == 0.0:
            continue
        acc += w * vector
        weight_sum += w
    if weight_sum == 0.0:
        # Weights of either sign can cancel, leaving acc nonzero.
        acc.fill(0.0)
    else:
        acc /= weight_sum
    acc.flags.writeable = False
    return acc


def centroid(
    tokens: Sequence[str],
    embeddings: EmbeddingTable,
    idf=None,
) -> np.ndarray:
    """Uniform centroid when ``idf`` is None, idf-weighted otherwise.

    ``idf`` is anything with a ``weight(token) -> float`` method (normally
    an :class:`~centroidrank.idf.IdfTable`).
    """
    if idf is None:
        return weighted_centroid(tokens, embeddings, lambda _token: 1.0)
    return weighted_centroid(tokens, embeddings, idf.weight)


def cosine_distance(u, v) -> float:
    """1 - cos(angle) between two array-likes, in [0, 2].

    A zero-norm operand gives the neutral distance 1.0, so all-OOV
    passages stay rankable without ever outranking a positively matching
    one.
    """
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 1.0
    similarity = float(np.dot(a, b)) / (norm_a * norm_b)
    # 64-bit rounding can push |similarity| a few ulps past 1.
    similarity = max(-1.0, min(1.0, similarity))
    return 1.0 - similarity
