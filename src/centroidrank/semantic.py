"""Weighted centroid vectors and cosine distance.

A token sequence is represented by the weighted average of its word
vectors, a read-only float64 array. Tokens without an embedding, or with
weight 0, contribute nothing, to either the numerator or the weight
normalizer, so out-of-vocabulary noise does not dilute the covered
content. All arithmetic is 64-bit.

:func:`centroids` computes the centroids of many sequences under several
weightings at once, and :func:`weighted_centroid` and :func:`centroid`
are its one-row case. Each sequence is mapped to the embedding rows of
its covered tokens once, and each distinct token's weight is looked up
once. Sequences are ordered by covered length and their rows gathered in
blocks of about ``_BLOCK_VECTORS`` word vectors, one block shared by every
weighting. A centroid has the bytes a per-token loop gives it: weight
times vector summed in token order starting from +0.0, the weights summed
in token order, the zero vector when that sum is 0.0, and the division
last.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingTable

# Word vectors gathered per block, 0.4 MB at 200 dimensions; blocks of
# 1024 and more were slower. A longer sequence is a block of its own.
_BLOCK_VECTORS = 256

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
    if len(ids) and not 0 <= ids.min() <= ids.max() < len(embeddings.matrix):
        raise IndexError("an embedding vocab row lies outside its matrix")
    starts = np.cumsum(counts) - counts
    dim = embeddings.dim
    outs = [np.zeros((len(counts), dim)) for _ in weights]

    # Longest first, so that a block pads little; uncovered lists stay zero.
    order = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    # One pair of buffers serves every block.
    size = max(_BLOCK_VECTORS, counts.max(initial=0))
    gathered, terms = np.empty(size * dim), np.empty(size * (dim + 1))
    done = 0
    while done < len(order):
        length = counts[order[done]]
        block = order[done : done + max(1, _BLOCK_VECTORS // length)]
        done += len(block)
        # Token j of every sequence in the block is layer j; weight 0.0 pads.
        position = np.arange(length)[:, None]
        valid = position < counts[block]
        at = np.where(valid, position + starts[block], 0)
        # The ids are rows of the matrix (checked above), so "clip" clips
        # nothing; it lets take write straight into its out array.
        vectors = np.take(
            embeddings.matrix, ids[at], axis=0, mode="clip",
            out=gathered[: at.size * dim].reshape(*at.shape, dim),
        )
        block_terms = terms[: at.size * (dim + 1)].reshape(*at.shape, dim + 1)
        for out, token_weight in zip(outs, token_weights):
            layer_weights = np.where(valid, token_weight[at], 0.0)
            np.multiply(vectors, layer_weights[:, :, None], out=block_terms[:, :, :dim])
            block_terms[:, :, dim] = layer_weights
            out[block] = _centroid_rows(block_terms)
    for out in outs:
        out.flags.writeable = False
    return outs


def _centroid_rows(terms: np.ndarray) -> np.ndarray:
    """Centroids from C-contiguous ``terms`` of shape ``(L, ..., dim + 1)``:
    ``terms[j, ..., :dim]`` is token ``j``'s weight times its vector and
    ``terms[j, ..., dim]`` its weight.

    One reduce over axis 0 sums both. numpy adds layer after layer, in
    token order from +0.0, because its inner loop runs across a layer of
    at least two numbers; a lone column would be added pairwise. A row
    whose weights sum to 0.0 is zero.
    """
    sums = np.add.reduce(terms, axis=0, initial=0.0)
    weight_sums = sums[..., -1]
    if 0.0 in weight_sums.reshape(-1).tolist():
        # Weights of either sign can cancel, leaving the sum nonzero.
        cancelled = weight_sums == 0.0
        sums[cancelled] = 0.0
        weight_sums[cancelled] = 1.0
    return sums[..., :-1] / weight_sums[..., None]


def weighted_centroid(
    tokens: Sequence[str],
    embeddings: EmbeddingTable,
    weight: Weight | None,
) -> np.ndarray:
    """Sum of weight(t) * vector(t) over covered tokens, divided by the
    weight sum; None weighs every token 1.0. Degenerate inputs (nothing
    covered, weights summing to zero) yield the zero vector rather than an
    error.

    This is the one-row case of :func:`centroids`, with the same terms and
    the same sums.
    """
    vocab = embeddings.vocab
    rows = [vocab[token] for token in tokens if token in vocab]
    vectors = embeddings.matrix.take(rows, axis=0)
    if weight is None:
        weights = np.ones((len(rows), 1))  # 1.0 * vector is the vector
    else:
        weights = np.array([float(weight(t)) for t in tokens if t in vocab]).reshape(-1, 1)
        vectors *= weights
    result = _centroid_rows(np.concatenate((vectors, weights), axis=1))
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
