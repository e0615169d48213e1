"""Brute-force top-k rankings computed from the generator's raw material.

Nothing here calls centroidrank: centroids come from the generator's integer
vector components and token lists, idf weights from its own document and
question token lists, and distances from one matrix product per question.
Identical token lists share one centroid row, so exact ties (duplicated
sentences, all-OOV sentences at distance 1.0) stay exact and fall back to
the passage-id order, as the library's rule says they must.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

Weight = Callable[[str], float]


def idf_weight(corpus: Sequence[Sequence[str]]) -> Weight:
    """ln((N + 1) / (df + 1)) over ``corpus``; unseen tokens use df = 0."""
    df: dict[str, int] = {}
    for unit in corpus:
        for token in set(unit):
            df[token] = df.get(token, 0) + 1
    n = len(corpus)
    return lambda token: math.log((n + 1) / (df.get(token, 0) + 1))


def centroid(tokens, vectors: dict[str, np.ndarray], weight: Weight | None) -> np.ndarray:
    dim = len(next(iter(vectors.values())))
    acc = np.zeros(dim)
    total = 0.0
    for token in tokens:
        vector = vectors.get(token)
        if vector is None:
            continue
        w = 1.0 if weight is None else weight(token)
        if w == 0.0:
            continue
        acc += w * vector
        total += w
    return acc / total if total else acc


class BruteForce:
    """Exhaustive scorer over every passage of a generated corpus."""

    def __init__(self, passages, vectors, doc_weight: Weight, question_weight: Weight) -> None:
        self.ids = [p.passage_id for p in passages]
        self.vectors = vectors
        self.weights = {"cd": None, "cd-idf": doc_weight, "cd-q": question_weight}
        unique: dict[tuple[str, ...], int] = {}
        self.row_of = np.array([unique.setdefault(p.tokens, len(unique)) for p in passages])
        self.matrices = {}
        for passage_side in ("uniform", "idf"):
            w = None if passage_side == "uniform" else doc_weight
            m = np.array([centroid(tokens, vectors, w) for tokens in unique])
            norms = np.linalg.norm(m, axis=1)
            self.matrices[passage_side] = (m, norms)

    def top_k(self, question_tokens, method: str, k: int) -> list[str]:
        q = centroid(question_tokens, self.vectors, self.weights[method])
        m, norms = self.matrices["uniform" if method == "cd" else "idf"]
        q_norm = float(np.linalg.norm(q))
        distance = np.ones(len(m))
        live = norms > 0.0
        if q_norm > 0.0:
            similarity = (m[live] @ q) / (norms[live] * q_norm)
            distance[live] = 1.0 - np.clip(similarity, -1.0, 1.0)
        per_passage = distance[self.row_of]
        order = sorted(range(len(self.ids)), key=lambda i: (per_passage[i], self.ids[i]))
        return [self.ids[i] for i in order[:k]]
