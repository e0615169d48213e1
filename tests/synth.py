"""Randomized synthetic retrieval instances for oracle-equivalence tests.

Documents are rendered so that the rule-based sentence splitter recovers
exactly the sentences the generator chose: every sentence starts with a
capitalized word and ends with '. '. The raw token lists are kept so the
brute-force oracle never depends on library code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from centroidrank import EmbeddingTable, IdfTable, build_idf
from centroidrank.retrieval import Passage, PassageIndex


@dataclass
class Instance:
    embeddings: EmbeddingTable
    vectors: dict[str, list[float]]  # plain copy for the oracle
    documents: list[tuple[str, str]]  # rendered doc text for build_index
    passages: list[tuple[str, str, list[str]]]  # (passage_id, doc_id, tokens)
    doc_corpus: list[list[str]]
    question_corpus: list[list[str]]
    doc_idf: IdfTable
    question_idf: IdfTable
    question: list[str]
    candidate_docs: set[str] | None
    k: int

    def doc_stats(self) -> tuple[int, dict[str, int]]:
        return _stats(self.doc_corpus)

    def question_stats(self) -> tuple[int, dict[str, int]]:
        return _stats(self.question_corpus)


def _stats(corpus: list[list[str]]) -> tuple[int, dict[str, int]]:
    df: dict[str, int] = {}
    for unit in corpus:
        for token in set(unit):
            df[token] = df.get(token, 0) + 1
    return len(corpus), df


def _render_document(sentences: list[list[str]]) -> str:
    rendered = []
    for words in sentences:
        first = words[0].capitalize()
        rendered.append(" ".join([first] + list(words[1:])) + ".")
    return " ".join(rendered)


def make_instance(rng: random.Random) -> Instance:
    dim = rng.randrange(2, 9)
    vocab = [f"w{i:02d}" for i in range(rng.randrange(12, 26))] + ["7", "2020"]
    covered = [t for t in vocab if rng.random() < 0.8]
    if not covered:
        covered = vocab[:1]

    vectors = {token: [rng.uniform(-1.0, 1.0) for _ in range(dim)] for token in covered}
    matrix = np.array(list(vectors.values()))
    matrix.flags.writeable = False
    embeddings = EmbeddingTable(dict(zip(vectors, range(len(vectors)))), matrix)

    documents: list[tuple[str, str]] = []
    passages: list[tuple[str, str, list[str]]] = []
    doc_corpus: list[list[str]] = []
    n_docs = rng.randrange(2, 9)
    for d in range(n_docs):
        doc_id = f"doc{d}"
        sentences = [
            [rng.choice(vocab) for _ in range(rng.randrange(1, 9))]
            for _ in range(rng.randrange(1, 6))
        ]
        documents.append((doc_id, _render_document(sentences)))
        doc_corpus.append([t for s in sentences for t in s])
        for ordinal, words in enumerate(sentences):
            passages.append((f"{doc_id}#{ordinal}", doc_id, list(words)))

    question_corpus = [
        [rng.choice(vocab) for _ in range(rng.randrange(1, 7))]
        for _ in range(rng.randrange(3, 11))
    ]
    question = [rng.choice(vocab) for _ in range(rng.randrange(2, 9))]

    candidate_docs: set[str] | None = None
    if rng.random() < 0.5:
        size = rng.randrange(1, n_docs + 1)
        candidate_docs = set(rng.sample([d for d, _ in documents], size))

    return Instance(
        embeddings=embeddings,
        vectors=vectors,
        documents=documents,
        passages=passages,
        doc_corpus=doc_corpus,
        question_corpus=question_corpus,
        doc_idf=build_idf(doc_corpus, label="documents"),
        question_idf=build_idf(question_corpus, label="questions"),
        question=question,
        candidate_docs=candidate_docs,
        k=rng.randrange(1, len(passages) + 3),
    )


@dataclass
class ScreenInstance:
    """A full-index ranking problem given as matrices: the question is the
    one token ``q`` of ``embeddings``, or no token (the zero centroid)."""

    index: PassageIndex
    embeddings: EmbeddingTable
    doc_idf: IdfTable
    question: list[str]


def _screen_rows(gen: np.random.Generator, n: int, dim: int, anchor: np.ndarray) -> np.ndarray:
    rows = np.empty((n, dim))
    for i in range(n):
        kind = gen.random()
        if i == 0 or kind < 0.2:
            rows[i] = gen.normal(size=dim)
        elif kind < 0.35:  # an exact copy
            rows[i] = rows[gen.integers(i)]
        elif kind < 0.45:  # the same direction at another length
            rows[i] = rows[gen.integers(i)] * gen.uniform(0.1, 10.0)
        elif kind < 0.55:
            rows[i] = 0.0
        else:  # a near-tie with an earlier row or with the question
            base = anchor if kind < 0.8 else rows[gen.integers(i)]
            rows[i] = base + 10.0 ** gen.uniform(-9, -3) * gen.normal(size=dim)
    return rows


def make_screen_instance(rng: random.Random) -> ScreenInstance:
    """Rows that stress the screen of full-index ranking, 1 to 60 of them
    at 2 to 300 dimensions: exact copies, the same direction at another
    length, zero rows, and near-ties (noise of 1e-9 to 1e-3) with an
    earlier row or with the question, which is itself zero, the rows'
    anchor direction, a near-tie of it, or unrelated."""
    gen = np.random.default_rng(rng.getrandbits(64))
    dim = int(gen.choice([2, 3, gen.integers(2, 301)]))
    n = int(gen.integers(1, 61))
    anchor = gen.normal(size=dim)
    kind = gen.random()
    question = [] if kind < 0.15 else ["q"]
    if kind < 0.5:
        vector = anchor
    elif kind < 0.8:
        vector = anchor + 10.0 ** gen.uniform(-9, -3) * gen.normal(size=dim)
    else:
        vector = gen.normal(size=dim)
    passages = [Passage(f"p{i:02d}#0", "") for i in range(n)]
    doc_idf = build_idf([["x"]], label="documents")
    index = PassageIndex(
        passages, _screen_rows(gen, n, dim, anchor), _screen_rows(gen, n, dim, anchor), doc_idf
    )
    return ScreenInstance(
        index=index,
        embeddings=EmbeddingTable({"q": 0}, vector[None, :]),
        doc_idf=doc_idf,
        question=question,
    )
