"""Relevance judging, ranking metrics at a cutoff, and whole-run scoring.

Gold annotations are free-text snippets, while the retrieval unit is a
single sentence, so relevance matching is token based: a passage counts as
relevant when it shares the snippet's document and the two match by
containment, or a shared t-gram, t >= 1: one text contains the other as a
contiguous token run, or both contain the same run of t tokens
(t = ``OVERLAP_THRESHOLD`` by default).

Metrics (AP, precision, recall) are computed per question at a cutoff and
averaged arithmetically; F1 is the harmonic mean of the averaged precision
and recall. Run results, run files and the Wilcoxon comparison live in the
numpy-free :mod:`centroidrank.runs`; the run-file functions and
``wilcoxon_signed_rank`` are re-exported here.
"""

from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .embeddings import EmbeddingTable
from .idf import IdfTable
from .ingest import Question
from .retrieval import PassageIndex, random_baseline, rank
from .runs import (
    DEFAULT_CUTOFF,
    OVERLAP_THRESHOLD,
    Method,
    QuestionScore,
    RankedList,
    RunResult,
    _check_overlap_threshold,
    aggregate,
    check_method,
)
from .runs import load_run, save_run, wilcoxon_signed_rank  # re-exported
from .text import tokenize


# ---------------------------------------------------------------------------
# Relevance judgments


@dataclass
class RelevanceJudgments:
    question_id: str
    relevant_passage_ids: set[str] = field(default_factory=set)

    @property
    def n_relevant(self) -> int:
        return len(self.relevant_passage_ids)


def _ngrams(tokens: Sequence[str], n: int) -> Iterator[tuple[str, ...]]:
    return zip(*[tokens[i:] for i in range(n)])


def judge_relevance(
    passage_tokens: Sequence[str],
    snippets: Iterable[Sequence[str]],
    overlap_threshold: int = OVERLAP_THRESHOLD,
) -> bool:
    """True when some snippet (token tuples from the passage's own document)
    matches the passage: one contains the other as a contiguous run, or the
    two share an ``overlap_threshold``-gram.

    Tokens are non-empty and whitespace-free, so run containment is exactly
    substring containment of the space-padded joins.
    """
    _check_overlap_threshold(overlap_threshold)
    if not passage_tokens:
        return False
    padded = f" {' '.join(passage_tokens)} "
    grams = set(_ngrams(passage_tokens, overlap_threshold))
    for snippet in snippets:
        if not snippet:
            continue
        joined = f" {' '.join(snippet)} "
        if padded in joined or joined in padded:
            return True
        if not grams.isdisjoint(_ngrams(snippet, overlap_threshold)):
            return True
    return False


def build_judgments(
    index: PassageIndex,
    question: Question,
    overlap_threshold: int = OVERLAP_THRESHOLD,
) -> RelevanceJudgments:
    """Materialize the question's gold snippets against the sentence index.

    Each snippet and each passage of a snippet document is tokenized once.
    """
    _check_overlap_threshold(overlap_threshold)
    snippets_by_doc: dict[str, list[tuple[str, ...]]] = {}
    for doc_id, snippet_text in question.gold_snippets:
        snippets_by_doc.setdefault(doc_id, []).append(tokenize(snippet_text))
    relevant: set[str] = set()
    for doc_id, snippets in snippets_by_doc.items():
        for row in index.doc_index.get(doc_id, ()):
            passage = index.passages[row]
            if judge_relevance(tokenize(passage.text), snippets, overlap_threshold):
                relevant.add(passage.passage_id)
    return RelevanceJudgments(question_id=question.id, relevant_passage_ids=relevant)


# ---------------------------------------------------------------------------
# Per-question metrics at a cutoff


def _hits(ranked: RankedList, judgments: RelevanceJudgments, k: int) -> list[bool]:
    """Whether each of the top k ranked passages is relevant, in rank order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return [pid in judgments.relevant_passage_ids for pid, _score in ranked.items[:k]]


def precision_at_k(
    ranked: RankedList, judgments: RelevanceJudgments, k: int = DEFAULT_CUTOFF
) -> float:
    hits = _hits(ranked, judgments, k)
    return sum(hits) / len(hits) if hits else 0.0


def recall_at_k(
    ranked: RankedList, judgments: RelevanceJudgments, k: int = DEFAULT_CUTOFF
) -> float:
    hits = _hits(ranked, judgments, k)
    return sum(hits) / judgments.n_relevant if judgments.n_relevant else 0.0


def average_precision_at_k(
    ranked: RankedList, judgments: RelevanceJudgments, k: int = DEFAULT_CUTOFF
) -> float:
    """Cutoff AP: sum of precision-at-hit over the top k, normalized by
    min(n_relevant, k) so a run that retrieves everything relevant within
    the cutoff scores 1.0."""
    hits = _hits(ranked, judgments, k)
    if judgments.n_relevant == 0:
        return 0.0
    positions = [position for position, hit in enumerate(hits, start=1) if hit]
    total = 0.0
    for found, position in enumerate(positions, start=1):
        total += found / position
    return total / min(judgments.n_relevant, k)


# ---------------------------------------------------------------------------
# Whole-run evaluation


def _question_seed(base_seed: int, question_id: str) -> int:
    return zlib.crc32(f"{base_seed}:{question_id}".encode("utf-8"))


def evaluate_questions(
    index: PassageIndex,
    questions: Sequence[Question],
    method: Method | str,
    embeddings: EmbeddingTable | None = None,
    doc_idf: IdfTable | None = None,
    question_idf: IdfTable | None = None,
    k: int = DEFAULT_CUTOFF,
    seed: int = 0,
    overlap_threshold: int = OVERLAP_THRESHOLD,
) -> RunResult:
    """Rank and score every question against the index.

    Candidate passages come from each question's reference documents,
    intersected with what the index actually contains; a question whose
    reference documents are entirely absent is scored with an empty
    ranking (and a warning) but still counts toward the aggregates. The
    tables the method needs are checked up front, with
    :func:`~centroidrank.runs.check_method`.
    """
    method = check_method(method, k, embeddings, doc_idf, question_idf)
    if not questions:
        raise ValueError("empty question set")
    ids = [q.id for q in questions]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate question ids in the question set")
    _check_overlap_threshold(overlap_threshold)

    result = RunResult(method=method.value)
    triples = []
    for question in questions:
        candidate_docs = {
            d for d in question.reference_docs if d in index.doc_index
        }
        if not candidate_docs:
            warnings.warn(
                f"question {question.id!r} references no indexed document; "
                "scored with an empty ranking",
                stacklevel=2,
            )
            ranking = RankedList(question_id=question.id, method=method, items=[])
        elif method is Method.RND:
            ranking = random_baseline(
                index,
                candidate_docs,
                k,
                seed=_question_seed(seed, question.id),
                question_id=question.id,
            )
        else:
            ranking = rank(
                index,
                tokenize(question.body),
                method,
                k,
                embeddings,
                doc_idf=doc_idf,
                question_idf=question_idf,
                candidate_docs=candidate_docs,
                question_id=question.id,
            )
        judgments = build_judgments(index, question, overlap_threshold)
        ap = average_precision_at_k(ranking, judgments, k)
        precision = precision_at_k(ranking, judgments, k)
        recall = recall_at_k(ranking, judgments, k)
        result.per_question[question.id] = QuestionScore(
            ranking=ranking, ap=ap, precision=precision, recall=recall
        )
        triples.append((ap, precision, recall))
    result.aggregates = aggregate(triples)
    return result

