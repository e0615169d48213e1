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
import weakref
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
    check_at_least_one,
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


def _padded(tokens: Sequence[str]) -> str:
    return f" {' '.join(tokens)} "


class _PreparedSnippets:
    """One document's snippets, prepared for matching at one threshold t.

    A passage matches some snippet exactly when one of three things holds:
    it shares a t-gram with the union of the snippets' t-grams; it has
    fewer than t tokens and its padded join occurs in ``joined``; or one of
    the ``short`` padded snippets (fewer than t tokens) occurs in its
    padded join. When the contained text has at least t tokens, containment
    implies a shared t-gram, so the gram test covers it. Tokens are
    non-empty and whitespace-free, so run containment is exactly substring
    containment of the space-padded joins, and no match crosses a line
    break of ``joined``.
    """

    __slots__ = ("t", "grams", "joined", "short")

    def __init__(self, snippets: Iterable[Sequence[str]], t: int) -> None:
        snippets = [snippet for snippet in snippets if snippet]
        self.t = t
        self.grams = {gram for snippet in snippets for gram in _ngrams(snippet, t)}
        self.joined = "\n".join(map(_padded, snippets))
        self.short = [_padded(snippet) for snippet in snippets if len(snippet) < t]

    def match(self, passage_tokens: Sequence[str]) -> bool:
        if not passage_tokens:
            return False
        if not self.grams.isdisjoint(_ngrams(passage_tokens, self.t)):
            return True
        is_short = len(passage_tokens) < self.t
        if not (is_short or self.short):
            return False
        padded = _padded(passage_tokens)
        if is_short and padded in self.joined:
            return True
        return any(snippet in padded for snippet in self.short)


def judge_relevance(
    passage_tokens: Sequence[str],
    snippets: Iterable[Sequence[str]] | _PreparedSnippets,
    overlap_threshold: int = OVERLAP_THRESHOLD,
) -> bool:
    """True when some snippet (token tuples from the passage's own document)
    matches the passage: one contains the other as a contiguous run, or the
    two share an ``overlap_threshold``-gram.

    ``snippets`` may also be a set prepared for ``overlap_threshold`` by
    :func:`build_judgments`, which prepares each snippet document once;
    one prepared for another threshold raises ValueError.
    """
    check_at_least_one("overlap threshold", overlap_threshold)
    if not isinstance(snippets, _PreparedSnippets):
        snippets = _PreparedSnippets(snippets, overlap_threshold)
    elif snippets.t != overlap_threshold:
        raise ValueError(
            f"snippets prepared for overlap threshold {snippets.t}, "
            f"judged at {overlap_threshold}"
        )
    return snippets.match(passage_tokens)


# Per index, while it lives: each judged passage's tokens by row, and the
# relevant passage ids per judged ``(t, gold snippets)``.
_MEMOS: weakref.WeakKeyDictionary[PassageIndex, tuple[dict, dict]] = weakref.WeakKeyDictionary()


def build_judgments(
    index: PassageIndex,
    question: Question,
    overlap_threshold: int = OVERLAP_THRESHOLD,
) -> RelevanceJudgments:
    """Materialize the question's gold snippets against the sentence index.

    Each snippet is tokenized and each snippet document prepared once per
    question. Kept per index for as long as it lives, each passage is
    tokenized once, on its first judging, and the relevant ids once per
    ``(t, gold snippets)``, so a repeated call looks them up; threads that
    race on a first call compute equal values, and one of them is kept.
    """
    check_at_least_one("overlap threshold", overlap_threshold)
    tokens, judged = _MEMOS.setdefault(index, ({}, {}))
    key = (overlap_threshold, tuple((doc_id, text) for doc_id, text in question.gold_snippets))
    relevant = judged.get(key)
    if relevant is None:
        relevant = judged[key] = _judge(index, tokens, question, overlap_threshold)
    return RelevanceJudgments(question_id=question.id, relevant_passage_ids=set(relevant))


def _judge(index: PassageIndex, tokens: dict, question: Question, t: int) -> frozenset[str]:
    snippets_by_doc: dict[str, list[tuple[str, ...]]] = {}
    for doc_id, snippet_text in question.gold_snippets:
        snippets_by_doc.setdefault(doc_id, []).append(tokenize(snippet_text))
    relevant: set[str] = set()
    for doc_id, snippets in snippets_by_doc.items():
        if doc_id not in index.doc_index:
            continue
        prepared = _PreparedSnippets(snippets, t)
        for row in index.doc_index[doc_id].tolist():
            passage = tokens.get(row)
            if passage is None:
                passage = tokens[row] = tokenize(index.passages[row].text)
            if judge_relevance(passage, prepared, t):
                relevant.add(index.passages[row].passage_id)
    return frozenset(relevant)


# ---------------------------------------------------------------------------
# Per-question metrics at a cutoff


def _hits(ranked: RankedList, judgments: RelevanceJudgments, k: int) -> list[bool]:
    """Whether each of the top k ranked passages is relevant, in rank order."""
    check_at_least_one("k", k)
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
    :func:`~centroidrank.runs.check_method`; ``doc_idf`` defaults to
    ``index.doc_idf``, as in :func:`~centroidrank.retrieval.rank`.
    """
    method = check_method(method, k, embeddings, question_idf)
    if not questions:
        raise ValueError("empty question set")
    ids = [q.id for q in questions]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate question ids in the question set")
    check_at_least_one("overlap threshold", overlap_threshold)

    result = RunResult(method=method.value)
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
    return result

