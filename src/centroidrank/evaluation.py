"""Relevance judging, ranking metrics at a cutoff, and paired significance.

Gold annotations are free-text snippets, while the retrieval unit is a
single sentence, so relevance matching is token based: a passage counts as
relevant when it shares the snippet's document and the two match by
containment, or a shared t-gram, t >= 1: one text contains the other as a
contiguous token run, or both contain the same run of t tokens
(t = ``OVERLAP_THRESHOLD`` by default).

Metrics (AP, precision, recall) are computed per question at a cutoff and
averaged arithmetically; F1 is the harmonic mean of the averaged precision
and recall. Run comparison uses a two-sided Wilcoxon signed-rank test,
exact for up to 20 nonzero differences and normal-approximated beyond.
"""

from __future__ import annotations

import json
import math
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .embeddings import EmbeddingTable
from .idf import IdfTable
from .ingest import Question
from .retrieval import Method, PassageIndex, RankedList, random_baseline, rank
from .text import PathOrIO, open_text, tokenize

#: Minimum shared contiguous token run (t-gram) for snippet/passage relevance.
OVERLAP_THRESHOLD = 5

DEFAULT_CUTOFF = 10


# ---------------------------------------------------------------------------
# Relevance judgments


@dataclass
class RelevanceJudgments:
    question_id: str
    relevant_passage_ids: set[str] = field(default_factory=set)

    @property
    def n_relevant(self) -> int:
        return len(self.relevant_passage_ids)


def _check_overlap_threshold(overlap_threshold: int) -> None:
    if overlap_threshold < 1:
        raise ValueError(f"overlap threshold must be >= 1, got {overlap_threshold}")


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
        snippets_by_doc.setdefault(doc_id, []).append(tokenize(snippet_text).tokens)
    relevant: set[str] = set()
    for doc_id, snippets in snippets_by_doc.items():
        for row in index.doc_index.get(doc_id, ()):
            passage = index.passages[row]
            if judge_relevance(tokenize(passage.text).tokens, snippets, overlap_threshold):
                relevant.add(passage.passage_id)
    return RelevanceJudgments(question_id=question.id, relevant_passage_ids=relevant)


# ---------------------------------------------------------------------------
# Per-question metrics at a cutoff


def precision_at_k(
    ranked: RankedList, judgments: RelevanceJudgments, k: int = DEFAULT_CUTOFF
) -> float:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not ranked.items:
        return 0.0
    top = ranked.items[:k]
    hits = sum(1 for pid, _score in top if pid in judgments.relevant_passage_ids)
    return hits / len(top)


def recall_at_k(
    ranked: RankedList, judgments: RelevanceJudgments, k: int = DEFAULT_CUTOFF
) -> float:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if judgments.n_relevant == 0:
        return 0.0
    top = ranked.items[:k]
    hits = sum(1 for pid, _score in top if pid in judgments.relevant_passage_ids)
    return hits / judgments.n_relevant


def average_precision_at_k(
    ranked: RankedList, judgments: RelevanceJudgments, k: int = DEFAULT_CUTOFF
) -> float:
    """Cutoff AP: sum of precision-at-hit over the top k, normalized by
    min(n_relevant, k) so a run that retrieves everything relevant within
    the cutoff scores 1.0."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if judgments.n_relevant == 0:
        return 0.0
    hits = 0
    total = 0.0
    for position, (pid, _score) in enumerate(ranked.items[:k], start=1):
        if pid in judgments.relevant_passage_ids:
            hits += 1
            total += hits / position
    return total / min(judgments.n_relevant, k)


# ---------------------------------------------------------------------------
# Aggregation


@dataclass(frozen=True)
class Aggregates:
    map: float
    precision: float
    recall: float
    f1: float


def aggregate(per_question: Iterable[tuple[float, float, float]]) -> Aggregates:
    """Arithmetic means of (ap, precision, recall) plus the F1 of the means."""
    aps, precisions, recalls = [], [], []
    for ap, precision, recall in per_question:
        aps.append(ap)
        precisions.append(precision)
        recalls.append(recall)
    if not aps:
        raise ValueError("cannot aggregate an empty question set")
    # fsum keeps the means exactly permutation-invariant
    mean_ap = math.fsum(aps) / len(aps)
    mean_p = math.fsum(precisions) / len(precisions)
    mean_r = math.fsum(recalls) / len(recalls)
    f1 = 0.0 if mean_p + mean_r == 0.0 else 2.0 * mean_p * mean_r / (mean_p + mean_r)
    return Aggregates(map=mean_ap, precision=mean_p, recall=mean_r, f1=f1)


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    p_value: float
    significant: bool


def _average_ranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for pos in range(i, j + 1):
            ranks[order[pos]] = avg
        i = j + 1
    return ranks


def _exact_two_sided_p(ranks: Sequence[float], w_observed: float) -> float:
    # Subset-sum counts over doubled ranks (midranks become integers); the
    # resulting distribution of W+ over all 2^n sign assignments is exact.
    doubled = [int(round(2 * r)) for r in ranks]
    total = sum(doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for d in doubled:
        for s in range(total, d - 1, -1):
            if counts[s - d]:
                counts[s] += counts[s - d]
    threshold = int(round(2 * w_observed))
    favorable = sum(
        c for s, c in enumerate(counts) if s <= threshold or s >= total - threshold
    )
    return favorable / (2 ** len(ranks))


def _normal_two_sided_p(ranks: Sequence[float], w_observed: float) -> float:
    n = len(ranks)
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    tie_counts: dict[float, int] = {}
    for r in ranks:
        tie_counts[r] = tie_counts.get(r, 0) + 1
    variance -= sum(t**3 - t for t in tie_counts.values()) / 48.0
    z = (w_observed - mean + 0.5) / math.sqrt(variance)
    # Phi(z) via the complementary error function.
    p = math.erfc(-z / math.sqrt(2.0))
    return min(1.0, p)


def wilcoxon_signed_rank(
    a: Sequence[float],
    b: Sequence[float],
    alpha: float = 0.05,
    mode: str = "auto",
) -> WilcoxonResult:
    """Two-sided paired Wilcoxon signed-rank test.

    Zero differences are discarded; absolute differences receive average
    ranks on ties; the statistic is W = min(W+, W-). The p-value is exact
    (full sign-assignment distribution) for up to 20 nonzero differences
    and a tie-corrected, continuity-corrected normal approximation beyond;
    ``mode`` forces "exact" or "normal". All-zero differences give p = 1.
    """
    if mode not in ("auto", "exact", "normal"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(a) != len(b):
        raise ValueError(f"paired inputs differ in length: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("empty input")
    differences = [x - y for x, y in zip(a, b) if x - y != 0.0]
    if not differences:
        return WilcoxonResult(statistic=0.0, p_value=1.0, significant=False)

    ranks = _average_ranks([abs(d) for d in differences])
    w_plus = sum(r for d, r in zip(differences, ranks) if d > 0)
    w_minus = sum(ranks) - w_plus
    w = min(w_plus, w_minus)

    use_exact = mode == "exact" or (mode == "auto" and len(differences) <= 20)
    if use_exact:
        p = _exact_two_sided_p(ranks, w)
    else:
        p = _normal_two_sided_p(ranks, w)
    return WilcoxonResult(statistic=w, p_value=p, significant=p < alpha)


# ---------------------------------------------------------------------------
# Whole-run evaluation and run files


@dataclass
class QuestionScore:
    ranking: RankedList
    ap: float
    precision: float
    recall: float


@dataclass
class RunResult:
    method: str
    per_question: dict[str, QuestionScore] = field(default_factory=dict)
    aggregates: Aggregates = field(default_factory=lambda: Aggregates(0.0, 0.0, 0.0, 0.0))


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
    ranking (and a warning) but still counts toward the aggregates.
    """
    method = Method(method)
    if not questions:
        raise ValueError("empty question set")
    if method is not Method.RND and embeddings is None:
        raise ValueError(f"{method.value} requires an embedding table")
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


def save_run(run: RunResult, sink: PathOrIO) -> None:
    """Write a run as JSON (schema: method, questions[], aggregates)."""
    payload = {
        "method": run.method,
        "questions": [
            {
                "id": qid,
                "ranking": [
                    {"passage_id": pid, "score": score}
                    for pid, score in score_entry.ranking.items
                ],
                "ap": score_entry.ap,
                "precision": score_entry.precision,
                "recall": score_entry.recall,
            }
            for qid, score_entry in run.per_question.items()
        ],
        "aggregates": {
            "map": run.aggregates.map,
            "precision": run.aggregates.precision,
            "recall": run.aggregates.recall,
            "f1": run.aggregates.f1,
        },
    }
    with open_text(sink, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def load_run(source: PathOrIO) -> RunResult:
    """Parse a run file written by :func:`save_run`."""
    with open_text(source) as handle:
        data = json.load(handle)
    try:
        method = data["method"]
        run = RunResult(method=method)
        for entry in data["questions"]:
            qid = entry["id"]
            if qid in run.per_question:
                raise ValueError(f"run file repeats question {qid!r}")
            scores = {name: float(entry[name]) for name in ("ap", "precision", "recall")}
            for name, value in scores.items():
                if not 0.0 <= value <= 1.0:  # NaN fails too
                    raise ValueError(f"question {qid!r}: {name} {value} is not in [0, 1]")
            ranking = RankedList(
                question_id=qid,
                method=Method(method),
                items=[(r["passage_id"], float(r["score"])) for r in entry["ranking"]],
            )
            run.per_question[qid] = QuestionScore(ranking=ranking, **scores)
        agg = data["aggregates"]
        run.aggregates = Aggregates(
            map=float(agg["map"]),
            precision=float(agg["precision"]),
            recall=float(agg["recall"]),
            f1=float(agg["f1"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed run file: {exc}") from None
    return run
