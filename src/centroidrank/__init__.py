"""Weighted-centroid embedding retrieval for question answering.

Passages (single sentences) and questions are represented as weighted
averages of word vectors and ranked by cosine distance; term weights can
come from document-corpus idf or from a separate question-corpus idf. The
package also ships the evaluation half: snippet-based relevance judging,
MAP/P/R/F1 at a cutoff, and Wilcoxon signed-rank run comparison.
"""

from .embeddings import EmbeddingTable, load_embeddings, save_embeddings
from .evaluation import (
    DEFAULT_CUTOFF,
    OVERLAP_THRESHOLD,
    Aggregates,
    QuestionScore,
    RelevanceJudgments,
    RunResult,
    WilcoxonResult,
    aggregate,
    average_precision_at_k,
    build_judgments,
    evaluate_questions,
    judge_relevance,
    load_run,
    precision_at_k,
    recall_at_k,
    save_run,
    wilcoxon_signed_rank,
)
from .idf import IdfTable, build_idf, load_idf, save_idf
from .ingest import Question, load_question_set, normalize_doc_id, question_set_to_dict
from .retrieval import (
    Method,
    Passage,
    PassageIndex,
    RankedList,
    build_index,
    load_index,
    random_baseline,
    rank,
    save_index,
)
from .semantic import centroid, cosine_distance, weighted_centroid
from .text import ABBREVIATIONS, TokenSequence, split_sentences, tokenize

__version__ = "0.1.0"

__all__ = [
    "ABBREVIATIONS",
    "Aggregates",
    "DEFAULT_CUTOFF",
    "EmbeddingTable",
    "IdfTable",
    "Method",
    "OVERLAP_THRESHOLD",
    "Passage",
    "PassageIndex",
    "Question",
    "QuestionScore",
    "RankedList",
    "RelevanceJudgments",
    "RunResult",
    "TokenSequence",
    "WilcoxonResult",
    "aggregate",
    "average_precision_at_k",
    "build_idf",
    "build_index",
    "build_judgments",
    "centroid",
    "cosine_distance",
    "evaluate_questions",
    "judge_relevance",
    "load_embeddings",
    "load_idf",
    "load_index",
    "load_question_set",
    "load_run",
    "normalize_doc_id",
    "precision_at_k",
    "question_set_to_dict",
    "random_baseline",
    "rank",
    "recall_at_k",
    "save_embeddings",
    "save_idf",
    "save_index",
    "save_run",
    "split_sentences",
    "tokenize",
    "weighted_centroid",
    "wilcoxon_signed_rank",
]
