"""Weighted-centroid embedding retrieval for question answering.

Passages (single sentences) and questions are represented as weighted
averages of word vectors and ranked by cosine distance; term weights can
come from document-corpus idf or from a separate question-corpus idf. The
package also ships the evaluation half: snippet-based relevance judging,
MAP/P/R/F1 at a cutoff, and Wilcoxon signed-rank run comparison.

The public names below are imported from their modules on first use
(PEP 562), so ``import centroidrank`` is cheap and numpy loads only with
the first name that needs it.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: Public name -> the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "embeddings": ("EmbeddingTable", "load_embeddings", "save_embeddings"),
        "evaluation": (
            "RelevanceJudgments", "average_precision_at_k", "build_judgments",
            "evaluate_questions", "judge_relevance", "precision_at_k", "recall_at_k",
        ),
        "idf": ("IdfTable", "build_idf", "load_idf", "save_idf"),
        "ingest": ("Question", "load_question_set", "normalize_doc_id"),
        "retrieval": (
            "Passage", "PassageIndex", "build_index", "load_index", "random_baseline",
            "rank", "save_index",
        ),
        "runs": (
            "DEFAULT_CUTOFF", "OVERLAP_THRESHOLD", "Aggregates", "Method", "QuestionScore",
            "RankedList", "RunResult", "WilcoxonResult", "aggregate", "load_run",
            "save_run", "wilcoxon_signed_rank",
        ),
        "semantic": ("centroid", "centroids", "cosine_distance", "weighted_centroid"),
        "text": ("ABBREVIATIONS", "TokenSequence", "split_sentences", "tokenize"),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
