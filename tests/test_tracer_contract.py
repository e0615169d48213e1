"""The benchmark tracer's contract with the package.

``perfbench/spans.py`` times layers by replacing functions in the
package's module namespaces, so a layer reads 0 as soon as a call site
stops looking its name up through the module. These tests read the
tracer's own ``TARGETS`` and ``Tracer``; nothing under ``perfbench/`` is
edited.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import TARGETS, Tracer  # noqa: E402

from centroidrank import build_idf, evaluate_questions  # noqa: E402
from centroidrank.ingest import Question  # noqa: E402

MODULES = {
    name: importlib.import_module(f"centroidrank.{name}")
    for name in sorted({module for module, _attr, _layer in TARGETS})
}


def test_every_target_is_a_callable_of_its_module():
    for module, attr, _layer in TARGETS:
        assert callable(getattr(MODULES[module], attr, None)), f"{module}.{attr}"


def test_evaluation_reaches_the_traced_layers(tiny_embeddings):
    documents = [
        ("d1", "Alpha beta gamma. Delta epsilon here."),
        ("d2", "Beta beta. Gamma alone. Alpha delta epsilon."),
    ]
    questions = [
        Question(
            id="q1",
            body="Alpha gamma?",
            reference_docs=["d1", "d2"],
            gold_snippets=[("d1", "beta gamma"), ("d2", "Gamma alone.")],
        )
    ]
    tracer = Tracer()
    tracer.install(MODULES, hooks={})
    try:
        doc_idf = build_idf([["alpha", "beta"], ["gamma"]], label="documents")
        index = MODULES["retrieval"].build_index(documents, tiny_embeddings, doc_idf)
        for method in ("cd", "rnd"):
            evaluate_questions(index, questions, method, tiny_embeddings, k=3)
    finally:
        tracer.uninstall()
    assert {
        "text.tokenize",
        "text.split_sentences",
        "semantic.centroid",
        "retrieval.rank",
        "retrieval.random_baseline",
        "evaluation.build_judgments",
        "evaluation.judge_relevance",
    } <= tracer.summary().keys()
    # The first judging tokenizes both snippets and the index's five
    # passages; the second, for the next method, still runs as its own
    # span but finds the judgments kept on the index and tokenizes nothing.
    judging = [
        i for i, (name, *_times) in enumerate(tracer.spans)
        if name == "evaluation.build_judgments"
    ]
    assert len(judging) == 2
    tokenized = [
        [name for name, _start, _end, parent in tracer.spans if parent == i].count("text.tokenize")
        for i in judging
    ]
    assert tokenized == [2 + 5, 0]
