"""Tests for the benchmark's own generator, oracle and tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import centroidrank.retrieval as retrieval  # noqa: E402
import centroidrank.text as text  # noqa: E402
from centroidrank import build_idf, load_embeddings  # noqa: E402
from gen import SNIPPET_CLASSES, Sizes, generate  # noqa: E402
from oracle import BruteForce, idf_weight  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = Sizes(n_docs=300, dim=8, vocab=1500, question_corpus=200,
              open_queries=60, eval_questions=80)


@pytest.fixture(scope="module")
def inputs():
    return generate(7, SMALL)


def test_splitter_recovers_exactly_the_generated_sentences(inputs):
    by_doc: dict[str, list] = {}
    for passage in inputs.passages:
        by_doc.setdefault(passage.doc_id, []).append(passage)
    for doc_id, doc_text in inputs.documents:
        sentences = [s for s, _offset in text.split_sentences(doc_text)]
        assert sentences == [p.text for p in by_doc[doc_id]]
        for passage in by_doc[doc_id]:
            assert text.tokenize(passage.text).tokens == passage.tokens


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first = generate(11, SMALL).write(tmp_path / "a")
    second = generate(11, SMALL).write(tmp_path / "b")
    other = generate(12, SMALL).write(tmp_path / "c")
    for role, path in first.items():
        assert path.read_bytes() == second[role].read_bytes(), role
    assert first["docs"].read_bytes() != other["docs"].read_bytes()


def test_edge_cases_are_planted(inputs):
    covered = set(inputs.covered)
    assert any(not covered.intersection(p.tokens) for p in inputs.passages)
    texts = [p.text for p in inputs.passages]
    assert len(set(texts)) < len(texts)  # duplicated sentences
    for abbreviation in ("e.g. ", "Fig. ", "et al. "):
        assert any(abbreviation in t for t in texts), abbreviation
    assert any(not covered.intersection(tokens) for _t, tokens in inputs.open_queries)
    assert inputs.missing_ref_questions > 0
    assert all(inputs.snippet_classes[k] > 0 for k in SNIPPET_CLASSES)


def test_brute_force_matches_library_ranking(inputs, tmp_path):
    embeddings = load_embeddings(inputs.write(tmp_path)["embeddings"])
    doc_corpus = inputs.doc_corpus_tokens()
    question_corpus = [tokens for _t, tokens in inputs.question_corpus]
    doc_idf = build_idf(doc_corpus)
    question_idf = build_idf(question_corpus)
    index = retrieval.build_index(inputs.documents, embeddings, doc_idf)
    brute = BruteForce(inputs.passages, inputs.vectors(),
                       idf_weight(doc_corpus), idf_weight(question_corpus))
    for i, (_text, tokens) in enumerate(inputs.open_queries):
        method = ("cd", "cd-idf", "cd-q")[i % 3]
        got = retrieval.rank(index, tokens, method, 10, embeddings,
                             doc_idf=doc_idf, question_idf=question_idf)
        assert [pid for pid, _d in got.items] == brute.top_k(tokens, method, 10)


def test_tracer_records_layers_and_self_time_and_uninstalls():
    import centroidrank.embeddings as embeddings
    import centroidrank.evaluation as evaluation
    import centroidrank.idf as idf
    import centroidrank.ingest as ingest

    modules = {"text": text, "retrieval": retrieval, "embeddings": embeddings,
               "idf": idf, "ingest": ingest, "evaluation": evaluation}
    original = text.tokenize
    tracer = Tracer()
    tracer.install(modules, {})
    try:
        with tracer.span("outer"):
            text.tokenize("Alpha beta.")
            retrieval.split_sentences("One. Two.")
    finally:
        tracer.uninstall()
    assert text.tokenize is original
    summary = tracer.summary()
    outer = summary["outer"]
    children = summary["text.tokenize"]["total_s"] + summary["text.split_sentences"]["total_s"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - children)
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_samples_run_whole_rounds_until_the_deadline():
    from run import Samples

    calls = []
    Samples().run(0.0, [lambda: calls.append("a"), lambda: calls.append("b")], min_rounds=3)
    assert calls == ["a", "b"] * 3
