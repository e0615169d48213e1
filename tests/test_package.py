import importlib
import json
import pathlib

import pytest

import centroidrank
from centroidrank import (
    Method,
    Question,
    QuestionScore,
    RankedList,
    RunResult,
    build_index,
    evaluation,
    load_embeddings,
    load_idf,
    load_index,
    load_question_set,
    load_run,
    retrieval,
    runs,
    save_embeddings,
    save_idf,
    save_index,
    save_run,
)

# Names that ``runs`` defines and ``evaluation`` / ``retrieval`` hold. The
# first line of each is what the module uses itself. The second is what is
# read through it: by perfbench/spans.py TARGETS and the benchmark's
# ``ev.*`` calls (load_run, save_run, wilcoxon_signed_rank), by ``cli``
# (save_run), and by the benchmark's ``from centroidrank.retrieval import
# Method``.
RUN_REEXPORTS = {
    evaluation: (
        "DEFAULT_CUTOFF", "OVERLAP_THRESHOLD", "Method", "QuestionScore", "RankedList",
        "RunResult",
        "load_run", "save_run", "wilcoxon_signed_rank",
    ),
    retrieval: ("RankedList", "Method"),
}


def test_all_is_the_export_map():
    assert centroidrank.__all__ == list(centroidrank._EXPORTS)
    assert len(set(centroidrank.__all__)) == len(centroidrank.__all__)


@pytest.mark.parametrize("name", centroidrank.__all__)
def test_name_resolves_to_its_defining_module(name):
    module = importlib.import_module(f"centroidrank.{centroidrank._EXPORTS[name]}")
    assert getattr(centroidrank, name) is getattr(module, name)
    assert name in dir(centroidrank)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        centroidrank.no_such_name  # noqa: B018


@pytest.mark.parametrize(
    ("module", "name"),
    [(module, name) for module, names in RUN_REEXPORTS.items() for name in names],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_run_names_are_reexported(module, name):
    assert getattr(module, name) is getattr(runs, name)



@pytest.mark.parametrize("as_path", [str, pathlib.Path])
def test_every_artifact_reader_and_writer_takes_either_path_type(
    tmp_path, as_path, tiny_embeddings, tiny_doc_idf
):
    save_idf(tiny_doc_idf, as_path(tmp_path / "idf.tsv"))
    assert load_idf(as_path(tmp_path / "idf.tsv")) == tiny_doc_idf

    save_embeddings(tiny_embeddings, as_path(tmp_path / "vectors.txt"))
    table = load_embeddings(as_path(tmp_path / "vectors.txt"))
    assert table.vocab.keys() == tiny_embeddings.vocab.keys()
    for token in table.vocab:  # saved in sorted order
        assert table.lookup(token).tobytes() == tiny_embeddings.lookup(token).tobytes()

    ranking = RankedList("q1", Method.CD, [("d1#0", 0.25)])
    run = RunResult("cd", {"q1": QuestionScore(ranking, ap=1.0, precision=0.1, recall=1.0)})
    save_run(run, as_path(tmp_path / "run.json"))
    assert load_run(as_path(tmp_path / "run.json")) == run

    index = build_index([("d1", "Alpha beta. Gamma delta.")], tiny_embeddings, tiny_doc_idf)
    save_index(index, as_path(tmp_path / "index"))
    loaded = load_index(as_path(tmp_path / "index"))
    assert loaded.passages == index.passages
    assert loaded.uniform.tobytes() == index.uniform.tobytes()
    assert loaded.idf.tobytes() == index.idf.tobytes()

    question = {"id": "q1", "body": "Alpha?", "documents": ["http://x/d1"],
                "snippets": [{"document": "d1", "text": "Alpha beta."}]}
    (tmp_path / "questions.json").write_text(json.dumps({"questions": [question]}))
    assert load_question_set(as_path(tmp_path / "questions.json")) == [
        Question("q1", "Alpha?", ["d1"], [("d1", "Alpha beta.")])
    ]
