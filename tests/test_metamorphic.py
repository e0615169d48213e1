"""Metamorphic relations, end to end: changes to the inputs that must leave
the output bytes unchanged.

Each relation runs ``main()`` on the checked-in fixture and on one
``make_instance`` world from ``tests/synth.py``, and needs no second
implementation to compare with; the full-index ``query`` relation also
runs on the near ties of one ``make_screen_instance``. Power-of-two
scaling commutes with every float operation short of overflow and
underflow, so it catches scale-dependent code and disagreement between
the screened and the fallback full-index paths, not rounding-order bugs;
the tie tests of ``test_retrieval.py`` keep those.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import shutil
from pathlib import Path

import pytest

from centroidrank import build_index, load_embeddings, load_idf, save_index
from centroidrank.cli import main
from synth import make_instance, make_screen_instance

FIXTURES = Path(__file__).parent / "fixtures"
METHODS = ("cd", "cd-idf", "cd-q", "rnd")
# Below most candidate sets, so that rnd's draws depend on its seeds.
K = "3"
INDEX_FILES = ("uniform.npy", "idf.npy", "passages.json")
OOV = " xyzzy plugh"


@dataclasses.dataclass(frozen=True)
class World:
    """The text inputs of one run of the pipeline."""

    docs: tuple[str, ...]  # docs TSV lines, '<doc_id>\t<text>'
    doc_corpus: tuple[str, ...]  # the doc-idf corpus, one document per line
    vectors: tuple[tuple[str, tuple[float, ...]], ...]  # embedding rows, in file order
    questions: tuple[dict, ...]  # question-set entries
    question_corpus: str

    def scaled(self, factor: float) -> World:
        return dataclasses.replace(
            self, vectors=tuple((t, tuple(v * factor for v in vec)) for t, vec in self.vectors)
        )


def _fixture_world() -> World:
    docs = tuple(
        line
        for line in (FIXTURES / "docs.tsv").read_text(encoding="utf-8").splitlines()
        if "\t" in line
    )
    rows = (FIXTURES / "embeddings.txt").read_text(encoding="utf-8").splitlines()[1:]
    vectors = tuple(
        (token, tuple(map(float, values)))
        for token, *values in (row.split() for row in rows)
    )
    return World(
        docs=docs,
        doc_corpus=tuple(line.split("\t", 1)[1] for line in docs),
        vectors=vectors,
        questions=tuple(
            json.loads((FIXTURES / "questions.json").read_text(encoding="utf-8"))["questions"]
        ),
        question_corpus=(FIXTURES / "question_corpus.txt").read_text(encoding="utf-8"),
    )


def _synth_world(seed: int) -> World:
    """``make_instance(seed)``'s documents and vectors, and one question per
    unit of its question corpus, each with a few reference documents and a
    gold snippet that is a sentence of one of them."""
    instance = make_instance(random.Random(seed))
    rng = random.Random(seed)
    doc_ids = [doc_id for doc_id, _text in instance.documents]
    questions = []
    for i, unit in enumerate(instance.question_corpus):
        documents = rng.sample(doc_ids, rng.randrange(1, len(doc_ids) + 1))
        _pid, doc_id, tokens = rng.choice([p for p in instance.passages if p[1] in documents])
        questions.append({
            "id": f"s{i:02d}",
            "body": " ".join(unit),
            "documents": documents,
            "snippets": [{"document": doc_id, "text": " ".join(tokens)}],
        })
    return World(
        docs=tuple(f"{doc_id}\t{text}" for doc_id, text in instance.documents),
        doc_corpus=tuple(" ".join(unit) for unit in instance.doc_corpus),
        vectors=tuple((t, tuple(vec)) for t, vec in instance.vectors.items()),
        questions=tuple(questions),
        question_corpus="".join(" ".join(unit) + "\n" for unit in instance.question_corpus),
    )


def _screen_world(seed: int) -> World:
    """``make_screen_instance(seed)``'s rows as one-sentence documents: row
    ``i`` is the vector of token ``r<i>``, the whole text of document
    ``p<i>``, so its centroids are the row itself; the question is ``q``."""
    instance = make_screen_instance(random.Random(seed))
    assert instance.question == ["q"]
    rows = instance.index.uniform.tolist()
    vectors = [("q", tuple(instance.embeddings.matrix[0].tolist()))]
    vectors += [(f"r{i:02d}", tuple(row)) for i, row in enumerate(rows)]
    return World(
        docs=tuple(f"p{i:02d}\tR{i:02d}." for i in range(len(rows))),
        doc_corpus=tuple(f"r{i:02d}" for i in range(len(rows))),
        vectors=tuple(vectors),
        questions=(),
        question_corpus="q\n",
    )


WORLDS = {
    "fixture": _fixture_world,
    "synth": lambda: _synth_world(11),
}


def _run(*argv) -> str:
    """``main(argv)``'s standard output; the command must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(arg) for arg in argv])
    assert code == 0, argv
    return out.getvalue()


def _build(world: World, directory: Path) -> dict[str, bytes]:
    """Write the world's files, build both idf tables and the index, and
    return the index files' bytes by name."""
    directory.mkdir()
    dim = len(world.vectors[0][1])
    table = [f"{len(world.vectors)} {dim}"]
    table += [" ".join([token, *map(repr, vec)]) for token, vec in world.vectors]
    for name, text in [
        ("docs.tsv", "".join(line + "\n" for line in world.docs)),
        ("doc_corpus.txt", "".join(line + "\n" for line in world.doc_corpus)),
        ("embeddings.txt", "\n".join(table) + "\n"),
        ("questions.json", json.dumps({"questions": list(world.questions)})),
        ("question_corpus.txt", world.question_corpus),
    ]:
        (directory / name).write_text(text, encoding="utf-8")
    for corpus, unit in [("doc_corpus.txt", "doc"), ("question_corpus.txt", "question")]:
        _run("idf-build", "--corpus", directory / corpus, "--unit", unit,
             "--out", directory / f"{unit}_idf.tsv")
    _run("index-build", "--docs", directory / "docs.tsv",
         "--embeddings", directory / "embeddings.txt",
         "--doc-idf", directory / "doc_idf.tsv", "--out", directory / "index")
    return {name: (directory / "index" / name).read_bytes() for name in INDEX_FILES}


def _flags(directory: Path, method: str) -> list:
    return ["--index", directory / "index", "--embeddings", directory / "embeddings.txt",
            "--doc-idf", directory / "doc_idf.tsv",
            "--question-idf", directory / "question_idf.tsv", "--method", method]


def _evaluate(directory: Path) -> dict[str, bytes]:
    """The run file of every method, by method, on a built world."""
    runs = {}
    for method in METHODS:
        run = directory / f"run_{method}.json"
        _run("eval", *_flags(directory, method), "--k", K,
             "--questions", directory / "questions.json", "--out", run)
        runs[method] = run.read_bytes()
    return runs


def _pipeline(world: World, directory: Path) -> dict[str, bytes]:
    return {**_build(world, directory), **_evaluate(directory)}


def _query(directory: Path, question: str, method: str, k: int) -> str:
    return _run("query", *_flags(directory, method), "--k", k, "--question", question)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Each world's outputs, built once for the module."""
    outputs = {}

    def outputs_of(name: str) -> dict[str, bytes]:
        if name not in outputs:
            directory = tmp_path_factory.mktemp("base") / name
            outputs[name] = (directory, _pipeline(WORLDS[name](), directory))
        return outputs[name]

    return outputs_of


def _assert_same(got: dict[str, bytes], want: dict[str, bytes], names) -> None:
    assert [name for name in names if got[name] != want[name]] == []


@pytest.mark.parametrize("world", sorted(WORLDS))
@pytest.mark.parametrize(
    "exponent", [-90, 60, 110], ids=["2**-90", "2**60", "2**110-screen-refused"]
)
def test_scaled_embeddings_give_the_same_runs_and_queries(base, tmp_path, world, exponent):
    # At 2**110 every norm lies above the screen's 2**100, so the full-index
    # query scores every row; unscaled, the screen chooses the rows.
    directory, want = base(world)
    scaled = _pipeline(WORLDS[world]().scaled(2.0**exponent), tmp_path / "scaled")
    _assert_same(scaled, want, METHODS)
    question = WORLDS[world]().questions[0]["body"]
    for method in ("cd", "cd-idf", "cd-q"):
        assert _query(tmp_path / "scaled", question, method, 10) == _query(
            directory, question, method, 10
        )


def test_scaled_near_ties_give_the_same_full_index_queries(tmp_path):
    # Rows whose cosines to the question differ by less than float32
    # resolves, so the screen's own order differs from the einsum order.
    world = _screen_world(10)
    _build(world, tmp_path / "plain")
    for exponent in (-90, 110):
        directory = tmp_path / f"scaled{exponent}"
        _build(world.scaled(2.0**exponent), directory)
        for k in range(1, len(world.docs) + 1):
            assert _query(directory, "q", "cd", k) == _query(tmp_path / "plain", "q", "cd", k)


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_reordered_docs_and_embedding_lines_give_the_same_index(base, tmp_path, world):
    _directory, want = base(world)
    original = WORLDS[world]()
    assert len({token for token, _vec in original.vectors}) == len(original.vectors)
    rng = random.Random(0)
    docs, vectors = list(original.docs), list(original.vectors)
    while docs == list(original.docs) or vectors == list(original.vectors):
        rng.shuffle(docs)
        rng.shuffle(vectors)
    reordered = dataclasses.replace(original, docs=tuple(docs), vectors=tuple(vectors))
    _assert_same(_pipeline(reordered, tmp_path / "reordered"), want, INDEX_FILES + METHODS)


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_oov_tokens_appended_to_questions_give_the_same_runs(base, tmp_path, world):
    _directory, want = base(world)
    original = WORLDS[world]()
    vocab = {token for token, _vec in original.vectors}
    assert not vocab.intersection(OOV.split())
    questions = tuple({**q, "body": q["body"] + OOV} for q in original.questions)
    got = _pipeline(dataclasses.replace(original, questions=questions), tmp_path / "oov")
    _assert_same(got, want, METHODS)


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_unreferenced_document_appended_gives_the_same_runs(base, tmp_path, world):
    # A copy of a referenced document under an id that sorts first: its
    # passages tie with the copied ones and would win their ties.
    _directory, want = base(world)
    original = WORLDS[world]()
    copied = original.docs[0].split("\t", 1)[1]
    referenced = {doc.rsplit("/", 1)[-1] for q in original.questions for doc in q["documents"]}
    assert "a-unreferenced" not in referenced
    # The doc-idf corpus is unchanged, so the doc-idf file is the same.
    appended = dataclasses.replace(original, docs=original.docs + (f"a-unreferenced\t{copied}",))
    _assert_same(_pipeline(appended, tmp_path / "appended"), want, METHODS)


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_reversed_question_set_gives_the_same_entries(base, tmp_path, world):
    _directory, want = base(world)
    original = WORLDS[world]()
    reversed_world = dataclasses.replace(original, questions=original.questions[::-1])
    got = _pipeline(reversed_world, tmp_path / "reversed")
    for method in METHODS:
        forward, backward = json.loads(want[method]), json.loads(got[method])
        assert [json.dumps(q) for q in backward["questions"][::-1]] == [
            json.dumps(q) for q in forward["questions"]
        ]
        assert json.dumps(backward["aggregates"]) == json.dumps(forward["aggregates"])


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_reversed_repeated_documents_and_reversed_snippets_give_the_same_runs(
    base, tmp_path, world
):
    # A question's candidates are a set of documents, and its judgments
    # depend on the set of its snippets: neither order nor a repeat counts.
    _directory, want = base(world)
    original = WORLDS[world]()
    questions = tuple(
        {**q, "documents": [*q["documents"][::-1], q["documents"][0]],
         "snippets": q["snippets"][::-1]}
        for q in original.questions
    )
    got = _pipeline(dataclasses.replace(original, questions=questions), tmp_path / "repeated")
    _assert_same(got, want, METHODS)


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_reordered_repeated_query_docs_give_the_same_output(base, world):
    directory, _want = base(world)
    original = WORLDS[world]()
    first, second = (line.split("\t", 1)[0] for line in original.docs[:2])
    question = original.questions[0]["body"]
    for method in METHODS:
        flags = [*_flags(directory, method), "--k", 10, "--question", question]
        assert _run("query", *flags, "--docs", f"{second},{first},{second}") == _run(
            "query", *flags, "--docs", f"{first},{second}"
        )


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_doc_idf_flag_left_out_gives_the_same_runs_and_queries(base, tmp_path, world):
    # The index keeps the doc-idf table it was built with, so a matching
    # --doc-idf changes nothing, and no method needs it.
    directory, want = base(world)
    question = WORLDS[world]().questions[0]["body"]
    for method in METHODS:
        flags = _flags(directory, method)
        at = flags.index("--doc-idf")
        without = flags[:at] + flags[at + 2 :]
        run = tmp_path / f"run_{method}.json"
        _run("eval", *without, "--k", K, "--questions", directory / "questions.json", "--out", run)
        assert run.read_bytes() == want[method]
        assert _run("query", *without, "--k", 10, "--question", question) == _query(
            directory, question, method, 10
        )


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_library_saved_index_gives_the_same_runs_and_queries(base, tmp_path, world):
    # build_index + save_index over what index-build reads: the command line
    # reads the library's index as its own, doc-idf table included.
    directory, want = base(world)
    original = WORLDS[world]()
    documents = [tuple(line.split("\t", 1)) for line in original.docs]
    embeddings = load_embeddings(directory / "embeddings.txt")
    library = tmp_path / "index"
    save_index(build_index(documents, embeddings, load_idf(directory / "doc_idf.tsv")), library)
    question = original.questions[0]["body"]
    for method in METHODS:
        flags = _flags(directory, method)
        flags[flags.index("--index") + 1] = library
        at = flags.index("--doc-idf")
        flags[at : at + 2] = []
        run = tmp_path / f"run_{method}.json"
        _run("eval", *flags, "--k", K, "--questions", directory / "questions.json", "--out", run)
        assert run.read_bytes() == want[method]
        assert _run("query", *flags, "--k", 10, "--question", question) == _query(
            directory, question, method, 10
        )
    for name in (*INDEX_FILES, "doc_idf.tsv", "header.json"):
        assert (library / name).read_bytes() == (directory / "index" / name).read_bytes()


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_index_without_its_header_gives_the_same_runs_and_queries(base, tmp_path, world):
    # Without header.json the index vouches for no embedding file, so query
    # and eval parse the whole table, not only their questions' rows.
    directory, want = base(world)
    index = tmp_path / "index"
    shutil.copytree(directory / "index", index)
    (index / "header.json").unlink()
    question = WORLDS[world]().questions[0]["body"]
    for method in METHODS:
        flags = _flags(directory, method)
        flags[flags.index("--index") + 1] = index
        run = tmp_path / f"run_{method}.json"
        _run("eval", *flags, "--k", K, "--questions", directory / "questions.json", "--out", run)
        assert run.read_bytes() == want[method]
        assert _run("query", *flags, "--k", 10, "--question", question) == _query(
            directory, question, method, 10
        )
