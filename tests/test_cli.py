import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from centroidrank import (
    Method,
    QuestionScore,
    RankedList,
    RunResult,
    load_index,
    load_run,
    save_run,
)
from centroidrank import cli, embeddings, idf, retrieval, runs
from centroidrank.cli import main
from oracles import oracle_index_tsv

EMBEDDINGS = """5 2
alpha 1.0 0.0
beta 0.0 1.0
gamma 0.6 0.8
delta -1.0 0.0
epsilon 0.8 -0.6
"""

DOCS_TSV = "d1\tAlpha alpha. Beta beta.\nd2\tGamma gamma. Epsilon delta.\n"

DOC_CORPUS = "alpha alpha beta beta\ngamma gamma epsilon delta\n"

QUESTION_CORPUS = "alpha question\nbeta question\ngamma question\nalpha beta\n"

QUESTIONS = {
    "questions": [
        {
            "id": "q1",
            "body": "alpha",
            "documents": ["d1"],
            "snippets": [{"document": "d1", "text": "Alpha alpha."}],
        },
        {
            "id": "q2",
            "body": "beta",
            "documents": ["d1"],
            "snippets": [{"document": "d1", "text": "Beta beta."}],
        },
        {
            "id": "q3",
            "body": "gamma",
            "documents": ["d2"],
            "snippets": [{"document": "d2", "text": "Gamma gamma."}],
        },
        {
            "id": "q4",
            "body": "alpha",
            "documents": ["d1", "d2"],
            "snippets": [{"document": "d1", "text": "Beta beta."}],
        },
    ]
}


@pytest.fixture
def workspace(tmp_path):
    paths = {
        "embeddings": tmp_path / "embeddings.txt",
        "docs": tmp_path / "docs.tsv",
        "doc_corpus": tmp_path / "doc_corpus.txt",
        "question_corpus": tmp_path / "question_corpus.txt",
        "questions": tmp_path / "questions.json",
        "doc_idf": tmp_path / "doc_idf.tsv",
        "question_idf": tmp_path / "question_idf.tsv",
        "index": tmp_path / "index",
        "run": tmp_path / "run.json",
    }
    paths["embeddings"].write_text(EMBEDDINGS, encoding="utf-8")
    paths["docs"].write_text(DOCS_TSV, encoding="utf-8")
    paths["doc_corpus"].write_text(DOC_CORPUS, encoding="utf-8")
    paths["question_corpus"].write_text(QUESTION_CORPUS, encoding="utf-8")
    paths["questions"].write_text(json.dumps(QUESTIONS), encoding="utf-8")
    return paths


def _build_artifacts(paths):
    assert main(
        [
            "idf-build",
            "--corpus", str(paths["doc_corpus"]),
            "--unit", "doc",
            "--out", str(paths["doc_idf"]),
        ]
    ) == 0
    assert main(
        [
            "idf-build",
            "--corpus", str(paths["question_corpus"]),
            "--unit", "question",
            "--out", str(paths["question_idf"]),
        ]
    ) == 0
    assert main(
        [
            "index-build",
            "--docs", str(paths["docs"]),
            "--embeddings", str(paths["embeddings"]),
            "--doc-idf", str(paths["doc_idf"]),
            "--out", str(paths["index"]),
        ]
    ) == 0


class TestIdfBuild:
    def test_reports_counts(self, workspace, capsys):
        code = main(
            [
                "idf-build",
                "--corpus", str(workspace["doc_corpus"]),
                "--unit", "doc",
                "--out", str(workspace["doc_idf"]),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "n_docs 2" in out
        assert "vocab 5" in out

    def test_multiple_corpus_flags_build_a_union(self, workspace, capsys):
        extra = workspace["doc_corpus"].parent / "extra.txt"
        extra.write_text("zeta eta\n", encoding="utf-8")
        code = main(
            [
                "idf-build",
                "--corpus", str(workspace["doc_corpus"]),
                "--corpus", str(extra),
                "--unit", "question",
                "--out", str(workspace["question_idf"]),
            ]
        )
        assert code == 0
        assert "n_docs 3" in capsys.readouterr().out

    def test_missing_file_exits_2(self, workspace, capsys):
        code = main(
            [
                "idf-build",
                "--corpus", str(workspace["doc_corpus"].parent / "nope.txt"),
                "--unit", "doc",
                "--out", str(workspace["doc_idf"]),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_undecodable_corpus_exits_2_naming_it(self, workspace, capsys):
        utf16 = workspace["doc_corpus"].parent / "utf16.txt"
        utf16.write_bytes(b"\xff\xfea\x00\n\x00")
        code = main(
            ["idf-build", "--corpus", str(workspace["doc_corpus"]), "--corpus", str(utf16),
             "--unit", "doc", "--out", str(workspace["doc_idf"])]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: --corpus {utf16}: 'utf-8' codec can't decode byte 0xff in position 0"
        )
        assert not workspace["doc_idf"].exists()

    def test_empty_corpus_exits_2(self, workspace, capsys):
        empty = workspace["doc_corpus"].parent / "empty.txt"
        empty.write_text("", encoding="utf-8")
        code = main(
            ["idf-build", "--corpus", str(empty), "--unit", "doc",
             "--out", str(workspace["doc_idf"])]
        )
        assert code == 2

    def test_unit_choice_sets_table_label(self, workspace):
        assert main(
            ["idf-build", "--corpus", str(workspace["doc_corpus"]),
             "--unit", "question", "--out", str(workspace["question_idf"])]
        ) == 0
        header = workspace["question_idf"].read_text(encoding="utf-8").splitlines()[0]
        assert header == "#n_docs 2 questions"


class TestIndexBuild:
    def test_reports_passage_count(self, workspace, capsys):
        _build_artifacts(workspace)
        assert "4 passages" in capsys.readouterr().out

    def test_fixture_index_bytes_pinned(self, tmp_path, capsys):
        # SHA-256 of the single-file TSV index that earlier versions wrote
        # for the checked-in fixture. Rewriting the saved bundle in that
        # format must give the same bytes, so passages, ids and every
        # centroid bit are unchanged.
        fixtures = pathlib.Path(__file__).parent / "fixtures"
        doc_corpus = tmp_path / "doc_corpus.txt"
        doc_corpus.write_text(
            "".join(
                line.split("\t", 1)[1]
                for line in (fixtures / "docs.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
                if "\t" in line
            ),
            encoding="utf-8",
        )
        doc_idf = tmp_path / "doc_idf.tsv"
        index = tmp_path / "index"
        assert main(["idf-build", "--corpus", str(doc_corpus), "--unit", "doc",
                     "--out", str(doc_idf)]) == 0
        assert main(["index-build", "--docs", str(fixtures / "docs.tsv"),
                     "--embeddings", str(fixtures / "embeddings.txt"),
                     "--doc-idf", str(doc_idf), "--out", str(index)]) == 0
        assert "24 passages" in capsys.readouterr().out
        reloaded = load_index(index)
        # oracle_index_tsv takes (passage_id, doc_id, text) triples.
        triples = [
            (p.passage_id, p.passage_id.rpartition("#")[0], p.text) for p in reloaded.passages
        ]
        tsv = oracle_index_tsv(
            reloaded.dim, triples, reloaded.uniform.tolist(), reloaded.idf.tolist()
        )
        assert hashlib.sha256(tsv.encode("utf-8")).hexdigest() == (
            "5297c5205199f15dc48601672a77f731cacf5baf48ee3513ed93e533fe36a6f8"
        )

    def test_blank_docs_lines_are_skipped(self, workspace, capsys):
        _build_artifacts(workspace)
        plain = load_index(workspace["index"])
        spaced = "\n" + DOCS_TSV.replace("\n", "\n \t \n", 1) + "\n"
        workspace["docs"].write_text(spaced, encoding="utf-8")
        capsys.readouterr()
        assert self._index_build(workspace, workspace["index"]) == 0
        assert capsys.readouterr().out == "4 passages\n"
        reloaded = load_index(workspace["index"])
        assert reloaded.passages == plain.passages
        assert reloaded.uniform.tobytes() == plain.uniform.tobytes()

    def test_empty_docs_file_warns(self, workspace, capsys):
        workspace["docs"].write_text("", encoding="utf-8")
        _build_artifacts(workspace)
        captured = capsys.readouterr()
        assert "0 passages" in captured.out
        assert "empty" in captured.err

    @pytest.mark.parametrize("value", ["1_0", "\uff11"])
    def test_embedding_value_numpy_refuses_exits_2_naming_line(self, workspace, capsys, value):
        _build_artifacts(workspace)
        workspace["embeddings"].write_text(EMBEDDINGS.replace("0.6", value), encoding="utf-8")
        capsys.readouterr()
        assert self._index_build(workspace, workspace["index"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: --embeddings {workspace['embeddings']}: line 4: malformed float ("
        )

    def test_line_without_tab_exits_2(self, workspace, capsys):
        workspace["docs"].write_text("d1 no tab here\n", encoding="utf-8")
        code = main(
            [
                "index-build",
                "--docs", str(workspace["docs"]),
                "--embeddings", str(workspace["embeddings"]),
                "--doc-idf", str(workspace["doc_idf"]),
                "--out", str(workspace["index"]),
            ]
        )
        # doc idf must exist first
        assert code == 2

    def test_duplicate_doc_id_exits_2(self, workspace, capsys):
        _build_artifacts(workspace)
        workspace["docs"].write_text("d1\tAlpha.\nd1\tBeta.\n", encoding="utf-8")
        code = main(
            [
                "index-build",
                "--docs", str(workspace["docs"]),
                "--embeddings", str(workspace["embeddings"]),
                "--doc-idf", str(workspace["doc_idf"]),
                "--out", str(workspace["index"]),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --docs {workspace['docs']}: line 2: duplicate doc_id 'd1'\n"
        )
        assert load_index(workspace["index"]).doc_index.keys() == {"d1", "d2"}

    def _index_build(self, workspace, out):
        return main(
            [
                "index-build",
                "--docs", str(workspace["docs"]),
                "--embeddings", str(workspace["embeddings"]),
                "--doc-idf", str(workspace["doc_idf"]),
                "--out", str(out),
            ]
        )

    def test_rebuild_onto_one_out_gives_the_second_index(self, workspace, capsys):
        _build_artifacts(workspace)
        workspace["docs"].write_text("d9\tGamma gamma.\n", encoding="utf-8")
        assert self._index_build(workspace, workspace["index"]) == 0
        reloaded = load_index(workspace["index"])
        assert [tuple(p) for p in reloaded.passages] == [("d9#0", "Gamma gamma.")]
        assert reloaded.uniform.shape == reloaded.idf.shape == (1, 2)

    def test_out_onto_a_regular_file_exits_2_and_keeps_it(self, workspace, capsys):
        _build_artifacts(workspace)
        occupied = workspace["index"].parent / "occupied"
        occupied.write_bytes(b"not an index\n")
        assert self._index_build(workspace, occupied) == 2
        assert "error:" in capsys.readouterr().err
        assert occupied.read_bytes() == b"not an index\n"


class TestQuery:
    def test_old_tsv_index_file_exits_2(self, workspace, capsys):
        _build_artifacts(workspace)
        old = workspace["index"].parent / "index.tsv"
        old.write_text("#dim 2\nd1#0\td1\tAlpha.\t1.0,0.0\t1.0,0.0\n", encoding="utf-8")
        code = main(
            [
                "query",
                "--index", str(old),
                "--embeddings", str(workspace["embeddings"]),
                "--question", "alpha",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("damage", ["truncated", "empty", "not-npy", "huge-shape"])
    def test_unreadable_matrix_file_exits_2_naming_it(self, workspace, capsys, damage):
        _build_artifacts(workspace)
        matrix = workspace["index"] / "uniform.npy"
        data = matrix.read_bytes()
        # A header whose shape needs 16 PB: read as is, it raised MemoryError (exit 1).
        huge = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            huge, {"descr": "<f8", "fortran_order": False, "shape": (10**15, 2)}
        )
        matrix.write_bytes(
            {"truncated": data[:-5], "empty": b"", "not-npy": b"#dim 2\n",
             "huge-shape": huge.getvalue() + np.load(matrix).tobytes()}[damage]
        )
        capsys.readouterr()
        code = main(
            [
                "query",
                "--index", str(workspace["index"]),
                "--embeddings", str(workspace["embeddings"]),
                "--question", "alpha",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: --index {workspace['index']}: uniform.npy: not a readable .npy matrix ("
        )

    @pytest.mark.parametrize("name", ["uniform.npy", "idf.npy"])
    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_non_finite_matrix_exits_2_naming_it(self, workspace, capsys, command, name):
        _build_artifacts(workspace)
        text = (workspace["index"] / "passages.json").read_text(encoding="utf-8")
        first = json.loads(text)[0][0]
        matrix = np.load(workspace["index"] / name)
        matrix[0, 0] = np.nan
        np.save(workspace["index"] / name, matrix)
        capsys.readouterr()
        argv = [command, "--index", str(workspace["index"]),
                "--embeddings", str(workspace["embeddings"])]
        if command == "query":
            argv += ["--question", "alpha"]
        else:
            argv += ["--questions", str(workspace["questions"]), "--out", str(workspace["run"])]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --index {workspace['index']}: passage {first!r}: "
            f"{name.split('.')[0]} centroid norm nan is not finite\n"
        )
        assert not workspace["run"].exists()

    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_index_with_a_doc_id_field_exits_2(self, workspace, capsys, command):
        # An index of an earlier layout: passages.jsonl lines that still hold
        # the doc id, which is now the id up to its last '#'. Rebuilt into
        # the same directory, the index is read, and the old file is left.
        _build_artifacts(workspace)
        path = workspace["index"] / "passages.json"
        rows = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        (workspace["index"] / "passages.jsonl").write_text(
            "".join(json.dumps([pid, pid.rpartition("#")[0], text]) + "\n" for pid, text in rows),
            encoding="utf-8",
        )
        capsys.readouterr()
        argv = [command, "--index", str(workspace["index"]),
                "--embeddings", str(workspace["embeddings"])]
        if command == "query":
            argv += ["--question", "alpha"]
        else:
            argv += ["--questions", str(workspace["questions"]), "--out", str(workspace["run"])]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --index {workspace['index']}: "
            f"[Errno 2] No such file or directory: {str(path)!r}\n"
        )
        assert not workspace["run"].exists()
        assert main(["index-build", "--docs", str(workspace["docs"]),
                     "--embeddings", str(workspace["embeddings"]),
                     "--doc-idf", str(workspace["doc_idf"]),
                     "--out", str(workspace["index"])]) == 0
        assert main(argv) == 0
        assert (workspace["index"] / "passages.jsonl").exists()

    @pytest.mark.parametrize("method", ["cd", "cd-idf", "cd-q"])
    def test_method_without_embeddings_exits_2(self, workspace, capsys, method):
        _build_artifacts(workspace)
        capsys.readouterr()
        code = main(
            [
                "query",
                "--index", str(workspace["index"]),
                "--doc-idf", str(workspace["doc_idf"]),
                "--question-idf", str(workspace["question_idf"]),
                "--method", method,
                "--question", "alpha",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {method} requires an embedding table (--embeddings)\n"
        )

    def test_identical_question_scores_zero(self, workspace, capsys):
        _build_artifacts(workspace)
        capsys.readouterr()
        code = main(
            [
                "query",
                "--index", str(workspace["index"]),
                "--embeddings", str(workspace["embeddings"]),
                "--method", "cd",
                "--k", "2",
                "--question", "alpha alpha",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        rank_1 = lines[0].split("\t")
        assert rank_1[0] == "1"
        assert rank_1[1] == "d1#0"
        assert rank_1[2] == "0.000000"
        assert rank_1[3] == "Alpha alpha."

    def test_k_larger_than_candidates(self, workspace, capsys):
        _build_artifacts(workspace)
        capsys.readouterr()
        code = main(
            [
                "query",
                "--index", str(workspace["index"]),
                "--embeddings", str(workspace["embeddings"]),
                "--method", "cd",
                "--k", "10",
                "--question", "alpha",
                "--docs", "d1",
            ]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_repeat_invocations_byte_identical(self, workspace, capsys):
        _build_artifacts(workspace)
        capsys.readouterr()
        argv = [
            "query",
            "--index", str(workspace["index"]),
            "--embeddings", str(workspace["embeddings"]),
            "--doc-idf", str(workspace["doc_idf"]),
            "--question-idf", str(workspace["question_idf"]),
            "--method", "cd-q",
            "--question", "alpha beta gamma",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_cd_q_without_question_idf_exits_2(self, workspace, capsys):
        _build_artifacts(workspace)
        capsys.readouterr()
        code = main(
            [
                "query",
                "--index", str(workspace["index"]),
                "--embeddings", str(workspace["embeddings"]),
                "--doc-idf", str(workspace["doc_idf"]),
                "--method", "cd-q",
                "--question", "alpha",
            ]
        )
        assert code == 2
        assert "question-idf" in capsys.readouterr().err

    def test_dimension_mismatch_exits_2(self, workspace, capsys):
        # Without its fingerprint the index takes any file, of any width.
        _build_artifacts(workspace)
        (workspace["index"] / "header.json").unlink()
        other = workspace["embeddings"].parent / "other.txt"
        other.write_text("a 1.0 2.0 3.0\n", encoding="utf-8")
        capsys.readouterr()
        code = main(
            [
                "query",
                "--index", str(workspace["index"]),
                "--embeddings", str(other),
                "--method", "cd",
                "--question", "alpha",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: --embeddings {other}: dimension")

    @pytest.mark.parametrize("docs", ["", ",", ",,"])
    @pytest.mark.parametrize("method", ["cd", "cd-idf", "cd-q", "rnd"])
    def test_docs_naming_no_document_exits_2(self, workspace, capsys, method, docs):
        _build_artifacts(workspace)
        capsys.readouterr()
        code = main(
            [
                "query",
                "--index", str(workspace["index"]),
                "--embeddings", str(workspace["embeddings"]),
                "--doc-idf", str(workspace["doc_idf"]),
                "--question-idf", str(workspace["question_idf"]),
                "--method", method,
                "--question", "alpha",
                "--docs", docs,
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--docs names no document id" in captured.err

    @pytest.mark.parametrize("method", ["cd", "cd-idf", "cd-q", "rnd"])
    def test_unknown_doc_names_docs_flag(self, workspace, capsys, method):
        _build_artifacts(workspace)
        capsys.readouterr()
        code = main(
            [
                "query",
                "--index", str(workspace["index"]),
                "--embeddings", str(workspace["embeddings"]),
                "--doc-idf", str(workspace["doc_idf"]),
                "--question-idf", str(workspace["question_idf"]),
                "--method", method,
                "--question", "alpha",
                "--docs", "d1,nosuchdoc",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: --docs d1,nosuchdoc: unknown doc_id(s) in candidate set: nosuchdoc\n"
        )

    def test_rnd_query_is_seeded(self, workspace, capsys):
        _build_artifacts(workspace)
        capsys.readouterr()
        argv = [
            "query",
            "--index", str(workspace["index"]),
            "--method", "rnd",
            "--k", "2",
            "--question", "ignored",
            "--seed", "11",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        for line in first.splitlines():
            assert line.split("\t")[2] == "0.000000"


class TestIndexDocIdf:
    """``index-build`` keeps its doc-idf table in the index, as
    ``doc_idf.tsv``; ``query`` and ``eval`` read it from there and refuse a
    ``--doc-idf`` that differs from it."""

    @staticmethod
    def _argv(command, workspace, method, *extra):
        argv = [command, "--index", workspace["index"], "--embeddings", workspace["embeddings"],
                "--method", method, *extra]
        if command == "query":
            argv += ["--question", "alpha beta"]
        else:
            argv += ["--questions", workspace["questions"], "--out", workspace["run"]]
        return [str(arg) for arg in argv]

    def test_index_build_saves_the_table_it_used(self, workspace):
        _build_artifacts(workspace)
        stored = workspace["index"] / "doc_idf.tsv"
        assert stored.read_bytes() == workspace["doc_idf"].read_bytes()

    def test_table_with_a_tab_in_its_label_is_kept(self, workspace, capsys):
        _build_artifacts(workspace)
        text = workspace["doc_idf"].read_text(encoding="utf-8").replace("documents", "docu\tments")
        workspace["doc_idf"].write_text(text, encoding="utf-8")
        assert main(["index-build", "--docs", str(workspace["docs"]),
                     "--embeddings", str(workspace["embeddings"]),
                     "--doc-idf", str(workspace["doc_idf"]),
                     "--out", str(workspace["index"])]) == 0
        stored = idf.load_idf(workspace["index"] / "doc_idf.tsv")
        assert stored == idf.load_idf(workspace["doc_idf"])
        assert stored.corpus_label == "docu\tments"

    @pytest.mark.parametrize("command", ["query", "eval"])
    @pytest.mark.parametrize("field", ["df", "n_docs"])
    def test_another_doc_idf_exits_2_naming_it_and_the_index(
        self, workspace, capsys, command, field
    ):
        _build_artifacts(workspace)
        table = idf.load_idf(workspace["doc_idf"])
        if field == "df":
            token = next(t for t, count in table.df.items() if count < table.n_docs)
            table.df[token] += 1
        else:
            table.n_docs += 1
        other = workspace["doc_idf"].parent / "other_idf.tsv"
        idf.save_idf(table, other)
        capsys.readouterr()
        assert main(self._argv(command, workspace, "cd-idf", "--doc-idf", other)) == 2
        assert capsys.readouterr().err == (
            f"error: --doc-idf {other}: {field} differs from the table of "
            f"--index {workspace['index']} (doc_idf.tsv)\n"
        )
        assert not workspace["run"].exists()

    @pytest.mark.parametrize("command", ["query", "eval"])
    @pytest.mark.parametrize("label", [None, "another label"], ids=["byte-copy", "relabelled"])
    def test_only_other_bytes_are_parsed(self, workspace, monkeypatch, command, label):
        # load_index has read the index's copy; a byte copy is not read as a table.
        _build_artifacts(workspace)
        given = workspace["doc_idf"]
        if label is not None:
            table = idf.load_idf(given)
            table.corpus_label = label
            given = given.parent / "other_idf.tsv"
            idf.save_idf(table, given)
        parsed = []
        load_idf = idf.load_idf
        monkeypatch.setattr(idf, "load_idf", lambda path: parsed.append(path) or load_idf(path))
        assert main(self._argv(command, workspace, "cd-idf", "--doc-idf", given)) == 0
        assert parsed == ([] if label is None else [str(given)])

    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_index_without_its_doc_idf_exits_2_naming_it(self, workspace, capsys, command):
        # An index written before index-build kept the table; rebuild it.
        _build_artifacts(workspace)
        stored = workspace["index"] / "doc_idf.tsv"
        stored.unlink()
        capsys.readouterr()
        assert main(self._argv(command, workspace, "cd")) == 2
        assert capsys.readouterr().err == (
            f"error: --index {workspace['index']}: doc_idf.tsv: "
            f"[Errno 2] No such file or directory: {str(stored)!r}\n"
        )
        assert not workspace["run"].exists()

    def test_unreadable_doc_idf_exits_2_naming_the_index_and_the_file(self, workspace, capsys):
        _build_artifacts(workspace)
        (workspace["index"] / "doc_idf.tsv").write_text("#n_docs 2 docs\na\t3\n")
        capsys.readouterr()
        assert main(self._argv("query", workspace, "cd-idf")) == 2
        assert capsys.readouterr().err == (
            f"error: --index {workspace['index']}: doc_idf.tsv: "
            "line 2: df 3 outside [1, 2] for 'a'\n"
        )


def _sha256(path):
    """The fingerprint of the file at ``path``."""
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


class TestEmbeddingsFingerprint:
    """``index-build`` records the fingerprint of its embedding file in the
    index's ``header.json``; ``query`` and ``eval`` parse only the rows of
    their questions' tokens of that file and refuse any other. Without a
    fingerprint they parse the file in full."""

    @staticmethod
    def _argv(command, workspace):
        argv = ["--index", workspace["index"], "--embeddings", workspace["embeddings"],
                "--question-idf", workspace["question_idf"], "--method", "cd-q"]
        if command == "query":
            argv += ["--question", "Alpha?"]
        else:
            argv += ["--questions", workspace["questions"], "--out", workspace["run"]]
        return [command, *map(str, argv)]

    @staticmethod
    def _run(argv, capsys, monkeypatch):
        """(exit code, stdout, stderr, the tokens of the embedding table read)."""
        read = []
        load_embeddings = embeddings.load_embeddings

        def recording(*args):
            table = load_embeddings(*args)
            read.append(sorted(table.vocab))
            return table

        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(embeddings, "load_embeddings", recording)
            code = main(argv)
        out, err = capsys.readouterr()
        run = pathlib.Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        return code, out + (run.read_text(encoding="utf-8") if code == 0 and run else ""), err, read

    @pytest.mark.parametrize(
        ("command", "tokens"), [("query", ["alpha"]), ("eval", ["alpha", "beta", "gamma"])]
    )
    def test_the_index_file_gives_only_the_question_rows(
        self, workspace, capsys, monkeypatch, command, tokens
    ):
        _build_artifacts(workspace)
        header = json.loads((workspace["index"] / "header.json").read_text(encoding="utf-8"))
        digest = hashlib.sha256(workspace["embeddings"].read_bytes()).hexdigest()
        assert header == {"embeddings_fingerprint": f"sha256:{digest}"}
        code, out, _err, read = self._run(self._argv(command, workspace), capsys, monkeypatch)
        assert (code, read) == (0, [tokens])
        (workspace["index"] / "header.json").unlink()
        assert self._run(self._argv(command, workspace), capsys, monkeypatch) == (
            0, out, "", [["alpha", "beta", "delta", "epsilon", "gamma"]]
        )

    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_an_unused_line_of_another_file_is_still_checked(
        self, workspace, capsys, monkeypatch, command
    ):
        # No question uses delta. Under the index's fingerprint another file
        # is refused, whether its delta line is bad or good; an index
        # without header.json refuses the bad line, naming it.
        _build_artifacts(workspace)
        argv = self._argv(command, workspace)
        path = workspace["embeddings"]
        recorded = _sha256(path)
        for delta in ("delta -1.0 x", "delta -1.5 0.25"):
            path.write_text(EMBEDDINGS.replace("delta -1.0 0.0", delta), encoding="utf-8")
            assert self._run(argv, capsys, monkeypatch) == (2, "", (
                f"error: --embeddings {path}: "
                f"fingerprint {_sha256(path)}, but the index records {recorded}\n"
            ), [])
            assert not workspace["run"].exists()
        path.write_text(EMBEDDINGS.replace("delta -1.0 0.0", "delta -1.0 x"), encoding="utf-8")
        (workspace["index"] / "header.json").unlink()
        assert self._run(argv, capsys, monkeypatch)[:3] == (2, "", (
            f"error: --embeddings {path}: "
            "line 5: malformed float (could not convert string to float: 'x')\n"
        ))
        assert not workspace["run"].exists()

    @pytest.mark.parametrize(
        "other",
        [EMBEDDINGS.replace("5 2\n", ""), EMBEDDINGS.replace("alpha 1.0", "alpha 0.9")],
        ids=["same-rows-without-the-header", "another-alpha"],
    )
    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_another_file_exits_2_naming_both_fingerprints(
        self, workspace, capsys, monkeypatch, command, other
    ):
        _build_artifacts(workspace)
        path = workspace["embeddings"]
        recorded = _sha256(path)
        path.write_text(other, encoding="utf-8")
        code, out, err, read = self._run(self._argv(command, workspace), capsys, monkeypatch)
        assert (code, out, read) == (2, "", [])
        assert err == (
            f"error: --embeddings {path}: "
            f"fingerprint {_sha256(path)}, but the index records {recorded}\n"
        )
        assert not workspace["run"].exists()

    @pytest.mark.parametrize("text", ["", "5 2\n"], ids=["empty", "header-only"])
    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_a_file_without_vectors_under_its_own_fingerprint_exits_2(
        self, workspace, capsys, monkeypatch, command, text
    ):
        _build_artifacts(workspace)
        path = workspace["embeddings"]
        path.write_text(text, encoding="utf-8")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        (workspace["index"] / "header.json").write_text(
            json.dumps({"embeddings_fingerprint": f"sha256:{digest}"})
        )
        assert self._run(self._argv(command, workspace), capsys, monkeypatch)[:3] == (
            2, "", f"error: --embeddings {path}: empty embedding file\n"
        )
        assert not workspace["run"].exists()

    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_malformed_header_exits_2_naming_it(self, workspace, capsys, monkeypatch, command):
        _build_artifacts(workspace)
        (workspace["index"] / "header.json").write_text('{"embeddings_fingerprint": 7}')
        assert self._run(self._argv(command, workspace), capsys, monkeypatch)[:3] == (2, "", (
            f"error: --index {workspace['index']}: header.json: expected "
            '{"embeddings_fingerprint": null or "sha256:<64 hex digits>"}\n'
        ))

    def test_eval_reads_the_questions_before_the_index(self, workspace, capsys, monkeypatch):
        # Their tokens choose the embedding rows to parse.
        _build_artifacts(workspace)
        (workspace["index"] / "header.json").write_text("{")
        workspace["questions"].write_text("[]", encoding="utf-8")
        code, _out, err, _read = self._run(self._argv("eval", workspace), capsys, monkeypatch)
        assert code == 2
        assert err.startswith(f"error: --questions {workspace['questions']}: ")


class TestEval:
    def test_hand_computed_aggregates(self, workspace, capsys):
        _build_artifacts(workspace)
        capsys.readouterr()
        code = main(
            [
                "eval",
                "--questions", str(workspace["questions"]),
                "--index", str(workspace["index"]),
                "--embeddings", str(workspace["embeddings"]),
                "--method", "cd",
                "--out", str(workspace["run"]),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        # q1/q2/q3: gold sentence retrieved first of two candidates
        # (AP 1, P 1/2, R 1); q4 ranks its gold passage third of four
        # (AP 1/3, P 1/4, R 1). Means: MAP 5/6, P 7/16, R 1, F1 14/23.
        assert out == "MAP 0.833 P 0.438 R 1.000 F1 0.609"
        payload = json.loads(workspace["run"].read_text(encoding="utf-8"))
        assert payload["method"] == "cd"
        assert len(payload["questions"]) == 4
        by_id = {entry["id"]: entry for entry in payload["questions"]}
        assert by_id["q1"]["ap"] == 1.0
        assert by_id["q4"]["ap"] == pytest.approx(1.0 / 3.0)
        assert by_id["q1"]["ranking"][0]["passage_id"] == "d1#0"

    def test_perfect_fixture_map_one(self, workspace, capsys):
        _build_artifacts(workspace)
        capsys.readouterr()
        only_easy = {"questions": QUESTIONS["questions"][:3]}
        workspace["questions"].write_text(json.dumps(only_easy), encoding="utf-8")
        code = main(
            [
                "eval",
                "--questions", str(workspace["questions"]),
                "--index", str(workspace["index"]),
                "--embeddings", str(workspace["embeddings"]),
                "--method", "cd",
                "--out", str(workspace["run"]),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("MAP 1.000")

    def test_rnd_run_file_reproducible(self, workspace, capsys):
        _build_artifacts(workspace)
        argv = [
            "eval",
            "--questions", str(workspace["questions"]),
            "--index", str(workspace["index"]),
            "--method", "rnd",
            "--seed", "3",
            "--out", str(workspace["run"]),
        ]
        assert main(argv) == 0
        first = workspace["run"].read_bytes()
        assert main(argv) == 0
        assert workspace["run"].read_bytes() == first

    def test_overlap_threshold_flag_loosens_judging(self, workspace, capsys):
        _build_artifacts(workspace)
        # the snippet shares only a single-token run with the indexed
        # sentence "Alpha alpha." and neither text contains the other, so
        # it matches nothing until the threshold drops to 1
        loose = {
            "questions": [
                {
                    "id": "q1",
                    "body": "alpha",
                    "documents": ["d1"],
                    "snippets": [{"document": "d1", "text": "alpha notes here"}],
                }
            ]
        }
        workspace["questions"].write_text(json.dumps(loose), encoding="utf-8")
        capsys.readouterr()
        argv_base = [
            "eval",
            "--questions", str(workspace["questions"]),
            "--index", str(workspace["index"]),
            "--embeddings", str(workspace["embeddings"]),
            "--method", "cd",
            "--out", str(workspace["run"]),
        ]
        assert main(argv_base) == 0
        assert capsys.readouterr().out.startswith("MAP 0.000")
        assert main(argv_base + ["--overlap-threshold", "1"]) == 0
        assert capsys.readouterr().out.startswith("MAP 1.000")

    @pytest.mark.parametrize("threshold", ["0", "-3"])
    def test_overlap_threshold_below_one_exits_2(self, workspace, capsys, threshold):
        _build_artifacts(workspace)
        capsys.readouterr()
        code = main(
            [
                "eval",
                "--questions", str(workspace["questions"]),
                "--index", str(workspace["index"]),
                "--embeddings", str(workspace["embeddings"]),
                "--method", "cd",
                "--overlap-threshold", threshold,
                "--out", str(workspace["run"]),
            ]
        )
        assert code == 2
        assert f"overlap threshold must be >= 1, got {threshold}" in capsys.readouterr().err
        assert not workspace["run"].exists()

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["eval", "--overlap-threshold", "0"], "overlap threshold must be >= 1"),
            (["eval", "--k", "0"], "k must be >= 1, got 0"),
            (["query", "--k", "0", "--question", "alpha"], "k must be >= 1, got 0"),
            (["eval", "--method", "cd-q"], "cd-q requires a question idf table (--question-idf)"),
        ],
    )
    def test_bad_flags_refused_before_loading(
        self, workspace, capsys, monkeypatch, argv, message
    ):
        _build_artifacts(workspace)
        capsys.readouterr()

        def must_not_load(*_args, **_kwargs):
            pytest.fail("an artifact was loaded before the flags were checked")

        # the commands import the loaders at call time, so patching the
        # defining modules reaches them
        monkeypatch.setattr(retrieval, "load_index", must_not_load)
        monkeypatch.setattr(embeddings, "load_embeddings", must_not_load)
        monkeypatch.setattr(idf, "load_idf", must_not_load)
        argv = argv + ["--index", str(workspace["index"])]
        argv += ["--embeddings", str(workspace["embeddings"])]
        if argv[0] == "eval":
            argv += ["--questions", str(workspace["questions"])]
            argv += ["--out", str(workspace["run"])]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_question_without_indexed_docs_warns(self, workspace, capsys):
        _build_artifacts(workspace)
        extended = json.loads(json.dumps(QUESTIONS))
        extended["questions"].append(
            {"id": "q5", "body": "alpha", "documents": ["ghost"]}
        )
        workspace["questions"].write_text(json.dumps(extended), encoding="utf-8")
        capsys.readouterr()
        with pytest.warns(UserWarning, match="q5"):
            code = main(
                [
                    "eval",
                    "--questions", str(workspace["questions"]),
                    "--index", str(workspace["index"]),
                    "--embeddings", str(workspace["embeddings"]),
                    "--method", "cd",
                    "--out", str(workspace["run"]),
                ]
            )
        assert code == 0
        payload = json.loads(workspace["run"].read_text(encoding="utf-8"))
        assert len(payload["questions"]) == 5


def _write_run(path, method, scores):
    per_question = {}
    for qid, ap in scores.items():
        ranking = RankedList(question_id=qid, method=Method(method), items=[])
        per_question[qid] = QuestionScore(
            ranking=ranking, ap=ap, precision=ap, recall=ap
        )
    run = RunResult(method=method, per_question=per_question)
    save_run(run, str(path))


class TestCompare:
    def test_run_compared_with_itself(self, workspace, capsys):
        _write_run(workspace["run"], "cd", {"q1": 0.5, "q2": 0.25, "q3": 1.0})
        code = main(
            ["compare", "--run-a", str(workspace["run"]),
             "--run-b", str(workspace["run"])]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p 1.0000" in out
        assert "not significant" in out

    def test_five_unanimous_differences(self, workspace, capsys):
        run_a = workspace["run"].parent / "a.json"
        run_b = workspace["run"].parent / "b.json"
        scores_a = {f"q{i}": 0.5 + 0.08 * i for i in range(1, 6)}
        scores_b = {qid: ap - 0.01 * i for i, (qid, ap) in enumerate(scores_a.items(), start=1)}
        _write_run(run_a, "cd", scores_a)
        _write_run(run_b, "cd", scores_b)
        code = main(
            ["compare", "--run-a", str(run_a), "--run-b", str(run_b), "--metric", "ap"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "W 0" in out
        assert "p 0.0625" in out
        assert "not significant" in out

    def test_disjoint_question_sets_exit_2(self, workspace, capsys):
        run_a = workspace["run"].parent / "a.json"
        run_b = workspace["run"].parent / "b.json"
        _write_run(run_a, "cd", {"q1": 0.5})
        _write_run(run_b, "cd", {"q2": 0.5})
        code = main(["compare", "--run-a", str(run_a), "--run-b", str(run_b)])
        assert code == 2
        err = capsys.readouterr().err
        assert "q1" in err and "q2" in err

    @pytest.mark.parametrize("bad_ap", [float("nan"), 7.5])
    def test_score_outside_unit_interval_exit_2(self, workspace, capsys, bad_ap):
        run_a = workspace["run"].parent / "a.json"
        run_b = workspace["run"].parent / "b.json"
        scores = {f"q{i}": 0.5 + 0.08 * i for i in range(1, 6)}
        _write_run(run_a, "cd", scores)
        _write_run(run_b, "cd", scores)
        # save_run refuses NaN, so the bad score is written into the file.
        payload = json.loads(run_b.read_text(encoding="utf-8"))
        payload["questions"][2]["ap"] = bad_ap
        run_b.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["compare", "--run-a", str(run_a), "--run-b", str(run_b)])
        assert code == 2
        assert "question 'q3': ap" in capsys.readouterr().err

    def test_non_numeric_score_exit_2(self, workspace, capsys):
        run_a = workspace["run"].parent / "a.json"
        run_b = workspace["run"].parent / "b.json"
        _write_run(run_a, "cd", {"q1": 0.5, "q2": 0.25})
        _write_run(run_b, "cd", {"q1": 0.5, "q2": 0.25})
        payload = json.loads(run_b.read_text(encoding="utf-8"))
        payload["questions"][1]["recall"] = "x"
        run_b.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["compare", "--run-a", str(run_a), "--run-b", str(run_b)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --run-b {run_b}: question 'q2': recall 'x' is not a number\n"
        )

    def test_non_string_question_id_exit_2(self, workspace, capsys):
        run_a = workspace["run"].parent / "a.json"
        run_b = workspace["run"].parent / "b.json"
        _write_run(run_a, "cd", {"q1": 0.5, "q2": 0.25})
        _write_run(run_b, "cd", {"q1": 0.5, "q2": 0.25})
        payload = json.loads(run_a.read_text(encoding="utf-8"))
        payload["questions"][0]["id"] = 1
        run_a.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["compare", "--run-a", str(run_a), "--run-b", str(run_b)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --run-a {run_a}: questions[0]: id 1 is not a non-empty string\n"
        )

    def test_repeated_question_exit_2(self, workspace, capsys):
        run_a = workspace["run"].parent / "a.json"
        run_b = workspace["run"].parent / "b.json"
        _write_run(run_a, "cd", {"q1": 0.5, "q2": 0.25})
        _write_run(run_b, "cd", {"q1": 0.5, "q2": 0.25})
        payload = json.loads(run_b.read_text(encoding="utf-8"))
        payload["questions"].append(dict(payload["questions"][0], ap=1.0))
        run_b.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["compare", "--run-a", str(run_a), "--run-b", str(run_b)])
        assert code == 2
        assert "repeats question 'q1'" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["1.5", "nan", "0", "1", "-0.05"])
    def test_alpha_outside_unit_interval_exits_2(self, workspace, capsys, alpha):
        run_a = workspace["run"].parent / "a.json"
        run_b = workspace["run"].parent / "b.json"
        _write_run(run_a, "cd", {"q1": 0.6, "q2": 0.7, "q3": 0.4})
        _write_run(run_b, "cd", {"q1": 0.3, "q2": 0.6, "q3": 0.6})
        code = main(
            ["compare", "--run-a", str(run_a), "--run-b", str(run_b), "--alpha", alpha]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "alpha must be in (0, 1)" in captured.err

    def test_metric_selection(self, workspace, capsys):
        run_a = workspace["run"].parent / "a.json"
        run_b = workspace["run"].parent / "b.json"
        _write_run(run_a, "cd", {"q1": 0.9, "q2": 0.8})
        _write_run(run_b, "cd-q", {"q1": 0.1, "q2": 0.2})
        for metric in ("ap", "precision", "recall"):
            assert main(
                ["compare", "--run-a", str(run_a), "--run-b", str(run_b),
                 "--metric", metric]
            ) == 0


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _build_fixture_artifacts(tmp_path):
    """Both idf tables and the index for the checked-in corpus."""
    doc_corpus = tmp_path / "doc_corpus.txt"
    doc_corpus.write_text(
        "".join(
            line.split("\t", 1)[1]
            for line in (FIXTURES / "docs.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
            if "\t" in line
        ),
        encoding="utf-8",
    )
    doc_idf = tmp_path / "doc_idf.tsv"
    question_idf = tmp_path / "question_idf.tsv"
    index = tmp_path / "index"
    assert main(["idf-build", "--corpus", str(doc_corpus), "--unit", "doc",
                 "--out", str(doc_idf)]) == 0
    assert main(["idf-build", "--corpus", str(FIXTURES / "question_corpus.txt"),
                 "--unit", "question", "--out", str(question_idf)]) == 0
    assert main(["index-build", "--docs", str(FIXTURES / "docs.tsv"),
                 "--embeddings", str(FIXTURES / "embeddings.txt"),
                 "--doc-idf", str(doc_idf), "--out", str(index)]) == 0
    return doc_idf, question_idf, index


class TestCheckedInFixturePipeline:
    """Drives the full command pipeline over the checked-in corpus."""

    # SHA-256 of the run files that the longest-common-run judging code
    # wrote for the checked-in fixture (computed before the n-gram judging
    # replaced it); rankings, judgments and metrics must stay byte for byte.
    PINNED_RUNS = {
        "cd": "00dc74c466b262306cfef1de50c9133694f8d71684e10de33f449a5f2c2c0f56",
        "cd-idf": "2bca8b05da2700fadfc2401afe2da1090411cce2b1bb1cfde4851aa8a028d462",
        "cd-q": "0fade6d3eb5013c5341caa96fb1635effd69584b3468c971eabb1b7620ed8dae",
        "rnd": "abcc46f36f53393d77b8cbbdd66bb955f1e68ee29f604cbd73a26809c65e1e06",
    }

    @pytest.mark.parametrize("method", sorted(PINNED_RUNS))
    def test_run_file_bytes_pinned(self, tmp_path, method):
        doc_idf, question_idf, index = _build_fixture_artifacts(tmp_path)
        run = tmp_path / "run.json"
        assert main(["eval", "--questions", str(FIXTURES / "questions.json"),
                     "--index", str(index),
                     "--embeddings", str(FIXTURES / "embeddings.txt"),
                     "--doc-idf", str(doc_idf), "--question-idf", str(question_idf),
                     "--method", method, "--out", str(run)]) == 0
        assert hashlib.sha256(run.read_bytes()).hexdigest() == self.PINNED_RUNS[method]
        assert load_run(run).method == method

    # Each fixture question has 8 candidates, so at the default k = 10 rnd
    # returns them all whatever its seed; at k = 3 the run pins its draws.
    PINNED_RND_K3 = "062b76776bd380b2cd4199d55c59dbb4760bbdfacf438b6969a0b406d41bf513"

    def test_rnd_draws_pinned_below_the_candidate_counts(self, tmp_path):
        _doc_idf, _question_idf, index = _build_fixture_artifacts(tmp_path)
        run = tmp_path / "run.json"
        assert main(["eval", "--questions", str(FIXTURES / "questions.json"),
                     "--index", str(index), "--method", "rnd", "--k", "3",
                     "--out", str(run)]) == 0
        assert all(len(q["ranking"]) == 3 for q in json.loads(run.read_text())["questions"])
        assert hashlib.sha256(run.read_bytes()).hexdigest() == self.PINNED_RND_K3

    def test_cd_q_improvement_is_significant(self, tmp_path, capsys):
        doc_idf, question_idf, index = _build_fixture_artifacts(tmp_path)
        run_cd = tmp_path / "run_cd.json"
        run_cdq = tmp_path / "run_cdq.json"
        capsys.readouterr()

        assert main(["eval", "--questions", str(FIXTURES / "questions.json"),
                     "--index", str(index),
                     "--embeddings", str(FIXTURES / "embeddings.txt"),
                     "--doc-idf", str(doc_idf), "--method", "cd",
                     "--out", str(run_cd)]) == 0
        assert capsys.readouterr().out.strip() == "MAP 0.230 P 0.125 R 1.000 F1 0.222"

        assert main(["eval", "--questions", str(FIXTURES / "questions.json"),
                     "--index", str(index),
                     "--embeddings", str(FIXTURES / "embeddings.txt"),
                     "--doc-idf", str(doc_idf), "--question-idf", str(question_idf),
                     "--method", "cd-q", "--out", str(run_cdq)]) == 0
        assert capsys.readouterr().out.strip() == "MAP 0.819 P 0.125 R 1.000 F1 0.222"

        # every question improves under cd-q, so W = 0 and the exact
        # two-sided p over 12 paired differences is 2/4096
        assert main(["compare", "--run-a", str(run_cdq), "--run-b", str(run_cd),
                     "--metric", "ap"]) == 0
        out = capsys.readouterr().out
        assert "W 0" in out
        assert "p 0.0005" in out
        assert "not significant" not in out
        assert "significant" in out


class TestLoaderRefusals:
    @pytest.mark.parametrize(
        ("command", "flag"),
        [
            ("index-build", "--docs"),
            ("index-build", "--embeddings"),
            ("index-build", "--doc-idf"),
            ("query", "--index"),
            ("query", "--embeddings"),
            ("query", "--doc-idf"),
            ("query", "--question-idf"),
            ("eval", "--index"),
            ("eval", "--embeddings"),
            ("eval", "--doc-idf"),
            ("eval", "--question-idf"),
            ("eval", "--questions"),
            ("compare", "--run-a"),
            ("compare", "--run-b"),
        ],
    )
    def test_refusal_names_flag_and_path(self, workspace, capsys, command, flag):
        _build_artifacts(workspace)
        run_a, run_b = workspace["run"].parent / "a.json", workspace["run"].parent / "b.json"
        _write_run(run_a, "cd", {"q1": 0.5})
        _write_run(run_b, "cd", {"q1": 0.25})
        ranking = [
            "--index", workspace["index"], "--embeddings", workspace["embeddings"],
            "--doc-idf", workspace["doc_idf"], "--question-idf", workspace["question_idf"],
            "--method", "cd-q",
        ]
        argv = {
            "index-build": [
                "--docs", workspace["docs"], "--embeddings", workspace["embeddings"],
                "--doc-idf", workspace["doc_idf"], "--out", workspace["index"],
            ],
            "query": ranking + ["--question", "alpha"],
            "eval": ranking + ["--questions", workspace["questions"], "--out", workspace["run"]],
            "compare": ["--run-a", run_a, "--run-b", run_b],
        }[command]
        # the same bad line for every input, so only the prefix tells them apart
        bad = workspace["run"].parent / "bad.txt"
        bad.write_text("bad\n", encoding="utf-8")
        argv[argv.index(flag) + 1] = bad
        capsys.readouterr()
        assert main([command, *map(str, argv)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} {bad}: ")

    @pytest.mark.parametrize(
        ("command", "flag", "kind"),
        [("eval", "--questions", "question set"), ("compare", "--run-a", "run file")],
    )
    def test_json_nested_too_deep_exits_2(self, workspace, capsys, command, flag, kind):
        # Deeper than the JSON parser can recurse.
        deep = workspace["run"].parent / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        argv = {
            "eval": ["--index", workspace["index"], "--method", "rnd", "--questions", deep,
                     "--out", workspace["run"]],
            "compare": ["--run-a", deep, "--run-b", deep],
        }[command]
        capsys.readouterr()
        assert main([command, *map(str, argv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {deep}: malformed {kind}: "), err
        assert "recursion" in err
        assert not workspace["run"].exists()


    @pytest.mark.parametrize(
        ("command", "out", "error"),
        [
            ("idf-build", "no/doc_idf.tsv", "[Errno 2] No such file or directory"),
            ("index-build", "docs.tsv", "[Errno 17] File exists"),
            ("eval", "no/run.json", "[Errno 2] No such file or directory"),
        ],
    )
    def test_failed_write_names_out(self, workspace, capsys, command, out, error):
        _build_artifacts(workspace)
        out = workspace["docs"].parent / out
        argv = {
            "idf-build": ["--corpus", workspace["doc_corpus"], "--unit", "doc"],
            "index-build": [
                "--docs", workspace["docs"], "--embeddings", workspace["embeddings"],
                "--doc-idf", workspace["doc_idf"],
            ],
            "eval": [
                "--index", workspace["index"], "--embeddings", workspace["embeddings"],
                "--questions", workspace["questions"],
            ],
        }[command]
        capsys.readouterr()
        assert main([command, *map(str, argv), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out {out}: {error}: {str(out)!r}\n"
        assert workspace["docs"].read_text(encoding="utf-8") == DOCS_TSV


class TestCarriageReturns:
    """A file is read in text mode, where a lone "\\r" ends a line: the
    library and the CLI read the same bytes the same way."""

    def test_embedding_line_broken_by_a_carriage_return_refused(self, workspace, capsys):
        _build_artifacts(workspace)
        path = workspace["embeddings"].parent / "cr.txt"
        path.write_bytes(b"a 1.0\r2.0\nb 3.0 4.0\n")
        message = "line 2: expected '<token> <v1> ...', got '2.0'"
        with pytest.raises(ValueError) as excinfo:
            embeddings.load_embeddings(path)
        assert str(excinfo.value) == message
        for argv in (
            ["index-build", "--docs", workspace["docs"], "--doc-idf", workspace["doc_idf"],
             "--out", workspace["index"]],
            ["query", "--index", workspace["index"], "--question", "alpha"],
        ):
            capsys.readouterr()
            assert main([*map(str, argv), "--embeddings", str(path)]) == 2
            assert capsys.readouterr().err == f"error: --embeddings {path}: {message}\n"

    def test_idf_rows_split_by_a_carriage_return_read_as_two(self, workspace, capsys):
        _build_artifacts(workspace)
        cr, lf = workspace["doc_idf"].parent / "cr.tsv", workspace["doc_idf"].parent / "lf.tsv"
        cr.write_bytes(b"#n_docs 2 docs\na\t1\rb\t2\n")
        lf.write_bytes(b"#n_docs 2 docs\na\t1\nb\t2\n")
        assert idf.load_idf(cr) == idf.load_idf(lf) == idf.IdfTable(2, {"a": 1, "b": 2}, "docs")
        outputs = []
        for path in (cr, lf):
            index = workspace["index"].parent / f"index-{path.stem}"
            assert main([
                "index-build", "--docs", str(workspace["docs"]),
                "--embeddings", str(workspace["embeddings"]), "--doc-idf", str(path),
                "--out", str(index),
            ]) == 0
            capsys.readouterr()
            assert main([
                "query", "--index", str(index), "--embeddings", str(workspace["embeddings"]),
                "--doc-idf", str(path), "--method", "cd-idf", "--question", "alpha beta",
            ]) == 0
            files = sorted(index.iterdir())
            outputs.append(([f.read_bytes() for f in files], capsys.readouterr().out))
        assert outputs[0] == outputs[1]


class TestOverflow:
    BIG = EMBEDDINGS.replace("5 2\n", "6 2\n") + "huge 1e200 1e200\n"

    def test_index_build_refuses_an_overflowing_passage(self, workspace, capsys):
        _build_artifacts(workspace)
        workspace["embeddings"].write_text(self.BIG, encoding="utf-8")
        workspace["docs"].write_text("d1\tAlpha alpha. Huge beta.\n", encoding="utf-8")
        capsys.readouterr()
        code = main([
            "index-build", "--docs", str(workspace["docs"]),
            "--embeddings", str(workspace["embeddings"]),
            "--doc-idf", str(workspace["doc_idf"]), "--out", str(workspace["index"]),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --embeddings {workspace['embeddings']}: "
            "passage 'd1#1': uniform centroid norm inf is not finite\n"
        )

    def test_query_refuses_an_overflowing_question(self, workspace, capsys):
        # No passage holds "huge", so the index builds from the big table.
        workspace["embeddings"].write_text(self.BIG, encoding="utf-8")
        _build_artifacts(workspace)
        capsys.readouterr()
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = main([
                "query", "--index", str(workspace["index"]),
                "--embeddings", str(workspace["embeddings"]), "--question", "huge alpha",
            ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: question 'huge alpha': centroid norm inf is not finite\n"
        )

    @pytest.mark.parametrize("flag", ["--doc-idf", "--question-idf"])
    def test_a_document_count_beyond_the_float_range_exits_2(self, workspace, capsys, flag):
        # 401 digits: under int's parse limit, but n_docs + 1 has no float value.
        _build_artifacts(workspace)
        big = workspace["doc_idf"].parent / "big.tsv"
        big.write_text(f"#n_docs {10**400} docs\nalpha\t1\n", encoding="utf-8")
        argv = {
            "--doc-idf": [
                "index-build", "--docs", workspace["docs"], "--doc-idf", big,
                "--embeddings", workspace["embeddings"], "--out", workspace["index"],
            ],
            "--question-idf": [
                "query", "--index", workspace["index"], "--embeddings", workspace["embeddings"],
                "--method", "cd-q", "--question-idf", big, "--question", "alpha",
            ],
        }[flag]
        capsys.readouterr()
        assert main(list(map(str, argv))) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} {big}: line 1: document count N + 1 has no float value\n"
        )


class TestEntryPoint:
    def test_unexpected_exception_exits_1(self, workspace, capsys, monkeypatch):
        def fails(_path):
            raise RuntimeError("boom")

        # cmd_compare looks load_run up in runs on each call
        monkeypatch.setattr(runs, "load_run", fails)
        code = main(["compare", "--run-a", str(workspace["run"]), "--run-b", str(workspace["run"])])
        assert code == 1
        assert capsys.readouterr().err == "internal error: boom\n"

    def test_one_parser_serves_every_call(self, workspace, capsys):
        corpus_b = workspace["doc_corpus"].parent / "corpus_b.txt"
        corpus_b.write_text("zeta eta\nzeta\n", encoding="utf-8")
        assert cli.build_parser() is cli.build_parser()
        for corpus in (workspace["doc_corpus"], corpus_b):
            argv = ["idf-build", "--corpus", str(corpus), "--unit", "doc",
                    "--out", str(workspace["doc_idf"])]
            assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "n_docs 2 vocab 2"
        table = idf.load_idf(workspace["doc_idf"])
        assert (table.n_docs, table.df) == (2, {"zeta": 2, "eta": 1})
        with pytest.raises(SystemExit) as usage:
            main(["idf-build", "--unit", "doc"])
        assert usage.value.code == 2
        assert "--corpus" in capsys.readouterr().err

    def test_module_invocation(self, workspace):
        result = subprocess.run(
            [
                sys.executable, "-m", "centroidrank.cli",
                "idf-build",
                "--corpus", str(workspace["doc_corpus"]),
                "--unit", "doc",
                "--out", str(workspace["doc_idf"]),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "n_docs 2" in result.stdout


# Runs the CLI in a fresh interpreter and reports, after the command
# returns, whether numpy was ever imported.
_NUMPY_PROBE = (
    "import sys\n"
    "from centroidrank.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('numpy loaded' if 'numpy' in sys.modules else 'numpy absent')\n"
    "sys.exit(code)\n"
)


# Runs the CLI, or without arguments only imports numpy, in a fresh
# interpreter and reports the process's thread count and
# OPENBLAS_NUM_THREADS after it.
_THREADS_PROBE = (
    "import os, sys\n"
    "if sys.argv[1:]:\n"
    "    from centroidrank.cli import main\n"
    "    assert main(sys.argv[1:]) == 0\n"
    "else:\n"
    "    import numpy\n"
    "threads = open('/proc/self/status').read().split('Threads:')[1].split()[0]\n"
    "print(threads, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
)


def _threads_probe(caller_value, *argv):
    """(threads, OPENBLAS_NUM_THREADS) after the probe, run with the
    caller's OPENBLAS_NUM_THREADS ``caller_value`` (None: unset)."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if caller_value is not None:
        env["OPENBLAS_NUM_THREADS"] = caller_value
    result = subprocess.run(
        [sys.executable, "-c", _THREADS_PROBE, *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    threads, value = result.stdout.splitlines()[-1].split()
    return int(threads), None if value == "None" else value


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
class TestBlasThreads:
    """No command makes a threaded BLAS call, so ``main`` has numpy start
    OpenBLAS on one thread, unless the caller set OPENBLAS_NUM_THREADS."""

    @staticmethod
    def _query(workspace):
        _build_artifacts(workspace)
        return ("query", "--index", workspace["index"], "--embeddings", workspace["embeddings"],
                "--question", "alpha", "--k", "1")

    def test_a_command_starts_no_blas_pool(self, workspace):
        assert _threads_probe(None, *self._query(workspace)) == (1, None)

    def test_the_callers_count_stands(self, workspace):
        bare = _threads_probe("2")
        assert _threads_probe("2", *self._query(workspace)) == bare
        assert bare[1] == "2"

    def test_main_leaves_the_environment_as_it_was(self, workspace, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        argv = [str(arg) for arg in self._query(workspace)]
        before = dict(os.environ)
        assert main(argv) == 0
        assert main([*argv, "--k", "0"]) == 2
        assert dict(os.environ) == before


def _numpy_probe(*argv):
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *map(str, argv)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


class TestNumpyFreeCommands:
    """``idf-build`` and ``compare`` do no vector math and never load numpy."""

    def test_package_import(self):
        result = subprocess.run(
            [sys.executable, "-c", "import sys, centroidrank; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_idf_build(self, workspace):
        out = _numpy_probe(
            "idf-build", "--corpus", workspace["doc_corpus"], "--unit", "doc",
            "--out", workspace["doc_idf"],
        )
        assert out == ["n_docs 2 vocab 5", "numpy absent"]

    def test_compare_on_fixture_runs(self, tmp_path):
        doc_idf, question_idf, index = _build_fixture_artifacts(tmp_path)
        runs = {}
        for method in ("cd", "cd-q"):
            runs[method] = tmp_path / f"run_{method}.json"
            assert main(["eval", "--questions", str(FIXTURES / "questions.json"),
                         "--index", str(index),
                         "--embeddings", str(FIXTURES / "embeddings.txt"),
                         "--doc-idf", str(doc_idf), "--question-idf", str(question_idf),
                         "--method", method, "--out", str(runs[method])]) == 0
        out = _numpy_probe("compare", "--run-a", runs["cd-q"], "--run-b", runs["cd"])
        assert out == ["W 0 p 0.0005 significant", "numpy absent"]

    def test_query_does_load_numpy(self, workspace):
        # the probe itself can see numpy when a command uses it
        _build_artifacts(workspace)
        out = _numpy_probe(
            "query", "--index", workspace["index"], "--embeddings", workspace["embeddings"],
            "--question", "alpha", "--k", "1",
        )
        assert out[-1] == "numpy loaded"
