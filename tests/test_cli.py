import hashlib
import json
import pathlib
import subprocess
import sys

import pytest

from centroidrank import (
    Method,
    QuestionScore,
    RankedList,
    RunResult,
    aggregate,
    load_index,
    load_run,
    save_run,
)
from centroidrank import embeddings, idf, retrieval
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
        tsv = oracle_index_tsv(
            reloaded.dim, reloaded.passages, reloaded.uniform.tolist(), reloaded.idf.tolist()
        )
        assert hashlib.sha256(tsv.encode("utf-8")).hexdigest() == (
            "5297c5205199f15dc48601672a77f731cacf5baf48ee3513ed93e533fe36a6f8"
        )

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
        assert capsys.readouterr().err.startswith("error: line 4: malformed float (")

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
        assert "duplicate" in capsys.readouterr().err

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
        assert [tuple(p) for p in reloaded.passages] == [("d9#0", "d9", "Gamma gamma.")]
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

    @pytest.mark.parametrize("damage", ["truncated", "empty", "not-npy"])
    def test_unreadable_matrix_file_exits_2_naming_it(self, workspace, capsys, damage):
        _build_artifacts(workspace)
        matrix = workspace["index"] / "uniform.npy"
        data = matrix.read_bytes()
        matrix.write_bytes(
            {"truncated": data[:-5], "empty": b"", "not-npy": b"#dim 2\n"}[damage]
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
            "error: uniform.npy: not a readable .npy matrix ("
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
        _build_artifacts(workspace)
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
        assert "dimension" in capsys.readouterr().err

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
            (
                ["query", "--method", "cd-idf", "--question", "alpha"],
                "cd-idf requires a document idf table (--doc-idf)",
            ),
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
    run = RunResult(
        method=method,
        per_question=per_question,
        aggregates=aggregate((ap, ap, ap) for ap in scores.values()),
    )
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
        _write_run(run_b, "cd", {**scores, "q3": bad_ap})
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
        assert "error: question 'q2': recall 'x' is not a number" in capsys.readouterr().err

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


class TestEntryPoint:
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
