"""Mutation probe of the command line: damaged inputs are refused, by name.

Each input a user hands the CLI (the embedding table, both idf tables, the
docs TSV, an ``idf-build`` corpus, the question set, a run file, and an
index's ``passages.json``, ``doc_idf.tsv`` and ``header.json``) is damaged a few hundred
times from one fixed seed and given to the command that reads it, through
``main()``. Every run must exit 0 or 2, never 1, and every exit 2 must
begin its message with the flag and the path of the damaged input, or, for
a header that names another fingerprint, name that fingerprint as the one
the index records.
"""

import io
import json
import random
import warnings
from contextlib import redirect_stderr, redirect_stdout

from centroidrank.cli import main

from test_cli import FIXTURES, _build_fixture_artifacts

SEED = 2018
MUTATIONS = 200
INDEX_FILES = ("uniform.npy", "idf.npy", "passages.json", "doc_idf.tsv", "header.json")

# Pieces spliced into an input: separators, number syntax, JSON syntax, a
# lone UTF-8 lead byte, bytes that are never UTF-8, and non-ASCII text.
PIECES = [
    b"\t", b"\n", b"\r", b" ", b"\x00", b"\xff", b"\xc3", b"-", b".", b"e", b"9",
    b"0", b"1", b"-0", b"1e200", b"1e309", b"nan", b"inf", b'"', b"{", b"}", b"[",
    b"]", b",", b":", b"#", b"\\", b"null", b"true", "é".encode(), "\u2028".encode(),
]


def _mutate(rng: random.Random, data: bytes) -> bytes:
    """One random edit: cut, insert, replace, truncate, or repeat or drop a line."""
    kind = rng.randrange(6)
    i = rng.randrange(len(data) + 1)
    j = min(len(data), i + rng.randrange(1, 12))
    if kind == 0:
        return data[:i] + data[j:]
    if kind == 1:
        return data[:i] + rng.choice(PIECES) + data[i:]
    if kind == 2:
        return data[:i] + rng.choice(PIECES) + data[j:]
    if kind == 3:
        return data[:i]
    lines = data.splitlines(keepends=True)
    if not lines:
        return data
    line = lines.pop(rng.randrange(len(lines)))
    if kind == 4:
        lines[rng.randrange(len(lines) + 1) : 0] = [line, line]
    return b"".join(lines)


def _damaging(argv: list, flag: str) -> list:
    """``argv`` with the value of the last ``flag`` replaced by "@"."""
    at = len(argv) - 1 - argv[::-1].index(flag)
    return [*argv[: at + 1], "@", *argv[at + 2 :]]


def test_damaged_inputs_exit_0_or_2_naming_the_input(tmp_path):
    doc_idf, question_idf, index = _build_fixture_artifacts(tmp_path)
    embeddings, docs = FIXTURES / "embeddings.txt", FIXTURES / "docs.tsv"
    corpus, questions = FIXTURES / "question_corpus.txt", FIXTURES / "questions.json"
    run_file = tmp_path / "run.json"
    assert main(["eval", "--questions", str(questions),
                 "--index", str(index), "--embeddings", str(embeddings),
                 "--method", "cd", "--out", str(run_file)]) == 0
    # (input, flag, argv); the last value of the flag is replaced by the
    # damaged copy, and "OUT" by a fresh output path.
    index_build = ["index-build", "--docs", docs, "--embeddings", embeddings,
                   "--doc-idf", doc_idf, "--out", "OUT"]
    cases = {
        "embeddings": (embeddings, "--embeddings", index_build),
        "doc idf": (doc_idf, "--doc-idf", index_build),
        "question idf": (question_idf, "--question-idf", [
            "query", "--index", index, "--embeddings", embeddings,
            "--question-idf", question_idf, "--method", "cd-q", "--question", "Which gene?"]),
        "docs": (docs, "--docs", index_build),
        "corpus": (corpus, "--corpus", [
            "idf-build", "--corpus", corpus, "--corpus", corpus,
            "--unit", "question", "--out", "OUT"]),
        "questions": (questions, "--questions", [
            "eval", "--questions", questions, "--index", index, "--embeddings", embeddings,
            "--method", "cd", "--out", "OUT"]),
        "run": (run_file, "--run-b", ["compare", "--run-a", run_file, "--run-b", run_file]),
        "passages": (index / "passages.json", "--index", [
            "query", "--index", index, "--embeddings", embeddings, "--question", "Which gene?"]),
        "index doc idf": (index / "doc_idf.tsv", "--index", [
            "query", "--index", index, "--embeddings", embeddings, "--method", "cd-idf",
            "--question", "Which gene?"]),
        "index header": (index / "header.json", "--index", [
            "query", "--index", index, "--embeddings", embeddings, "--question", "Which gene?"]),
    }
    rng = random.Random(SEED)
    exits = {}
    faults = []
    for name, (source, flag, argv) in cases.items():
        original = source.read_bytes()
        argv = _damaging(argv, flag)
        for n in range(MUTATIONS):
            damaged = _mutate(rng, original)
            # Fresh names throughout: rewriting one file in place made the
            # probe wait on the disk.
            if source.parent == index:  # a copy of the index with one file damaged
                path = tmp_path / f"index-{name.replace(' ', '-')}-{n}"
                path.mkdir()
                for kept in INDEX_FILES:
                    if kept != source.name:
                        (path / kept).symlink_to(index / kept)
                (path / source.name).write_bytes(damaged)
            else:
                path = tmp_path / f"{n}-{source.name}"
                path.write_bytes(damaged)
            out = tmp_path / f"out-{name.replace(' ', '-')}-{n}"
            args = [str(path if a == "@" else out if a == "OUT" else a) for a in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            # Warnings do not raise, as on the command line.
            with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
                warnings.simplefilter("ignore")
                code = main(args)
            exits[name, code] = exits.get((name, code), 0) + 1
            message = stderr.getvalue()
            named = message.startswith(f"error: {flag} {path}: ")
            if name == "index header" and code == 2 and not named:
                # A header naming another fingerprint binds the index to
                # other bytes, so the embedding file given is refused.
                recorded = json.loads(damaged)["embeddings_fingerprint"]
                named = message.endswith(f", but the index records {recorded}\n")
            if code not in (0, 2) or (code == 2 and not named):
                faults.append((name, code, damaged, message))
    assert not faults, faults[:5]
    # Each input was both accepted and refused, so the probe reached both paths.
    for name in cases:
        assert exits.get((name, 0)) and exits.get((name, 2)), (name, exits)
