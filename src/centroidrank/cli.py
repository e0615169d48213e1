"""Command-line front end.

Subcommands wire the library into reproducible batch workflows:

* ``idf-build``    build an idf table from line-per-unit text corpora
* ``index-build``  build a sentence index from a doc-per-line TSV
* ``query``        rank passages for a single question
* ``eval``         score a question set and write a run file
* ``compare``      Wilcoxon signed-rank comparison of two run files

Exit codes: 0 success, 1 computational failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from bisect import bisect_left
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, TypeVar

# The parser needs only the numpy-free run names; each command imports the
# rest of the library itself, so ``idf-build`` and ``compare`` never load
# numpy.
from .runs import DEFAULT_CUTOFF, OVERLAP_THRESHOLD, Method, check_at_least_one, check_method

if TYPE_CHECKING:
    from .embeddings import EmbeddingTable
    from .idf import IdfTable
    from .retrieval import PassageIndex

_UNIT_LABELS = {"doc": "documents", "question": "questions"}

_T = TypeVar("_T")


def _load(flag: str, path: str, loader: Callable[[str], _T]) -> _T:
    """``loader(path)``; a refusal (exit 2) names the flag and its value,
    whether or not ``loader`` reads or writes the file at that path."""
    try:
        return loader(path)
    except (ValueError, OSError) as exc:
        raise ValueError(f"{flag} {path}: {exc}") from None


def _load_artifacts(
    args: argparse.Namespace, tokens: Iterable[str]
) -> tuple[PassageIndex, EmbeddingTable | None, IdfTable | None]:
    """Load the artifacts the query/eval flags name. An index that records
    its embedding file's fingerprint takes only that file, and parses only
    the rows of ``tokens``; ``--doc-idf`` must equal the index's table, and
    is parsed only when its bytes differ from the copy ``load_index`` read."""
    from .embeddings import load_embeddings
    from .idf import load_idf
    from .retrieval import _DOC_IDF, _check_dim, _has_doc_idf_bytes, load_index

    index = _load("--index", args.index, load_index)
    embeddings = (
        _load(
            "--embeddings",
            args.embeddings,
            lambda p: _check_dim(
                index, load_embeddings(p, tokens, index.embeddings_fingerprint)
            ),
        )
        if args.embeddings
        else None
    )
    if args.doc_idf and not _load(
        "--doc-idf", args.doc_idf, lambda p: _has_doc_idf_bytes(args.index, p)
    ):
        given = _load("--doc-idf", args.doc_idf, load_idf)
        if (given.n_docs, given.df) != (index.doc_idf.n_docs, index.doc_idf.df):
            field = "n_docs" if given.n_docs != index.doc_idf.n_docs else "df"
            raise ValueError(
                f"--doc-idf {args.doc_idf}: {field} differs from the table of "
                f"--index {args.index} ({_DOC_IDF})"
            )
    question_idf = (
        _load("--question-idf", args.question_idf, load_idf) if args.question_idf else None
    )
    return index, embeddings, question_idf


def _read_units(path: str) -> list[tuple[str, ...]]:
    from .text import tokenize

    with open(path, "r", encoding="utf-8") as handle:
        return [tokenize(line) for line in handle if line.strip()]


def cmd_idf_build(args: argparse.Namespace) -> None:
    from .idf import build_idf, save_idf

    units = []
    for path in args.corpus:
        units += _load("--corpus", path, _read_units)
    table = build_idf(units, label=_UNIT_LABELS[args.unit])
    _load("--out", args.out, lambda out: save_idf(table, out))
    print(f"n_docs {table.n_docs} vocab {len(table.df)}")


def _read_documents(path: str) -> list[tuple[str, str]]:
    documents = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw_line in enumerate(handle, start=1):
            line = raw_line.rstrip("\n")
            if not line.strip():
                continue
            doc_id, sep, text = line.partition("\t")
            if not sep or not doc_id:
                raise ValueError(
                    f"line {line_no}: expected '<doc_id>\\t<text>', got {line!r}"
                )
            if doc_id in seen:
                raise ValueError(f"line {line_no}: duplicate doc_id {doc_id!r}")
            seen.add(doc_id)
            documents.append((doc_id, text))
    return documents


def cmd_index_build(args: argparse.Namespace) -> None:
    from .embeddings import load_embeddings
    from .idf import load_idf
    from .retrieval import build_index, save_index

    documents = _load("--docs", args.docs, _read_documents)
    embeddings = _load("--embeddings", args.embeddings, load_embeddings)
    doc_idf = _load("--doc-idf", args.doc_idf, load_idf)
    # Duplicate documents are refused while reading, so a refusal here is a
    # centroid whose norm overflows: vectors too large for float64 sums.
    index = _load(
        "--embeddings", args.embeddings, lambda _path: build_index(documents, embeddings, doc_idf)
    )
    _load("--out", args.out, lambda out: save_index(index, out))
    if not documents:
        print("warning: empty document file, wrote an empty index", file=sys.stderr)
    print(f"{len(index)} passages")


def cmd_query(args: argparse.Namespace) -> None:
    from .retrieval import _candidate_rows, random_baseline, rank
    from .text import tokenize

    candidate_docs = None
    if args.docs is not None:
        candidate_docs = {d for d in args.docs.split(",") if d}
        if not candidate_docs:
            raise ValueError(f"--docs names no document id: {args.docs!r}")
    check_method(args.method, args.k, args.embeddings, args.question_idf)
    question = tokenize(args.question)
    index, embeddings, question_idf = _load_artifacts(args, question)
    _load("--docs", args.docs, lambda _docs: _candidate_rows(index, candidate_docs))
    if args.method == Method.RND:
        ranking = random_baseline(index, candidate_docs, args.k, seed=args.seed)
    else:
        ranking = rank(
            index,
            question,
            args.method,
            args.k,
            embeddings,
            question_idf=question_idf,
            candidate_docs=candidate_docs,
        )
    for position, (passage_id, score) in enumerate(ranking.items, start=1):
        row = bisect_left(index.passages, passage_id, key=attrgetter("passage_id"))
        print(f"{position}\t{passage_id}\t{score:.6f}\t{index.passages[row].text}")


def cmd_eval(args: argparse.Namespace) -> None:
    from .evaluation import evaluate_questions, save_run
    from .ingest import load_question_set
    from .text import tokenize

    check_at_least_one("overlap threshold", args.overlap_threshold)
    check_method(args.method, args.k, args.embeddings, args.question_idf)
    questions = _load("--questions", args.questions, load_question_set)
    tokens = {token for question in questions for token in tokenize(question.body)}
    index, embeddings, question_idf = _load_artifacts(args, tokens)
    run = evaluate_questions(
        index,
        questions,
        args.method,
        embeddings=embeddings,
        question_idf=question_idf,
        k=args.k,
        seed=args.seed,
        overlap_threshold=args.overlap_threshold,
    )
    _load("--out", args.out, lambda out: save_run(run, out))
    agg = run.aggregates
    print(
        f"MAP {agg.map:.3f} P {agg.precision:.3f} R {agg.recall:.3f} F1 {agg.f1:.3f}"
    )


def cmd_compare(args: argparse.Namespace) -> None:
    from .runs import load_run, wilcoxon_signed_rank

    run_a = _load("--run-a", args.run_a, load_run)
    run_b = _load("--run-b", args.run_b, load_run)
    ids_a = set(run_a.per_question)
    ids_b = set(run_b.per_question)
    if ids_a != ids_b:
        missing = sorted(ids_a.symmetric_difference(ids_b))
        raise ValueError(
            "run files cover different question sets; unmatched ids: "
            + ", ".join(missing)
        )
    ordered = sorted(ids_a)
    a_scores = [getattr(run_a.per_question[qid], args.metric) for qid in ordered]
    b_scores = [getattr(run_b.per_question[qid], args.metric) for qid in ordered]
    result = wilcoxon_signed_rank(a_scores, b_scores, alpha=args.alpha)
    verdict = "significant" if result.significant else "not significant"
    print(f"W {result.statistic:g} p {result.p_value:.4f} {verdict}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: building it
    costs a few ms, and ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="centroidrank",
        description="Weighted-centroid passage retrieval and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("idf-build", help="build an idf table from text corpora")
    p.add_argument(
        "--corpus",
        action="append",
        required=True,
        help="plain-text corpus, one unit per line (repeatable; files are unioned)",
    )
    p.add_argument("--unit", choices=sorted(_UNIT_LABELS), required=True)
    p.add_argument("--out", required=True, help="output idf TSV path")
    p.set_defaults(func=cmd_idf_build)

    p = sub.add_parser("index-build", help="build a sentence passage index")
    p.add_argument("--docs", required=True, help="TSV file: <doc_id>\\t<text> per line")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--doc-idf", required=True)
    p.add_argument("--out", required=True, help="output index directory")
    p.set_defaults(func=cmd_index_build)

    ranking = argparse.ArgumentParser(add_help=False)
    ranking.add_argument("--index", required=True, help="index directory from index-build")
    ranking.add_argument("--embeddings")
    ranking.add_argument("--doc-idf")
    ranking.add_argument("--question-idf")
    ranking.add_argument("--method", choices=[m.value for m in Method], default="cd")
    ranking.add_argument("--k", type=int, default=DEFAULT_CUTOFF)
    ranking.add_argument("--seed", type=int, default=0, help="seed for the rnd method")

    p = sub.add_parser("query", parents=[ranking], help="rank passages for one question")
    p.add_argument("--question", required=True, help="question text")
    p.add_argument("--docs", help="comma-separated doc ids restricting candidates")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "eval", parents=[ranking], help="evaluate a question set and write a run file"
    )
    p.add_argument("--questions", required=True, help="question-set JSON path")
    p.add_argument("--overlap-threshold", type=int, default=OVERLAP_THRESHOLD)
    p.add_argument("--out", required=True, help="output run JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="compare two run files")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--metric", choices=["ap", "precision", "recall"], default="ap")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # No command makes a threaded BLAS call, so numpy, when a command imports
    # it, need not start OpenBLAS's worker pool; a caller's own value stands.
    cap = "OPENBLAS_NUM_THREADS" not in os.environ
    if cap:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected: computational failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    finally:
        if cap:
            del os.environ["OPENBLAS_NUM_THREADS"]
    return 0


if __name__ == "__main__":
    sys.exit(main())
