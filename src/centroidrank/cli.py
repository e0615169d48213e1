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
import sys

from .embeddings import EmbeddingTable, load_embeddings
from .evaluation import (
    DEFAULT_CUTOFF,
    OVERLAP_THRESHOLD,
    _check_overlap_threshold,
    evaluate_questions,
    load_run,
    save_run,
    wilcoxon_signed_rank,
)
from .idf import IdfTable, build_idf, load_idf, save_idf
from .ingest import load_question_set
from .retrieval import (
    Method,
    PassageIndex,
    build_index,
    load_index,
    random_baseline,
    rank,
    save_index,
)
from .text import tokenize

_UNIT_LABELS = {"doc": "documents", "question": "questions"}


def _load_artifacts(
    args: argparse.Namespace,
) -> tuple[PassageIndex, EmbeddingTable | None, IdfTable | None, IdfTable | None]:
    """Check the query/eval flags, then load the artifacts they name."""
    method = Method(args.method)
    if args.k < 1:
        raise ValueError(f"k must be >= 1, got {args.k}")
    if method is not Method.RND and args.embeddings is None:
        raise ValueError(f"{method.value} requires --embeddings")
    if method is Method.CD_IDF and args.doc_idf is None:
        raise ValueError("cd-idf requires --doc-idf")
    if method is Method.CD_Q and args.question_idf is None:
        raise ValueError("cd-q requires --question-idf")
    index = load_index(args.index)
    embeddings = load_embeddings(args.embeddings) if args.embeddings else None
    if embeddings is not None and embeddings.dim != index.dim:
        raise ValueError(
            f"dimension mismatch: index has dim {index.dim}, "
            f"embeddings have dim {embeddings.dim}"
        )
    doc_idf = load_idf(args.doc_idf) if args.doc_idf else None
    question_idf = load_idf(args.question_idf) if args.question_idf else None
    return index, embeddings, doc_idf, question_idf


def cmd_idf_build(args: argparse.Namespace) -> int:
    units = []
    for path in args.corpus:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    units.append(tokenize(line))
    table = build_idf(units, label=_UNIT_LABELS[args.unit])
    save_idf(table, args.out)
    print(f"n_docs {table.n_docs} vocab {len(table.df)}")
    return 0


def _read_documents(path: str) -> list[tuple[str, str]]:
    documents = []
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
            documents.append((doc_id, text))
    return documents


def cmd_index_build(args: argparse.Namespace) -> int:
    documents = _read_documents(args.docs)
    embeddings = load_embeddings(args.embeddings)
    doc_idf = load_idf(args.doc_idf)
    index = build_index(documents, embeddings, doc_idf)
    save_index(index, args.out)
    if not documents:
        print("warning: empty document file, wrote an empty index", file=sys.stderr)
    print(f"{len(index)} passages")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    index, embeddings, doc_idf, question_idf = _load_artifacts(args)
    candidate_docs = (
        {d for d in args.docs.split(",") if d} if args.docs is not None else None
    )
    if args.method == Method.RND:
        ranking = random_baseline(index, candidate_docs, args.k, seed=args.seed)
    else:
        ranking = rank(
            index,
            tokenize(args.question),
            args.method,
            args.k,
            embeddings,
            doc_idf=doc_idf,
            question_idf=question_idf,
            candidate_docs=candidate_docs,
        )
    texts = {p.passage_id: p.text for p in index.passages}
    for position, (passage_id, score) in enumerate(ranking.items, start=1):
        print(f"{position}\t{passage_id}\t{score:.6f}\t{texts[passage_id]}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    _check_overlap_threshold(args.overlap_threshold)
    index, embeddings, doc_idf, question_idf = _load_artifacts(args)
    questions = load_question_set(args.questions)
    run = evaluate_questions(
        index,
        questions,
        args.method,
        embeddings=embeddings,
        doc_idf=doc_idf,
        question_idf=question_idf,
        k=args.k,
        seed=args.seed,
        overlap_threshold=args.overlap_threshold,
    )
    save_run(run, args.out)
    agg = run.aggregates
    print(
        f"MAP {agg.map:.3f} P {agg.precision:.3f} R {agg.recall:.3f} F1 {agg.f1:.3f}"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    run_a = load_run(args.run_a)
    run_b = load_run(args.run_b)
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
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected: computational failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
