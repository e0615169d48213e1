"""A catalogue of hand-made mutants of ``src/centroidrank`` and their runner.

Each mutant replaces one exact text of one module with another, and names
the tests that must fail on the mutated copy: a test function (every case
of it is run, and at least one must fail) or one case of it (``[...]``).
``tests/test_mutants.py`` checks in tier-1 that each replaced text occurs
exactly once in its module and that each named test function exists, so a
change that moves such code restates its mutants here. Run them with

    python tests/mutants.py [name ...]

from any directory. For one mutant at a time the runner copies ``src/`` to
a temporary directory, applies the mutant, and runs its tests with
``python -m pytest`` in a subprocess whose ``PYTHONPATH`` starts at the
copy. It prints ``killed`` or ``SURVIVED`` per mutant and exits 1 when one
survived. It needs only the standard library and the test suite's own
requirements.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "centroidrank"
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    module: str  # file name in src/centroidrank
    text: str  # occurs exactly once in the module
    replacement: str
    tests: tuple[str, ...]  # pytest node ids from the repository root
    recorded: str  # the CHANGES.md line that first records the mutant


MUTANTS = (
    Mutant(
        "doc-idf-flag-not-compared", "cli.py",
        "    if args.doc_idf and not _load(\n",
        "    if False and not _load(\n",
        (
            "tests/test_cli.py::TestIndexDocIdf::"
            "test_another_doc_idf_exits_2_naming_it_and_the_index",
        ),
        "CHANGES.md line 50, restated for the byte check in line 67",
    ),
    Mutant(
        "doc-idf-bytes-always-equal", "retrieval.py",
        "        return given.read(len(table) + 1) == table\n",
        "        return True\n",
        (
            "tests/test_cli.py::TestIndexDocIdf::"
            "test_another_doc_idf_exits_2_naming_it_and_the_index",
        ),
        "CHANGES.md line 67, restated for the bounded read in line 70",
    ),
    Mutant(
        "doc-idf-size-not-compared", "retrieval.py",
        "given.read(len(table) + 1)",
        "given.read()",
        ("tests/test_cli.py::TestIndexDocIdf::test_a_doc_idf_of_another_size_is_not_read",),
        "CHANGES.md line 70",
    ),
    Mutant(
        "refusal-printed-whole", "cli.py",
        "    if len(message) <= _MESSAGE_LIMIT:\n",
        "    if True:\n",
        (
            "tests/test_cli.py::TestLongRefusals::test_a_1_mb_field_is_capped",
            "tests/test_cli.py::TestLongRefusals::test_a_4000_digit_df_is_capped",
            "tests/test_cli.py::TestLongRefusals::test_a_long_signed_count_is_capped",
        ),
        "CHANGES.md line 70",
    ),
    Mutant(
        "blas-pool-not-capped", "cli.py",
        'cap = "OPENBLAS_NUM_THREADS" not in os.environ',
        "cap = False",
        ("tests/test_cli.py::TestBlasThreads::test_a_command_starts_no_blas_pool",),
        "CHANGES.md line 67",
    ),
    Mutant(
        "doc-idf-not-saved", "retrieval.py",
        "    save_idf(index.doc_idf, os.path.join(directory, _DOC_IDF))\n",
        "",
        (
            "tests/test_cli.py::TestIndexDocIdf::test_index_build_saves_the_table_it_used",
            "tests/test_metamorphic.py::"
            "test_doc_idf_flag_left_out_gives_the_same_runs_and_queries",
            "tests/test_metamorphic.py::test_library_saved_index_gives_the_same_runs_and_queries",
        ),
        "CHANGES.md line 50, there as index-build not writing doc_idf.tsv",
    ),
    Mutant(
        "doc-idf-saved-after-the-matrices", "retrieval.py",
        "    save_idf(index.doc_idf, os.path.join(directory, _DOC_IDF))\n"
        "    np.save(os.path.join(directory, _UNIFORM), index.uniform)\n",
        "    np.save(os.path.join(directory, _UNIFORM), index.uniform)\n"
        "    save_idf(index.doc_idf, os.path.join(directory, _DOC_IDF))\n",
        (
            "tests/test_retrieval.py::TestIndexSerialization::"
            "test_doc_idf_that_save_idf_refuses_leaves_the_index_there",
        ),
        "CHANGES.md line 53",
    ),
    Mutant(
        "loaded-index-drops-its-doc-idf", "retrieval.py",
        "return PassageIndex(entries, uniform, idf, doc_idf, _load_fingerprint(directory))",
        "return PassageIndex(entries, uniform, idf, None, _load_fingerprint(directory))",
        (
            "tests/test_cli.py::TestCheckedInFixturePipeline::test_run_file_bytes_pinned[cd-idf]",
            "tests/test_retrieval.py::TestIndexSerialization::"
            "test_bundle_is_two_matrices_passages_and_doc_idf",
        ),
        "CHANGES.md line 50, there as the CLI's `doc_idf = given if args.doc_idf else None`;"
        " restated to a pin in line 67",
    ),
    Mutant(
        "doc-idf-read-error-unprefixed", "retrieval.py",
        'raise ValueError(f"{_DOC_IDF}: {exc}") from None',
        "raise",
        (
            "tests/test_cli.py::TestIndexDocIdf::test_index_without_its_doc_idf_exits_2_naming_it",
            "tests/test_cli.py::TestIndexDocIdf::"
            "test_unreadable_doc_idf_exits_2_naming_the_index_and_the_file",
            "tests/test_retrieval.py::TestIndexSerialization::"
            "test_missing_or_unreadable_doc_idf_refused_naming_it",
        ),
        "CHANGES.md line 50, there in the CLI's read",
    ),
    Mutant(
        "build-index-without-sort", "retrieval.py",
        "    passages.sort(key=lambda p: p.passage_id)\n",
        "",
        (
            "tests/test_metamorphic.py::"
            "test_reordered_docs_and_embedding_lines_give_the_same_index",
        ),
        "CHANGES.md line 44",
    ),
    Mutant(
        "oov-token-read-as-row-0", "semantic.py",
        "        row = vocab.get(token)\n",
        "        row = vocab.get(token, 0)\n",
        ("tests/test_metamorphic.py::test_oov_tokens_appended_to_questions_give_the_same_runs",),
        "CHANGES.md line 44",
    ),
    Mutant(
        "candidates-from-the-whole-index", "evaluation.py",
        "        candidate_docs = {\n"
        "            d for d in question.reference_docs if d in index.doc_index\n"
        "        }\n",
        "        candidate_docs = set(index.doc_index)\n",
        ("tests/test_metamorphic.py::test_unreferenced_document_appended_gives_the_same_runs",),
        "CHANGES.md line 44",
    ),
    Mutant(
        # The question's place in the run seeds its draw, as one generator
        # per run drawing a seed per question would.
        "rnd-seeded-in-run-order", "evaluation.py",
        "seed=_question_seed(seed, question.id),",
        "seed=_question_seed(seed, str(len(result.per_question))),",
        ("tests/test_metamorphic.py::test_reversed_question_set_gives_the_same_entries",),
        "CHANGES.md line 44",
    ),
    Mutant(
        "index-aliases-the-callers-passages", "retrieval.py",
        "self.passages = tuple(map(Passage._make, passages))",
        "self.passages = passages",
        (
            "tests/test_retrieval.py::TestIndexChecksItsOwnData::"
            "test_later_edits_of_the_callers_list_do_not_reach_the_index",
        ),
        "CHANGES.md line 44, there as `self.passages = passages` for `tuple(passages)`",
    ),
    Mutant(
        "screen-slack-zero", "retrieval.py",
        "    return 5 * u + gamma * (1 + 8 * u) + math.sqrt(dim) * 2.0**-47"
        " + 32 * (dim + 4) * v\n",
        "    return 0.0\n",
        ("tests/test_metamorphic.py::test_scaled_near_ties_give_the_same_full_index_queries",),
        "CHANGES.md line 44",
    ),
    Mutant(
        "absolute-norm-cut-off", "semantic.py",
        "where=divisor != 0.0)",
        "where=divisor > 1e-40)",
        (
            "tests/test_metamorphic.py::test_scaled_embeddings_give_the_same_runs_and_queries",
            "tests/test_metamorphic.py::test_scaled_near_ties_give_the_same_full_index_queries",
        ),
        "CHANGES.md line 44, restated for the masked divide in line 59",
    ),
    Mutant(
        "memos-in-a-plain-dict", "evaluation.py",
        "_MEMOS: weakref.WeakKeyDictionary[PassageIndex, tuple[dict, dict]] = "
        "weakref.WeakKeyDictionary()",
        "_MEMOS: dict = {}",
        ("tests/test_evaluation.py::TestJudgingMemos::test_memos_live_as_long_as_their_index",),
        "CHANGES.md line 46",
    ),
    Mutant(
        "question-seed-format", "evaluation.py",
        'f"{base_seed}:{question_id}"',
        'f"{base_seed}-{question_id}"',
        (
            "tests/test_cli.py::TestCheckedInFixturePipeline::"
            "test_rnd_draws_pinned_below_the_candidate_counts",
        ),
        "CHANGES.md line 46",
    ),
    Mutant(
        "passage-id-order-allows-repeats", "retrieval.py",
        "            if passage_id <= previous:\n",
        "            if passage_id < previous:\n",
        (
            "tests/test_retrieval.py::TestIndexChecksItsOwnData::test_repeated_passage_id_refused",
        ),
        "CHANGES.md line 43",
    ),
    Mutant(
        "passage-entry-shape-unchecked", "retrieval.py",
        "            if not (isinstance(entry, (list, tuple))"
        " and list(map(type, entry)) == [str, str]):\n",
        "            if False:\n",
        (
            "tests/test_retrieval.py::TestIndexSerialization::test_malformed_entries_reported",
            "tests/test_retrieval.py::TestIndexChecksItsOwnData::"
            "test_passage_not_a_pair_of_strings_refused",
        ),
        "CHANGES.md line 53",
    ),
    Mutant(
        "rank-without-the-index-doc-idf", "retrieval.py",
        "    if doc_idf is None:\n        doc_idf = index.doc_idf\n",
        "",
        (
            "tests/test_retrieval.py::TestRank::"
            "test_cd_idf_weighs_with_the_index_table_unless_given_one",
            "tests/test_evaluation.py::TestEvaluateQuestions::"
            "test_cd_idf_weighs_with_the_index_table_unless_given_one",
            "tests/test_cli.py::TestCheckedInFixturePipeline::test_run_file_bytes_pinned[cd-idf]",
        ),
        "CHANGES.md line 53",
    ),
    Mutant(
        "fast-path-ignores-the-fingerprint", "embeddings.py",
        "    if table.fingerprint != fingerprint:\n",
        "    if False:\n",
        (
            "tests/test_embeddings.py::TestFingerprint::"
            "test_another_fingerprint_is_refused_naming_both",
            "tests/test_cli.py::TestEmbeddingsFingerprint::"
            "test_an_unused_line_of_another_file_is_still_checked",
            "tests/test_cli.py::TestEmbeddingsFingerprint::"
            "test_another_file_exits_2_naming_both_fingerprints",
        ),
        "CHANGES.md line 55, restated for the one reader in line 57 and as a mismatch"
        " accepted in line 63",
    ),
    Mutant(
        "full-read-ignores-the-fingerprint", "embeddings.py",
        "    if fingerprint is None:\n",
        "    if tokens is None or fingerprint is None:\n",
        ("tests/test_embeddings.py::TestFingerprint::test_the_full_read_refuses_another_fingerprint",),
        "CHANGES.md line 67",
    ),
    Mutant(
        "mismatch-read-again-in-full", "embeddings.py",
        "    if table.fingerprint != fingerprint:\n",
        "    if table.fingerprint != fingerprint:\n        _read(source, None)\n",
        ("tests/test_embeddings.py::TestFingerprint::test_a_file_with_other_bytes_is_read_once",),
        "CHANGES.md line 63",
    ),
    Mutant(
        "fast-path-keeps-the-first-duplicate", "embeddings.py",
        "        if keep is not None and parts[0] not in keep:\n            continue\n",
        "        if keep is not None and parts[0] not in keep:\n            continue\n"
        "        if keep is not None:\n            keep.remove(parts[0])\n",
        (
            "tests/test_embeddings.py::TestFingerprint::"
            "test_a_repeated_token_keeps_its_last_lines_row",
            "tests/test_embeddings.py::test_rows_under_the_own_fingerprint_match_the_full_load",
        ),
        "CHANGES.md line 55, restated for the one reader in line 57",
    ),
    Mutant(
        "filtered-load-pre-sizes-from-the-header-count", "embeddings.py",
        " if keep is None else 0\n",
        "\n",
        ("tests/test_embeddings.py::TestFingerprint::test_a_filtered_load_holds_no_full_matrix",),
        "CHANGES.md line 57",
    ),
    Mutant(
        "matrix-grows-before-the-chunk-is-parsed", "embeddings.py",
        "            block = _parse_chunk(line_nos, values, dim) if values else None\n",
        "            matrix.resize((len(read) + len(values), dim), refcheck=False)\n"
        "            block = _parse_chunk(line_nos, values, dim) if values else None\n",
        (
            "tests/test_embeddings.py::TestHeaderCount::"
            "test_a_header_width_no_line_has_is_refused_before_any_allocation",
        ),
        "CHANGES.md line 58",
    ),
    Mutant(
        "first-allocation-zero-filled", "embeddings.py",
        "                matrix = np.empty((max(len(read), cap), dim))\n",
        "                matrix.resize((max(len(read), cap), dim), refcheck=False)\n",
        (
            "tests/test_embeddings.py::TestHeaderCount::"
            "test_an_overstated_count_makes_nothing_resident",
        ),
        "CHANGES.md line 59",
    ),
    Mutant(
        "filtered-load-skips-the-empty-file-rule", "embeddings.py",
        '    if dim is None:\n        raise ValueError("empty embedding file")',
        '    if dim is None and keep is None:\n        raise ValueError("empty embedding file")',
        (
            "tests/test_cli.py::TestEmbeddingsFingerprint::"
            "test_a_file_without_vectors_under_its_own_fingerprint_exits_2",
        ),
        "CHANGES.md line 57",
    ),
    Mutant(
        "save-index-drops-the-fingerprint", "retrieval.py",
        'json.dumps({"embeddings_fingerprint": index.embeddings_fingerprint})',
        'json.dumps({"embeddings_fingerprint": None})',
        (
            "tests/test_retrieval.py::TestIndexSerialization::"
            "test_embeddings_fingerprint_survives_save_and_load",
            "tests/test_cli.py::TestEmbeddingsFingerprint::"
            "test_the_index_file_gives_only_the_question_rows",
        ),
        "CHANGES.md line 55",
    ),
    Mutant(
        "embedding-reader-splits-lines-at-newline-only", "embeddings.py",
        'io.TextIOWrapper(io.BufferedReader(reader), encoding="utf-8")',
        'io.TextIOWrapper(io.BufferedReader(reader), encoding="utf-8", newline="\\n")',
        (
            "tests/test_cli.py::TestCarriageReturns::"
            "test_embedding_line_broken_by_a_carriage_return_refused",
            "tests/test_embeddings.py::TestFingerprint::"
            "test_a_repeated_token_keeps_its_last_lines_row[cr-no-header]",
        ),
        "CHANGES.md line 47",
    ),
    Mutant(
        "idf-reader-splits-lines-at-newline-only", "idf.py",
        'with open(source, encoding="utf-8") as handle:',
        'with open(source, encoding="utf-8", newline="\\n") as handle:',
        (
            "tests/test_cli.py::TestCarriageReturns::"
            "test_idf_rows_split_by_a_carriage_return_read_as_two",
        ),
        "CHANGES.md line 47",
    ),
    Mutant(
        "judging-without-the-token-memo", "evaluation.py",
        "            passage = tokens.get(row)\n"
        "            if passage is None:\n"
        "                passage = tokens[row] = tokenize(index.passages[row].text)\n",
        "            passage = tokenize(index.passages[row].text)\n",
        (
            "tests/test_evaluation.py::TestJudgingMemos::"
            "test_tokens_of_every_row_of_built_and_loaded_index",
            "tests/test_evaluation.py::TestJudgingMemos::"
            "test_tokenized_once_through_the_module_and_kept",
            "tests/test_retrieval.py::TestConcurrentReads::"
            "test_fresh_index_judges_identically_across_threads",
        ),
        "CHANGES.md line 46",
    ),
    Mutant(
        "eval-candidate-documents-as-a-list", "evaluation.py",
        "        candidate_docs = {\n"
        "            d for d in question.reference_docs if d in index.doc_index\n"
        "        }\n",
        "        candidate_docs = [\n"
        "            d for d in question.reference_docs if d in index.doc_index\n"
        "        ]\n",
        (
            "tests/test_metamorphic.py::"
            "test_reversed_repeated_documents_and_reversed_snippets_give_the_same_runs",
        ),
        "CHANGES.md line 46",
    ),
    Mutant(
        "query-candidate-documents-as-a-list", "cli.py",
        'candidate_docs = {d for d in args.docs.split(",") if d}',
        'candidate_docs = [d for d in args.docs.split(",") if d]',
        ("tests/test_metamorphic.py::test_reordered_repeated_query_docs_give_the_same_output",),
        "CHANGES.md line 46",
    ),
    Mutant(
        "ngrams-builds-n-slices", "evaluation.py",
        "for i in range(min(n, len(tokens) + 1))]",
        "for i in range(n)]",
        ("tests/test_evaluation.py::test_judging_memory_does_not_grow_with_the_threshold",),
        "CHANGES.md line 60",
    ),
)

# A failing case in pytest's short summary: "FAILED <node id>" or "ERROR ...".
_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def _killed_by(test: str, failed: list[str]) -> bool:
    """Whether ``test``, a function or one case of it, failed."""
    return any(node == test or node.startswith(test + "[") for node in failed)


def run(mutant: Mutant, workdir: Path) -> tuple[bool, str]:
    """Apply ``mutant`` to a fresh copy of ``src/`` and run its tests there;
    (killed, the tests that did not fail or why none ran)."""
    copy = workdir / "src"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / "centroidrank" / mutant.module
    source = path.read_text(encoding="utf-8")
    if source.count(mutant.text) != 1:
        return False, f"text occurs {source.count(mutant.text)} times in {mutant.module}"
    path.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", "-p", "no:cacheprovider",
               *mutant.tests]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True, f"timed out after {TIMEOUT_S} s"
    if done.returncode not in (0, 1):  # not a plain test failure: usage or collection
        return False, f"pytest exited {done.returncode}: {done.stdout[-500:]}{done.stderr[-500:]}"
    failed = _FAILED.findall(done.stdout)
    passing = [test for test in mutant.tests if not _killed_by(test, failed)]
    return not passing, ", ".join(passing)


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        for mutant in MUTANTS:
            if names and mutant.name not in names:
                continue
            start = time.perf_counter()
            killed, detail = run(mutant, Path(workdir))
            survived += not killed
            verdict = "killed" if killed else "SURVIVED"
            seconds = time.perf_counter() - start
            print(f"{verdict:8} {mutant.name} ({mutant.module}, {seconds:.1f} s)"
                  + (f": {detail}" if detail else ""), flush=True)
    print(f"{len(names) or len(MUTANTS)} mutants, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
