"""Question-set ingestion.

Question files are JSON documents with a top-level ``questions`` array.
Each entry carries an id, the question body, candidate document ids (URLs
are normalized to their final path segment), and optional gold snippets.
Unknown fields are ignored.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field

from .runs import check_string


@dataclass
class Question:
    id: str
    body: str
    reference_docs: list[str] = field(default_factory=list)
    gold_snippets: list[tuple[str, str]] = field(default_factory=list)


def normalize_doc_id(value: str) -> str:
    """Final path segment of URL-shaped ids; plain ids pass through."""
    if "/" in value:
        return value.rstrip("/").rsplit("/", 1)[-1]
    return value


def _doc_id(value: object, where: str, name: str) -> str:
    """``normalize_doc_id(value)``, or ValueError naming ``where`` and
    ``name`` when ``value`` is not a non-empty string or normalizes to ``''``."""
    doc_id = normalize_doc_id(check_string(value, where, name))
    if not doc_id:
        raise ValueError(f"{where}: {name} {value!r} is empty after URL normalization")
    return doc_id


def load_question_set(source: str | os.PathLike) -> list[Question]:
    """Parse a question-set document.

    Raises ValueError for JSON nested too deep to parse, a missing
    ``questions`` array, entries without ``id``/``body``, malformed
    snippets, a document id, snippet document or snippet text that is not a
    non-empty string, a document id or snippet document that normalizes to
    ``''`` (such as ``"/"``), or duplicate ids, naming the offending entry
    and field. A snippet whose document is not among the entry's reference
    documents is reported as a warning but kept.
    """
    with open(source, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError as exc:  # nested deeper than the parser recurses
            raise ValueError(f"malformed question set: {exc}") from None
    if not isinstance(data, dict) or "questions" not in data:
        raise ValueError("question set is missing the top-level 'questions' array")
    raw_questions = data["questions"]
    if not isinstance(raw_questions, list):
        raise ValueError("'questions' must be an array")

    questions: list[Question] = []
    seen: set[str] = set()
    for pos, entry in enumerate(raw_questions):
        where = f"questions[{pos}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: entry is not an object")
        qid = entry.get("id")
        body = entry.get("body")
        if not isinstance(qid, str) or not qid:
            raise ValueError(f"{where}: missing or empty 'id'")
        entry_where = f"{where} (id {qid!r})"
        if not isinstance(body, str):
            raise ValueError(f"{entry_where}: missing 'body'")
        if qid in seen:
            raise ValueError(f"{where}: duplicate question id {qid!r}")
        seen.add(qid)

        raw_docs = entry.get("documents", [])
        if not isinstance(raw_docs, list):
            raise ValueError(f"{entry_where}: 'documents' must be an array")
        raw_snippets = entry.get("snippets", [])
        if not isinstance(raw_snippets, list):
            raise ValueError(f"{entry_where}: 'snippets' must be an array")

        reference_docs = [
            _doc_id(doc, entry_where, f"documents[{i}]") for i, doc in enumerate(raw_docs)
        ]
        snippets: list[tuple[str, str]] = []
        for snip_pos, snippet in enumerate(raw_snippets):
            if (
                not isinstance(snippet, dict)
                or "document" not in snippet
                or "text" not in snippet
            ):
                raise ValueError(
                    f"{entry_where}: snippets[{snip_pos}] needs 'document' and 'text'"
                )
            doc = _doc_id(snippet["document"], entry_where, f"snippets[{snip_pos}].document")
            text = check_string(snippet["text"], entry_where, f"snippets[{snip_pos}].text")
            if doc not in reference_docs:
                warnings.warn(
                    f"question {qid!r}: snippet document {doc!r} is not in "
                    "the reference documents; snippet kept",
                    stacklevel=2,
                )
            snippets.append((doc, text))
        questions.append(
            Question(id=qid, body=body, reference_docs=reference_docs, gold_snippets=snippets)
        )
    return questions

