"""Question-set ingestion.

Question files are JSON documents with a top-level ``questions`` array.
Each entry carries an id, the question body, candidate document ids (URLs
are normalized to their final path segment), and optional gold snippets.
Unknown fields are ignored.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

from .text import PathOrIO, open_text


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


def load_question_set(source: PathOrIO) -> list[Question]:
    """Parse a question-set document.

    Raises ValueError for a missing ``questions`` array, entries without
    ``id``/``body``, malformed snippets, or duplicate ids, naming the
    offending entry. A snippet whose document is not among the entry's
    reference documents is reported as a warning but kept.
    """
    with open_text(source) as handle:
        data = json.load(handle)
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
        if not isinstance(body, str):
            raise ValueError(f"{where} (id {qid!r}): missing 'body'")
        if qid in seen:
            raise ValueError(f"{where}: duplicate question id {qid!r}")
        seen.add(qid)

        raw_docs = entry.get("documents", [])
        if not isinstance(raw_docs, list):
            raise ValueError(f"{where} (id {qid!r}): 'documents' must be an array")
        raw_snippets = entry.get("snippets", [])
        if not isinstance(raw_snippets, list):
            raise ValueError(f"{where} (id {qid!r}): 'snippets' must be an array")

        reference_docs = [normalize_doc_id(str(d)) for d in raw_docs]
        snippets: list[tuple[str, str]] = []
        for snip_pos, snippet in enumerate(raw_snippets):
            if (
                not isinstance(snippet, dict)
                or "document" not in snippet
                or "text" not in snippet
            ):
                raise ValueError(
                    f"{where} (id {qid!r}): snippets[{snip_pos}] needs "
                    "'document' and 'text'"
                )
            doc = normalize_doc_id(str(snippet["document"]))
            if doc not in reference_docs:
                warnings.warn(
                    f"question {qid!r}: snippet document {doc!r} is not in "
                    "the reference documents; snippet kept",
                    stacklevel=2,
                )
            snippets.append((doc, str(snippet["text"])))
        questions.append(
            Question(id=qid, body=body, reference_docs=reference_docs, gold_snippets=snippets)
        )
    return questions


def question_set_to_dict(questions: list[Question]) -> dict:
    """Re-emit questions in the input schema (for round-tripping)."""
    return {
        "questions": [
            {
                "id": q.id,
                "body": q.body,
                "documents": list(q.reference_docs),
                "snippets": [
                    {"document": doc, "text": text} for doc, text in q.gold_snippets
                ],
            }
            for q in questions
        ]
    }
