import json

import pytest

from centroidrank import load_question_set, normalize_doc_id
from textfile import from_text


def _load(payload) -> list:
    return from_text(load_question_set, json.dumps(payload))


def question_set_to_dict(questions: list) -> dict:
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


class TestNormalizeDocId:
    def test_url_to_final_segment(self):
        assert normalize_doc_id("http://x/123") == "123"
        assert normalize_doc_id("https://www.ncbi.nlm.nih.gov/pubmed/23970090") == "23970090"

    def test_trailing_slash(self):
        assert normalize_doc_id("http://x/123/") == "123"

    def test_plain_id_unchanged(self):
        assert normalize_doc_id("23970090") == "23970090"


class TestLoadQuestionSet:
    def test_full_entry(self):
        payload = {
            "questions": [
                {
                    "id": "q1",
                    "body": "B?",
                    "documents": ["http://x/123"],
                    "snippets": [{"document": "http://x/123", "text": "s"}],
                }
            ]
        }
        questions = _load(payload)
        assert len(questions) == 1
        q = questions[0]
        assert q.id == "q1"
        assert q.body == "B?"
        assert q.reference_docs == ["123"]
        assert q.gold_snippets == [("123", "s")]

    def test_empty_question_list(self):
        assert _load({"questions": []}) == []

    def test_snippets_optional(self):
        questions = _load(
            {"questions": [{"id": "q1", "body": "B?", "documents": ["d1"]}]}
        )
        assert questions[0].gold_snippets == []

    def test_unknown_fields_ignored(self):
        payload = {
            "questions": [
                {"id": "q1", "body": "B?", "documents": [], "type": "yesno", "concepts": []}
            ],
            "extra": 1,
        }
        assert _load(payload)[0].id == "q1"

    def test_missing_questions_key(self):
        with pytest.raises(ValueError, match="questions"):
            _load({"items": []})

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"questions": {"q1": {}}}, "'questions' must be an array"),
            (
                {"questions": [{"id": "q1", "body": "A?"}, "q2"]},
                "questions[1]: entry is not an object",
            ),
        ],
    )
    def test_malformed_questions_array_named(self, payload, message):
        with pytest.raises(ValueError) as excinfo:
            _load(payload)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("value", [None, 123, {}, ["d"], ""], ids=repr)
    @pytest.mark.parametrize("field", ["documents[0]", "snippets[0].document", "snippets[0].text"])
    def test_non_string_field_refused_naming_it(self, field, value):
        entry = {
            "id": "q1",
            "body": "B?",
            "documents": ["d1"],
            "snippets": [{"document": "d1", "text": "s"}],
        }
        if field == "documents[0]":
            entry["documents"] = [value]
        else:
            entry["snippets"][0][field.rsplit(".", 1)[1]] = value
        payload = {"questions": [{"id": "q0", "body": "A?"}, entry]}
        with pytest.raises(ValueError) as excinfo:
            _load(payload)
        assert str(excinfo.value) == (
            f"questions[1] (id 'q1'): {field} {value!r} is not a non-empty string"
        )

    @pytest.mark.parametrize("value", ["/", "///"])
    @pytest.mark.parametrize("field", ["documents[0]", "snippets[0].document"])
    def test_id_empty_after_normalization_refused_naming_it(self, field, value):
        entry = {
            "id": "q1",
            "body": "B?",
            "documents": ["d1"],
            "snippets": [{"document": "d1", "text": "s"}],
        }
        if field == "documents[0]":
            entry["documents"] = [value]
        else:
            entry["snippets"][0]["document"] = value
        payload = {"questions": [{"id": "q0", "body": "A?"}, entry]}
        with pytest.raises(ValueError) as excinfo:
            _load(payload)
        assert str(excinfo.value) == (
            f"questions[1] (id 'q1'): {field} {value!r} is empty after URL normalization"
        )

    def test_missing_id_names_entry(self):
        with pytest.raises(ValueError, match=r"questions\[1\]"):
            _load({"questions": [{"id": "q1", "body": "B?"}, {"body": "C?"}]})

    def test_missing_body_names_entry(self):
        with pytest.raises(ValueError, match="q2"):
            _load({"questions": [{"id": "q2"}]})

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            _load(
                {
                    "questions": [
                        {"id": "q1", "body": "A?"},
                        {"id": "q1", "body": "B?"},
                    ]
                }
            )

    def test_non_array_documents_rejected(self):
        with pytest.raises(ValueError, match="array"):
            _load({"questions": [{"id": "q1", "body": "B?", "documents": "d1"}]})

    def test_non_array_snippets_rejected(self):
        with pytest.raises(ValueError, match="array"):
            _load({"questions": [{"id": "q1", "body": "B?", "snippets": {"a": 1}}]})

    def test_malformed_snippet_rejected(self):
        with pytest.raises(ValueError, match=r"snippets\[0\]"):
            _load(
                {
                    "questions": [
                        {"id": "q1", "body": "B?", "snippets": [{"text": "s"}]}
                    ]
                }
            )

    def test_snippet_doc_outside_references_warns_but_keeps(self):
        payload = {
            "questions": [
                {
                    "id": "q1",
                    "body": "B?",
                    "documents": ["d1"],
                    "snippets": [{"document": "d9", "text": "s"}],
                }
            ]
        }
        with pytest.warns(UserWarning, match="d9"):
            questions = _load(payload)
        assert questions[0].gold_snippets == [("d9", "s")]


class TestRoundTrip:
    def test_reemit_and_reload_is_lossless(self):
        payload = {
            "questions": [
                {
                    "id": "q1",
                    "body": "Which enzymes synthesize catecholamines?",
                    "documents": ["http://x/1", "http://x/2"],
                    "snippets": [
                        {"document": "http://x/1", "text": "alpha beta"},
                        {"document": "http://x/2", "text": "gamma"},
                    ],
                },
                {"id": "q2", "body": "B?", "documents": []},
            ]
        }
        first = _load(payload)
        second = _load(question_set_to_dict(first))
        assert first == second
