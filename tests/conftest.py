from __future__ import annotations

import pytest

from centroidrank import build_idf, load_embeddings
from textfile import from_text


@pytest.fixture
def tiny_embeddings():
    """2-d table over a handful of tokens, loaded through the real parser."""
    text = "\n".join(
        [
            "5 2",
            "alpha 1.0 0.0",
            "beta 0.0 1.0",
            "gamma 0.6 0.8",
            "delta -1.0 0.0",
            "epsilon 0.8 -0.6",
        ]
    )
    return from_text(load_embeddings, text)


@pytest.fixture
def tiny_doc_idf():
    corpus = [
        ["alpha", "beta", "gamma"],
        ["alpha", "delta"],
        ["alpha", "beta", "epsilon"],
        ["gamma"],
    ]
    return build_idf(corpus, label="documents")


@pytest.fixture
def tiny_question_idf():
    corpus = [
        ["alpha", "beta"],
        ["alpha", "gamma"],
        ["alpha", "epsilon"],
        ["alpha", "beta", "delta"],
        ["alpha"],
    ]
    return build_idf(corpus, label="questions")
