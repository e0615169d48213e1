import contextlib
import json
import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from centroidrank import (
    IdfTable,
    Method,
    build_idf,
    build_index,
    centroid,
    cosine_distance,
    load_embeddings,
    load_idf,
    load_index,
    random_baseline,
    rank,
    save_index,
    tokenize,
)
from centroidrank import build_judgments, evaluation, retrieval, semantic
from centroidrank import text as text_module
from centroidrank.ingest import Question
from centroidrank.embeddings import EmbeddingTable
from oracles import oracle_full_rank, oracle_rank
from synth import make_instance, make_screen_instance
from textfile import from_text

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def small_index(tiny_embeddings, tiny_doc_idf):
    documents = [
        ("d1", "Alpha beta gamma. Delta epsilon here."),
        ("d2", "Beta beta. Gamma alone. Alpha delta epsilon."),
    ]
    return build_index(documents, tiny_embeddings, tiny_doc_idf)


class TestBuildIndex:
    def test_sentence_passages_get_ordinal_ids(self, tiny_embeddings, tiny_doc_idf):
        index = build_index(
            [("d", "Alpha beta. Gamma delta.")], tiny_embeddings, tiny_doc_idf
        )
        assert [p.passage_id for p in index.passages] == ["d#0", "d#1"]
        assert {d: rows.tolist() for d, rows in index.doc_index.items()} == {"d": [0, 1]}
        assert index.dim == tiny_embeddings.dim

    def test_empty_document_list(self, tiny_embeddings, tiny_doc_idf):
        index = build_index([], tiny_embeddings, tiny_doc_idf)
        assert len(index) == 0
        assert index.doc_index == {}

    def test_all_oov_document_keeps_zero_centroid_passages(
        self, tiny_embeddings, tiny_doc_idf
    ):
        index = build_index(
            [("d", "Zeros everywhere here. More unknown words.")],
            tiny_embeddings,
            tiny_doc_idf,
        )
        assert len(index) == 2
        assert index.uniform.shape == index.idf.shape == (2, tiny_embeddings.dim)
        assert not index.uniform.any()
        assert not index.idf.any()
        assert not index.uniform_norms.any()
        assert not index.idf_norms.any()

    def test_duplicate_doc_id_rejected(self, tiny_embeddings, tiny_doc_idf):
        with pytest.raises(ValueError, match="duplicate"):
            build_index(
                [("d", "Alpha."), ("d", "Beta.")], tiny_embeddings, tiny_doc_idf
            )

    def test_passages_sorted_by_id(self, tiny_embeddings, tiny_doc_idf):
        documents = [("z", "Alpha. Beta."), ("a", "Gamma. Delta.")]
        index = build_index(documents, tiny_embeddings, tiny_doc_idf)
        ids = [p.passage_id for p in index.passages]
        assert ids == sorted(ids)

    def test_both_centroids_precomputed(
        self, small_index, tiny_embeddings, tiny_doc_idf
    ):
        row = [p.passage_id for p in small_index.passages].index("d1#0")
        tokens = tokenize(small_index.passages[row].text)
        uniform, idf = small_index.uniform[row], small_index.idf[row]
        assert np.array_equal(uniform, centroid(tokens, tiny_embeddings))
        assert np.array_equal(idf, centroid(tokens, tiny_embeddings, tiny_doc_idf))
        assert uniform.any() and idf.any()
        assert not np.allclose(uniform, idf)
        assert small_index.uniform_norms[row] == pytest.approx(np.linalg.norm(uniform))
        assert small_index.idf_norms[row] == pytest.approx(np.linalg.norm(idf))

    def test_mixed_script_index_equals_one_from_regex_tokens(self, tmp_path):
        embeddings = from_text(
            load_embeddings,
            "alpha 1.0 0.0\nstraße 0.5 0.5\ncafé -1.0 2.0\nας 0.25 -4.0\n"
            "i\u0307stanbul 3.0 1.0\nbeta 0.0 1.0\n",
        )
        documents = [
            ("a", "Alpha beta. Beta ALPHA alpha."),
            ("b", "Straße café. ΑΣ alpha İstanbul. Plain beta text."),
            ("c", "Café-au-lait\x0bALPHA_beta. İSTANBUL straße ΑΣ."),
        ]
        doc_idf = build_idf([tokenize(t) for _d, t in documents], "documents")

        def regex_tokens(raw):
            return tuple(m.group(0).lower() for m in text_module._TOKEN_RE.finditer(raw))

        with mock.patch.object(retrieval, "tokenize", regex_tokens):
            want = build_index(documents, embeddings, doc_idf)
        got = build_index(documents, embeddings, doc_idf)
        save_index(want, tmp_path / "want")
        save_index(got, tmp_path / "got")
        for name in ("uniform.npy", "idf.npy", "passages.json"):
            assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
        assert got.uniform.any(axis=1).all()

    def test_build_peak_memory_holds(self):
        """On the benchmark's build seed 0 (4 000 passages, 200-d), the
        traced peak of build_index stays within 10% of 18.13 MB, its peak
        when centroids read the token lists one at a time in Python.
        Flattening every token list up front raised it to 23 MB."""
        sys.path.insert(0, str(PERFBENCH))
        try:
            from gen import Sizes, generate
        finally:
            sys.path.remove(str(PERFBENCH))
        inputs = generate(0, Sizes(n_docs=800, vocab=10000))
        embeddings = EmbeddingTable(
            vocab={token: row for row, token in enumerate(inputs.covered)},
            matrix=inputs.components / 1000.0,
        )
        doc_idf = build_idf([tokenize(t) for _d, t in inputs.documents], "documents")
        tracemalloc.start()
        try:
            index = build_index(inputs.documents, embeddings, doc_idf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(index) == 4000
        assert peak <= 1.1 * 18.13e6

    def test_matrices_are_contiguous_and_read_only(self, small_index):
        for matrix in (small_index.uniform, small_index.idf):
            assert matrix.dtype == np.float64
            assert matrix.flags.c_contiguous
            assert not matrix.flags.writeable
            assert matrix.shape == (len(small_index), small_index.dim)


class TestRank:
    def test_question_centroid_goes_through_retrieval_centroid(
        self, small_index, tiny_embeddings, tiny_doc_idf, tiny_question_idf, monkeypatch
    ):
        # Tracers time the centroid layer by wrapping retrieval.centroid,
        # which only rank still calls: once per question, whatever the
        # method or candidate set.
        calls = []
        original = retrieval.centroid

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(retrieval, "centroid", counted)
        questions = [tokenize("Alpha beta."), tokenize("Gamma zzz delta.")]
        for method in ("cd", "cd-idf", "cd-q"):
            for candidates in (None, {"d2"}):
                for question in questions:
                    calls.clear()
                    rank(small_index, question, method, 3, tiny_embeddings,
                         doc_idf=tiny_doc_idf, question_idf=tiny_question_idf,
                         candidate_docs=candidates)
                    assert calls == [question]

    def test_k_covers_all_candidates(self, small_index, tiny_embeddings, tiny_doc_idf):
        result = rank(
            small_index, ["alpha", "beta"], "cd", 50, tiny_embeddings, tiny_doc_idf
        )
        assert len(result.items) == len(small_index)
        distances = [d for _pid, d in result.items]
        assert distances == sorted(distances)

    def test_identical_text_ranks_first_with_zero_distance(
        self, small_index, tiny_embeddings, tiny_doc_idf
    ):
        # cd compares uniform centroids and cd-idf doc-idf centroids on
        # both sides, so identical text means identical centroids; cd-q is
        # asymmetric (question-corpus weights on the question side only)
        # and reaches distance 0 here because the supplied question table
        # has the same weight profile as the document table.
        question = tokenize("Alpha beta gamma.")
        for method in ("cd", "cd-idf", "cd-q"):
            result = rank(
                small_index,
                question,
                method,
                3,
                tiny_embeddings,
                doc_idf=tiny_doc_idf,
                question_idf=tiny_doc_idf,
            )
            assert result.items[0][0] == "d1#0"
            assert result.items[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_tie_broken_by_passage_id(self, tiny_embeddings, tiny_doc_idf):
        documents = [("b", "Alpha beta."), ("a", "Alpha beta.")]
        index = build_index(documents, tiny_embeddings, tiny_doc_idf)
        result = rank(index, ["gamma"], "cd", 2, tiny_embeddings)
        assert [pid for pid, _d in result.items] == ["a#0", "b#0"]
        assert result.items[0][1] == result.items[1][1]

    def test_candidate_restriction(self, small_index, tiny_embeddings):
        result = rank(
            small_index,
            ["alpha"],
            "cd",
            10,
            tiny_embeddings,
            candidate_docs={"d2"},
        )
        assert all(pid.startswith("d2#") for pid, _d in result.items)
        assert len(result.items) == 3

    def test_unknown_candidate_doc_listed(self, small_index, tiny_embeddings):
        with pytest.raises(ValueError, match="nope"):
            rank(
                small_index,
                ["alpha"],
                "cd",
                5,
                tiny_embeddings,
                candidate_docs={"d1", "nope"},
            )

    def test_k_below_one_rejected(self, small_index, tiny_embeddings):
        with pytest.raises(ValueError, match="k"):
            rank(small_index, ["alpha"], "cd", 0, tiny_embeddings)

    def test_rnd_is_not_a_distance_method(self, small_index, tiny_embeddings):
        with pytest.raises(ValueError, match="random_baseline"):
            rank(small_index, ["alpha"], Method.RND, 5, tiny_embeddings)

    def test_missing_idf_tables_rejected(self, small_index, tiny_embeddings):
        with pytest.raises(ValueError, match="cd-q"):
            rank(small_index, ["alpha"], "cd-q", 5, tiny_embeddings)

    def test_cd_idf_weighs_with_the_index_table_unless_given_one(
        self, small_index, tiny_embeddings, tiny_doc_idf
    ):
        # Under `flat` alpha weighs 0 and every other token ln 5, so the
        # question centroid turns away from alpha.
        assert small_index.doc_idf is tiny_doc_idf
        question = tokenize("Alpha beta gamma gamma.")
        given = rank(small_index, question, "cd-idf", 5, tiny_embeddings, doc_idf=tiny_doc_idf)
        assert rank(small_index, question, "cd-idf", 5, tiny_embeddings) == given
        flat = IdfTable(n_docs=4, df={"alpha": 4})
        other = rank(small_index, question, "cd-idf", 5, tiny_embeddings, doc_idf=flat)
        assert other.items != given.items
        assert other.items == rank(
            small_index, question, "cd-q", 5, tiny_embeddings, question_idf=flat
        ).items

    def test_question_side_weighting_changes_with_method(self):
        # Embeddings chosen so a question-word-heavy passage wins under
        # uniform weighting but loses once question-corpus idf zeroes the
        # question word out.
        embeddings = from_text(
            load_embeddings, "what 1.0 0.0\ndegenerate 0.0 1.0\nprotein 0.0 0.9"
        )
        doc_idf = build_idf([["degenerate", "protein"], ["what", "what"]], "documents")
        question_idf = IdfTable(
            n_docs=100, df={"what": 100, "degenerate": 1, "protein": 2}
        )
        index = build_index(
            [("docA", "degenerate protein"), ("docB", "what what")],
            embeddings,
            doc_idf,
        )
        question = tokenize("what degenerate protein")

        by_q = rank(
            index, question, "cd-q", 2, embeddings,
            doc_idf=doc_idf, question_idf=question_idf,
        )
        assert [pid for pid, _d in by_q.items] == ["docA#0", "docB#0"]
        assert by_q.items[0][1] == pytest.approx(0.0, abs=1e-9)
        assert by_q.items[1][1] == pytest.approx(1.0, abs=1e-9)

        by_cd = rank(index, question, "cd", 2, embeddings)
        # Under uniform weighting the all-"what" passage is competitive:
        # far below the neutral distance 1.0 despite carrying no content.
        distance_b = dict(by_cd.items)["docB#0"]
        assert distance_b < 0.6

        # both methods agree with the brute-force oracle on this fixture
        oracle_items = oracle_rank(
            [("docA#0", "docA", ["degenerate", "protein"]),
             ("docB#0", "docB", ["what", "what"])],
            list(question),
            "cd-q",
            {"what": [1.0, 0.0], "degenerate": [0.0, 1.0], "protein": [0.0, 0.9]},
            2,
            doc_stats=(2, {"degenerate": 1, "protein": 1, "what": 1}),
            question_stats=(100, {"what": 100, "degenerate": 1, "protein": 2}),
        )
        assert [pid for pid, _d in oracle_items] == [pid for pid, _d in by_q.items]

    def test_question_weight_scaling_keeps_ranking(
        self, small_index, tiny_embeddings, tiny_doc_idf, tiny_question_idf
    ):
        class Scaled:
            def __init__(self, inner, factor):
                self.inner, self.factor = inner, factor

            def weight(self, token):
                return self.factor * self.inner.weight(token)

        question = tokenize("alpha gamma epsilon")
        base = rank(
            small_index, question, "cd-q", 10, tiny_embeddings,
            doc_idf=tiny_doc_idf, question_idf=tiny_question_idf,
        )
        for factor in (1e-3, 0.5, 7.0, 1e4):
            scaled = rank(
                small_index, question, "cd-q", 10, tiny_embeddings,
                doc_idf=tiny_doc_idf, question_idf=Scaled(tiny_question_idf, factor),
            )
            assert [pid for pid, _d in scaled.items] == [pid for pid, _d in base.items]

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(20240917)
        for _ in range(12):
            instance = make_instance(rng)
            index = build_index(instance.documents, instance.embeddings, instance.doc_idf)
            assert [p.passage_id for p in index.passages] == sorted(
                pid for pid, _doc, _tokens in instance.passages
            )
            for method in ("cd", "cd-idf", "cd-q"):
                result = rank(
                    index,
                    instance.question,
                    method,
                    instance.k,
                    instance.embeddings,
                    doc_idf=instance.doc_idf,
                    question_idf=instance.question_idf,
                    candidate_docs=instance.candidate_docs,
                )
                expected = oracle_rank(
                    instance.passages,
                    instance.question,
                    method,
                    instance.vectors,
                    instance.k,
                    doc_stats=instance.doc_stats(),
                    question_stats=instance.question_stats(),
                    candidate_docs=instance.candidate_docs,
                )
                assert [pid for pid, _d in result.items] == [
                    pid for pid, _d in expected
                ]
                got = np.array([d for _pid, d in result.items])
                want = np.array([d for _pid, d in expected])
                assert np.allclose(got, want, atol=1e-9)


def _ids(ranking):
    return [pid for pid, _d in ranking.items]


class TestRankEdgeCases:
    @pytest.fixture
    def interleaved(self, tiny_embeddings, tiny_doc_idf):
        # Passage-id order is d#0, d#1, d#1#0, d#1#1, d#2: the rows of "d"
        # are not contiguous because "d#1" is itself a document id.
        documents = [
            ("d", "Alpha beta. Gamma delta. Epsilon alpha."),
            ("d#1", "Beta gamma. Delta epsilon."),
        ]
        return build_index(documents, tiny_embeddings, tiny_doc_idf)

    def test_interleaved_doc_rows(self, interleaved):
        ids = [p.passage_id for p in interleaved.passages]
        assert ids == ["d#0", "d#1", "d#1#0", "d#1#1", "d#2"]
        assert interleaved.doc_index["d"].tolist() == [0, 1, 4]
        assert interleaved.doc_index["d#1"].tolist() == [2, 3]

    def test_interleaved_candidates_rank(
        self, interleaved, tiny_embeddings, tiny_doc_idf
    ):
        for doc_id, text in (
            ("d", "Alpha beta. Gamma delta. Epsilon alpha."),
            ("d#1", "Beta gamma. Delta epsilon."),
        ):
            alone = build_index([(doc_id, text)], tiny_embeddings, tiny_doc_idf)
            for method in ("cd", "cd-idf"):
                restricted = rank(
                    interleaved, ["alpha", "delta"], method, 10, tiny_embeddings,
                    doc_idf=tiny_doc_idf, candidate_docs={doc_id},
                )
                expected = rank(
                    alone, ["alpha", "delta"], method, 10, tiny_embeddings,
                    doc_idf=tiny_doc_idf,
                )
                assert restricted.items == expected.items

    def test_interleaved_candidates_random_baseline(
        self, interleaved, tiny_embeddings, tiny_doc_idf
    ):
        alone = build_index(
            [("d", "Alpha beta. Gamma delta. Epsilon alpha.")],
            tiny_embeddings,
            tiny_doc_idf,
        )
        for seed in range(30):
            for k in (1, 2, 5):
                restricted = random_baseline(interleaved, {"d"}, k, seed=seed)
                assert restricted.items == random_baseline(alone, None, k, seed=seed).items
        whole = random_baseline(interleaved, {"d#1"}, 10, seed=0)
        assert _ids(whole) == ["d#1#0", "d#1#1"]

    def test_empty_candidate_set(self, small_index, tiny_embeddings):
        assert rank(
            small_index, ["alpha"], "cd", 5, tiny_embeddings, candidate_docs=set()
        ).items == []
        with pytest.raises(ValueError, match="empty candidate set"):
            random_baseline(small_index, set(), 5, seed=0)

    def test_k_greater_than_candidates(self, small_index, tiny_embeddings):
        result = rank(
            small_index, ["beta"], "cd", 100, tiny_embeddings, candidate_docs={"d1"}
        )
        assert sorted(_ids(result)) == ["d1#0", "d1#1"]
        assert len(rank(small_index, ["beta"], "cd", 100, tiny_embeddings).items) == 5

    def test_all_oov_question_scores_exactly_one(
        self, small_index, tiny_embeddings, tiny_doc_idf, tiny_question_idf
    ):
        for method in ("cd", "cd-idf", "cd-q"):
            result = rank(
                small_index, ["zzz", "qqq"], method, 10, tiny_embeddings,
                doc_idf=tiny_doc_idf, question_idf=tiny_question_idf,
            )
            assert _ids(result) == [p.passage_id for p in small_index.passages]
            assert all(d == 1.0 for _pid, d in result.items)
        cut = rank(small_index, ["zzz"], "cd", 2, tiny_embeddings)
        assert _ids(cut) == [p.passage_id for p in small_index.passages[:2]]

    def test_all_oov_passages_score_exactly_one(self, tiny_embeddings, tiny_doc_idf):
        index = build_index(
            [("a", "Unknown words only. Gamma alpha."), ("b", "Nothing known here.")],
            tiny_embeddings,
            tiny_doc_idf,
        )
        for method in ("cd", "cd-idf"):
            result = dict(
                rank(
                    index, ["alpha"], method, 10, tiny_embeddings, doc_idf=tiny_doc_idf
                ).items
            )
            assert result["a#0"] == 1.0
            assert result["b#0"] == 1.0
            assert result["a#1"] != 1.0

    def test_duplicated_sentences_tie_exactly_by_id(self):
        # A wider table and many documents put the shared sentence at many
        # different rows; every copy must get the bit-identical distance.
        rng = random.Random(5)
        words = [f"w{i}" for i in range(30)]
        embeddings = from_text(
            load_embeddings,
            "\n".join(
                w + " " + " ".join(repr(rng.uniform(-1, 1)) for _ in range(37)) for w in words
            ),
        )
        shared = "W1 w2 w3 w4 w5 w6 w7."
        documents = []
        for d in range(60):
            sentences = [
                " ".join([rng.choice(words).capitalize()] + rng.sample(words, 6)) + "."
                for _ in range(rng.randrange(0, 4))
            ]
            sentences.insert(rng.randrange(len(sentences) + 1), shared)
            documents.append((f"doc{d:02d}", " ".join(sentences)))
        # Not the documents' own idf: the shared words occur in every
        # document there and would get weight 0.
        doc_idf = build_idf([rng.sample(words, 5) for _ in range(40)], "documents")
        index = build_index(documents, embeddings, doc_idf)
        copies = [p.passage_id for p in index.passages if p.text == shared]
        assert len(copies) == 60
        for method in ("cd", "cd-idf"):
            items = rank(
                index, tokenize("w3 w9 w1 w17"), method, len(index), embeddings,
                doc_idf=doc_idf,
            ).items
            tied = [(pos, d) for pos, (pid, d) in enumerate(items) if pid in copies]
            assert len({d for _pos, d in tied}) == 1
            assert [pos for pos, _d in tied] == list(range(tied[0][0], tied[0][0] + 60))
            # Candidate sets of every size move the copies to other rows of
            # the scored matrix, including the tail rows that blocked BLAS
            # kernels round differently; k cuts through the tie at its end.
            for extra in ("w0", "w5"):
                question = list(tokenize(shared)) + [extra]
                for m in range(1, 61):
                    docs = {f"doc{d:02d}" for d in range(m)}
                    top = rank(
                        index, question, method, m, embeddings,
                        doc_idf=doc_idf, candidate_docs=docs,
                    )
                    assert _ids(top) == copies[:m]
                    assert len({d for _pid, d in top.items}) == 1

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 16, 20, 33, semantic._CHUNK_ROWS])
    def test_copies_in_different_blocks_tie_exactly_by_id(self, chunk):
        # Sentences of 5, 6, 8 and 9 covered words around the shared
        # 7-word one: with these chunk sizes its copies start and end
        # chunks, share chunks with longer sentences (so they stop before
        # the chunk does) or with shorter ones, and are summed alone.
        rng = random.Random(11)
        words = [f"w{i}" for i in range(30)]
        embeddings = from_text(
            load_embeddings,
            "\n".join(
                w + " " + " ".join(repr(rng.uniform(-1, 1)) for _ in range(5)) for w in words
            ),
        )
        shared = "W1 w2 w3 w4 w5 w6 w7."
        documents = []
        for d in range(40):
            sentences = [
                " ".join([rng.choice(words).capitalize()]
                         + rng.sample(words, rng.choice([4, 5, 7, 8]))) + "."
                for _ in range(rng.randrange(0, 4))
            ]
            sentences.insert(rng.randrange(len(sentences) + 1), shared)
            documents.append((f"doc{d:02d}", " ".join(sentences)))
        doc_idf = build_idf([rng.sample(words, 5) for _ in range(40)], "documents")
        with mock.patch.object(semantic, "_CHUNK_ROWS", chunk):
            index = build_index(documents, embeddings, doc_idf)
        rows = [row for row, p in enumerate(index.passages) if p.text == shared]
        assert len(rows) == 40
        for matrix in (index.uniform, index.idf):
            assert len({matrix[row].tobytes() for row in rows}) == 1
        copies = [index.passages[row].passage_id for row in rows]
        for method in ("cd", "cd-idf"):
            items = rank(
                index, tokenize("w3 w9 w1 w17"), method, len(index), embeddings,
                doc_idf=doc_idf,
            ).items
            tied = [(pos, d) for pos, (pid, d) in enumerate(items) if pid in copies]
            assert len({d for _pos, d in tied}) == 1
            assert [pos for pos, _d in tied] == list(range(tied[0][0], tied[0][0] + 40))
            assert [items[pos][0] for pos, _d in tied] == copies

    def test_dimension_mismatch_named(self, small_index):
        wider = from_text(load_embeddings, "alpha 1.0 0.0 0.0")
        with pytest.raises(
            ValueError, match="dimension mismatch: index dim 2, embeddings dim 3"
        ):
            rank(small_index, ["alpha"], "cd", 5, wider)

    def test_index_dim_is_its_matrix_width(self, small_index, tiny_embeddings):
        # Matrices narrower than the embeddings: the index cannot claim the
        # embeddings' width, so rank refuses before numpy broadcasts.
        narrow = retrieval.PassageIndex(
            small_index.passages,
            small_index.uniform[:, :1],
            small_index.idf[:, :1],
            small_index.doc_idf,
        )
        assert narrow.dim == 1
        with pytest.raises(
            ValueError, match="dimension mismatch: index dim 1, embeddings dim 2"
        ):
            rank(narrow, ["alpha"], "cd", 5, tiny_embeddings)


def _rounding_ties(ranked, centroid_of) -> bool:
    """True when neighbouring passages have different centroids but
    distances within 1e-12: mathematically equal values (e.g. the same
    words in another order) that rounding may order either way."""
    return any(
        b_dist - a_dist <= 1e-12
        and not np.array_equal(centroid_of[a_pid], centroid_of[b_pid])
        for (a_pid, a_dist), (b_pid, b_dist) in zip(ranked, ranked[1:])
    )


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_rank_matches_oracle_property(seed):
    instance = make_instance(random.Random(seed))
    index = build_index(instance.documents, instance.embeddings, instance.doc_idf)
    by_id = {p.passage_id: p for p in index.passages}
    idf_of = {"cd": None, "cd-idf": instance.doc_idf, "cd-q": instance.question_idf}
    for method, question_idf in idf_of.items():
        oracle_args = dict(
            doc_stats=instance.doc_stats(),
            question_stats=instance.question_stats(),
            candidate_docs=instance.candidate_docs,
        )
        everything = oracle_rank(
            instance.passages, instance.question, method, instance.vectors,
            len(instance.passages), **oracle_args,
        )
        # Two float computations may order a rounding tie either way;
        # passages with bit-identical centroids must still tie exactly and
        # be ordered by passage id.
        matrix = index.uniform if method == "cd" else index.idf
        centroid_of = {p.passage_id: row for p, row in zip(index.passages, matrix)}
        assume(not _rounding_ties(everything, centroid_of))
        got = rank(
            index, instance.question, method, instance.k, instance.embeddings,
            doc_idf=instance.doc_idf, question_idf=instance.question_idf,
            candidate_docs=instance.candidate_docs,
        )
        want = everything[: instance.k]
        assert _ids(got) == [pid for pid, _d in want]
        question_vec = centroid(instance.question, instance.embeddings, question_idf)
        passage_idf = None if method == "cd" else instance.doc_idf
        for (pid, distance), (_same, oracle_distance) in zip(got.items, want):
            passage_vec = centroid(
                tokenize(by_id[pid].text), instance.embeddings, passage_idf
            )
            assert abs(distance - cosine_distance(question_vec, passage_vec)) <= 1e-12
            assert abs(distance - oracle_distance) <= 1e-12


def _hex_items(items):
    return [(pid, float(d).hex()) for pid, d in items]


def _full_rank_matches_oracle(index, embeddings, question, k, doc_idf=None):
    """rank over the whole index, for k from 1 to n + 1 unless given, equals
    oracle_full_rank bit for bit under cd and (with ``doc_idf``) cd-idf."""
    ids = [p.passage_id for p in index.passages]
    methods = [("cd", None)] + ([("cd-idf", doc_idf)] if doc_idf else [])
    for method, idf in methods:
        q = centroid(question, embeddings, idf)
        want = oracle_full_rank(index.uniform if idf is None else index.idf, q, ids, len(ids))
        for top in [k] if k else range(1, len(index) + 2):
            got = rank(index, question, method, top, embeddings, doc_idf=doc_idf)
            assert _hex_items(got.items) == _hex_items(want[:top]), (method, top)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_screened_rank_is_bit_equal_to_scoring_every_row(seed):
    instance = make_screen_instance(random.Random(seed))
    _full_rank_matches_oracle(
        instance.index, instance.embeddings, instance.question, None, instance.doc_idf
    )


def _index_of(rows):
    passages = [retrieval.Passage(f"p{i:03d}#0", "") for i in range(len(rows))]
    return retrieval.PassageIndex(passages, rows, rows, IdfTable(1))


class TestScreen:
    def test_rows_float32_misorders_are_kept(self):
        # Near the question, 200 rows whose cosines to it differ by less
        # than float32 resolves: for some k the screen's own top k misses a
        # row of the einsum top k, so a screen without its slack (δ = 0)
        # returns other rows; rank must still return the einsum top k. The
        # 200 unrelated rows are what the screen leaves out.
        gen = np.random.default_rng(7)
        dim, n = 200, 400
        q = gen.normal(size=dim)
        rows = np.concatenate([
            q + 0.3 * gen.normal(size=dim) + 1e-7 * gen.normal(size=(n // 2, dim)),
            gen.normal(size=(n // 2, dim)),
        ])
        index = _index_of(rows)
        embeddings = EmbeddingTable({"q": 0}, q[None, :])
        einsum_order = [row for row, _d in oracle_full_rank(rows, q, range(n), n)]
        sims = np.vecdot(index.screen("uniform"), (q / np.linalg.norm(q)).astype(np.float32))
        d_b = 1.0 - sims.astype(np.float64)
        missed = [
            k for k in range(1, 41)
            if not set(einsum_order[:k])
            <= set(np.flatnonzero(d_b <= np.partition(d_b, k - 1)[k - 1]))
        ]
        assert missed, "no float32 misorder at the cut; the data does not test the slack"
        scoring = mock.patch.object(retrieval, "cosine_distances", wraps=semantic.cosine_distances)
        with scoring as scored:
            rank(index, ["q"], "cd", 10, embeddings)
        assert len(scored.call_args.args[0]) < n  # the screen chose the rows
        for k in missed:
            _full_rank_matches_oracle(index, embeddings, ["q"], k)

    @pytest.mark.parametrize("scale", [1e-160, 1e-40, 1e40, 1e140])
    def test_norms_beyond_the_screen_range_score_every_row(self, scale):
        # Outside [2**-100, 2**100] float32 entries flush to zero or
        # overflow, and float64 norms lose accuracy to underflow: one such
        # row keeps the whole matrix off the screen.
        gen = np.random.default_rng(3)
        rows = gen.normal(size=(30, 8))
        rows[[4, 9]] = gen.normal(size=8)
        rows[5] = rows[4] * scale
        rows[9] *= scale
        index = _index_of(rows)
        embeddings = EmbeddingTable({"q": 0}, (rows[4] + 1e-3)[None, :])
        _full_rank_matches_oracle(index, embeddings, ["q"], None)
        assert index.screen("uniform") is None

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("scale", [1e-160, 3e-161, 1e-162])
    def test_tiny_question_scores_every_row(self, seed, scale):
        # The squares of the question's entries are subnormal, so its norm
        # is off by up to a few percent; einsum then clips the rows nearest
        # it to distance 0, a tie broken by id, where the screen would
        # still order them.
        gen = np.random.default_rng(seed)
        base = gen.normal(size=16)
        rows = base + 10.0 ** gen.uniform(-4, -1, size=(40, 1)) * gen.normal(size=(40, 16))
        embeddings = EmbeddingTable({"q": 0}, (base * scale)[None, :])
        for k in (1, 3, 10):
            _full_rank_matches_oracle(_index_of(rows), embeddings, ["q"], k)

    def test_screen_is_built_on_first_full_index_rank_and_kept(self, tiny_embeddings, bundle):
        index = load_index(bundle)
        rank(index, ["alpha"], "cd", len(index), tiny_embeddings)
        rank(index, ["alpha"], "cd", 1, tiny_embeddings, candidate_docs={"d1"})
        rank(index, [], "cd", 1, tiny_embeddings)
        assert index._screens == {}
        rank(index, ["alpha"], "cd", 1, tiny_embeddings)
        assert set(index._screens) == {"uniform"}
        screen = index.screen("uniform")
        assert screen.dtype == np.float32 and not screen.flags.writeable
        rank(index, ["beta", "gamma"], "cd", 2, tiny_embeddings)
        assert index.screen("uniform") is screen

    def test_screen_rows_are_float32_unit_rows_and_zero_rows_stay_zero(self):
        rows = np.array([[3.0, 4.0], [0.0, 0.0], [1e-30, 0.0], [-2.0, 0.0]])
        screen = _index_of(rows).screen("uniform")
        assert screen.tolist() == [[0.6000000238418579, 0.800000011920929], [0, 0], [1, 0], [-1, 0]]


class TestFiniteNorms:
    def test_norms_need_no_full_size_temporary(self):
        matrix = np.ones((4000, 100))
        passages = [retrieval.Passage(f"d#{i:04d}", "") for i in range(len(matrix))]
        tracemalloc.start()
        try:
            index = retrieval.PassageIndex(passages, matrix, matrix, IdfTable(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index.uniform_norms.tolist() == [10.0] * len(matrix)
        assert peak < matrix.nbytes / 4

    @staticmethod
    def _sum_warns(value):
        """1e200 overflows only in the row norms, which the index check
        silences; 1e308 already overflows a centroid's sum, which warns."""
        return pytest.warns(RuntimeWarning) if value > 1e300 else contextlib.nullcontext()

    @pytest.mark.parametrize("value", [1e200, 1e308])
    def test_overflowing_centroid_refused_naming_passage(self, value, tiny_doc_idf):
        embeddings = from_text(load_embeddings, f"alpha 1.0 0.0\nbig {value} {value}")
        with pytest.raises(ValueError) as excinfo, self._sum_warns(value):
            build_index([("a", "Alpha. Big big alpha.")], embeddings, tiny_doc_idf)
        assert str(excinfo.value) == "passage 'a#1': uniform centroid norm inf is not finite"

    def test_load_refuses_a_finite_matrix_whose_norm_overflows(self, bundle):
        for name in ("uniform.npy", "idf.npy"):
            matrix = np.load(bundle / name)
            saved = matrix.copy()
            matrix[2] = 1e200
            np.save(bundle / name, matrix)
            with pytest.raises(ValueError) as excinfo:
                load_index(bundle)
            passage = json.loads((bundle / "passages.json").read_text())[2][0]
            label = name.split(".")[0]
            assert str(excinfo.value) == (
                f"passage {passage!r}: {label} centroid norm inf is not finite"
            )
            np.save(bundle / name, saved)

    @pytest.mark.parametrize("value", [1e200, 1e308])
    @pytest.mark.parametrize("question_id", ["", "q7"])
    def test_overflowing_question_refused(self, small_index, value, question_id):
        embeddings = from_text(load_embeddings, f"alpha 1.0 0.0\nbig {value} {value}")
        # numpy warns of the overflow of the question's norm, then rank refuses
        with pytest.raises(ValueError) as excinfo, pytest.warns(RuntimeWarning):
            rank(small_index, ["big", "big"], "cd", 2, embeddings, question_id=question_id)
        assert str(excinfo.value) == (
            f"question {question_id or 'big big'!r}: centroid norm inf is not finite"
        )


class TestRandomBaseline:
    def test_same_seed_same_output(self, small_index):
        first = random_baseline(small_index, None, 3, seed=99)
        second = random_baseline(small_index, None, 3, seed=99)
        assert first.items == second.items
        assert first.method is Method.RND

    def test_small_candidate_set_returned_whole(self, small_index):
        result = random_baseline(small_index, {"d1"}, 10, seed=1)
        assert sorted(pid for pid, _s in result.items) == ["d1#0", "d1#1"]

    def test_items_are_distinct_sorted_zero_scored(self, small_index):
        result = random_baseline(small_index, None, 5, seed=3)
        ids = [pid for pid, _s in result.items]
        assert len(set(ids)) == len(ids)
        assert ids == sorted(ids)
        assert all(score == 0.0 for _pid, score in result.items)

    def test_no_candidate_set_draws_from_every_passage(self, small_index):
        everything = set(small_index.doc_index)
        for seed in range(5):
            assert (
                random_baseline(small_index, None, 3, seed=seed).items
                == random_baseline(small_index, everything, 3, seed=seed).items
            )

    def test_restriction_respected(self, small_index):
        for seed in range(20):
            result = random_baseline(small_index, {"d2"}, 2, seed=seed)
            assert all(pid.startswith("d2#") for pid, _s in result.items)

    def test_empty_candidate_set_rejected(self, tiny_embeddings, tiny_doc_idf):
        empty = build_index([], tiny_embeddings, tiny_doc_idf)
        with pytest.raises(ValueError, match="empty"):
            random_baseline(empty, None, 3, seed=0)

    def test_unknown_doc_rejected(self, small_index):
        with pytest.raises(ValueError, match="ghost"):
            random_baseline(small_index, {"ghost"}, 3, seed=0)

    def test_k_below_one_rejected(self, small_index):
        with pytest.raises(ValueError, match="k"):
            random_baseline(small_index, None, 0, seed=0)

    def test_draws_are_uniform(self, tiny_embeddings, tiny_doc_idf):
        index = build_index(
            [("d", "Alpha one. Beta two. Gamma three. Delta four.")],
            tiny_embeddings,
            tiny_doc_idf,
        )
        assert len(index) == 4
        counts = Counter()
        draws = 10_000
        for seed in range(draws):
            result = random_baseline(index, None, 1, seed=seed)
            counts[result.items[0][0]] += 1
        expected = draws / 4
        for passage_id in ("d#0", "d#1", "d#2", "d#3"):
            assert abs(counts[passage_id] - expected) <= 0.05 * expected


class TestConcurrentReads:
    def test_shared_index_ranks_identically_across_threads(
        self, small_index, tiny_embeddings, tiny_doc_idf
    ):
        from concurrent.futures import ThreadPoolExecutor

        questions = [
            ["alpha", "beta"],
            ["gamma"],
            ["delta", "epsilon"],
            ["beta", "gamma", "alpha"],
        ]
        sequential = [
            rank(small_index, q, "cd-idf", 5, tiny_embeddings, tiny_doc_idf).items
            for q in questions
        ] + [random_baseline(small_index, None, 3, seed=i).items for i in range(4)]

        def work(job):
            kind, arg = job
            if kind == "rank":
                return rank(
                    small_index, arg, "cd-idf", 5, tiny_embeddings, tiny_doc_idf
                ).items
            return random_baseline(small_index, None, 3, seed=arg).items

        jobs = [("rank", q) for q in questions] + [("rnd", i) for i in range(4)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(5):
                concurrent = list(pool.map(work, jobs))
                assert concurrent == sequential

    def test_fresh_index_judges_identically_across_threads(self, bundle):
        from concurrent.futures import ThreadPoolExecutor

        questions = [
            Question(
                id=f"q{i}",
                body="anything",
                reference_docs=["d1", "d2"],
                gold_snippets=[("d1", snippet), ("d2", snippet)],
            )
            for i, snippet in enumerate(["beta gamma", "Gamma alone.", "alpha", "epsilon"])
        ]
        sequential = [
            build_judgments(load_index(bundle), q, 1).relevant_passage_ids for q in questions
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                index = load_index(bundle)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    concurrent = list(
                        pool.map(
                            lambda q: build_judgments(index, q, 1).relevant_passage_ids,
                            questions * 4,
                            timeout=60,
                        )
                    )
                assert concurrent == sequential * 4
                tokens, _judged = evaluation._MEMOS[index]
                assert tokens == {row: tokenize(p.text) for row, p in enumerate(index.passages)}
        finally:
            sys.setswitchinterval(interval)


UNPICKLED: list[str] = []


def _record_unpickling(name):
    UNPICKLED.append(name)


class _RecordsUnpickling:
    def __reduce__(self):
        return (_record_unpickling, ("unpickled",))


@pytest.fixture
def bundle(small_index, tmp_path):
    path = tmp_path / "index"
    save_index(small_index, path)
    return path


def _assert_bit_equal(reloaded, index):
    assert reloaded.dim == index.dim
    assert reloaded.passages == index.passages
    for name in ("uniform", "idf", "uniform_norms", "idf_norms"):
        got, want = getattr(reloaded, name), getattr(index, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert reloaded.doc_index.keys() == index.doc_index.keys()
    for doc_id, rows in index.doc_index.items():
        assert reloaded.doc_index[doc_id].tolist() == rows.tolist()


_SHAPES = "expected two 2-d matrices of one shape"


class TestIndexSerialization:
    def test_round_trip_preserves_ranking(self, small_index, tiny_embeddings, bundle):
        reloaded = load_index(bundle)
        _assert_bit_equal(reloaded, small_index)
        before = rank(small_index, ["alpha", "gamma"], "cd", 5, tiny_embeddings)
        after = rank(reloaded, ["alpha", "gamma"], "cd", 5, tiny_embeddings)
        assert before.items == after.items

    def test_bundle_is_two_matrices_passages_and_doc_idf(
        self, small_index, tiny_doc_idf, bundle
    ):
        assert sorted(p.name for p in bundle.iterdir()) == [
            "doc_idf.tsv", "header.json", "idf.npy", "passages.json", "uniform.npy",
        ]
        assert json.loads((bundle / "header.json").read_text(encoding="utf-8")) == {
            "embeddings_fingerprint": small_index.embeddings_fingerprint
        }
        uniform = np.load(bundle / "uniform.npy", allow_pickle=False)
        assert uniform.tobytes() == small_index.uniform.tobytes()
        text = (bundle / "passages.json").read_text(encoding="utf-8")
        assert text.startswith('[["d1#0","Alpha beta gamma."],["d1#1",')
        assert json.loads(text) == [list(p) for p in small_index.passages]
        assert load_idf(bundle / "doc_idf.tsv") == tiny_doc_idf
        reloaded = load_index(bundle)
        assert reloaded.doc_idf == tiny_doc_idf
        assert all(type(p) is retrieval.Passage for p in reloaded.passages)

    def test_text_with_tabs_and_newlines_round_trips(
        self, tiny_embeddings, tiny_doc_idf, tmp_path
    ):
        index = build_index(
            [("d", "Alpha\tbeta with \\ backslash")], tiny_embeddings, tiny_doc_idf
        )
        save_index(index, tmp_path / "index")
        reloaded = load_index(tmp_path / "index")
        assert reloaded.passages[0].text == "Alpha\tbeta with \\ backslash"

    def test_awkward_doc_ids_and_text_round_trip(
        self, tiny_embeddings, tiny_doc_idf, tmp_path
    ):
        text = "Alpha \\ beta\tgamma\rdelta\u2028epsilon\x85alpha é ß 字 \\t \\n."
        documents = [("a\tb", text), ("a\nb", "Beta beta. " + text), ("a\rb", text)]
        documents += [("a", "Beta beta. Gamma."), ("a#1", text)]
        index = build_index(documents, tiny_embeddings, tiny_doc_idf)
        assert text in [p.text for p in index.passages]
        save_index(index, tmp_path / "index")
        _assert_bit_equal(load_index(tmp_path / "index"), index)

    def test_empty_index_keeps_its_dimension(self, tiny_embeddings, tiny_doc_idf, tmp_path):
        save_index(build_index([], tiny_embeddings, tiny_doc_idf), tmp_path / "index")
        reloaded = load_index(tmp_path / "index")
        assert (len(reloaded), reloaded.dim) == (0, tiny_embeddings.dim)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["uniform.npy", "idf.npy"])
    def test_non_finite_matrix_value_refused_naming_file(self, bundle, name, value):
        # The row norm is not finite, and the index names its passage.
        matrix = np.load(bundle / name)
        matrix[-1, 0] = value
        np.save(bundle / name, matrix)
        label, norm = name.split(".")[0], "nan" if np.isnan(value) else "inf"
        with pytest.raises(
            ValueError, match=f"^passage 'd2#2': {label} centroid norm {norm} is not finite$"
        ):
            load_index(bundle)

    @pytest.mark.parametrize("name", ["uniform.npy", "idf.npy", "passages.json"])
    def test_missing_file_refused(self, bundle, name):
        (bundle / name).unlink()
        with pytest.raises(OSError):
            load_index(bundle)

    def test_doc_idf_that_save_idf_refuses_leaves_the_index_there(self, small_index, bundle):
        before = {path.name: path.read_bytes() for path in bundle.iterdir()}
        table = IdfTable(n_docs=4, df={"alpha": 3}, corpus_label="docu\nments")
        index = retrieval.PassageIndex(
            small_index.passages, small_index.uniform[:, ::-1], small_index.idf, table
        )
        with pytest.raises(ValueError, match="contains a line break"):
            save_index(index, bundle)
        assert {path.name: path.read_bytes() for path in bundle.iterdir()} == before

    def test_embeddings_fingerprint_survives_save_and_load(
        self, small_index, tiny_embeddings, bundle
    ):
        assert tiny_embeddings.fingerprint.startswith("sha256:")
        assert small_index.embeddings_fingerprint == tiny_embeddings.fingerprint
        assert load_index(bundle).embeddings_fingerprint == tiny_embeddings.fingerprint

    def test_index_of_a_table_built_in_memory_has_no_fingerprint(
        self, tiny_embeddings, tiny_doc_idf, tmp_path
    ):
        table = type(tiny_embeddings)(tiny_embeddings.vocab, tiny_embeddings.matrix)
        index = build_index([("d", "Alpha beta.")], table, tiny_doc_idf)
        assert index.embeddings_fingerprint is None
        save_index(index, tmp_path / "index")
        assert (tmp_path / "index" / "header.json").read_text(encoding="utf-8") == (
            '{"embeddings_fingerprint": null}'
        )
        assert load_index(tmp_path / "index").embeddings_fingerprint is None

    def test_index_without_a_header_has_no_fingerprint(self, small_index, bundle):
        (bundle / "header.json").unlink()
        reloaded = load_index(bundle)
        assert reloaded.embeddings_fingerprint is None
        _assert_bit_equal(reloaded, small_index)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "{",
            "null",
            "[]",
            '["embeddings_fingerprint"]',
            "{}",
            '{"embeddings_fingerprint": 1}',
            '{"embeddings_fingerprint": "md5:00"}',
            '{"embeddings_fingerprint": "sha256:' + "A" * 64 + '"}',
            '{"embeddings_fingerprint": null, "dim": 2}',
        ],
    )
    def test_malformed_header_refused_naming_it(self, bundle, text):
        (bundle / "header.json").write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            load_index(bundle)
        assert str(excinfo.value) == (
            'header.json: expected {"embeddings_fingerprint": null or "sha256:<64 hex digits>"}'
        )

    def test_missing_or_unreadable_doc_idf_refused_naming_it(self, bundle):
        path = bundle / "doc_idf.tsv"
        path.write_text("#n_docs 2 docs\na\t3\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            load_index(bundle)
        assert str(excinfo.value) == "doc_idf.tsv: line 2: df 3 outside [1, 2] for 'a'"
        path.unlink()
        with pytest.raises(ValueError) as excinfo:
            load_index(bundle)
        assert str(excinfo.value) == (
            f"doc_idf.tsv: [Errno 2] No such file or directory: {str(path)!r}"
        )

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.zeros((5, 2), np.float32), "idf.npy: expected a float64 matrix, got float32"),
            (np.zeros(10), r"uniform shape \(5, 2\) and idf shape \(10,\): " + _SHAPES),
            (np.zeros((5, 2, 1)), r"uniform shape \(5, 2\) and idf shape \(5, 2, 1\): " + _SHAPES),
        ],
        ids=["float32", "1-d", "3-d"],
    )
    def test_matrix_not_2d_float64_refused(self, bundle, matrix, message):
        np.save(bundle / "idf.npy", matrix)
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_index(bundle)

    def test_matrix_shapes_must_agree(self, bundle):
        np.save(bundle / "idf.npy", np.zeros((5, 3)))
        with pytest.raises(
            ValueError, match=r"^uniform shape \(5, 2\) and idf shape \(5, 3\): " + _SHAPES
        ):
            load_index(bundle)

    @pytest.mark.parametrize("rows", [4, 6])
    def test_row_count_must_match_passage_lines(self, bundle, rows):
        np.save(bundle / "uniform.npy", np.zeros((rows, 2)))
        np.save(bundle / "idf.npy", np.zeros((rows, 2)))
        with pytest.raises(ValueError, match=f"^5 passages, {rows} matrix rows$"):
            load_index(bundle)

    def test_header_shape_beyond_the_file_refused_before_allocating(self, bundle):
        # The header asks for 16 PB; reading it as is raised MemoryError.
        matrix = np.load(bundle / "uniform.npy")
        with open(bundle / "uniform.npy", "wb") as handle:
            np.lib.format.write_array_header_1_0(
                handle, {"descr": "<f8", "fortran_order": False, "shape": (10**15, 2)}
            )
            handle.write(matrix.tobytes())
        with pytest.raises(
            ValueError,
            match=r"^uniform.npy: not a readable .npy matrix \(shape \(1000000000000000, 2\) "
            r"needs 16000000000000000 bytes, the file holds 80\)$",
        ):
            load_index(bundle)

    def test_object_matrix_refused_without_unpickling(self, bundle):
        np.save(bundle / "uniform.npy", np.array([[_RecordsUnpickling()]], dtype=object))
        with pytest.raises(ValueError):
            load_index(bundle)
        assert UNPICKLED == []

    @pytest.mark.parametrize(
        "text",
        ["not json", "", '{"passages": []}', '"d1#0"', "[]]", '[["d1#0", "t"],]', "[\xe9",
         "[" * 100_000],
        ids=["not-json", "empty", "object", "string", "trailing-bracket", "trailing-comma",
             "not-utf8", "nested-too-deep"],
    )
    def test_passage_file_not_a_json_array_refused(self, bundle, text):
        (bundle / "passages.json").write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError) as excinfo:
            load_index(bundle)
        assert str(excinfo.value) == "passages.json: expected a JSON array of [passage_id, text]"

    def test_malformed_entries_reported(self, bundle):
        path = bundle / "passages.json"
        rows = json.loads(path.read_text(encoding="utf-8"))
        for bad in [
            ["d1#9"],
            ["d1#9", "text", "extra"],
            ["d1#9", 3],
            [None, "text"],
            "d1#9",
            None,
            {"passage_id": "d1#9", "text": "t"},
        ]:
            path.write_text(json.dumps([rows[0], bad, *rows[2:]]), encoding="utf-8")
            with pytest.raises(ValueError) as excinfo:
                load_index(bundle)
            assert str(excinfo.value) == "passages[1]: expected [passage_id, text]"

    def test_index_in_an_earlier_layout_refused(self, bundle):
        # Earlier versions wrote passages.jsonl, one [passage_id, text] per
        # line (before that, with the doc id as a middle field); rebuild.
        path = bundle / "passages.json"
        rows = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        (bundle / "passages.jsonl").write_text(
            "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
        )
        with pytest.raises(FileNotFoundError) as excinfo:
            load_index(bundle)
        assert excinfo.value.filename == str(path)

    def test_duplicate_passage_id_names_line(self, bundle):
        path = bundle / "passages.json"
        rows = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(rows[:2] + rows[:1] + rows[3:]), encoding="utf-8")
        with pytest.raises(
            ValueError, match="^passages\\[2\\]: passage id 'd1#0' does not sort after 'd1#1'$"
        ):
            load_index(bundle)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (["d1#x", "Alpha."], "passage id 'd1#x' is not '<doc_id>#<n>'"),
            (["d1#", "Alpha."], "passage id 'd1#' is not '<doc_id>#<n>'"),
            (["d1#\u0663", "Alpha."], "passage id 'd1#\u0663' is not '<doc_id>#<n>'"),
            (["d1-0", "Alpha."], "passage id 'd1-0' is not '<doc_id>#<n>'"),
        ],
        ids=["not-digits", "no-ordinal", "non-ascii-digit", "no-hash"],
    )
    def test_passage_id_must_be_doc_id_and_ordinal(self, bundle, fields, message):
        path = bundle / "passages.json"
        rows = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps([fields] + rows[1:]), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^passages\\[0\\]: {message}$"):
            load_index(bundle)

    def test_reversed_index_refused(self, bundle):
        # Consistent but out of order: every entry still matches its matrix rows.
        for name in ("uniform.npy", "idf.npy"):
            np.save(bundle / name, np.load(bundle / name)[::-1])
        path = bundle / "passages.json"
        rows = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(rows[::-1]), encoding="utf-8")
        with pytest.raises(
            ValueError, match="^passages\\[1\\]: passage id 'd2#1' does not sort after 'd2#2'$"
        ):
            load_index(bundle)

    def test_unsorted_passages_refused_by_the_index(self, small_index):
        passages = small_index.passages[::-1]
        with pytest.raises(ValueError, match="passage id 'd2#1' does not sort after 'd2#2'"):
            retrieval.PassageIndex(
                passages, small_index.uniform[::-1], small_index.idf[::-1], small_index.doc_idf
            )


class TestIndexChecksItsOwnData:
    """An index built in code is refused as a loaded one is."""

    @pytest.mark.parametrize("rows", [4, 6])
    def test_row_count_must_match_passages(self, small_index, rows):
        matrix = np.zeros((rows, 2))
        with pytest.raises(ValueError, match=f"^5 passages, {rows} matrix rows$"):
            retrieval.PassageIndex(small_index.passages, matrix, matrix, small_index.doc_idf)

    def test_matrix_shapes_must_agree(self, small_index):
        with pytest.raises(
            ValueError, match=r"^uniform shape \(5, 2\) and idf shape \(5, 3\): " + _SHAPES + "$"
        ):
            retrieval.PassageIndex(
                small_index.passages, np.zeros((5, 2)), np.zeros((5, 3)), small_index.doc_idf
            )

    def test_matrices_must_be_2d(self, small_index):
        with pytest.raises(
            ValueError, match=r"^uniform shape \(5,\) and idf shape \(5,\): " + _SHAPES + "$"
        ):
            retrieval.PassageIndex(
                small_index.passages, np.zeros(5), np.zeros(5), small_index.doc_idf
            )

    def test_repeated_passage_id_refused(self, small_index):
        passages = list(small_index.passages)
        passages[1] = passages[0]
        with pytest.raises(ValueError) as excinfo:
            retrieval.PassageIndex(
                passages, small_index.uniform, small_index.idf, small_index.doc_idf
            )
        assert str(excinfo.value) == "passages[1]: passage id 'd1#0' does not sort after 'd1#0'"

    @pytest.mark.parametrize(
        "passage_id",
        ["d1#x", "d1#", "d1#\u0663", "d1-0", "0"],
        ids=["not-digits", "no-ordinal", "non-ascii-digit", "no-hash", "no-hash-empty-doc"],
    )
    def test_passage_id_must_be_doc_id_and_ordinal(self, small_index, passage_id):
        passages = list(small_index.passages)
        passages[3] = retrieval.Passage(passage_id, "Alpha.")
        message = f"passages[3]: passage id {passage_id!r} is not '<doc_id>#<n>'"
        with pytest.raises(ValueError) as excinfo:
            retrieval.PassageIndex(
                passages, small_index.uniform, small_index.idf, small_index.doc_idf
            )
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "entry",
        [("d1#9",), ("d1#9", "Alpha.", "extra"), ("d1#9", 3), (None, "Alpha."), "d1", None,
         {"d1#9": "Alpha."}],
        ids=["one-field", "three-fields", "text-not-str", "id-not-str", "str", "none", "dict"],
    )
    def test_passage_not_a_pair_of_strings_refused(self, small_index, entry):
        passages = list(small_index.passages)
        passages[3] = entry
        with pytest.raises(ValueError) as excinfo:
            retrieval.PassageIndex(
                passages, small_index.uniform, small_index.idf, small_index.doc_idf
            )
        assert str(excinfo.value) == "passages[3]: expected [passage_id, text]"

    def test_pairs_become_passages(self, small_index):
        pairs = [list(p) for p in small_index.passages]
        index = retrieval.PassageIndex(
            pairs, small_index.uniform, small_index.idf, small_index.doc_idf
        )
        assert index.passages == small_index.passages
        assert all(type(p) is retrieval.Passage for p in index.passages)
        assert index.doc_idf is small_index.doc_idf

    def test_later_edits_of_the_callers_list_do_not_reach_the_index(
        self, small_index, tiny_embeddings
    ):
        passages = list(small_index.passages)
        index = retrieval.PassageIndex(
            passages, small_index.uniform, small_index.idf, small_index.doc_idf
        )
        passages.append(retrieval.Passage("d3#0", "Gamma."))
        passages[0] = retrieval.Passage("z#0", "Alpha beta gamma.")
        assert len(index) == len(index.uniform) == 5
        assert index.passages == small_index.passages
        ranked = rank(index, ["alpha"], "cd", 5, tiny_embeddings)
        assert _ids(ranked) == _ids(rank(small_index, ["alpha"], "cd", 5, tiny_embeddings))
        assert "z#0" not in _ids(ranked)
