import json
import random
from collections import Counter
from io import StringIO
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
    load_index,
    random_baseline,
    rank,
    save_index,
    tokenize,
)
from centroidrank import retrieval, semantic
from oracles import oracle_rank
from synth import make_instance


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
        with pytest.raises(ValueError, match="cd-idf"):
            rank(small_index, ["alpha"], "cd-idf", 5, tiny_embeddings)
        with pytest.raises(ValueError, match="cd-q"):
            rank(small_index, ["alpha"], "cd-q", 5, tiny_embeddings)

    def test_question_side_weighting_changes_with_method(self):
        # Embeddings chosen so a question-word-heavy passage wins under
        # uniform weighting but loses once question-corpus idf zeroes the
        # question word out.
        embeddings = load_embeddings(
            StringIO("what 1.0 0.0\ndegenerate 0.0 1.0\nprotein 0.0 0.9")
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
        embeddings = load_embeddings(
            StringIO(
                "\n".join(
                    w + " " + " ".join(repr(rng.uniform(-1, 1)) for _ in range(37))
                    for w in words
                )
            )
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
        embeddings = load_embeddings(
            StringIO(
                "\n".join(
                    w + " " + " ".join(repr(rng.uniform(-1, 1)) for _ in range(5))
                    for w in words
                )
            )
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
        wider = load_embeddings(StringIO("alpha 1.0 0.0 0.0"))
        with pytest.raises(
            ValueError, match="dimension mismatch: index dim 2, embeddings dim 3"
        ):
            rank(small_index, ["alpha"], "cd", 5, wider)


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


class TestIndexSerialization:
    def test_round_trip_preserves_ranking(self, small_index, tiny_embeddings, bundle):
        reloaded = load_index(bundle)
        _assert_bit_equal(reloaded, small_index)
        before = rank(small_index, ["alpha", "gamma"], "cd", 5, tiny_embeddings)
        after = rank(reloaded, ["alpha", "gamma"], "cd", 5, tiny_embeddings)
        assert before.items == after.items

    def test_bundle_is_two_matrices_and_passage_lines(self, small_index, bundle):
        assert sorted(p.name for p in bundle.iterdir()) == [
            "idf.npy", "passages.jsonl", "uniform.npy",
        ]
        uniform = np.load(bundle / "uniform.npy", allow_pickle=False)
        assert uniform.tobytes() == small_index.uniform.tobytes()
        lines = (bundle / "passages.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == [
            list(p) for p in small_index.passages
        ]

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
        index = build_index(documents, tiny_embeddings, tiny_doc_idf)
        assert text in [p.text for p in index.passages]
        save_index(index, tmp_path / "index")
        _assert_bit_equal(load_index(tmp_path / "index"), index)

    def test_empty_index_keeps_its_dimension(self, tiny_embeddings, tiny_doc_idf, tmp_path):
        save_index(build_index([], tiny_embeddings, tiny_doc_idf), tmp_path / "index")
        reloaded = load_index(tmp_path / "index")
        assert (len(reloaded), reloaded.dim) == (0, tiny_embeddings.dim)

    @pytest.mark.parametrize("name", ["uniform.npy", "idf.npy", "passages.jsonl"])
    def test_missing_file_refused(self, bundle, name):
        (bundle / name).unlink()
        with pytest.raises(OSError):
            load_index(bundle)

    @pytest.mark.parametrize(
        "matrix",
        [np.zeros((5, 2), dtype=np.float32), np.zeros(10), np.zeros((5, 2, 1))],
        ids=["float32", "1-d", "3-d"],
    )
    def test_matrix_not_2d_float64_refused(self, bundle, matrix):
        np.save(bundle / "idf.npy", matrix)
        with pytest.raises(ValueError, match="idf.npy: expected a 2-d float64 matrix"):
            load_index(bundle)

    def test_matrix_shapes_must_agree(self, bundle):
        np.save(bundle / "idf.npy", np.zeros((5, 3)))
        with pytest.raises(ValueError, match=r"shape \(5, 2\) differs from idf.npy shape \(5, 3\)"):
            load_index(bundle)

    @pytest.mark.parametrize("rows", [4, 6])
    def test_row_count_must_match_passage_lines(self, bundle, rows):
        np.save(bundle / "uniform.npy", np.zeros((rows, 2)))
        np.save(bundle / "idf.npy", np.zeros((rows, 2)))
        with pytest.raises(ValueError, match=f"has 5 passages, the matrices {rows} rows"):
            load_index(bundle)

    def test_object_matrix_refused_without_unpickling(self, bundle):
        np.save(bundle / "uniform.npy", np.array([[_RecordsUnpickling()]], dtype=object))
        with pytest.raises(ValueError):
            load_index(bundle)
        assert UNPICKLED == []

    def test_malformed_lines_reported(self, bundle):
        path = bundle / "passages.jsonl"
        first = path.read_text(encoding="utf-8").splitlines(keepends=True)[0]
        for bad in [
            "not json\n",
            "\n",
            '["d1#9", "d1"]\n',
            '["d1#9", "d1", "text", "extra"]\n',
            '["d1#9", "d1", 3]\n',
            '{"passage_id": "d1#9", "doc_id": "d1", "text": "t"}\n',
        ]:
            path.write_text(first + bad, encoding="utf-8")
            with pytest.raises(
                ValueError, match=r"passages.jsonl line 2: expected \[passage_id, doc_id, text\]"
            ):
                load_index(bundle)

    def test_duplicate_passage_id_names_line(self, bundle):
        path = bundle / "passages.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:2] + lines[:1] + lines[3:]), encoding="utf-8")
        with pytest.raises(
            ValueError, match="passages.jsonl line 3: passage id 'd1#0' does not sort after 'd1#1'"
        ):
            load_index(bundle)

    def test_reversed_index_refused(self, bundle):
        # Consistent but out of order: every line still matches its matrix rows.
        for name in ("uniform.npy", "idf.npy"):
            np.save(bundle / name, np.load(bundle / name)[::-1])
        path = bundle / "passages.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(reversed(lines)), encoding="utf-8")
        with pytest.raises(
            ValueError, match="passages.jsonl line 2: passage id 'd2#1' does not sort after 'd2#2'"
        ):
            load_index(bundle)

    def test_unsorted_passages_refused_by_the_index(self, small_index):
        passages = small_index.passages[::-1]
        with pytest.raises(ValueError, match="passage id 'd2#1' does not sort after 'd2#2'"):
            retrieval.PassageIndex(
                small_index.dim, passages, small_index.uniform[::-1], small_index.idf[::-1]
            )
