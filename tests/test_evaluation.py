import gc
import json
import random
import tracemalloc
import warnings
import weakref
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centroidrank import (
    IdfTable,
    Method,
    QuestionScore,
    RankedList,
    RelevanceJudgments,
    RunResult,
    aggregate,
    average_precision_at_k,
    build_idf,
    build_index,
    build_judgments,
    evaluate_questions,
    judge_relevance,
    load_index,
    load_run,
    precision_at_k,
    random_baseline,
    rank,
    recall_at_k,
    save_index,
    save_run,
    tokenize,
    wilcoxon_signed_rank,
)
from centroidrank import evaluation
from centroidrank.ingest import Question
from oracles import (
    oracle_average_precision,
    oracle_judge,
    oracle_precision,
    oracle_recall,
    oracle_wilcoxon,
)
from synth import make_instance
from textfile import from_text


def _ranking(*passage_ids: str) -> RankedList:
    return RankedList(
        question_id="q",
        method=Method.CD,
        items=[(pid, i * 0.1) for i, pid in enumerate(passage_ids)],
    )


def _judgments(*relevant: str) -> RelevanceJudgments:
    return RelevanceJudgments(question_id="q", relevant_passage_ids=set(relevant))


def _tokens(text: str) -> tuple[str, ...]:
    return tokenize(text).tokens


class TestJudgeRelevance:
    def test_identical_text_same_doc(self):
        passage = _tokens("Insulin lowers blood glucose.")
        assert judge_relevance(passage, [_tokens("Insulin lowers blood glucose.")])

    def test_sentence_within_multi_sentence_snippet(self):
        snippet = (
            "Insulin is released by beta cells. "
            "It lowers blood glucose in the liver and muscle."
        )
        passage = _tokens("Insulin is released by beta cells.")
        assert judge_relevance(passage, [_tokens(snippet)])

    def test_snippet_within_passage(self):
        passage = _tokens("We found that insulin lowers glucose, remarkably.")
        assert judge_relevance(passage, [_tokens("insulin lowers glucose")])

    def test_contiguous_run_at_threshold(self):
        # shares exactly 5 contiguous tokens, neither contains the other
        passage = _tokens("alpha one two three four five zzz")
        gold = [_tokens("yyy one two three four five omega")]
        assert judge_relevance(passage, gold)

    def test_contiguous_run_below_threshold(self):
        passage = _tokens("alpha one two three four zzz")
        gold = [_tokens("yyy one two three four omega")]
        assert not judge_relevance(passage, gold)

    def test_threshold_is_configurable(self):
        passage = _tokens("alpha one two three zzz")
        gold = [_tokens("yyy one two three omega")]
        assert judge_relevance(passage, gold, overlap_threshold=3)
        assert not judge_relevance(passage, gold, overlap_threshold=4)

    def test_scattered_overlap_does_not_count(self):
        # five shared tokens but never contiguous
        passage = _tokens("one x two y three z four w five")
        gold = [_tokens("one a two b three c four d five")]
        assert not judge_relevance(passage, gold)

    def test_normalization_bridges_case_and_punctuation(self):
        passage = _tokens("Insulin lowers blood glucose!")
        assert judge_relevance(passage, [_tokens("insulin, lowers; blood glucose")])

    def test_tokenless_passage_is_irrelevant(self):
        passage = _tokens("???")
        assert not judge_relevance(passage, [_tokens("anything at all")])

    def test_containment_respects_token_boundaries(self):
        # "in" is a substring of "insulin" but not a token of the passage
        passage = _tokens("insulin lowers glucose")
        assert not judge_relevance(passage, [_tokens("in")])
        assert not judge_relevance(_tokens("in"), [passage])

    def test_any_snippet_matches(self):
        passage = _tokens("Insulin lowers blood glucose.")
        gold = [_tokens("unrelated words"), (), _tokens("blood glucose")]
        assert judge_relevance(passage, gold)
        assert not judge_relevance(passage, gold[:2])

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_threshold_below_one_rejected(self, threshold):
        with pytest.raises(ValueError, match=f"overlap threshold must be >= 1, got {threshold}"):
            judge_relevance(_tokens("a b"), [_tokens("a b")], overlap_threshold=threshold)


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(
    passage=st.lists(st.sampled_from("abc"), max_size=12).map(tuple),
    snippet=st.lists(st.sampled_from("abc"), max_size=12).map(tuple),
    threshold=st.integers(min_value=1, max_value=7),
)
def test_judge_relevance_matches_oracle_property(passage, snippet, threshold):
    assert judge_relevance(passage, [snippet], threshold) == oracle_judge(
        passage, snippet, threshold
    )


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(
    passage=st.lists(st.sampled_from("abc"), max_size=12).map(tuple),
    snippets=st.lists(st.lists(st.sampled_from("abc"), max_size=12).map(tuple), max_size=4),
    threshold=st.integers(min_value=1, max_value=7),
)
def test_judge_relevance_with_several_snippets_matches_oracle_property(
    passage, snippets, threshold
):
    # Short inputs on purpose: t up to 7 over at most 12 tokens puts
    # passages and snippets below t on both sides, and empty snippets in.
    got = judge_relevance(passage, snippets, threshold)
    if not passage:
        assert got is False
    else:
        assert got == any(oracle_judge(passage, s, threshold) for s in snippets if s)
    prepared = evaluation._PreparedSnippets(snippets, threshold)
    assert judge_relevance(passage, prepared, threshold) == got


def test_judging_memory_does_not_grow_with_the_threshold():
    # The texts have 2 and 3 tokens, so no gram needs more than 4 slices;
    # the peak must not grow with t.
    tracemalloc.start()
    try:
        got = judge_relevance(("a", "b"), [("a", "b", "c")], 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is True
    assert peak < 2**20


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    passage=st.lists(st.sampled_from("abc"), min_size=1, max_size=12).map(tuple),
    snippet=st.lists(st.sampled_from("abc"), min_size=1, max_size=12).map(tuple),
)
def test_a_threshold_past_every_text_judges_as_the_oracle(passage, snippet):
    # Only containment can match; at t = 10**9 this also checks that
    # judging costs nothing in t.
    t = 10**9
    expected = oracle_judge(passage, snippet, t)
    assert judge_relevance(passage, [snippet], t) == expected
    assert judge_relevance(passage, evaluation._PreparedSnippets([snippet], t), t) == expected


def _random_gold(rng, instance):
    """Gold snippets drawn from an instance: parts of passages, whole
    passages and random token runs, some under another or a missing doc."""
    vocab = sorted({t for _pid, _doc, tokens in instance.passages for t in tokens})
    doc_ids = [doc_id for doc_id, _text in instance.documents] + ["ghost"]
    gold: list[tuple[str, list[str]]] = []
    for _ in range(rng.randrange(0, 9)):
        _pid, doc_id, tokens = rng.choice(instance.passages)
        start = rng.randrange(len(tokens))
        snippet = {
            "part": tokens[start : rng.randrange(start, len(tokens) + 1)],
            "whole": tokens,
            "random": [rng.choice(vocab) for _ in range(rng.randrange(0, 7))],
        }[rng.choice(["part", "whole", "random"])]
        gold.append((rng.choice([doc_id, rng.choice(doc_ids)]), snippet))
    return doc_ids, gold


def _gold_question(question_id, doc_ids, gold):
    return Question(
        id=question_id,
        body="anything",
        reference_docs=doc_ids,
        gold_snippets=[(doc_id, " ".join(tokens)) for doc_id, tokens in gold],
    )


def _oracle_relevant(instance, gold, threshold):
    return {
        pid
        for pid, doc_id, tokens in instance.passages
        if any(
            oracle_judge(tokens, snippet, threshold)
            for snippet_doc, snippet in gold
            if snippet_doc == doc_id and snippet
        )
    }


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    threshold=st.integers(min_value=1, max_value=5),
)
def test_build_judgments_matches_per_passage_oracle_property(seed, threshold):
    rng = random.Random(seed)
    instance = make_instance(rng)
    index = build_index(instance.documents, instance.embeddings, instance.doc_idf)
    doc_ids, gold = _random_gold(rng, instance)
    question = _gold_question("q", doc_ids, gold)
    want = _oracle_relevant(instance, gold, threshold)
    assert build_judgments(index, question, threshold).relevant_passage_ids == want


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_judgments_kept_on_the_index_match_a_fresh_index_property(seed):
    # Questions share ids across draws, as they do across question sets;
    # each is judged twice at each of two thresholds, in shuffled order,
    # on one index that keeps its judgments.
    rng = random.Random(seed)
    instance = make_instance(rng)
    shared = build_index(instance.documents, instance.embeddings, instance.doc_idf)
    drawn = []
    for _ in range(rng.randrange(1, 5)):
        doc_ids, gold = _random_gold(rng, instance)
        drawn.append((_gold_question(rng.choice(["q", "r"]), doc_ids, gold), gold))
    calls = [(question, gold, t) for question, gold in drawn for t in rng.sample(range(1, 6), 2)]
    calls *= 2
    rng.shuffle(calls)
    for question, gold, t in calls:
        got = build_judgments(shared, question, t)
        fresh = build_index(instance.documents, instance.embeddings, instance.doc_idf)
        assert got == build_judgments(fresh, question, t)
        assert got.question_id == question.id
        assert got.relevant_passage_ids == _oracle_relevant(instance, gold, t)


class TestBuildJudgments:
    def test_marks_matching_sentences(self, tiny_embeddings, tiny_doc_idf):
        index = build_index(
            [
                ("d1", "Alpha beta gamma. Delta epsilon here."),
                ("d2", "Alpha beta gamma."),
            ],
            tiny_embeddings,
            tiny_doc_idf,
        )
        question = Question(
            id="q1",
            body="anything",
            reference_docs=["d1", "d2"],
            gold_snippets=[("d1", "Alpha beta gamma.")],
        )
        judgments = build_judgments(index, question)
        assert judgments.relevant_passage_ids == {"d1#0"}
        assert judgments.n_relevant == 1

    def test_different_doc_never_matches(self, tiny_embeddings, tiny_doc_idf):
        index = build_index(
            [
                ("d1", "Insulin lowers blood glucose."),
                ("d2", "Something else entirely."),
            ],
            tiny_embeddings,
            tiny_doc_idf,
        )
        question = Question(
            id="q1",
            body="anything",
            reference_docs=["d1", "d2"],
            gold_snippets=[("d2", "Insulin lowers blood glucose.")],
        )
        assert build_judgments(index, question).relevant_passage_ids == set()

    def test_snippets_of_one_document_are_all_tried(self, tiny_embeddings, tiny_doc_idf):
        index = build_index(
            [("d1", "Alpha beta gamma. Delta epsilon here. Beta alone.")],
            tiny_embeddings,
            tiny_doc_idf,
        )
        question = Question(
            id="q1",
            body="anything",
            reference_docs=["d1"],
            gold_snippets=[("d1", "Alpha beta gamma."), ("d1", "epsilon here"), ("ghost", "Beta alone.")],
        )
        assert build_judgments(index, question).relevant_passage_ids == {"d1#0", "d1#1"}

    TWO_DOCS = [("d1", "Alpha beta gamma. Delta epsilon here."), ("d2", "Gamma alone.")]

    @staticmethod
    def _question(*snippets):
        return Question(id="q1", body="x", reference_docs=["d1", "d2"], gold_snippets=list(snippets))

    def test_same_id_with_other_snippets_judged_afresh(self, tiny_embeddings, tiny_doc_idf):
        index = build_index(self.TWO_DOCS, tiny_embeddings, tiny_doc_idf)
        first = self._question(("d1", "beta gamma"))
        second = self._question(("d2", "gamma alone"))
        assert build_judgments(index, first).relevant_passage_ids == {"d1#0"}
        assert build_judgments(index, second).relevant_passage_ids == {"d2#0"}
        assert build_judgments(index, first).relevant_passage_ids == {"d1#0"}

    def test_mutating_a_result_leaves_the_next_call_unchanged(
        self, tiny_embeddings, tiny_doc_idf
    ):
        index = build_index(self.TWO_DOCS, tiny_embeddings, tiny_doc_idf)
        question = self._question(("d1", "beta gamma"))
        build_judgments(index, question).relevant_passage_ids.add("d2#0")
        build_judgments(index, question).relevant_passage_ids.clear()
        assert build_judgments(index, question).relevant_passage_ids == {"d1#0"}

    def test_snippets_given_as_lists_judged_as_tuples(self, tiny_embeddings, tiny_doc_idf):
        snippets = [("d1", "epsilon here"), ("d2", "Gamma alone."), ("ghost", "alpha")]
        as_lists = self._question(*map(list, snippets))
        as_tuples = self._question(*snippets)
        want = {"d1#1", "d2#0"}
        # lists first on one index, tuples first on another
        for order in ((as_lists, as_tuples), (as_tuples, as_lists)):
            index = build_index(self.TWO_DOCS, tiny_embeddings, tiny_doc_idf)
            for question in order:
                assert build_judgments(index, question).relevant_passage_ids == want

    def test_threshold_below_one_rejected(self, tiny_embeddings, tiny_doc_idf):
        index = build_index([("d1", "Alpha beta.")], tiny_embeddings, tiny_doc_idf)
        question = Question(
            id="q1", body="alpha", reference_docs=["d1"], gold_snippets=[("d1", "Gamma.")]
        )
        with pytest.raises(ValueError, match="overlap threshold must be >= 1, got 0"):
            build_judgments(index, question, overlap_threshold=0)


class TestJudgingMemos:
    """What ``build_judgments`` keeps per index: passage tokens and judgments."""

    DOCS = [
        ("d1", "Alpha beta gamma. Delta epsilon here."),
        ("d2", "Beta beta. Gamma alone. Alpha delta epsilon."),
    ]
    FIRST = Question(
        id="q1", body="x", reference_docs=["d1", "d2"],
        gold_snippets=[("d1", "beta gamma"), ("d2", "gamma alone")],
    )

    @staticmethod
    def _every_passage(index):
        # Each passage's own text as a snippet of its document.
        return Question(
            id="q", body="x", reference_docs=sorted(index.doc_index),
            gold_snippets=[(p.passage_id.rpartition("#")[0], p.text) for p in index.passages],
        )

    def test_tokens_of_every_row_of_built_and_loaded_index(
        self, tiny_embeddings, tiny_doc_idf, tmp_path
    ):
        built = build_index(self.DOCS, tiny_embeddings, tiny_doc_idf)
        save_index(built, tmp_path / "index")
        for index in (built, load_index(tmp_path / "index")):
            judgments = build_judgments(index, self._every_passage(index), 1)
            assert judgments.relevant_passage_ids == {p.passage_id for p in index.passages}
            tokens, _judged = evaluation._MEMOS[index]
            assert tokens == {row: tokenize(p.text) for row, p in enumerate(index.passages)}

    def test_tokenized_once_through_the_module_and_kept(self, tiny_embeddings, tiny_doc_idf):
        index = build_index(self.DOCS, tiny_embeddings, tiny_doc_idf)
        second = Question(
            id="q2", body="x", reference_docs=["d1", "d2"],
            gold_snippets=[("d1", "epsilon here"), ("d2", "alpha delta")],
        )
        with mock.patch.object(evaluation, "tokenize", wraps=tokenize) as counted:
            build_judgments(index, self.FIRST)
            assert counted.call_count == 2 + len(index)
            first = dict(evaluation._MEMOS[index][0])
            # other snippets, so judged afresh: only the snippets are tokenized
            build_judgments(index, second)
            assert counted.call_count == 2 + len(index) + 2
        again = evaluation._MEMOS[index][0]
        assert again.keys() == first.keys() == set(range(len(index)))
        assert all(again[row] is first[row] for row in first)

    def test_load_and_rank_leave_the_memo_empty(self, tiny_embeddings, tiny_doc_idf, tmp_path):
        save_index(build_index(self.DOCS, tiny_embeddings, tiny_doc_idf), tmp_path / "index")
        index = load_index(tmp_path / "index")
        rank(index, ["alpha", "gamma"], "cd", 3, tiny_embeddings)
        rank(index, ["alpha"], "cd", 2, tiny_embeddings, candidate_docs={"d2"})
        random_baseline(index, {"d1"}, 2, seed=0)
        assert index not in evaluation._MEMOS
        with mock.patch.object(evaluation, "tokenize", wraps=tokenize) as counted:
            build_judgments(index, self._every_passage(index))
        # each passage once as a snippet, then once as a passage
        assert counted.call_count == 2 * len(index)

    def test_memos_live_as_long_as_their_index(self, tiny_embeddings, tiny_doc_idf):
        index = build_index(self.DOCS, tiny_embeddings, tiny_doc_idf)
        judged = build_judgments(index, self.FIRST)
        with mock.patch.object(evaluation, "tokenize", wraps=tokenize) as counted:
            assert build_judgments(index, self.FIRST) == judged
        assert counted.call_count == 0
        memos = evaluation._MEMOS[index]
        alive = weakref.ref(index)
        del index
        gc.collect()
        assert alive() is None
        assert all(kept is not memos for kept in evaluation._MEMOS.values())


class TestPrecisionRecall:
    def test_two_relevant_in_ten(self):
        ranking = _ranking(*[f"p{i}" for i in range(10)])
        judgments = _judgments("p0", "p5")
        assert precision_at_k(ranking, judgments) == pytest.approx(0.2)

    def test_empty_ranking(self):
        assert precision_at_k(_ranking(), _judgments("p0")) == 0.0
        assert recall_at_k(_ranking(), _judgments("p0")) == 0.0
        assert average_precision_at_k(_ranking(), _judgments("p0")) == 0.0

    def test_short_ranking_uses_returned_length(self):
        ranking = _ranking("p0", "p1", "p2", "p3")
        judgments = _judgments("p0", "p1", "p2")
        assert precision_at_k(ranking, judgments, k=10) == pytest.approx(0.75)

    def test_precision_counts_only_first_k(self):
        ranking = _ranking(*[f"p{i}" for i in range(15)])
        judgments = _judgments("p12")
        assert precision_at_k(ranking, judgments, k=10) == 0.0

    def test_full_recall(self):
        ranking = _ranking("p0", "p1", "p2")
        judgments = _judgments("p0", "p1", "p2")
        assert recall_at_k(ranking, judgments) == 1.0

    def test_no_relevant_is_zero_recall(self):
        assert recall_at_k(_ranking("p0"), _judgments()) == 0.0

    def test_quarter_recall(self):
        ranking = _ranking("p0", "x1", "x2")
        judgments = _judgments("p0", "a", "b", "c")
        assert recall_at_k(ranking, judgments) == pytest.approx(0.25)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            precision_at_k(_ranking("p0"), _judgments(), k=0)
        with pytest.raises(ValueError):
            recall_at_k(_ranking("p0"), _judgments(), k=0)
        with pytest.raises(ValueError):
            average_precision_at_k(_ranking("p0"), _judgments(), k=0)


class TestAveragePrecision:
    def test_single_relevant_at_rank_one(self):
        assert average_precision_at_k(_ranking("p0", "x"), _judgments("p0")) == 1.0

    def test_single_relevant_at_rank_two(self):
        result = average_precision_at_k(_ranking("x", "p0"), _judgments("p0"))
        assert result == pytest.approx(0.5)

    def test_two_relevant_at_ranks_one_and_three(self):
        result = average_precision_at_k(
            _ranking("p0", "x", "p1"), _judgments("p0", "p1")
        )
        assert result == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-6)

    def test_no_relevant(self):
        assert average_precision_at_k(_ranking("x"), _judgments()) == 0.0

    def test_perfect_prefix_is_one(self):
        rng = random.Random(4)
        for _ in range(50):
            n_relevant = rng.randrange(1, 10)
            relevant = [f"r{i}" for i in range(n_relevant)]
            tail = [f"x{i}" for i in range(10 - n_relevant)]
            ranking = _ranking(*(relevant + tail))
            assert average_precision_at_k(ranking, _judgments(*relevant)) == pytest.approx(1.0)

    def test_only_first_k_count_toward_ap(self):
        ranking = _ranking(*([f"x{i}" for i in range(10)] + ["p0"]))
        assert average_precision_at_k(ranking, _judgments("p0"), k=10) == 0.0


_PASSAGE_IDS = st.sampled_from([f"d#{i}" for i in range(20)])


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(
    ranked=st.lists(_PASSAGE_IDS, max_size=15, unique=True),
    relevant=st.sets(_PASSAGE_IDS, max_size=10),
    k=st.integers(min_value=1, max_value=12),
)
def test_metrics_match_oracles_bitwise_property(ranked, relevant, k):
    ranking, judgments = _ranking(*ranked), _judgments(*relevant)
    assert precision_at_k(ranking, judgments, k) == oracle_precision(ranked, relevant, k)
    assert recall_at_k(ranking, judgments, k) == oracle_recall(ranked, relevant, k)
    assert average_precision_at_k(ranking, judgments, k) == oracle_average_precision(
        ranked, relevant, k
    )


class TestAggregate:
    def test_table_row_weak_baseline(self):
        agg = aggregate([(0.190, 0.190, 0.289)])
        assert agg.f1 == pytest.approx(0.229, abs=5e-4)

    def test_table_row_strong_baseline(self):
        agg = aggregate([(0.348, 0.344, 0.510)])
        assert agg.f1 == pytest.approx(0.411, abs=5e-4)

    def test_zero_precision_and_recall(self):
        agg = aggregate([(0.0, 0.0, 0.0)])
        assert agg.f1 == 0.0

    def test_means_are_arithmetic(self):
        agg = aggregate([(1.0, 1.0, 0.5), (0.0, 0.5, 0.0), (0.5, 0.0, 1.0)])
        assert agg.map == pytest.approx(0.5)
        assert agg.precision == pytest.approx(0.5)
        assert agg.recall == pytest.approx(0.5)
        assert agg.f1 == pytest.approx(0.5)

    def test_permutation_invariant(self):
        rows = [(0.1, 0.2, 0.3), (0.9, 0.8, 0.7), (0.5, 0.4, 0.6), (0.0, 1.0, 0.25)]
        rng = random.Random(9)
        reference = aggregate(rows)
        for _ in range(10):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert aggregate(shuffled) == reference

    def test_f1_bounded_by_max_component(self):
        rng = random.Random(17)
        for _ in range(200):
            rows = [
                (rng.random(), rng.random(), rng.random())
                for _ in range(rng.randrange(1, 8))
            ]
            agg = aggregate(rows)
            assert 0.0 <= agg.map <= 1.0
            assert agg.f1 <= max(agg.precision, agg.recall) + 1e-12

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate([])

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_overflowing_sum_refused_naming_the_field(self, column):
        rows = [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]
        for row in rows:
            row[column] = 1e308
        with pytest.raises(ValueError) as excinfo:
            aggregate(rows)
        name = ("ap", "precision", "recall")[column]
        assert str(excinfo.value) == f"the sum of the per-question {name} values overflows"


class TestWilcoxon:
    def test_identical_inputs(self):
        result = wilcoxon_signed_rank([0.2, 0.4, 0.9], [0.2, 0.4, 0.9])
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert not result.significant

    def test_five_positive_differences(self):
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
        assert result.statistic == 0.0
        assert result.p_value == 0.0625
        assert not result.significant  # 0.0625 is not < 0.05

    def test_mixed_differences_match_enumeration(self):
        a = [1.0, 0.0, 3.0, 0.0, 5.0]
        b = [0.0, 2.0, 0.0, 4.0, 0.0]
        result = wilcoxon_signed_rank(a, b)
        w, p = oracle_wilcoxon([1.0, -2.0, 3.0, -4.0, 5.0])
        assert result.statistic == w == 6.0
        assert result.p_value == p == 0.8125

    def test_zero_differences_are_discarded(self):
        result = wilcoxon_signed_rank([1.0, 5.0, 2.0], [1.0, 0.0, 2.0])
        # only one nonzero difference remains
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_exact_equals_enumeration_on_random_vectors(self):
        rng = random.Random(2025)
        for _ in range(120):
            n = rng.randrange(1, 13)
            if rng.random() < 0.5:
                diffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
            else:
                diffs = [rng.uniform(-1, 1) or 0.5 for _ in range(n)]
            a = [float(d) for d in diffs]
            b = [0.0] * n
            result = wilcoxon_signed_rank(a, b)
            w, p = oracle_wilcoxon(a)
            assert result.statistic == w
            assert result.p_value == p

    def test_antisymmetric_in_inputs(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randrange(1, 15)
            a = [rng.uniform(0, 1) for _ in range(n)]
            b = [rng.uniform(0, 1) for _ in range(n)]
            forward = wilcoxon_signed_rank(a, b)
            backward = wilcoxon_signed_rank(b, a)
            assert forward.statistic == backward.statistic
            assert forward.p_value == backward.p_value

    def test_normal_band_near_exact_for_tie_free_moderate_n(self):
        # The band holds for tie-free differences at n >= 4; at n in {2, 3}
        # (and under heavy ties) the exact distribution is too coarse for
        # any continuous approximation.
        rng = random.Random(8)
        for _ in range(150):
            n = rng.randrange(4, 13)
            a = [rng.uniform(0.1, 1.0) * rng.choice([-1, 1]) for _ in range(n)]
            b = [0.0] * n
            exact = wilcoxon_signed_rank(a, b, mode="exact")
            approx = wilcoxon_signed_rank(a, b, mode="normal")
            assert abs(exact.p_value - approx.p_value) <= 0.05

    def test_large_n_uses_normal_path(self):
        rng = random.Random(77)
        n = 40
        a = [rng.uniform(0, 1) for _ in range(n)]
        b = [x + rng.uniform(-0.6, 0.4) for x in a]
        auto = wilcoxon_signed_rank(a, b)
        forced = wilcoxon_signed_rank(a, b, mode="normal")
        assert auto.p_value == forced.p_value
        assert 0.0 <= auto.p_value <= 1.0

    def test_normal_tracks_exact_up_to_n_fifty(self):
        # the exact path stays cheap well past the auto cutoff, so the
        # approximation can be checked directly deep into normal territory
        rng = random.Random(55)
        for n in (25, 35, 50):
            for _ in range(5):
                a = [rng.uniform(0.05, 1.0) * rng.choice([-1, 1]) for _ in range(n)]
                b = [0.0] * n
                exact = wilcoxon_signed_rank(a, b, mode="exact")
                approx = wilcoxon_signed_rank(a, b, mode="normal")
                assert abs(exact.p_value - approx.p_value) <= 0.05

    def test_strong_systematic_shift_is_significant(self):
        a = [float(i) for i in range(1, 31)]
        b = [x - 1.0 for x in a]
        result = wilcoxon_signed_rank(a, b)
        assert result.significant
        assert result.p_value < 1e-4

    def test_ties_with_average_ranks_match_enumeration(self):
        diffs = [0.5, 0.5, -0.5, 1.5, 1.5, -2.0]
        result = wilcoxon_signed_rank(diffs, [0.0] * len(diffs))
        w, p = oracle_wilcoxon(diffs)
        assert result.statistic == w
        assert result.p_value == p

    def test_input_validation(self):
        with pytest.raises(ValueError, match="length"):
            wilcoxon_signed_rank([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="empty"):
            wilcoxon_signed_rank([], [])
        with pytest.raises(ValueError, match="mode"):
            wilcoxon_signed_rank([1.0], [0.0], mode="bogus")

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, float("nan"), float("inf")])
    def test_alpha_outside_unit_interval_refused(self, alpha):
        # p = 0.75 here: an alpha above 1 would call it significant
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            wilcoxon_signed_rank([0.6, 0.7, 0.4], [0.3, 0.6, 0.6], alpha=alpha)
        with pytest.raises(ValueError, match="alpha"):
            wilcoxon_signed_rank([0.5], [0.5], alpha=alpha)

    def test_alpha_inside_unit_interval_accepted(self):
        assert wilcoxon_signed_rank([0.6, 0.7, 0.4], [0.3, 0.6, 0.6], alpha=0.8).significant
        assert not wilcoxon_signed_rank([0.6, 0.7, 0.4], [0.3, 0.6, 0.6], alpha=0.7).significant


class TestEvaluateQuestions:
    @pytest.fixture
    def qa_setup(self, tiny_embeddings):
        documents = [
            ("d1", "Alpha beta gamma. Delta epsilon here."),
            ("d2", "Beta beta now. Gamma alone."),
        ]
        doc_idf = build_idf(
            [["alpha", "beta", "gamma", "delta", "epsilon", "here"],
             ["beta", "now", "gamma", "alone"]],
            label="documents",
        )
        index = build_index(documents, tiny_embeddings, doc_idf)
        questions = [
            Question(
                id="q1",
                body="alpha beta gamma",
                reference_docs=["d1", "d2"],
                gold_snippets=[("d1", "Alpha beta gamma.")],
            ),
            Question(
                id="q2",
                body="beta beta",
                reference_docs=["d2"],
                gold_snippets=[("d2", "Beta beta now.")],
            ),
        ]
        return index, questions, doc_idf

    def test_perfect_retrieval_gives_map_one(self, qa_setup, tiny_embeddings):
        index, questions, doc_idf = qa_setup
        run = evaluate_questions(
            index, questions, "cd", embeddings=tiny_embeddings, doc_idf=doc_idf
        )
        assert run.aggregates.map == pytest.approx(1.0)
        assert run.method == "cd"
        assert set(run.per_question) == {"q1", "q2"}

    def test_question_without_indexed_docs_warned_and_counted(
        self, qa_setup, tiny_embeddings
    ):
        index, questions, doc_idf = qa_setup
        questions = questions + [
            Question(id="q3", body="beta", reference_docs=["ghost"], gold_snippets=[])
        ]
        with pytest.warns(UserWarning, match="q3"):
            run = evaluate_questions(
                index, questions, "cd", embeddings=tiny_embeddings, doc_idf=doc_idf
            )
        assert len(run.per_question) == 3
        assert run.per_question["q3"].ranking.items == []
        assert run.per_question["q3"].ap == 0.0

    def test_cd_idf_weighs_with_the_index_table_unless_given_one(
        self, qa_setup, tiny_embeddings
    ):
        index, questions, doc_idf = qa_setup
        given = evaluate_questions(
            index, questions, "cd-idf", embeddings=tiny_embeddings, doc_idf=doc_idf
        )
        assert evaluate_questions(index, questions, "cd-idf", embeddings=tiny_embeddings) == given
        flat = IdfTable(n_docs=2, df={"alpha": 2, "beta": 2})
        other = evaluate_questions(
            index, questions, "cd-idf", embeddings=tiny_embeddings, doc_idf=flat
        )
        by_q = evaluate_questions(
            index, questions, "cd-q", embeddings=tiny_embeddings, question_idf=flat
        )
        assert other != given
        assert [s.ranking.items for s in other.per_question.values()] == [
            s.ranking.items for s in by_q.per_question.values()
        ]

    def test_rnd_runs_are_seed_deterministic(self, qa_setup):
        index, questions, _doc_idf = qa_setup
        first = evaluate_questions(index, questions, "rnd", seed=5)
        second = evaluate_questions(index, questions, "rnd", seed=5)
        assert first == second
        third = evaluate_questions(index, questions, "rnd", seed=6)
        assert [s.ranking.items for s in first.per_question.values()] != [
            s.ranking.items for s in third.per_question.values()
        ] or first == third

    def test_empty_question_set_is_an_error(self, qa_setup, tiny_embeddings):
        index, _questions, doc_idf = qa_setup
        with pytest.raises(ValueError, match="empty"):
            evaluate_questions(index, [], "cd", embeddings=tiny_embeddings)

    def test_threshold_below_one_rejected_before_ranking(
        self, qa_setup, tiny_embeddings, monkeypatch
    ):
        index, questions, doc_idf = qa_setup

        def no_rank(*args, **kwargs):
            raise AssertionError("ranked before validating the threshold")

        monkeypatch.setattr(evaluation, "rank", no_rank)
        monkeypatch.setattr(evaluation, "random_baseline", no_rank)
        for method in ("cd", "rnd"):
            with pytest.raises(ValueError, match="overlap threshold must be >= 1, got -2"):
                evaluate_questions(
                    index,
                    questions,
                    method,
                    embeddings=tiny_embeddings,
                    doc_idf=doc_idf,
                    overlap_threshold=-2,
                )

    @pytest.mark.parametrize(
        ("method", "message"),
        [
            ("cd-q", "cd-q requires a question idf table (--question-idf)"),
        ],
    )
    def test_missing_idf_refused_even_when_nothing_is_ranked(
        self, qa_setup, tiny_embeddings, method, message
    ):
        # No question has an indexed document, so rank is never reached;
        # the run must still be refused rather than scored all zero.
        index, _questions, _doc_idf = qa_setup
        questions = [
            Question(id="q1", body="alpha", reference_docs=["ghost"], gold_snippets=[])
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as excinfo:
                evaluate_questions(index, questions, method, embeddings=tiny_embeddings)
        assert str(excinfo.value) == message

    def test_duplicate_question_ids_rejected(self, qa_setup, tiny_embeddings):
        index, questions, doc_idf = qa_setup
        with pytest.raises(ValueError, match="duplicate"):
            evaluate_questions(
                index,
                [questions[0], questions[0]],
                "cd",
                embeddings=tiny_embeddings,
                doc_idf=doc_idf,
            )


class TestRunFiles:
    def test_round_trip(self, tmp_path):
        ranking = RankedList(
            question_id="q1", method=Method.CD_Q, items=[("d1#0", 0.125), ("d2#1", 0.5)]
        )
        run_in = RunResult(
            method="cd-q",
            per_question={
                "q1": QuestionScore(ranking=ranking, ap=1.0, precision=0.1, recall=0.5)
            },
        )
        save_run(run_in, tmp_path / "run.json")
        run_out = load_run(tmp_path / "run.json")
        assert run_out == run_in

    @staticmethod
    def _built_run(ap=1.0, score=0.5):
        """Three questions; ``ap`` and the second ranking ``score`` are q2's."""
        return RunResult(
            method="cd",
            per_question={
                qid: QuestionScore(
                    ranking=RankedList(
                        qid, Method.CD, [("d1#0", 0.125), ("d2#1", score if qid == "q2" else 0.5)]
                    ),
                    ap=ap if qid == "q2" else 0.25,
                    precision=0.1,
                    recall=0.5,
                )
                for qid in ("q1", "q2", "q3")
            },
        )

    def test_run_built_in_code_round_trips(self, tmp_path):
        run_in = self._built_run()
        assert run_in.aggregates == aggregate([(0.25, 0.1, 0.5), (1.0, 0.1, 0.5), (0.25, 0.1, 0.5)])
        path = tmp_path / "run.json"
        save_run(run_in, path)
        assert json.loads(path.read_text())["aggregates"] == asdict(run_in.aggregates)
        run_out = load_run(path)
        assert run_out == run_in
        assert run_out.aggregates == run_in.aggregates

    def test_aggregates_follow_the_scores_and_cannot_be_set(self):
        run = self._built_run()
        run.per_question["q2"].ap = 0.25
        assert run.aggregates.map == 0.25
        with pytest.raises(AttributeError):
            run.aggregates = aggregate([(1.0, 1.0, 1.0)])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["ap", "ranking[1] score"])
    def test_non_finite_value_refused_and_file_kept(self, tmp_path, field, value):
        run = self._built_run(**{"ap" if field == "ap" else "score": value})
        target = tmp_path / "run.json"
        target.write_bytes(b"an earlier run\n")
        with pytest.raises(ValueError) as excinfo:
            save_run(run, str(target))
        assert str(excinfo.value) == f"question 'q2': {field} {value} is not finite"
        assert target.read_bytes() == b"an earlier run\n"

    def test_overflowing_aggregate_refused_and_file_kept(self, tmp_path):
        run = self._built_run(ap=1e308)
        run.per_question["q1"].ap = 1e308
        target = tmp_path / "run.json"
        target.write_bytes(b"an earlier run\n")
        with pytest.raises(ValueError) as excinfo:
            save_run(run, str(target))
        assert str(excinfo.value) == "the sum of the per-question ap values overflows"
        assert target.read_bytes() == b"an earlier run\n"

    def test_malformed_run_file(self):
        with pytest.raises(ValueError, match="malformed"):
            from_text(load_run, '{"questions": []}')

    @staticmethod
    def _run_json(*entries):
        questions = [
            {"ranking": [], "ap": 0.5, "precision": 0.5, "recall": 0.5, **entry}
            for entry in entries
        ]
        try:
            aggregates = asdict(
                aggregate((q["ap"], q["precision"], q["recall"]) for q in questions)
            )
        except TypeError:  # a non-number is refused before the aggregates are read
            aggregates = {"map": 0.5, "precision": 0.5, "recall": 0.5, "f1": 0.5}
        return json.dumps({"method": "cd", "questions": questions, "aggregates": aggregates})

    def _load_run(self, *entries):
        return from_text(load_run, self._run_json(*entries))

    def test_run_without_questions_rejected(self):
        payload = json.loads(self._run_json({"id": "q1"}))
        payload["questions"] = []
        with pytest.raises(ValueError, match="empty question set"):
            from_text(load_run, json.dumps(payload))

    def test_repeated_question_rejected(self):
        run = self._load_run({"id": "q1"}, {"id": "q2", "ap": 1})
        assert set(run.per_question) == {"q1", "q2"}
        with pytest.raises(ValueError, match="repeats question 'q1'"):
            self._load_run({"id": "q1"}, {"id": "q2"}, {"id": "q1", "ap": 0.25})

    @pytest.mark.parametrize("value", [1, None, "", ["q2"], True])
    def test_question_id_not_a_non_empty_string_rejected(self, value):
        with pytest.raises(ValueError) as excinfo:
            self._load_run({"id": "q1"}, {"id": value})
        assert str(excinfo.value) == f"questions[1]: id {value!r} is not a non-empty string"

    @pytest.mark.parametrize("value", [1, None, "", {"id": "d#1"}, False])
    def test_passage_id_not_a_non_empty_string_rejected(self, value):
        ranking = [{"passage_id": "d#0", "score": 0.0}, {"passage_id": value, "score": 0.5}]
        with pytest.raises(ValueError) as excinfo:
            self._load_run({"id": "q1", "ranking": ranking})
        assert str(excinfo.value) == (
            f"question 'q1': ranking[1] passage_id {value!r} is not a non-empty string"
        )

    @pytest.mark.parametrize("field", ["ap", "precision", "recall"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 7.5, -0.25, 1.0000001])
    def test_score_outside_unit_interval_rejected(self, field, value):
        entries = ({"id": "q1", field: 0.0}, {"id": "q2", field: value})
        with pytest.raises(ValueError, match=rf"question 'q2': {field} .* is not in \[0, 1\]"):
            self._load_run(*entries)

    @pytest.mark.parametrize("field", ["ap", "precision", "recall"])
    @pytest.mark.parametrize("value", ["x", None, [0.5], True, "0.5"])
    def test_non_numeric_score_rejected(self, field, value):
        entries = ({"id": "q1"}, {"id": "q2", field: value})
        with pytest.raises(ValueError, match=rf"question 'q2': {field} .* is not a number"):
            self._load_run(*entries)

    @pytest.mark.parametrize(
        "value", ["x", None, float("nan"), float("-inf"), -1e-9, 2.5, True, "0.5"]
    )
    def test_bad_ranking_score_rejected(self, value):
        ranking = [{"passage_id": "d#0", "score": 0.0}, {"passage_id": "d#1", "score": value}]
        with pytest.raises(ValueError, match=r"question 'q1': ranking\[1\] score .* is not"):
            self._load_run({"id": "q1", "ranking": ranking})

    def test_ranking_score_bounds_accepted(self):
        ranking = [{"passage_id": "d#0", "score": 0.0}, {"passage_id": "d#1", "score": 2.0}]
        run = self._load_run({"id": "q1", "ranking": ranking})
        assert run.per_question["q1"].ranking.items == [("d#0", 0.0), ("d#1", 2.0)]

    @pytest.mark.parametrize("field", ["map", "precision", "recall", "f1"])
    @pytest.mark.parametrize(
        "value", ["x", float("nan"), float("inf"), -0.5, 1.5, True, "0.5", 0.25]
    )
    def test_bad_aggregate_rejected(self, field, value):
        payload = json.loads(self._run_json({"id": "q1"}))
        payload["aggregates"][field] = value
        with pytest.raises(ValueError, match=rf"aggregates: {field} .* is not"):
            from_text(load_run, json.dumps(payload))
