import json
import random
import warnings
from dataclasses import asdict
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centroidrank import (
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
    load_run,
    precision_at_k,
    recall_at_k,
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

    def test_threshold_below_one_rejected(self, tiny_embeddings, tiny_doc_idf):
        index = build_index([("d1", "Alpha beta.")], tiny_embeddings, tiny_doc_idf)
        question = Question(
            id="q1", body="alpha", reference_docs=["d1"], gold_snippets=[("d1", "Gamma.")]
        )
        with pytest.raises(ValueError, match="overlap threshold must be >= 1, got 0"):
            build_judgments(index, question, overlap_threshold=0)


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
            ("cd-idf", "cd-idf requires a document idf table (--doc-idf)"),
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
    def test_round_trip(self):
        ranking = RankedList(
            question_id="q1", method=Method.CD_Q, items=[("d1#0", 0.125), ("d2#1", 0.5)]
        )
        run_in = RunResult(
            method="cd-q",
            per_question={
                "q1": QuestionScore(ranking=ranking, ap=1.0, precision=0.1, recall=0.5)
            },
            aggregates=aggregate([(1.0, 0.1, 0.5)]),
        )
        buffer = StringIO()
        save_run(run_in, buffer)
        buffer.seek(0)
        run_out = load_run(buffer)
        assert run_out == run_in

    def test_malformed_run_file(self):
        with pytest.raises(ValueError, match="malformed"):
            load_run(StringIO('{"questions": []}'))

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
        return StringIO(
            json.dumps({"method": "cd", "questions": questions, "aggregates": aggregates})
        )

    def test_run_without_questions_rejected(self):
        payload = json.loads(self._run_json({"id": "q1"}).getvalue())
        payload["questions"] = []
        with pytest.raises(ValueError, match="empty question set"):
            load_run(StringIO(json.dumps(payload)))

    def test_repeated_question_rejected(self):
        run = load_run(self._run_json({"id": "q1"}, {"id": "q2", "ap": 1}))
        assert set(run.per_question) == {"q1", "q2"}
        with pytest.raises(ValueError, match="repeats question 'q1'"):
            load_run(self._run_json({"id": "q1"}, {"id": "q2"}, {"id": "q1", "ap": 0.25}))

    @pytest.mark.parametrize("field", ["ap", "precision", "recall"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 7.5, -0.25, 1.0000001])
    def test_score_outside_unit_interval_rejected(self, field, value):
        entries = ({"id": "q1", field: 0.0}, {"id": "q2", field: value})
        with pytest.raises(ValueError, match=rf"question 'q2': {field} .* is not in \[0, 1\]"):
            load_run(self._run_json(*entries))

    @pytest.mark.parametrize("field", ["ap", "precision", "recall"])
    @pytest.mark.parametrize("value", ["x", None, [0.5], True, "0.5"])
    def test_non_numeric_score_rejected(self, field, value):
        entries = ({"id": "q1"}, {"id": "q2", field: value})
        with pytest.raises(ValueError, match=rf"question 'q2': {field} .* is not a number"):
            load_run(self._run_json(*entries))

    @pytest.mark.parametrize(
        "value", ["x", None, float("nan"), float("-inf"), -1e-9, 2.5, True, "0.5"]
    )
    def test_bad_ranking_score_rejected(self, value):
        ranking = [{"passage_id": "d#0", "score": 0.0}, {"passage_id": "d#1", "score": value}]
        with pytest.raises(ValueError, match=r"question 'q1': ranking\[1\] score .* is not"):
            load_run(self._run_json({"id": "q1", "ranking": ranking}))

    def test_ranking_score_bounds_accepted(self):
        ranking = [{"passage_id": "d#0", "score": 0.0}, {"passage_id": "d#1", "score": 2.0}]
        run = load_run(self._run_json({"id": "q1", "ranking": ranking}))
        assert run.per_question["q1"].ranking.items == [("d#0", 0.0), ("d#1", 2.0)]

    @pytest.mark.parametrize("field", ["map", "precision", "recall", "f1"])
    @pytest.mark.parametrize(
        "value", ["x", float("nan"), float("inf"), -0.5, 1.5, True, "0.5", 0.25]
    )
    def test_bad_aggregate_rejected(self, field, value):
        payload = json.loads(self._run_json({"id": "q1"}).getvalue())
        payload["aggregates"][field] = value
        with pytest.raises(ValueError, match=rf"aggregates: {field} .* is not"):
            load_run(StringIO(json.dumps(payload)))
