import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centroidrank import (
    EmbeddingTable,
    IdfTable,
    build_idf,
    centroid,
    centroids,
    cosine_distance,
    load_embeddings,
    semantic,
    weighted_centroid,
)
from oracles import oracle_centroid
from textfile import from_text


@pytest.fixture
def ab_table():
    return from_text(load_embeddings, "a 1.0 0.0\nb 0.0 1.0")


class TestCentroid:
    def test_single_token(self, ab_table):
        result = centroid(["a"], ab_table)
        assert np.allclose(result, [1.0, 0.0])

    def test_uniform_average(self, ab_table):
        result = centroid(["a", "b"], ab_table)
        assert np.allclose(result, [0.5, 0.5])

    def test_weighted_average(self, ab_table):
        weights = {"a": 1.0, "b": 3.0}
        result = weighted_centroid(["a", "b"], ab_table, weights.__getitem__)
        assert np.allclose(result, [0.25, 0.75])

    def test_oov_tokens_excluded_from_numerator_and_normalizer(self, ab_table):
        result = centroid(["a", "zzz", "yyy"], ab_table)
        assert np.allclose(result, [1.0, 0.0])

    def test_nothing_covered_gives_flagged_zero(self, ab_table):
        result = centroid(["xxx", "yyy"], ab_table)
        assert np.array_equal(result, [0.0, 0.0])

    def test_empty_token_list(self, ab_table):
        result = centroid([], ab_table)
        assert np.array_equal(result, [0.0, 0.0])

    def test_all_weights_zero_gives_flagged_zero(self, ab_table):
        result = weighted_centroid(["a", "b"], ab_table, lambda _t: 0.0)
        assert np.array_equal(result, [0.0, 0.0])

    def test_weights_cancelling_to_zero_give_zero(self, ab_table):
        weights = {"a": 1.0, "b": -1.0}
        result = weighted_centroid(["a", "b"], ab_table, weights.__getitem__)
        assert np.array_equal(result, [0.0, 0.0])
        assert not result.flags.writeable

    def test_zero_weight_token_is_a_no_op(self, ab_table):
        weights = {"a": 2.0, "b": 0.0}
        with_b = weighted_centroid(["a", "b"], ab_table, weights.__getitem__)
        without_b = weighted_centroid(["a"], ab_table, lambda _t: 2.0)
        assert np.allclose(with_b, without_b)

    def test_idf_weighting_uses_table(self, ab_table):
        idf = build_idf([["a"], ["a"], ["a", "b"]])
        result = centroid(["a", "b"], ab_table, idf)
        w_a, w_b = idf.weight("a"), idf.weight("b")
        expected = (w_a * np.array([1.0, 0.0]) + w_b * np.array([0.0, 1.0])) / (w_a + w_b)
        assert np.allclose(result, expected)

    def test_uniform_equals_idf_when_weights_equal(self, ab_table):
        # every token in exactly half the units -> identical idf weights
        idf = build_idf([["a"], ["b"], ["a", "b"], []])
        uniform = centroid(["a", "b"], ab_table)
        weighted = centroid(["a", "b"], ab_table, idf)
        assert np.allclose(uniform, weighted, atol=1e-9)

    def test_components_are_read_only(self, ab_table):
        result = centroid(["a", "b"], ab_table)
        assert result.dtype == np.float64
        with pytest.raises(ValueError):
            result[0] = 3.0

    def test_repeated_tokens_accumulate(self, ab_table):
        result = centroid(["a", "a", "b"], ab_table)
        assert np.allclose(result, [2.0 / 3.0, 1.0 / 3.0])


class TestCosineDistance:
    def test_identical_nonzero_vectors(self):
        assert cosine_distance([0.3, 0.4], [0.3, 0.4]) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_45_degrees(self):
        expected = 1.0 - 1.0 / math.sqrt(2.0)
        assert cosine_distance([1.0, 0.0], [1.0, 1.0]) == pytest.approx(expected, abs=1e-12)

    def test_opposite_vectors(self):
        assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(2.0)

    def test_zero_norm_is_neutral(self):
        assert cosine_distance([0.0, 0.0], [1.0, 2.0]) == 1.0
        assert cosine_distance([1.0, 2.0], [0.0, 0.0]) == 1.0
        assert cosine_distance([0.0, 0.0], [0.0, 0.0]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            cosine_distance([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_accepts_semantic_vectors(self, ab_table):
        u = centroid(["a"], ab_table)
        v = centroid(["b"], ab_table)
        assert cosine_distance(u, v) == pytest.approx(1.0)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            dim = rng.integers(1, 9)
            u = rng.normal(size=dim)
            v = rng.normal(size=dim)
            d_uv = cosine_distance(u, v)
            d_vu = cosine_distance(v, u)
            assert d_uv == pytest.approx(d_vu, abs=1e-12)
            assert 0.0 <= d_uv <= 2.0

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            dim = int(rng.integers(1, 9))
            u = rng.normal(size=dim)
            v = rng.normal(size=dim)
            a = float(rng.uniform(1e-6, 1e6))
            assert cosine_distance(a * u, v) == pytest.approx(
                cosine_distance(u, v), abs=1e-9
            )


class TestWeightScaleInvariance:
    def test_scaling_all_weights_preserves_distances(self, ab_table):
        rng = random.Random(5)
        tokens = ["a", "b", "a"]
        for _ in range(100):
            w_a = rng.uniform(0.01, 10.0)
            w_b = rng.uniform(0.01, 10.0)
            c = rng.uniform(1e-4, 1e4)
            base = weighted_centroid(tokens, ab_table, {"a": w_a, "b": w_b}.__getitem__)
            scaled = weighted_centroid(
                tokens, ab_table, {"a": c * w_a, "b": c * w_b}.__getitem__
            )
            probe = [0.3, 0.9]
            assert cosine_distance(base, probe) == pytest.approx(
                cosine_distance(scaled, probe), abs=1e-9
            )

    def test_scaled_idf_table_gives_same_centroid_direction(self, ab_table):
        idf = IdfTable(n_docs=10, df={"a": 9, "b": 2})
        base = centroid(["a", "b"], ab_table, idf)

        class Scaled:
            def __init__(self, inner, factor):
                self.inner, self.factor = inner, factor

            def weight(self, token):
                return self.factor * self.inner.weight(token)

        scaled = centroid(["a", "b"], ab_table, Scaled(idf, 37.5))
        assert np.allclose(base, scaled, atol=1e-9)


# Components mix signed zeros with magnitudes far apart, so that any change
# in the order of the additions shows in the last bits.
_COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, -0.0, 1.0, -1.0, 1e-300, 3e16]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=True),
)
_WEIGHT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, -2.5, 1e-3, 7.0, -7.0]),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
)
_OOV = ("oov", "zzz")


@st.composite
def _centroid_cases(draw):
    dim = draw(st.integers(1, 4))
    words = [f"w{i}" for i in range(draw(st.integers(1, 6)))]
    rows = [draw(st.lists(_COMPONENT, min_size=dim, max_size=dim)) for _ in words]
    table = EmbeddingTable(vocab={w: i for i, w in enumerate(words)},
                           matrix=np.array(rows, dtype=np.float64).reshape(len(words), dim))
    weights = {token: draw(_WEIGHT) for token in words + list(_OOV)}
    token = st.sampled_from(words + list(_OOV))
    lists = draw(st.lists(st.lists(token, max_size=20), max_size=6))
    # Signed weights that cancel: +w and -w over two covered tokens.
    if len(words) >= 2 and draw(st.booleans()):
        w = draw(st.floats(0.1, 10.0))
        weights[words[0]], weights[words[1]] = w, -w
        lists.append([words[0], "oov", words[1]])
    return table, weights, lists


@pytest.mark.parametrize("chunk", [1, 2, 3, semantic._CHUNK_ROWS])
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(case=_centroid_cases())
def test_bulk_and_one_row_centroids_match_the_per_token_loop(chunk, case):
    table, weights, lists = case
    with mock.patch.object(semantic, "_CHUNK_ROWS", chunk):
        uniform, weighted = centroids(lists, table, weights.__getitem__)
    assert uniform.shape == weighted.shape == (len(lists), table.dim)
    for row, tokens in enumerate(lists):
        want_uniform = oracle_centroid(tokens, table, lambda _t: 1.0).tobytes()
        want_weighted = oracle_centroid(tokens, table, weights.__getitem__).tobytes()
        assert uniform[row].tobytes() == want_uniform
        assert weighted[row].tobytes() == want_weighted
        assert centroid(tokens, table).tobytes() == want_uniform
        assert weighted_centroid(tokens, table, weights.__getitem__).tobytes() == want_weighted


def test_cancelling_weights_and_all_negative_zero_components():
    table = EmbeddingTable(vocab={"a": 0, "b": 1},
                           matrix=np.array([[-0.0, 1.0], [-0.0, 3.0]]))
    weights = {"a": 2.0, "b": -2.0, "zzz": 1.0}.__getitem__
    uniform, weighted = centroids([["a", "b"], ["a", "zzz"]], table, weights)
    # Summed from +0.0, a column of -0.0 components is +0.0.
    assert [np.signbit(v) for v in uniform[0]] == [False, False]
    assert weighted[0].tobytes() == np.zeros(2).tobytes()
    assert weighted[1].tobytes() == oracle_centroid(["a", "zzz"], table, weights).tobytes()
    assert not uniform.flags.writeable and not weighted.flags.writeable


def test_vocab_row_outside_the_matrix_is_refused():
    for row in (2, -1):
        with pytest.raises(IndexError, match="outside its matrix"):
            EmbeddingTable(vocab={"a": 0, "b": row}, matrix=np.ones((2, 1)))


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 700])
def test_row_norms_are_numpys_bit_for_bit(n):
    gen = np.random.default_rng(n)
    matrix = gen.normal(size=(n, 37)) * 10.0 ** gen.uniform(-5, 5, size=(n, 1))
    matrix[::7] = 0.0
    assert semantic.row_norms(matrix).tobytes() == np.linalg.norm(matrix, axis=1).tobytes()


def test_one_shot_generator_matches_the_per_token_loop():
    gen = np.random.default_rng(3)
    table = EmbeddingTable(vocab={w: i for i, w in enumerate("abcdef")},
                           matrix=gen.normal(size=(6, 5)) * 10.0 ** gen.integers(-3, 4, (6, 1)))
    # positive, zero, and +w / -w weights that cancel
    weights = {"a": 2.5, "b": 0.0, "c": 7.0, "d": -7.0, "e": 1e-3, "f": 1.0, "zzz": 4.0}.__getitem__
    rng = random.Random(5)
    lists = [[rng.choice("abcdef") for _ in range(rng.randrange(0, 30))] for _ in range(600)]
    lists += [["c", "zzz", "d"], ["b", "b"], ["zzz"], []]
    consumed = []

    def one_shot():
        for tokens in lists:
            consumed.append(tokens)
            yield tokens

    with mock.patch.object(semantic, "_CHUNK_ROWS", 64):
        uniform, weighted = centroids(one_shot(), table, weights)
    assert consumed == lists
    for row, tokens in enumerate(lists):
        assert uniform[row].tobytes() == oracle_centroid(tokens, table, lambda _t: 1.0).tobytes()
        assert weighted[row].tobytes() == oracle_centroid(tokens, table, weights).tobytes()
    assert weighted[-4].tobytes() == np.zeros(5).tobytes()


def test_tokens_sharing_an_embedding_row_keep_their_own_weights():
    table = EmbeddingTable(vocab={"a": 0, "b": 0, "c": 1},
                           matrix=np.array([[1.0, 2.0], [3.0, -1.0]]))
    weights = {"a": 1.0, "b": 3.0, "c": 0.5}.__getitem__
    lists = [["a", "b", "c"], ["b", "c"], ["a"]]
    _, weighted = centroids(lists, table, weights)
    for row, tokens in enumerate(lists):
        assert weighted[row].tobytes() == oracle_centroid(tokens, table, weights).tobytes()


def test_each_covered_token_is_weighed_once():
    table = EmbeddingTable(vocab={"a": 0, "b": 1, "c": 1}, matrix=np.eye(2))
    asked = []

    def weight(token):
        asked.append(token)
        return 2.0

    centroids([["a", "b", "zzz", "a"], ["c", "b", "oov"], ["zzz"], []], table, weight)
    assert sorted(asked) == ["a", "b", "c"]
