import math
import random
import sys

import pytest

from centroidrank import IdfTable, build_idf, load_idf, save_idf
from textfile import from_text


class TestBuild:
    def test_document_frequency_counts(self):
        table = build_idf([["a", "b"], ["a"]], label="docs")
        assert table.n_docs == 2
        assert table.df == {"a": 2, "b": 1}
        assert table.corpus_label == "docs"

    def test_set_semantics_within_a_unit(self):
        table = build_idf([["a", "a", "a"]])
        assert table.df == {"a": 1}

    def test_rare_tokens_weigh_more(self):
        corpus = [["what"] for _ in range(9)] + [["what", "protein"]]
        table = build_idf(corpus)
        assert table.weight("protein") > table.weight("what")

    def test_order_independence(self):
        units = [["a", "b"], ["b", "c"], ["c"], ["a", "c", "d"]]
        rng = random.Random(3)
        reference = build_idf(units)
        for _ in range(10):
            shuffled = units[:]
            rng.shuffle(shuffled)
            table = build_idf(shuffled)
            assert table.df == reference.df
            assert table.n_docs == reference.n_docs

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(ValueError, match="empty"):
            build_idf([])

    def test_accepts_token_sequences(self, tiny_doc_idf):
        assert tiny_doc_idf.df["alpha"] == 3
        assert tiny_doc_idf.n_docs == 4


class TestWeight:
    def test_ubiquitous_token_weighs_zero(self):
        table = IdfTable(n_docs=1, df={"t": 1})
        assert table.weight("t") == 0.0

    def test_unseen_token_fallback(self):
        table = IdfTable(n_docs=9, df={"seen": 3})
        assert table.weight("unseen") == pytest.approx(math.log(10.0), abs=1e-12)

    def test_formula(self):
        table = IdfTable(n_docs=99, df={"a": 9, "b": 49})
        assert table.weight("a") == pytest.approx(math.log(10.0))
        assert table.weight("b") == pytest.approx(math.log(2.0))

    def test_non_increasing_in_df(self):
        n = 1000
        weights = [IdfTable(n_docs=n, df={"t": df}).weight("t") for df in range(1, n + 1)]
        assert all(earlier >= later for earlier, later in zip(weights, weights[1:]))

    def test_never_negative(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randrange(1, 10_000)
            df = rng.randrange(0, n + 1)
            table = IdfTable(n_docs=n, df={"t": df} if df else {})
            assert table.weight("t") >= 0.0

    def test_large_collection_magnitudes(self):
        # At a 12.8M-unit collection, plausible document frequencies put
        # common-to-moderately-rare words in the 2..6 weight band.
        table = IdfTable(
            n_docs=12_800_000,
            df={"what": 82_040, "protein": 960_000, "disease": 877_000, "artery": 199_780},
        )
        assert table.weight("what") == pytest.approx(5.05, abs=0.01)
        assert table.weight("protein") == pytest.approx(2.59, abs=0.01)
        assert table.weight("disease") == pytest.approx(2.68, abs=0.01)
        assert table.weight("artery") == pytest.approx(4.16, abs=0.01)
        for token in table.df:
            assert 2.0 <= table.weight(token) <= 6.0


class TestValidation:
    def test_df_above_n_docs_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            IdfTable(n_docs=2, df={"a": 3})

    def test_df_below_one_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            IdfTable(n_docs=2, df={"a": 0})

    def test_n_docs_below_one_rejected(self):
        with pytest.raises(ValueError, match="n_docs"):
            IdfTable(n_docs=0, df={})

    # n_docs + 1 = 2**1024 - 2**970, half-way between the largest float and
    # 2**1024, is the first sum that rounds past the float range.
    @pytest.mark.parametrize(
        "n_docs", [2**1024 - 2**970 - 1, 10**400], ids=["first-overflowing", "401-digits"]
    )
    def test_n_docs_whose_successor_has_no_float_rejected(self, n_docs):
        with pytest.raises(ValueError) as excinfo:
            IdfTable(n_docs=n_docs, df={"a": 1})
        assert str(excinfo.value) == "n_docs + 1 has no float value"

    def test_largest_n_docs_keeps_its_weights(self):
        n_docs = 2**1024 - 2**970 - 2
        table = IdfTable(n_docs=n_docs, df={"a": 1})
        assert table.weight("unseen") == math.log(sys.float_info.max)
        assert table.weight("a") == math.log((n_docs + 1) / 2)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        table = build_idf([["a", "b"], ["a"], ["c", "a"]], label="documents")
        path = tmp_path / "idf.tsv"
        save_idf(table, str(path))
        reloaded = load_idf(str(path))
        assert reloaded == table

    def test_load_example(self):
        table = from_text(load_idf, "#n_docs 2 docs\na\t2\n")
        assert table.n_docs == 2
        assert table.df == {"a": 2}
        assert table.corpus_label == "docs"

    def test_label_with_spaces_round_trips(self, tmp_path):
        table = IdfTable(n_docs=3, df={"x": 1}, corpus_label="mixed question set")
        save_idf(table, tmp_path / "idf.tsv")
        assert load_idf(tmp_path / "idf.tsv").corpus_label == "mixed question set"

    def test_empty_label(self, tmp_path):
        save_idf(IdfTable(n_docs=1, df={"x": 1}), tmp_path / "idf.tsv")
        assert load_idf(tmp_path / "idf.tsv").corpus_label == ""

    def test_df_above_n_docs_on_load(self):
        with pytest.raises(ValueError, match="line 2"):
            from_text(load_idf, "#n_docs 2 docs\na\t5\n")

    def test_malformed_header(self):
        with pytest.raises(ValueError, match="line 1"):
            from_text(load_idf, "n_docs 2\na\t1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty idf file"),
            ("#n_docs two docs\na\t1\n", "line 1: malformed document count 'two'"),
        ],
    )
    def test_empty_file_and_bad_document_count(self, text, message):
        with pytest.raises(ValueError) as excinfo:
            from_text(load_idf, text)
        assert str(excinfo.value) == message

    def test_document_count_beyond_the_float_range_names_line_1(self):
        with pytest.raises(ValueError) as excinfo:
            from_text(load_idf, f"#n_docs {10**400} docs\na\t1\n")
        assert str(excinfo.value) == "line 1: document count N + 1 has no float value"

    @pytest.mark.parametrize("digits", [400, 5_001])
    def test_a_document_count_past_ints_parse_limit_has_no_float_value(self, digits):
        # int() refuses more than 4 300 digits; 400 or more pass every bound.
        with pytest.raises(ValueError) as excinfo:
            from_text(load_idf, f"#n_docs {'9' * digits} docs\na\t1\n")
        assert str(excinfo.value) == "line 1: document count N + 1 has no float value"

    @pytest.mark.parametrize("digits", [400, 5_001])
    def test_a_df_past_ints_parse_limit_is_outside_its_range(self, digits):
        with pytest.raises(ValueError) as excinfo:
            from_text(load_idf, f"#n_docs 3 docs\na\t1\nb\t{'9' * digits}\n")
        assert str(excinfo.value) == f"line 3: df of {digits} digits outside [1, 3] for 'b'"

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_a_long_signed_count_is_not_echoed(self, sign):
        # int() refuses it by its digit limit, as it does the unsigned one.
        count = sign + "9" * 5_000
        with pytest.raises(ValueError) as header:
            from_text(load_idf, f"#n_docs {count} docs\na\t1\n")
        with pytest.raises(ValueError) as row:
            from_text(load_idf, f"#n_docs 3 docs\na\t1\nb\t{count}\n")
        assert str(header.value) == "line 1: document count N + 1 has no float value"
        assert str(row.value) == "line 3: df of 5000 digits outside [1, 3] for 'b'"

    def test_leading_zeros_do_not_count_against_ints_parse_limit(self):
        table = from_text(load_idf, f"#n_docs {'0' * 5_000}3 docs\na\t{'0' * 5_000}2\n")
        assert (table.n_docs, table.df) == (3, {"a": 2})

    def test_malformed_row_names_line(self):
        with pytest.raises(ValueError, match="line 3"):
            from_text(load_idf, "#n_docs 2 docs\na\t1\nb 2\n")
        with pytest.raises(ValueError, match="line 2"):
            from_text(load_idf, "#n_docs 2 docs\na\tx\n")

    def test_duplicate_token_names_line(self):
        with pytest.raises(ValueError, match="line 3: duplicate token 'a'"):
            from_text(load_idf, "#n_docs 3 docs\na\t1\na\t3\n")

    def test_rejects_unwritable_tokens(self, tmp_path):
        # "\r" ends a line on read just as "\n" does.
        path = tmp_path / "idf.tsv"
        for bad in ["a\tb", "a\nb", "a\rb"]:
            with pytest.raises(ValueError, match="tab or line break"):
                save_idf(IdfTable(n_docs=1, df={bad: 1}), path)
        for bad in ["a\nb", "a\rb"]:
            with pytest.raises(ValueError, match="line break"):
                save_idf(IdfTable(n_docs=1, df={"x": 1}, corpus_label=bad), path)
        assert not path.exists()

    def test_label_with_a_tab_round_trips(self, tmp_path):
        # The label is the rest of the header line, so load_idf reads a tab
        # in it back, and every table it reads can be saved again.
        table = from_text(load_idf, "#n_docs 2 doc\tset\na\t2\n")
        assert table.corpus_label == "doc\tset"
        save_idf(table, tmp_path / "idf.tsv")
        assert load_idf(tmp_path / "idf.tsv") == table

    @pytest.mark.parametrize(
        "table",
        [
            IdfTable(n_docs=2, df={"a": 1, "b\tc": 1}),
            IdfTable(n_docs=2, df={"a": 1, "b\rc": 1}),
            IdfTable(n_docs=2, df={"a": 1}, corpus_label="two\nlines"),
            IdfTable(n_docs=2, df={"": 1, "a": 1}),
        ],
        ids=["tab-token", "cr-token", "newline-label", "empty-token"],
    )
    def test_refused_save_leaves_existing_file_untouched(self, tmp_path, table):
        path = tmp_path / "idf.tsv"
        save_idf(IdfTable(n_docs=3, df={"z": 3}, corpus_label="old"), str(path))
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_idf(table, str(path))
        assert path.read_bytes() == before
