import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centroidrank import EmbeddingTable, embeddings, load_embeddings, save_embeddings
from oracles import oracle_load_embeddings
from textfile import from_text


def _load(text: str) -> EmbeddingTable:
    return from_text(load_embeddings, text)


def _oracle_load(path: str):
    with open(path, encoding="utf-8") as handle:
        return oracle_load_embeddings(handle)


def _assert_same_table(table: EmbeddingTable, other: EmbeddingTable) -> None:
    assert table.dim == other.dim
    assert table.vocab.keys() == other.vocab.keys()
    for token in table.vocab:
        vector = table.lookup(token)
        assert vector.dtype == other.lookup(token).dtype == np.float64
        assert vector.tobytes() == other.lookup(token).tobytes()


class TestLoad:
    def test_with_header(self):
        table = _load("2 2\na 1.0 0.0\nb 0.0 1.0")
        assert table.dim == 2
        assert len(table) == 2
        assert np.array_equal(table.lookup("a"), [1.0, 0.0])
        assert np.array_equal(table.lookup("b"), [0.0, 1.0])

    def test_without_header(self):
        table = _load("a 1.0 0.0 0.5\nb 0.25 -1.0 2.0")
        assert table.dim == 3
        assert np.array_equal(table.lookup("b"), [0.25, -1.0, 2.0])

    def test_two_field_first_line_is_data_when_not_integers(self):
        table = _load("a 1.0\nb 2.5")
        assert table.dim == 1
        assert np.array_equal(table.lookup("a"), [1.0])

    def test_duplicate_token_last_wins(self):
        table = _load("a 1.0 0.0\na 2.0 0.0")
        assert np.array_equal(table.lookup("a"), [2.0, 0.0])
        assert len(table) == 1

    def test_dimension_mismatch_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            _load("a 1.0\nb 1.0 2.0")

    def test_header_dimension_enforced(self):
        with pytest.raises(ValueError, match="line 2"):
            _load("2 3\na 1.0 2.0")

    def test_malformed_float_names_line(self):
        with pytest.raises(ValueError, match="line 3"):
            _load("a 1.0\nb 2.0\nc x")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            _load("a nan")
        with pytest.raises(ValueError, match="non-finite"):
            _load("a 1.0 inf")

    def test_empty_file(self):
        with pytest.raises(ValueError, match="empty"):
            _load("")
        with pytest.raises(ValueError, match="empty"):
            _load("\n  \n")

    @pytest.mark.parametrize("text", ["", "\n  \n", "3 2\n", "\n3 2\n\n"])
    def test_file_without_vectors_refused_without_warnings(self, text):
        # A header-only file was an empty table before the bulk parser.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="^empty embedding file$"):
                _load(text)
        assert caught == []

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "\uff11"])
    def test_underscore_and_non_ascii_digits_refused(self, value):
        # float() takes these; NumPy's parser does not. The old loader's
        # acceptance is pinned so that the narrowing stays deliberate.
        text = f"a 1.0\nb {value}\n"
        assert from_text(_oracle_load, text)[1]["b"] == [float(value)]
        message = f"line 2: malformed float (could not convert string to float: {value!r})"
        with pytest.raises(ValueError) as excinfo:
            _load(text)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a 1.0\nb x\nc\n", "line 2: malformed float (could not convert string to float: 'x')"),
            ("a 1.0\nb nan\nc 1.0 2.0\n", "line 2: non-finite component"),
            ("a 1.0\nb 1.0 2.0\nc nan\n", "line 2: expected 1 components, got 2"),
        ],
    )
    def test_first_bad_line_is_the_one_named(self, text, message):
        with pytest.raises(ValueError) as excinfo:
            _load(text)
        assert str(excinfo.value) == message

    def test_bad_line_in_a_later_chunk_names_its_line(self):
        text = "".join(f"w{i} {i}.5 -{i}.25\n" for i in range(600)) + "bad 1.0 nan\n"
        with pytest.raises(ValueError, match="^line 601: non-finite component$"):
            _load(text)
        table = _load(text.replace("nan", "0"))
        assert len(table) == 601
        assert table.lookup("w599").tolist() == [599.5, -599.25]

    def test_vectors_are_read_only_rows_of_one_matrix(self):
        table = _load("a 1.0 2.0\nb 3.0 4.0\na 5.0 6.0\n")
        assert table.vocab == {"a": 0, "b": 1}
        assert table.matrix.shape == (2, 2) and table.matrix.dtype == np.float64
        assert table.matrix.tolist() == [[5.0, 6.0], [3.0, 4.0]]
        assert all(table.lookup(t).base is table.matrix for t in ("a", "b"))
        assert not table.matrix.flags.writeable

    def test_blank_lines_skipped(self):
        table = _load("\na 1.0 2.0\n\nb 3.0 4.0\n")
        assert len(table) == 2

    def test_from_path(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("1 2\nword 0.5 -0.5\n", encoding="utf-8")
        table = load_embeddings(str(path))
        assert np.array_equal(table.lookup("word"), [0.5, -0.5])


class TestHeaderCount:
    """A header count sizes the matrix of a full load once, and a load
    under the file's own fingerprint ignores it; both read the table the
    file gives without a header, which grows the matrix chunk by chunk."""

    BODY = "".join(f"w{i} {i}.5 -{i}.25\n" for i in range(5))

    @pytest.mark.parametrize("count", [0, 1, 4, 5, 6, 400, 10**15, -3])
    @pytest.mark.parametrize("chunk_rows", [2, 256])
    def test_count_changes_nothing(self, count, chunk_rows):
        with mock.patch.object(embeddings, "_CHUNK_ROWS", chunk_rows):
            tables = _partial(f"{count} 2\n" + self.BODY, [f"w{i}" for i in range(5)])
            grown = _load(self.BODY)
        for table in tables:  # the full load and the one under its own fingerprint
            _assert_same_table(table, grown)
            assert table.matrix.shape == (5, 2)
            assert table.matrix.tobytes() == grown.matrix.tobytes()

    @pytest.mark.parametrize("count", [2, 5, 10**15])
    def test_bad_line_message_ignores_the_count(self, count):
        # A count of 0 sizes nothing, so that matrix grows.
        for header in (f"{count} 2\n", "0 2\n"):
            with pytest.raises(ValueError) as excinfo:
                _load(header + self.BODY + "bad 1.0\n")
            assert str(excinfo.value) == "line 7: expected 2 components, got 1"

    def test_a_header_width_no_line_has_is_refused_before_any_allocation(self):
        # Growing the matrix before the line is parsed asks for 8 TB.
        text = "1 1000000000000\na 1.0\n"
        fingerprint = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
        for load in (load_embeddings, lambda path: load_embeddings(path, ["a"], fingerprint)):
            with pytest.raises(ValueError) as excinfo:
                from_text(load, text)
            assert str(excinfo.value) == "line 2: expected 1000000000000 components, got 1"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_an_overstated_count_makes_nothing_resident(self, tmp_path):
        # Rows of 9-character values, as in pretrained tables, so the count
        # is capped at about five times the rows; zero-filled, those rows
        # would be resident. Each load runs in a fresh interpreter, whose
        # VmHWM, unlike its ru_maxrss, leaves out the peak of this one.
        rows, dim = 20_000, 50
        body = "".join(f"w{i}" + " 0.1234567" * dim + "\n" for i in range(rows))
        probe = (
            "import sys\n"
            "from centroidrank import load_embeddings\n"
            "load_embeddings(sys.argv[1])\n"
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"  # kB
        )
        peaks = []
        for header in (f"{10**9} {dim}\n", ""):
            path = tmp_path / "table.txt"
            path.write_text(header + body, encoding="utf-8")
            result = subprocess.run(
                [sys.executable, "-c", probe, str(path)], capture_output=True, text=True
            )
            assert result.returncode == 0, result.stderr
            peaks.append(int(result.stdout) * 1024)
        assert abs(peaks[0] - peaks[1]) < rows * dim * 8 / 4, peaks


class TestLookup:
    def test_out_of_vocabulary_is_none(self, tiny_embeddings):
        assert tiny_embeddings.lookup("zzz") is None

    def test_empty_table(self):
        assert EmbeddingTable({}, np.empty((0, 2))).lookup("anything") is None

    def test_dim_is_the_matrix_width(self):
        table = EmbeddingTable({"a": 0}, np.ones((1, 3)))
        assert table.dim == 3
        with pytest.raises(AttributeError):
            table.dim = 4
        with pytest.raises(TypeError):
            EmbeddingTable({})  # no matrix, no default

    def test_contains(self, tiny_embeddings):
        assert "alpha" in tiny_embeddings.vocab
        assert "zzz" not in tiny_embeddings.vocab

    def test_vectors_are_read_only(self, tiny_embeddings):
        vector = tiny_embeddings.lookup("alpha")
        with pytest.raises(ValueError):
            vector[0] = 9.0


class TestRoundTrip:
    def test_save_then_load_is_identity(self, tmp_path):
        original = _load("b 0.1 -2.5 3.25\na 1e-7 2.0 -0.0\nzz 4.0 5.0 6.0")
        path = tmp_path / "emb.txt"
        save_embeddings(original, str(path))
        reloaded = load_embeddings(str(path))
        _assert_same_table(reloaded, original)

    def test_saved_output_has_header(self, tmp_path):
        save_embeddings(_load("a 1.0 2.0"), tmp_path / "emb.txt")
        assert (tmp_path / "emb.txt").read_text().splitlines()[0] == "1 2"

    @pytest.mark.parametrize(
        "token", ["", "a b", "a\tb", "a\nb", "a\rb", " a", "a\x0b", "a\x1c", "a\xa0", "\u3000"]
    )
    def test_token_the_loader_would_split_refused_before_opening(self, tmp_path, token):
        table = EmbeddingTable({"z": 0, token: 1}, np.array([[1.0], [2.0]]))
        path = tmp_path / "emb.txt"
        with pytest.raises(ValueError) as excinfo:
            save_embeddings(table, path)
        assert str(excinfo.value) == f"embedding token {token!r} is empty or holds whitespace"
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_refused_before_opening(self, tmp_path, value):
        # The loader refuses it as a non-finite component.
        path = tmp_path / "emb.txt"
        path.write_bytes(b"1 2\nkept 1.0 2.0\n")
        table = EmbeddingTable({"z": 0, "a": 1}, np.array([[1.0, 2.0], [value, 1.0]]))
        with pytest.raises(ValueError) as excinfo:
            save_embeddings(table, path)
        assert str(excinfo.value) == "embedding token 'a' has a non-finite component"
        assert path.read_bytes() == b"1 2\nkept 1.0 2.0\n"

    def test_table_without_vectors_refused_before_opening(self, tmp_path):
        # A header alone would be refused as an empty embedding file.
        path = tmp_path / "emb.txt"
        path.write_bytes(b"1 2\nkept 1.0 2.0\n")
        with pytest.raises(ValueError) as excinfo:
            save_embeddings(EmbeddingTable({}, np.zeros((0, 2))), path)
        assert str(excinfo.value) == "embedding count must be >= 1, got 0"
        assert path.read_bytes() == b"1 2\nkept 1.0 2.0\n"

    def test_matrix_without_columns_refused_before_opening(self, tmp_path):
        # A "1 0" header would be refused as a dimension below 1.
        path = tmp_path / "emb.txt"
        path.write_bytes(b"1 2\nkept 1.0 2.0\n")
        with pytest.raises(ValueError) as excinfo:
            save_embeddings(EmbeddingTable({"a": 0}, np.zeros((1, 0))), path)
        assert str(excinfo.value) == "embedding dimension must be >= 1, got 0"
        assert path.read_bytes() == b"1 2\nkept 1.0 2.0\n"

    def test_tokens_without_whitespace_round_trip(self, tmp_path):
        tokens = ["a", "C++", "#", "7", "1.5", "\u00e9t\u00e9", "a\x00b", "\ufeff", "x\u200by"]
        table = EmbeddingTable(
            dict(zip(tokens, range(len(tokens)))), np.arange(2.0 * len(tokens)).reshape(-1, 2)
        )
        save_embeddings(table, tmp_path / "emb.txt")
        _assert_same_table(load_embeddings(tmp_path / "emb.txt"), table)


# Whitespace str.split splits on; a file read in text mode takes "\r" as a
# line break, so the loader and the oracle both see it end the line.
_SEPARATORS = [" ", "  ", "\t", "\x0b", "\xa0", "\x1c", "\u3000", "\r"]
_BAD_VALUES = ["x", "nan", "inf", "-inf", "1e500", "1.0.0", "--1", "0x10"]
_ODD_VALUES = ["-0.0", "0.0", ".5", "5.", "+.5e+3", "1e-400", "4.9e-324", "3", "-7"]


@st.composite
def _tables(draw):
    """Embedding-table text: header or not, blank lines, mixed separators,
    duplicate tokens, several number styles, and up to two planted bad
    lines (no values, short, long or a bad value)."""
    dim = draw(st.integers(min_value=1, max_value=4))
    sep = st.sampled_from(_SEPARATORS)
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(min_value=-10, max_value=10).map(lambda x: f"{x:.3f}"),
        st.sampled_from(_ODD_VALUES),
    )
    lines = []
    if draw(st.booleans()):
        header_dim = draw(st.sampled_from([dim] * 6 + [dim + 1, 0]))
        lines.append(f"{draw(st.integers(0, 9))} {header_dim}")
    n_rows = draw(st.integers(min_value=0, max_value=12))
    bad_rows = draw(st.sets(st.integers(min_value=0, max_value=2 * n_rows), max_size=2))
    for row in range(n_rows):
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " ", "\t", "\xa0 "])))
        values = draw(st.lists(number, min_size=dim, max_size=dim))
        if row in bad_rows:
            kind = draw(st.sampled_from(["bare", "short", "long", "value", "value", "value"]))
            if kind == "bare":
                values = []
            elif kind == "short":
                values = values[:-1]
            elif kind == "long":
                values.append("1.0")
            else:
                values[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(_BAD_VALUES))
        token = draw(st.sampled_from(["a", "b", "c", "7", "\u00e9t\u00e9"]))
        text = token
        for value in values:
            text += draw(sep) + value
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " ", "\r"]))
        lines.append(lead + text + trail)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(load):
    try:
        return load()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(text=_tables(), chunk_rows=st.sampled_from([1, 2, 5, 256]))
def test_bulk_parse_matches_line_by_line_oracle(text, chunk_rows):
    expected = _outcome(lambda: from_text(_oracle_load, text))
    with mock.patch.object(embeddings, "_CHUNK_ROWS", chunk_rows):
        got = _outcome(lambda: _load(text))
    if isinstance(expected, str):
        assert got == expected
    elif not expected[1]:
        # Header only: the old loader returned an empty table.
        assert got == "empty embedding file"
    else:
        dim, entries = expected
        assert isinstance(got, EmbeddingTable), got
        assert got.dim == dim
        assert list(got.vocab) == list(entries)
        for token, vector in entries.items():
            assert got.lookup(token).tobytes() == np.array(vector, dtype=np.float64).tobytes()


def _partial(text: str, tokens, fingerprint=None):
    """The full table of ``text`` and its load for ``tokens`` under
    ``fingerprint``, by default the file's own."""

    def both(path):
        full = load_embeddings(path)
        return full, load_embeddings(path, tokens, fingerprint or full.fingerprint)

    return from_text(both, text)


class TestFingerprint:
    def test_a_full_load_records_the_sha256_of_the_bytes(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_bytes("2 2\na 1.0 0.0\r\nb 0.0 1.0\nété 2.0 2.0".encode())
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert load_embeddings(path).fingerprint == f"sha256:{digest}"

    def test_a_table_built_in_memory_has_none(self):
        assert EmbeddingTable({"a": 0}, np.ones((1, 2))).fingerprint is None

    def test_rows_under_the_own_fingerprint_are_the_full_loads(self):
        full, part = _partial("3 2\na 1.0 0.0\nb 0.1 1e-300\nc -0.0 5.\n", ["c", "a", "a"])
        assert part.fingerprint is None
        assert list(part.vocab) == ["a", "c"]  # file order
        assert part.dim == 2 and not part.matrix.flags.writeable
        for token in part.vocab:
            assert part.lookup(token).tobytes() == full.lookup(token).tobytes()

    def test_a_token_the_file_lacks_stays_absent(self):
        _full, part = _partial("a 1.0 0.0\nb 0.0 1.0\n", ["b", "zzz"])
        assert list(part.vocab) == ["b"]
        assert part.lookup("zzz") is None
        _full, none = _partial("a 1.0 0.0\n", ["zzz"])
        assert (len(none), none.dim) == (0, 2)

    @pytest.mark.parametrize("header", ["", "3 2\n"], ids=["no-header", "header"])
    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_a_repeated_token_keeps_its_last_lines_row(self, header, end):
        text = header + end.join(["a 1.0 0.0", "b 3.0 3.0", "a 2.0 0.5"]) + end
        full, part = _partial(text, ["a"])
        assert part.lookup("a").tolist() == full.lookup("a").tolist() == [2.0, 0.5]
        assert list(part.vocab) == ["a"]

    def test_another_fingerprint_is_refused_naming_both(self):
        # No line of b is parsed, whether it is bad or good.
        recorded = "sha256:" + "0" * 64
        for text in ("a 1.0 0.0\nb 0.0 x\n", "a 1.0 0.0\nb 0.0 1.0\n"):
            own = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
            with pytest.raises(ValueError) as refused:
                from_text(lambda p: load_embeddings(p, ["a"], recorded), text)
            assert str(refused.value) == (
                f"fingerprint {own}, but the index records {recorded}"
            )

    def test_the_full_read_refuses_another_fingerprint(self):
        # Without tokens the whole file is parsed, and still bound.
        text = "a 1.0 0.0\nb 0.0 1.0\n"
        own = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
        table = from_text(lambda p: load_embeddings(p, None, own), text)
        assert (list(table.vocab), table.fingerprint) == (["a", "b"], own)
        recorded = "sha256:" + "0" * 64
        with pytest.raises(ValueError) as refused:
            from_text(lambda p: load_embeddings(p, None, recorded), text)
        assert str(refused.value) == f"fingerprint {own}, but the index records {recorded}"

    def test_a_file_with_other_bytes_is_read_once(self, monkeypatch):
        keeps = []
        read = embeddings._read

        def recording(source, keep):
            keeps.append(keep)
            return read(source, keep)

        monkeypatch.setattr(embeddings, "_read", recording)
        refusal = "^fingerprint sha256:[0-9a-f]{64}, but the index records sha256:0{64}$"
        with pytest.raises(ValueError, match=refusal):
            from_text(
                lambda p: load_embeddings(p, ["b", "a"], "sha256:" + "0" * 64),
                "2 2\na 1.0 0.0\nb 0.0 1.0\n",
            )
        assert keeps == [{"a", "b"}]

    def test_a_filtered_load_holds_no_full_matrix(self, tmp_path):
        # The header counts every row; the rows of two tokens are parsed.
        rows, dim = 20_000, 50
        path = tmp_path / "table.txt"
        path.write_text(f"{rows} {dim}\n" + "".join(
            f"w{i}" + " 0.5" * dim + "\n" for i in range(rows)
        ), encoding="utf-8")
        fingerprint = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
        tracemalloc.start()
        try:
            part = load_embeddings(path, ["w7", "w19999"], fingerprint)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(part.vocab) == ["w7", "w19999"]
        assert peak < 0.05 * rows * dim * 8

    def test_an_undecodable_file_is_refused_by_the_one_read(self, tmp_path):
        # A full load names the bad float on line 2; the filtered read skips
        # that line and stops at the byte that is never UTF-8.
        path = tmp_path / "table.txt"
        path.write_bytes(b"a 1.0 0.0\nb 0.0 x\n" + b"c 1.0 1.0\n" * 2000 + b"\xff 1.0 1.0\n")
        with pytest.raises(ValueError) as full:
            load_embeddings(path)
        assert str(full.value) == "line 2: malformed float (could not convert string to float: 'x')"
        with pytest.raises(UnicodeDecodeError, match="can't decode byte 0xff"):
            load_embeddings(path, ["a"], "sha256:" + "0" * 64)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(text=_tables(), tokens=st.sets(st.sampled_from(["a", "b", "c", "7", "été", "z"])))
def test_rows_under_the_own_fingerprint_match_the_full_load(text, tokens):
    try:
        full, part = _partial(text, tokens)
    except ValueError:  # the full load refuses the file
        return
    assert part.fingerprint is None
    assert part.dim == full.dim
    assert set(part.vocab) == tokens & set(full.vocab)
    for token in part.vocab:
        assert part.lookup(token).tobytes() == full.lookup(token).tobytes()
