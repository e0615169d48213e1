"""Word-vector tables in the whitespace-separated text format.

The format is the usual one for pretrained vectors: an optional
"<count> <dim>" header line, then one "<token> <v1> ... <vdim>" line per
word. Fields are split on whitespace as ``str.split`` splits it. Values
are parsed in bulk by NumPy's text reader, which takes what ``float()``
takes (decimal and exponent forms, ``inf`` and ``nan``, the last two then
refused as non-finite) except underscores (``1_0``) and non-ASCII digits.

A table is a ``vocab`` dict from token to row plus one read-only
``(V, dim)`` float64 matrix of those rows. When a file's header states a
word count, a full read sizes the matrix once from it, capped by the rows
the file can hold; otherwise it grows chunk by chunk. Either way it is
trimmed to the rows read, and a token given on more than one line keeps
only the row of its last line.

A table read in full records the fingerprint of the file it was read
from, ``"sha256:"`` and the hex SHA-256 of the bytes parsed, hashed in the
same read. Given that fingerprint, a later load parses only the lines of
the tokens it is asked for, and refuses a file with other bytes: the file
has been checked in full once, under exactly those bytes. One reader
serves both loads, so they split lines alike and a repeated token keeps
its last row in either.
"""

from __future__ import annotations

import hashlib
import io
import os
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .runs import check_at_least_one

# Lines parsed per np.loadtxt call. Small chunks keep the text and the
# parsed block held at once small enough that a load's peak memory is
# about the finished matrix; larger ones were no faster.
_CHUNK_ROWS = 256


@dataclass(eq=False)
class EmbeddingTable:
    """Token -> fixed-length float64 vector: ``vocab[token]`` is the row of
    ``matrix`` (shape ``(V, dim)``) that holds the token's vector.

    Vectors are finite; ``len`` counts tokens. A vocab row outside the
    matrix raises IndexError. ``fingerprint`` is that of the file the table
    holds every row of, and None for a table built in memory or read in
    part.
    """

    vocab: dict[str, int]
    matrix: np.ndarray
    fingerprint: str | None = None

    def __post_init__(self) -> None:
        rows = self.vocab.values()
        # A row of -1 would silently read the last vector.
        if rows and not 0 <= min(rows) <= max(rows) < len(self.matrix):
            raise IndexError("an embedding vocab row lies outside its matrix")

    @property
    def dim(self) -> int:
        """The width of ``matrix``."""
        return self.matrix.shape[1]

    def lookup(self, token: str) -> np.ndarray | None:
        """Stored vector for ``token``, or None when out of vocabulary."""
        row = self.vocab.get(token)
        return None if row is None else self.matrix[row]

    def __len__(self) -> int:
        return len(self.vocab)


def load_embeddings(
    source: str | os.PathLike,
    tokens: Iterable[str] | None = None,
    fingerprint: str | None = None,
) -> EmbeddingTable:
    """Parse the embedding table file at ``source``.

    The first line is treated as a header when it consists of exactly two
    integers. Duplicate tokens keep the last occurrence. Raises ValueError
    naming the offending line for malformed floats, non-finite values or
    inconsistent dimensions, and ValueError for a file without vectors.
    The table records the file's fingerprint.

    Given ``fingerprint``, a file with other bytes is refused by the first
    fault the read meets, or else as a mismatch naming both fingerprints.
    Given ``tokens`` too, the one read parses only the lines of ``tokens``,
    with the same checks, and splits and hashes every line. The table holds
    those of ``tokens`` the file has, a repeated one its last line's row,
    and no fingerprint.

    Finite values can still overflow later: a vector whose norm passes
    about 1.3e154 (the square root of the largest float64), or values near
    1e308 that a centroid sums, give centroids whose norm is not finite.
    ``build_index`` refuses such a passage and ``rank`` such a question.
    """
    if fingerprint is None:
        return _read(source, None)
    table = _read(source, None if tokens is None else set(tokens))
    if table.fingerprint != fingerprint:
        raise ValueError(f"fingerprint {table.fingerprint}, but the index records {fingerprint}")
    return table if tokens is None else EmbeddingTable(table.vocab, table.matrix)


def _read(source: str | os.PathLike, keep: set[str] | None) -> EmbeddingTable:
    """The table of the file at ``source``, or of its lines whose token is
    in ``keep``, with the fingerprint of the whole file."""
    read: list[str] = []
    matrix = np.empty((0, 0))
    reader = _HashingReader(open(source, "rb", buffering=0))
    with io.TextIOWrapper(io.BufferedReader(reader), encoding="utf-8") as handle:
        size = os.fstat(reader.file.fileno()).st_size
        for count, dim, line_nos, chunk_tokens, values in _chunks(handle, keep):
            # Parsed first, so a bad width is refused before the matrix grows to it.
            block = _parse_chunk(line_nos, values, dim) if values else None
            start = len(read)
            read += chunk_tokens
            if not len(matrix):
                # A row takes at least 2 * dim bytes (a digit and a
                # separator per value), so a header count beyond what the
                # file can hold is not trusted, and one that counts the
                # lines a filtered read drops is not used. Rows of the
                # first block that no line fills are never written, so
                # they never become resident; resize would zero-fill them.
                cap = min(count, size // (2 * dim)) if keep is None else 0
                matrix = np.empty((max(len(read), cap), dim))
            elif len(read) > len(matrix):
                # realloc may move and copy the matrix, which then is held
                # twice; no view of it exists until it is complete.
                matrix.resize((len(read), dim), refcheck=False)
            if values:
                matrix[start : len(read)] = block
    matrix.resize((len(read), dim), refcheck=False)
    vocab = dict(zip(read, range(len(read))))
    if len(vocab) < len(read):
        # Keep only the last row of a repeated token.
        matrix = matrix[list(vocab.values())]
        vocab = dict(zip(vocab, range(len(vocab))))
    matrix.flags.writeable = False
    return EmbeddingTable(vocab, matrix, "sha256:" + reader.sha256.hexdigest())


class _HashingReader(io.RawIOBase):
    """An open binary file whose bytes are hashed with SHA-256 as they are read."""

    def __init__(self, file: io.FileIO) -> None:
        self.file = file
        self.sha256 = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self.file.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:count])
        return count

    def close(self) -> None:
        super().close()
        self.file.close()


def _chunks(
    handle: IO[str], keep: set[str] | None
) -> Iterator[tuple[int, int, list[int], list[str], list[str]]]:
    """Yield ``(header count, dim, line numbers, tokens, value texts)`` for
    up to ``_CHUNK_ROWS`` data lines at a time, leaving the values unparsed.
    The last chunk is yielded even when empty, so that ``dim`` is known.

    Skips blank lines, the header and, given ``keep``, the data lines whose
    token is not in it; the count is 0 without a header. Refuses a file
    without data lines. A line without values is refused only after the
    lines before it are yielded, so that the first bad line of the file is
    the one named.
    """
    count = 0
    header_dim: int | None = None
    dim: int | None = None  # set by the first data line
    line_nos: list[int] = []
    tokens: list[str] = []
    values: list[str] = []
    for line_no, line in enumerate(handle, start=1):
        parts = line.split(None, 1)
        if len(parts) < 2:
            if not parts:
                continue
            if values:
                yield count, dim, line_nos, tokens, values
            got = line.rstrip("\n")
            raise ValueError(f"line {line_no}: expected '<token> <v1> ...', got {got!r}")
        if dim is None:
            fields = parts[1].split()
            if header_dim is None and len(fields) == 1 and _parses(int, parts[0], fields[0]):
                count, header_dim = int(parts[0]), int(fields[0])
                if header_dim < 1:
                    raise ValueError(f"line {line_no}: header dimension must be >= 1, got {header_dim}")
                continue
            dim = len(fields) if header_dim is None else header_dim
        if keep is not None and parts[0] not in keep:
            continue
        line_nos.append(line_no)
        tokens.append(parts[0])
        values.append(parts[1])
        if len(values) == _CHUNK_ROWS:
            yield count, dim, line_nos, tokens, values
            line_nos, tokens, values = [], [], []
    if dim is None:
        raise ValueError("empty embedding file")
    yield count, dim, line_nos, tokens, values


def _parses(parse: Callable, *values: object) -> bool:
    """Whether ``parse`` takes each of ``values`` without a ValueError."""
    try:
        for value in values:
            parse(value)
    except ValueError:
        return False
    return True


def _parse(lines: list[str]) -> np.ndarray:
    """The whitespace-separated floats of ``lines``, one row per line."""
    return np.loadtxt(
        lines, dtype=np.float64, comments=None, ndmin=2, max_rows=len(lines)
    )


def _parse_chunk(line_nos: list[int], values: list[str], dim: int) -> np.ndarray:
    """The ``(len(values), dim)`` components of one chunk of lines.

    The chunk is parsed in one call. When that fails or gives a wrong
    width or a non-finite value, each line is parsed on its own, so the
    error names the first bad line.
    """
    try:
        block = _parse(values)
    except ValueError:
        pass
    else:
        if block.shape == (len(values), dim) and np.isfinite(block).all():
            return block
    return np.array([_parse_line(n, text, dim) for n, text in zip(line_nos, values)])


def _parse_line(line_no: int, text: str, dim: int) -> np.ndarray:
    """The ``dim`` components of one line, or the ValueError naming it."""
    fields = text.split()
    if len(fields) != dim:
        raise ValueError(f"line {line_no}: expected {dim} components, got {len(fields)}")
    try:
        vector = _parse([text])[0]
    except ValueError:
        bad = next(value for value in fields if not _parses(_parse, [value]))
        raise ValueError(
            f"line {line_no}: malformed float (could not convert string to float: {bad!r})"
        ) from None
    if not np.isfinite(vector).all():
        raise ValueError(f"line {line_no}: non-finite component")
    return vector


def save_embeddings(table: EmbeddingTable, sink: str | os.PathLike) -> None:
    """Write ``table`` with a header line; tokens are sorted for stable output.

    Raises ValueError for what the loader would refuse, before ``sink`` is
    opened so that a file already there keeps its bytes: no vectors, no
    columns, or a token that is empty, holds whitespace or has a non-finite vector.
    """
    check_at_least_one("embedding count", len(table.vocab))
    check_at_least_one("embedding dimension", table.dim)
    finite = np.isfinite(table.matrix).all(axis=1)
    for token, row in table.vocab.items():
        if token.split() != [token]:
            raise ValueError(f"embedding token {token!r} is empty or holds whitespace")
        if not finite[row]:
            raise ValueError(f"embedding token {token!r} has a non-finite component")
    with open(sink, "w", encoding="utf-8") as handle:
        handle.write(f"{len(table.vocab)} {table.dim}\n")
        for token in sorted(table.vocab):
            components = " ".join(repr(float(v)) for v in table.matrix[table.vocab[token]])
            handle.write(f"{token} {components}\n")
