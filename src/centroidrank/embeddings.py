"""Word-vector tables in the whitespace-separated text format.

The format is the usual one for pretrained vectors: an optional
"<count> <dim>" header line, then one "<token> <v1> ... <vdim>" line per
word. Fields are split on whitespace as ``str.split`` splits it. Values
are parsed in bulk by NumPy's text reader, which takes what ``float()``
takes (decimal and exponent forms, ``inf`` and ``nan``, the last two then
refused as non-finite) except underscores (``1_0``) and non-ASCII digits.

A table is a ``vocab`` dict from token to row plus one read-only
``(V, dim)`` float64 matrix of those rows. When a file's header states a
word count, the matrix is sized once from it, capped by the rows the file
can hold; otherwise it grows chunk by chunk. Either way it is trimmed to
the rows read, and a token given on more than one line keeps only the row
of its last line.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

# Lines parsed per np.loadtxt call. Small chunks keep the text and the
# parsed block held at once small enough that a load's peak memory is
# about the finished matrix; larger ones were no faster.
_CHUNK_ROWS = 256


@dataclass(eq=False)
class EmbeddingTable:
    """Token -> fixed-length float64 vector: ``vocab[token]`` is the row of
    ``matrix`` (shape ``(V, dim)``) that holds the token's vector.

    Vectors are finite; ``len`` counts tokens. A vocab row outside the
    matrix raises IndexError.
    """

    vocab: dict[str, int]
    matrix: np.ndarray

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


def load_embeddings(source: str | os.PathLike) -> EmbeddingTable:
    """Parse the embedding table file at ``source``.

    The first line is treated as a header when it consists of exactly two
    integers. Duplicate tokens keep the last occurrence. Raises ValueError
    naming the offending line for malformed floats, non-finite values or
    inconsistent dimensions, and ValueError for a file without vectors.

    Finite values can still overflow later: a vector whose norm passes
    about 1.3e154 (the square root of the largest float64), or values near
    1e308 that a centroid sums, give centroids whose norm is not finite.
    ``build_index`` refuses such a passage and ``rank`` such a question.
    """
    tokens: list[str] = []
    matrix = np.empty((0, 0))
    with open(source, encoding="utf-8") as handle:
        size = os.fstat(handle.fileno()).st_size
        for count, dim, line_nos, chunk_tokens, values in _chunks(handle):
            block = _parse_chunk(line_nos, values, dim)
            start = len(tokens)
            tokens += chunk_tokens
            if len(tokens) > len(matrix):
                # A row takes at least 2 * dim bytes (a digit and a
                # separator per value), so a header count beyond what the
                # file can hold is not trusted. realloc grows the matrix
                # without a second full-size copy; no view of it exists
                # until it is complete.
                rows = max(len(tokens), min(count, size // (2 * dim)))
                matrix.resize((rows, dim), refcheck=False)
            matrix[start : len(tokens)] = block
    if not tokens:
        raise ValueError("empty embedding file")
    matrix.resize((len(tokens), dim), refcheck=False)
    vocab = dict(zip(tokens, range(len(tokens))))
    if len(vocab) < len(tokens):
        # Keep only the last row of a repeated token.
        matrix = matrix[list(vocab.values())]
        vocab = dict(zip(vocab, range(len(vocab))))
    matrix.flags.writeable = False
    return EmbeddingTable(vocab, matrix)


def _chunks(
    handle: IO[str],
) -> Iterator[tuple[int, int, list[int], list[str], list[str]]]:
    """Yield ``(header count, dim, line numbers, tokens, value texts)`` for
    up to ``_CHUNK_ROWS`` data lines at a time, leaving the values unparsed.

    Skips blank lines and the header; the count is 0 without a header. A
    line without values is refused only after the lines before it are
    yielded, so that the first bad line of the file is the one named.
    """
    count = 0
    dim: int | None = None
    line_nos: list[int] = []
    tokens: list[str] = []
    values: list[str] = []
    for line_no, line in enumerate(handle, start=1):
        parts = line.split(None, 1)
        if not parts:
            continue
        if len(parts) == 1:
            if values:
                yield count, dim, line_nos, tokens, values
            got = line.rstrip("\n")
            raise ValueError(f"line {line_no}: expected '<token> <v1> ...', got {got!r}")
        if dim is None:
            fields = parts[1].split()
            if len(fields) == 1 and _is_int(parts[0]) and _is_int(fields[0]):
                count, dim = int(parts[0]), int(fields[0])
                if dim < 1:
                    raise ValueError(f"line {line_no}: header dimension must be >= 1, got {dim}")
                continue
            dim = len(fields)
        line_nos.append(line_no)
        tokens.append(parts[0])
        values.append(parts[1])
        if len(values) == _CHUNK_ROWS:
            yield count, dim, line_nos, tokens, values
            line_nos, tokens, values = [], [], []
    if values:
        yield count, dim, line_nos, tokens, values


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _is_float(text: str) -> bool:
    try:
        _parse([text])
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
        bad = next(value for value in fields if not _is_float(value))
        raise ValueError(
            f"line {line_no}: malformed float (could not convert string to float: {bad!r})"
        ) from None
    if not np.isfinite(vector).all():
        raise ValueError(f"line {line_no}: non-finite component")
    return vector


def save_embeddings(table: EmbeddingTable, sink: str | os.PathLike) -> None:
    """Write ``table`` with a header line; tokens are sorted for stable output.

    Raises ValueError for a token that is empty or that ``str.split`` would
    split (whitespace, a line break), before ``sink`` is opened, so a
    refused table leaves a file already there as it was.
    """
    for token in table.vocab:
        if token.split() != [token]:
            raise ValueError(f"embedding token {token!r} is empty or holds whitespace")
    with open(sink, "w", encoding="utf-8") as handle:
        handle.write(f"{len(table.vocab)} {table.dim}\n")
        for token in sorted(table.vocab):
            components = " ".join(repr(float(v)) for v in table.matrix[table.vocab[token]])
            handle.write(f"{token} {components}\n")
