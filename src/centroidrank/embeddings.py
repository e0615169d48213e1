"""Word-vector tables in the whitespace-separated text format.

The format is the usual one for pretrained vectors: an optional
"<count> <dim>" header line, then one "<token> <v1> ... <vdim>" line per
word. Tables are immutable after loading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .text import PathOrIO, open_text


@dataclass
class EmbeddingTable:
    """Token -> fixed-length float64 vector."""

    dim: int
    entries: dict[str, np.ndarray] = field(default_factory=dict)

    def lookup(self, token: str) -> np.ndarray | None:
        """Stored vector for ``token``, or None when out of vocabulary."""
        return self.entries.get(token)

    def __contains__(self, token: str) -> bool:
        return token in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddingTable):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.entries.keys() == other.entries.keys()
            and all(np.array_equal(v, other.entries[t]) for t, v in self.entries.items())
        )


def load_embeddings(source: PathOrIO) -> EmbeddingTable:
    """Parse an embedding table from a path or text stream.

    The first line is treated as a header when it consists of exactly two
    integers. Duplicate tokens keep the last occurrence. Raises ValueError
    naming the offending line for malformed floats, non-finite values,
    inconsistent dimensions, or an empty stream.
    """
    dim: int | None = None
    entries: dict[str, np.ndarray] = {}
    first_content = True

    with open_text(source) as handle:
        for line_no, raw_line in enumerate(handle, start=1):
            line = raw_line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split()
            if first_content and len(fields) == 2:
                first_content = False
                try:
                    int(fields[0]), int(fields[1])
                except ValueError:
                    pass
                else:
                    dim = int(fields[1])
                    if dim < 1:
                        raise ValueError(
                            f"line {line_no}: header dimension must be >= 1, got {dim}"
                        )
                    continue
            first_content = False
            token, values = fields[0], fields[1:]
            if not token or not values:
                raise ValueError(f"line {line_no}: expected '<token> <v1> ...', got {line!r}")
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise ValueError(
                    f"line {line_no}: expected {dim} components, got {len(values)}"
                )
            try:
                vector = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"line {line_no}: malformed float ({exc})") from None
            if not all(math.isfinite(v) for v in vector):
                raise ValueError(f"line {line_no}: non-finite component")
            vector.flags.writeable = False
            entries[token] = vector

    if dim is None:
        raise ValueError("empty embedding stream")
    return EmbeddingTable(dim=dim, entries=entries)


def save_embeddings(table: EmbeddingTable, sink: PathOrIO) -> None:
    """Write ``table`` with a header line; tokens are sorted for stable output."""
    with open_text(sink, "w") as handle:
        handle.write(f"{len(table.entries)} {table.dim}\n")
        for token in sorted(table.entries):
            components = " ".join(repr(float(v)) for v in table.entries[token])
            handle.write(f"{token} {components}\n")
