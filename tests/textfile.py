"""Text given to the library's readers as a file, since they take paths."""

from __future__ import annotations

import os
import tempfile
from typing import Callable, TypeVar

_T = TypeVar("_T")


def from_text(loader: Callable[[str], _T], text: str) -> _T:
    """``loader(path)`` of a temporary file that holds exactly ``text`` as
    UTF-8, with no newline translation; the file is removed afterwards."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "input")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return loader(path)
