"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive pure Python (no imports from the
package): centroid scoring straight from the defining formulas, ranking
by exhaustive scoring, Wilcoxon p-values by enumerating every sign
assignment. The test suite checks the library against these. The one
numpy function, ``oracle_centroid``, is the library's earlier per-token
centroid loop, kept as the byte-exact reference for the bulk routine,
and ``oracle_full_rank`` is the library's earlier full-index ranking,
kept as the bit-exact reference for the screened one.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np


def oracle_idf_weight(n_docs: int, df: dict[str, int], token: str) -> float:
    return math.log((n_docs + 1) / (df.get(token, 0) + 1))


def oracle_centroid(tokens, embeddings, weight) -> np.ndarray:
    """The centroid as the library computed it one token at a time.

    ``embeddings`` is anything with ``dim`` and ``lookup(token)`` (an
    ``EmbeddingTable``); ``weight`` maps a token to its float weight.
    """
    acc = np.zeros(embeddings.dim, dtype=np.float64)
    weight_sum = 0.0
    for token in tokens:
        vector = embeddings.lookup(token)
        if vector is None:
            continue
        w = float(weight(token))
        if w == 0.0:
            continue
        acc += w * vector
        weight_sum += w
    if weight_sum == 0.0:
        # Weights of either sign can cancel, leaving acc nonzero.
        acc.fill(0.0)
    else:
        acc /= weight_sum
    acc.flags.writeable = False
    return acc


def oracle_full_rank(matrix, q, passage_ids, k: int):
    """The library's full-index ranking before it screened rows: the einsum
    cosine distance of every row of ``matrix`` to ``q``, 1.0 for a zero row
    or a zero ``q``, and the k smallest, ties broken by row (passage-id)
    order. Returns [(passage_id, distance)]."""
    dots = np.einsum("ij,j->i", matrix, q)
    divisor = np.linalg.norm(matrix, axis=1) * float(np.linalg.norm(q))
    nonzero = divisor != 0.0
    similarity = np.where(nonzero, dots / np.where(nonzero, divisor, 1.0), 0.0)
    distances = (1.0 - np.clip(similarity, -1.0, 1.0)).tolist()
    order = sorted(range(len(distances)), key=lambda row: (distances[row], row))
    return [(passage_ids[row], distances[row]) for row in order[:k]]


def oracle_list_centroid(tokens, vectors, weights=None):
    """Sum(w*v)/Sum(w) over tokens present in ``vectors``; None weights = uniform.

    Returns the zero vector when nothing is covered or weights sum to 0.
    """
    dim = len(next(iter(vectors.values())))
    acc = [0.0] * dim
    weight_sum = 0.0
    for token in tokens:
        if token not in vectors:
            continue
        w = 1.0 if weights is None else weights(token)
        vec = vectors[token]
        for i in range(dim):
            acc[i] += w * vec[i]
        weight_sum += w
    if weight_sum == 0.0:
        return [0.0] * dim
    return [a / weight_sum for a in acc]


def oracle_cosine_distance(u, v) -> float:
    norm_u = math.sqrt(sum(x * x for x in u))
    norm_v = math.sqrt(sum(x * x for x in v))
    if norm_u == 0.0 or norm_v == 0.0:
        return 1.0
    dot = sum(x * y for x, y in zip(u, v))
    return 1.0 - dot / (norm_u * norm_v)


def oracle_rank(
    passages,
    question_tokens,
    method: str,
    vectors,
    k: int,
    doc_stats=None,
    question_stats=None,
    candidate_docs=None,
):
    """Exhaustively score and sort passages.

    ``passages`` is a list of (passage_id, doc_id, tokens); ``doc_stats``
    and ``question_stats`` are (n_docs, df) pairs. Returns
    [(passage_id, distance)] sorted ascending with ties broken by id.
    """
    def idf_fn(stats):
        n, df = stats
        return lambda t: oracle_idf_weight(n, df, t)

    if method == "cd":
        question_weights = None
        passage_weights = None
    elif method == "cd-idf":
        question_weights = idf_fn(doc_stats)
        passage_weights = idf_fn(doc_stats)
    elif method == "cd-q":
        question_weights = idf_fn(question_stats)
        passage_weights = idf_fn(doc_stats)
    else:
        raise ValueError(method)

    question_vec = oracle_list_centroid(question_tokens, vectors, question_weights)
    scored = []
    for passage_id, doc_id, tokens in passages:
        if candidate_docs is not None and doc_id not in candidate_docs:
            continue
        passage_vec = oracle_list_centroid(tokens, vectors, passage_weights)
        scored.append((oracle_cosine_distance(question_vec, passage_vec), passage_id))
    scored.sort()
    return [(pid, dist) for dist, pid in scored[:k]]


def oracle_midranks(values) -> list[float]:
    return [
        sum(1 for other in values if other < v)
        + (sum(1 for other in values if other == v) + 1) / 2
        for v in values
    ]


def oracle_wilcoxon(differences):
    """(W, two-sided exact p) by enumerating all 2^n sign assignments.

    ``differences`` must already have zeros removed.
    """
    n = len(differences)
    ranks = oracle_midranks([abs(d) for d in differences])
    total = sum(ranks)
    w_plus = sum(r for d, r in zip(differences, ranks) if d > 0)
    w_observed = min(w_plus, total - w_plus)
    favorable = 0
    for signs in itertools.product((0, 1), repeat=n):
        wp = sum(r for s, r in zip(signs, ranks) if s)
        if min(wp, total - wp) <= w_observed:
            favorable += 1
    return w_observed, favorable / (2**n)


def oracle_precision(ranked_ids, relevant_ids, k: int) -> float:
    if not ranked_ids:
        return 0.0
    top = ranked_ids[:k]
    hits = sum(1 for pid in top if pid in relevant_ids)
    return hits / len(top)


def oracle_recall(ranked_ids, relevant_ids, k: int) -> float:
    if len(relevant_ids) == 0:
        return 0.0
    hits = sum(1 for pid in ranked_ids[:k] if pid in relevant_ids)
    return hits / len(relevant_ids)


def oracle_average_precision(ranked_ids, relevant_ids, k: int) -> float:
    n_relevant = len(relevant_ids)
    if n_relevant == 0:
        return 0.0
    hits = 0
    total = 0.0
    for position, pid in enumerate(ranked_ids[:k], start=1):
        if pid in relevant_ids:
            hits += 1
            total += hits / position
    return total / min(n_relevant, k)


def oracle_contains_run(big, small) -> bool:
    """True when ``small`` (non-empty) occurs in ``big`` as a contiguous run."""
    if not small or len(small) > len(big):
        return False
    limit = len(big) - len(small)
    for start in range(limit + 1):
        if all(big[start + i] == small[i] for i in range(len(small))):
            return True
    return False


def oracle_longest_common_run(a, b) -> int:
    """Length of the longest contiguous run shared by ``a`` and ``b`` (DP)."""
    if not a or not b:
        return 0
    best = 0
    previous = [0] * (len(b) + 1)
    for x in a:
        current = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                current[j] = previous[j - 1] + 1
                if current[j] > best:
                    best = current[j]
        previous = current
    return best


def oracle_judge(passage_tokens, snippet_tokens, t: int) -> bool:
    """Snippet relevance: containment either way, or a shared run of >= t tokens."""
    return (
        oracle_contains_run(snippet_tokens, passage_tokens)
        or oracle_contains_run(passage_tokens, snippet_tokens)
        or oracle_longest_common_run(passage_tokens, snippet_tokens) >= t
    )


def oracle_index_tsv(dim: int, passages, uniform_rows, idf_rows) -> str:
    """The index as the earlier single-file TSV format wrote it.

    ``passages`` are ``(passage_id, doc_id, text)`` triples; the rows are
    lists of Python floats. A ``#dim`` header, then one tab-separated line
    per passage, with backslash, tab and newline escaped in the text and
    each centroid as comma-separated ``repr`` floats.
    """
    lines = [f"#dim {dim}\n"]
    for (passage_id, doc_id, text), uniform, idf in zip(passages, uniform_rows, idf_rows):
        text = text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")
        fields = (passage_id, doc_id, text, ",".join(map(repr, uniform)), ",".join(map(repr, idf)))
        lines.append("\t".join(fields) + "\n")
    return "".join(lines)


def oracle_load_embeddings(handle):
    """An embedding table read line by line with ``float()``, as the loader
    did before it parsed in bulk: ``(dim, {token: list of floats})``.

    ``handle`` is a text stream. The header, blank-line, width, float and
    finiteness rules and their messages are the earlier loader's; only the
    container changed (lists of Python floats, not an ``EmbeddingTable``).
    """
    dim = None
    entries = {}
    first_content = True

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
            vector = [float(v) for v in values]
        except ValueError as exc:
            raise ValueError(f"line {line_no}: malformed float ({exc})") from None
        if not all(math.isfinite(v) for v in vector):
            raise ValueError(f"line {line_no}: non-finite component")
        entries[token] = vector

    if dim is None:
        raise ValueError("empty embedding file")
    return dim, entries


# The sentence splitter's token and abbreviation rules, copied so that the
# oracle below shares nothing with ``centroidrank.text``.
_ORACLE_PRECEDING_TOKEN_RE = re.compile(r"([A-Za-z0-9]+(?:\.[A-Za-z0-9]+)*)\Z")
_ORACLE_TERMINATORS = frozenset(".!?")
_ORACLE_ABBREVIATIONS = frozenset({"fig", "al", "e.g", "i.e", "dr", "vs", "etc"})


def _oracle_preceding_token(text: str, end: int) -> str:
    window_start = max(0, end - 40)
    m = _ORACLE_PRECEDING_TOKEN_RE.search(text, window_start, end)
    return m.group(1).lower() if m else ""


def oracle_split_sentences(document_text: str) -> list[tuple[str, int]]:
    """Sentences as the splitter found them with a loop over every
    character: a boundary after '.', '!' or '?', whitespace, and an
    uppercase letter or digit, unless a '.' ends a known abbreviation."""
    n = len(document_text)
    starts = [0]
    for i, ch in enumerate(document_text):
        if ch not in _ORACLE_TERMINATORS:
            continue
        j = i + 1
        if j >= n or not document_text[j].isspace():
            continue
        k = j
        while k < n and document_text[k].isspace():
            k += 1
        if k >= n:
            continue
        nxt = document_text[k]
        if not (nxt.isupper() or nxt.isdigit()):
            continue
        if ch == "." and _oracle_preceding_token(document_text, i) in _ORACLE_ABBREVIATIONS:
            continue
        starts.append(k)

    sentences: list[tuple[str, int]] = []
    for idx, begin in enumerate(starts):
        end = starts[idx + 1] if idx + 1 < len(starts) else n
        chunk = document_text[begin:end]
        stripped = chunk.strip()
        if not stripped:
            continue
        offset = begin + (len(chunk) - len(chunk.lstrip()))
        sentences.append((stripped, offset))
    return sentences
