"""Run results, run files, and the Wilcoxon signed-rank comparison.

This is the half of the evaluation that needs no vector math: the method
names and the one rule for which tables each needs, ranked lists,
per-question scores and their aggregates, the JSON run file, and the
paired significance test between two runs. It imports no numpy, so
``centroidrank compare`` starts without it, and the CLI checks its flags
before numpy loads.

The Wilcoxon test is two-sided, exact for up to 20 nonzero differences
and normal-approximated beyond.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Iterable, Sequence

#: Minimum shared contiguous token run (t-gram) for snippet/passage relevance.
OVERLAP_THRESHOLD = 5

DEFAULT_CUTOFF = 10


def check_at_least_one(name: str, value: int) -> None:
    """Raise ValueError ``<name> must be >= 1, got <value>`` below 1."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


class Method(str, Enum):
    CD = "cd"
    CD_IDF = "cd-idf"
    CD_Q = "cd-q"
    RND = "rnd"


def check_method(method: Method | str, k: int, embeddings: object, question_idf: object) -> Method:
    """``method`` as a :class:`Method`, once it is known to have what it needs.

    Each table may be given loaded or as a path; None means not given.
    Raises ValueError for ``k < 1``, for any method but ``rnd`` without
    embeddings and for ``cd-q`` without a question idf, naming the table
    and its CLI flag. ``cd-idf`` needs no table here: an index keeps the
    document idf table it was built with.
    """
    method = Method(method)
    check_at_least_one("k", k)
    if method is not Method.RND and embeddings is None:
        raise ValueError(f"{method.value} requires an embedding table (--embeddings)")
    if method is Method.CD_Q and question_idf is None:
        raise ValueError("cd-q requires a question idf table (--question-idf)")
    return method


@dataclass
class RankedList:
    """Top-k retrieval result: (passage_id, distance) pairs in rank order."""

    question_id: str
    method: Method
    items: list[tuple[str, float]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Aggregation


@dataclass(frozen=True)
class Aggregates:
    map: float
    precision: float
    recall: float
    f1: float


def aggregate(per_question: Iterable[tuple[float, float, float]]) -> Aggregates:
    """Arithmetic means of (ap, precision, recall) plus the F1 of the means.

    Raises ValueError for an empty question set, and naming the field for
    finite values whose sum passes the float range.
    """
    columns = list(zip(*per_question))
    if not columns:
        raise ValueError("cannot aggregate an empty question set")
    means = []
    for name, column in zip(("ap", "precision", "recall"), columns):
        try:
            # fsum keeps the means exactly permutation-invariant
            means.append(math.fsum(column) / len(column))
        except OverflowError:
            raise ValueError(f"the sum of the per-question {name} values overflows") from None
    mean_ap, mean_p, mean_r = means
    f1 = 0.0 if mean_p + mean_r == 0.0 else 2.0 * mean_p * mean_r / (mean_p + mean_r)
    return Aggregates(map=mean_ap, precision=mean_p, recall=mean_r, f1=f1)


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    p_value: float
    significant: bool


def _average_ranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for pos in range(i, j + 1):
            ranks[order[pos]] = avg
        i = j + 1
    return ranks


def _exact_two_sided_p(ranks: Sequence[float], w_observed: float) -> float:
    # Subset-sum counts over doubled ranks (midranks become integers); the
    # resulting distribution of W+ over all 2^n sign assignments is exact.
    doubled = [int(round(2 * r)) for r in ranks]
    total = sum(doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for d in doubled:
        for s in range(total, d - 1, -1):
            if counts[s - d]:
                counts[s] += counts[s - d]
    threshold = int(round(2 * w_observed))
    favorable = sum(
        c for s, c in enumerate(counts) if s <= threshold or s >= total - threshold
    )
    return favorable / (2 ** len(ranks))


def _normal_two_sided_p(ranks: Sequence[float], w_observed: float) -> float:
    n = len(ranks)
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    tie_counts: dict[float, int] = {}
    for r in ranks:
        tie_counts[r] = tie_counts.get(r, 0) + 1
    variance -= sum(t**3 - t for t in tie_counts.values()) / 48.0
    z = (w_observed - mean + 0.5) / math.sqrt(variance)
    # Phi(z) via the complementary error function.
    p = math.erfc(-z / math.sqrt(2.0))
    return min(1.0, p)


def wilcoxon_signed_rank(
    a: Sequence[float],
    b: Sequence[float],
    alpha: float = 0.05,
    mode: str = "auto",
) -> WilcoxonResult:
    """Two-sided paired Wilcoxon signed-rank test.

    Zero differences are discarded; absolute differences receive average
    ranks on ties; the statistic is W = min(W+, W-). The p-value is exact
    (full sign-assignment distribution) for up to 20 nonzero differences
    and a tie-corrected, continuity-corrected normal approximation beyond;
    ``mode`` forces "exact" or "normal". All-zero differences give p = 1.
    ``alpha`` must lie in (0, 1).
    """
    if not 0.0 < alpha < 1.0:  # NaN fails too
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if mode not in ("auto", "exact", "normal"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(a) != len(b):
        raise ValueError(f"paired inputs differ in length: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("empty input")
    differences = [x - y for x, y in zip(a, b) if x - y != 0.0]
    if not differences:
        return WilcoxonResult(statistic=0.0, p_value=1.0, significant=False)

    ranks = _average_ranks([abs(d) for d in differences])
    w_plus = sum(r for d, r in zip(differences, ranks) if d > 0)
    w_minus = sum(ranks) - w_plus
    w = min(w_plus, w_minus)

    use_exact = mode == "exact" or (mode == "auto" and len(differences) <= 20)
    if use_exact:
        p = _exact_two_sided_p(ranks, w)
    else:
        p = _normal_two_sided_p(ranks, w)
    return WilcoxonResult(statistic=w, p_value=p, significant=p < alpha)


# ---------------------------------------------------------------------------
# Whole runs and run files


@dataclass
class QuestionScore:
    ranking: RankedList
    ap: float
    precision: float
    recall: float


@dataclass
class RunResult:
    method: str
    per_question: dict[str, QuestionScore] = field(default_factory=dict)

    @property
    def aggregates(self) -> Aggregates:
        """:func:`aggregate` of the per-question (ap, precision, recall)."""
        return aggregate((s.ap, s.precision, s.recall) for s in self.per_question.values())


def save_run(run: RunResult, sink: str | os.PathLike) -> None:
    """Write a run as JSON (schema: method, questions[], aggregates).

    Raises ValueError naming the question and the field for a NaN or an
    infinity, before ``sink`` is opened, so a file already there keeps its
    bytes.
    """
    for qid, entry in run.per_question.items():  # name the first NaN or infinity
        named = [("ap", entry.ap), ("precision", entry.precision), ("recall", entry.recall)]
        named += [(f"ranking[{i}] score", d) for i, (_, d) in enumerate(entry.ranking.items)]
        for name, value in named:
            if not math.isfinite(value):
                raise ValueError(f"question {qid!r}: {name} {value} is not finite")
    payload = {
        "method": run.method,
        "questions": [
            {
                "id": qid,
                "ranking": [
                    {"passage_id": pid, "score": score}
                    for pid, score in score_entry.ranking.items
                ],
                "ap": score_entry.ap,
                "precision": score_entry.precision,
                "recall": score_entry.recall,
            }
            for qid, score_entry in run.per_question.items()
        ],
        "aggregates": asdict(run.aggregates),
    }
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    with open(sink, "w", encoding="utf-8") as handle:
        handle.write(text)


def _bounded(value: object, where: str, name: str, high: float) -> float:
    """``value`` as a float in [0, high], or ValueError naming ``where`` and
    ``name``."""
    # JSON true and numeric strings are not scores; bool is an int subclass
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: {name} {value!r} is not a number")
    if not 0.0 <= value <= high:  # NaN and infinities fail too
        raise ValueError(f"{where}: {name} {value} is not in [0, {high:g}]")
    return float(value)


def check_string(value: object, where: str, name: str) -> str:
    """``value`` if it is a non-empty string, or ValueError naming ``where``
    and ``name``."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{where}: {name} {value!r} is not a non-empty string")
    return value


def load_run(source: str | os.PathLike) -> RunResult:
    """Parse a run file written by :func:`save_run`.

    Raises ValueError naming the question (or ``aggregates``) and the field
    for a question id or ranking ``passage_id`` that is not a non-empty
    string, a repeated question id, a value that is not a JSON number
    (``true`` and numeric strings are refused), an ``ap``, ``precision``,
    ``recall`` or aggregate outside [0, 1], or a ranking score outside
    [0, 2] (cosine distances; ``rnd`` records 0.0). NaN and infinities are
    refused, as are a file with no questions and aggregates other than
    :func:`aggregate` of the per-question scores.
    """
    with open(source, encoding="utf-8") as handle:
        data = json.load(handle)
    try:
        method = data["method"]
        run = RunResult(method=method)
        for n, entry in enumerate(data["questions"]):
            qid = check_string(entry["id"], f"questions[{n}]", "id")
            where = f"question {qid!r}"
            if qid in run.per_question:
                raise ValueError(f"run file repeats question {qid!r}")
            scores = {
                name: _bounded(entry[name], where, name, 1.0)
                for name in ("ap", "precision", "recall")
            }
            ranking = RankedList(
                question_id=qid,
                method=Method(method),
                items=[
                    (
                        check_string(r["passage_id"], where, f"ranking[{i}] passage_id"),
                        _bounded(r["score"], where, f"ranking[{i}] score", 2.0),
                    )
                    for i, r in enumerate(entry["ranking"])
                ],
            )
            run.per_question[qid] = QuestionScore(ranking=ranking, **scores)
        agg = data["aggregates"]
        stored = {
            name: _bounded(agg[name], "aggregates", name, 1.0)
            for name in ("map", "precision", "recall", "f1")
        }
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed run file: {exc}") from None
    aggregates = run.aggregates
    for name, value in stored.items():
        derived = getattr(aggregates, name)
        if value != derived:
            raise ValueError(
                f"aggregates: {name} {value} is not the value of the per-question scores, "
                f"{derived}"
            )
    return run
