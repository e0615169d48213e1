"""Span tracer that times centroidrank's layers from outside the package.

Tracing is installed by replacing public functions in the package's module
namespaces with timing wrappers; every call site that looks the name up at
call time (the benchmark itself, and one module calling another, such as
``evaluation.evaluate_questions`` calling ``retrieval.rank``) then records
a span. Spans keep name, start, end and parent in memory and are summarised
when the run ends; a span's self time is its duration minus the time its
child spans cover. Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable

# (module attribute to replace, layer name). One layer may be reachable
# under several module names because modules import each other's functions.
TARGETS = (
    ("text", "tokenize", "text.tokenize"),
    ("retrieval", "tokenize", "text.tokenize"),
    ("evaluation", "tokenize", "text.tokenize"),
    ("retrieval", "split_sentences", "text.split_sentences"),
    ("embeddings", "load_embeddings", "embeddings.load_embeddings"),
    ("idf", "build_idf", "idf.build_idf"),
    ("idf", "load_idf", "idf.load_idf"),
    ("retrieval", "centroid", "semantic.centroid"),
    ("retrieval", "build_index", "retrieval.build_index"),
    ("retrieval", "save_index", "retrieval.save_index"),
    ("retrieval", "load_index", "retrieval.load_index"),
    ("retrieval", "rank", "retrieval.rank"),
    ("evaluation", "rank", "retrieval.rank"),
    ("retrieval", "random_baseline", "retrieval.random_baseline"),
    ("evaluation", "random_baseline", "retrieval.random_baseline"),
    ("ingest", "load_question_set", "ingest.load_question_set"),
    ("evaluation", "evaluate_questions", "evaluation.evaluate_questions"),
    ("evaluation", "build_judgments", "evaluation.build_judgments"),
    ("evaluation", "judge_relevance", "evaluation.judge_relevance"),
    ("evaluation", "wilcoxon_signed_rank", "evaluation.wilcoxon_signed_rank"),
    ("evaluation", "save_run", "evaluation.save_run"),
    ("evaluation", "load_run", "evaluation.load_run"),
)


class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent index)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, Callable]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, fn: Callable, layer: str, hook: Callable | None) -> Callable:
        # ``hook(tracer, args, kwargs)`` may refine the span name (e.g. full
        # vs candidate ranking) and returns a callback for the result. The
        # span is recorded inline, not through ``span()``, to keep the
        # per-call overhead small.
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            name, on_result = hook(self, args, kwargs) if hook else (layer, None)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self, modules: dict[str, object], hooks: dict[str, Callable]) -> None:
        """Wrap every TARGETS entry in ``modules`` (name -> module object)."""
        for module_name, attr, layer in TARGETS:
            module = modules[module_name]
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, hooks.get(layer)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, per-call durations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["durations"].append(end - start)
        return out
