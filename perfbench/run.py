#!/usr/bin/env python3
"""Seeded offline benchmark for centroidrank.

    python3 perfbench/run.py --workload {build,query-open,paper-table} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` and the CLI runs as ``python -m centroidrank.cli`` with that
``src/`` on its path. Inputs are generated in-process from ``--seed``
(stdlib + numpy, nothing downloaded) into ``.perfbench_work/`` and deleted
afterwards. All load comes from this one process in a closed loop: library
calls are made one at a time and CLI subprocesses run one at a time.

Workloads (sizes in ``_sizes``):

* ``build``: the write path. ``idf-build`` on the documents and on a
  question corpus, then ``index-build``; in-process, the same through
  ``build_idf`` / ``build_index`` / ``save_index``. Nothing ranks or
  judges, so rank and judging changes should not move it.
* ``query-open``: the read path over the whole index. Single questions
  over all passages (k = 10), cycling cd / cd-idf / cd-q, plus
  ``centroidrank query`` subprocesses. Nothing judges relevance.
* ``paper-table``: the paper's evaluation. ``evaluate_questions`` for cd,
  cd-idf, cd-q and rnd in-process, and the same four as ``eval`` CLI calls
  plus ``compare`` of cd-q vs cd and cd-q vs cd-idf. Full-index ranking and
  index writing do not run after set-up.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` it carries per-layer metrics from spans recorded around
the package's public functions (see ``spans.py``). Lines before it are a
human-readable report: environment, every timing with its sample count,
output checks and the output digest. Any failed CLI call or output check
counts in ``failed``. Nothing pins CPUs, drops caches or changes the
machine: timings are those of whatever machine runs the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

DEFAULT_SEED = 0
METHODS = ("cd", "cd-idf", "cd-q")
EVAL_METHODS = ("cd", "cd-idf", "cd-q", "rnd")
COMPARISONS = (("cd-q", "cd"), ("cd-q", "cd-idf"))
K = 10
#: Questions ranked in a fixed order before timing starts: they warm the
#: process up, feed the output checks and define the digest.
CHECK_QUERIES = 30
#: Rounds an untraced run makes at least. The deadline is checked only
#: between rounds, so every kind of operation has the same sample count.
MIN_ROUNDS = 3
#: Questions ranked between two `query` subprocesses: three rounds give the
#: question latency's p90 twelve samples beyond it.
QUERY_BLOCK = 40
#: Questions ranked per traced pass of query-open.
TRACE_QUERIES = 60
#: Traced passes of a traced run, each paired with an untraced one.
TRACE_PASSES = 3
#: Evaluation questions the probe runs (see ``probe``).
PROBE_QUESTIONS = 8
#: Paired scores given to Wilcoxon's exact path; its cost doubles per pair.
EXACT_PAIRS = 16
#: `centroidrank --help` calls whose median is cli.startup_s.
STARTUP_REPEATS = 3

# Per-layer metrics of a traced run: the self seconds of each layer in one
# traced pass (set-up plus one repeat of the workload's in-process work),
# as the median over the passes, reported as `<layer>_s`.
LAYERS = (
    "text.split_sentences",
    "text.tokenize",
    "embeddings.load_embeddings",
    "idf.build_idf",
    "idf.load_idf",
    "semantic.centroid",
    "retrieval.build_index",
    "retrieval.save_index",
    "retrieval.load_index",
    "retrieval.rank_full",
    "retrieval.rank_candidates",
    "retrieval.random_baseline",
    "ingest.load_question_set",
    "evaluation.evaluate_questions.cd",
    "evaluation.evaluate_questions.cd-idf",
    "evaluation.evaluate_questions.cd-q",
    "evaluation.evaluate_questions.rnd",
    "evaluation.build_judgments",
    "evaluation.judge_relevance",
    "evaluation.wilcoxon_signed_rank.exact",
    "evaluation.wilcoxon_signed_rank.normal",
    "evaluation.save_run",
    "evaluation.load_run",
)
#: Layers whose per-call latency is also reported, as `<layer>_p<q>_ms`.
LATENCY_LAYERS = (
    ("retrieval.rank_full", (50, 90)),
    ("retrieval.rank_candidates", (50, 90)),
    ("retrieval.random_baseline", (50,)),
)

END_TO_END = {
    "setup_s": "s",
    "cli_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "index_mb": "MB",
}


def _sizes():
    from gen import Sizes

    # build and query-open get PROBE_QUESTIONS evaluation questions for the
    # probe; they are drawn last, so they change none of the other inputs.
    # paper-table's smaller vocabulary keeps artifact loading from swamping
    # the evaluation work in each `eval` call.
    return {
        "build": Sizes(n_docs=800, vocab=10000, open_queries=CHECK_QUERIES,
                       eval_questions=PROBE_QUESTIONS),
        "query-open": Sizes(n_docs=800, vocab=10000, open_queries=400,
                            eval_questions=PROBE_QUESTIONS),
        "paper-table": Sizes(n_docs=300, vocab=4000, eval_questions=200),
    }


def _percentile(values, q):
    """Nearest-rank percentile of ``values`` (q in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _tree_bytes(path: Path) -> int:
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size


def _environment(seed: int) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or commit
    try:
        # 194 is glibc's _SC_LEVEL3_CACHE_SIZE, which Python's table lacks
        l3_bytes = os.sysconf(194)
    except (ValueError, OSError):
        l3_bytes = 0
    l3 = f"{l3_bytes // 1024}K" if l3_bytes > 0 else "unknown"
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache": l3,
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "file_cache": "warm: inputs are written by this process just before use "
        "and a `--help` call precedes timing; caches are never dropped",
        "seed": seed,
        "note": "nothing pins CPUs, drops caches or changes the machine; "
        "timings are the running machine's own",
    }


def _cpu_counters() -> list[int] | None:
    """The machine's CPU time counters (first line of /proc/stat), if any."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _steal_share(before, after) -> float | str:
    """Share of the machine's CPU time stolen by its host in between."""
    if not before or not after or len(before) < 8:
        return "unknown"
    delta = [b - a for a, b in zip(before, after)]
    return round(delta[7] / max(sum(delta), 1), 4)


class Bench:
    """State of one benchmark run: library handles, counters, the report."""

    def __init__(self, args, work: Path) -> None:
        import centroidrank.embeddings as embeddings
        import centroidrank.evaluation as evaluation
        import centroidrank.idf as idf
        import centroidrank.ingest as ingest
        import centroidrank.retrieval as retrieval
        import centroidrank.text as text

        self.modules = {
            "text": text, "embeddings": embeddings, "idf": idf,
            "retrieval": retrieval, "ingest": ingest, "evaluation": evaluation,
        }
        # b.text.tokenize etc. look the function up at call time, so the
        # tracer's wrappers see the benchmark's own calls too
        self.__dict__.update(self.modules)
        self.args = args
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.cli_rss_mb: list[float] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def measure(self, samples: Samples, steps) -> None:
        """Rounds of ``steps`` for the measuring window that starts now; a
        traced run reports no end-to-end metric, so it makes one round."""
        if self.args.trace:
            samples.run(0.0, steps, min_rounds=1)
        else:
            samples.run(time.perf_counter() + self.args.seconds, steps, MIN_ROUNDS)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def cli(self, *argv: str, rss: bool = True) -> tuple[float, str]:
        """Run one CLI subprocess; returns (wall seconds, stdout)."""
        out_path, err_path = self.work / "cli.out", self.work / "cli.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "centroidrank.cli", *map(str, argv)],
                stdout=out, stderr=err, env=self.env, cwd=self.work,
            )
            # a blocking wait, so that nothing polls next to the subprocess
            killer = threading.Timer(150.0, proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        if rss:
            self.cli_rss_mb.append(usage.ru_maxrss / 1024.0)
        stdout = out_path.read_text(encoding="utf-8")
        if not self.check(proc.returncode == 0, f"cli {argv[0]} exited {proc.returncode}"):
            sys.stderr.write(err_path.read_text(encoding="utf-8")[-2000:])
        return elapsed, stdout

    def load_artifacts(self, paths: dict, index: bool, questions: bool) -> dict:
        """The workload's persisted artifacts, through the public loaders."""
        loaded = {
            "embeddings": self.embeddings.load_embeddings(paths["embeddings"]),
            "doc_idf": self.idf.load_idf(paths["doc_idf"]),
            "question_idf": self.idf.load_idf(paths["question_idf"]),
        }
        if index:
            loaded["index"] = self.retrieval.load_index(paths["index"])
        if questions:
            loaded["questions"] = self.ingest.load_question_set(paths["questions"])
        return loaded

    def cli_build_chain(self, paths: dict, rss: bool = True) -> dict[str, float]:
        """`idf-build` x2 + `index-build`, as a user builds an index; seconds
        per call."""
        times = {}
        for corpus, unit, out in (
            (paths["doc_corpus"], "doc", paths["doc_idf"]),
            (paths["question_corpus"], "question", paths["question_idf"]),
        ):
            times[f"idf-build --unit {unit}"] = self.cli(
                "idf-build", "--corpus", corpus, "--unit", unit, "--out", out, rss=rss
            )[0]
        times["index-build"] = self.cli(
            "index-build", "--docs", paths["docs"], "--embeddings", paths["embeddings"],
            "--doc-idf", paths["doc_idf"], "--out", paths["index"], rss=rss,
        )[0]
        return times

    def rank(self, loaded, index, tokens, method):
        return self.retrieval.rank(
            index, tokens, method, K, loaded["embeddings"],
            doc_idf=loaded["doc_idf"], question_idf=loaded["question_idf"],
        )

    def setup_step(self, samples, loaded: dict, paths, index: bool, questions: bool):
        """A step that reloads the artifacts into ``loaded``, timed as setup.

        Set-up runs once before the first answer and again once per round,
        so its median spans the window and every round answers from a fresh
        load."""

        def step():
            loaded.update(samples.timed("setup", self.load_artifacts, paths, index, questions))

        return step


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def _ids(ranking) -> list[str]:
    return [pid for pid, _score in ranking.items]


def _query_plan(inputs, n):
    """(text, tokens, method) for the first n open questions, methods cycled."""
    queries = inputs.open_queries
    return [
        (*queries[i % len(queries)], METHODS[i % len(METHODS)]) for i in range(n)
    ]


class Samples:
    """Wall-time samples per operation kind, taken in turn until a deadline.

    Kinds are interleaved (one step of each, round after round) so that
    every kind's samples spread over the whole measuring window, and a slow
    stretch of the machine does not land on one kind alone.
    """

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {}

    def add(self, kind: str, seconds: float) -> None:
        self.times.setdefault(kind, []).append(seconds)

    def timed(self, kind: str, fn, *args):
        gc.collect()  # start each sample from the same collector state
        start = time.perf_counter()
        result = fn(*args)
        self.add(kind, time.perf_counter() - start)
        return result

    def run(self, deadline: float, steps, min_rounds: int) -> None:
        """Whole rounds, one call of each step, until at least ``min_rounds``
        are done and ``deadline`` has passed."""
        rounds = 0
        while rounds < min_rounds or time.perf_counter() < deadline:
            for step in steps:
                step()
            rounds += 1

    def median(self, kind: str) -> float:
        return statistics.median(self.times[kind])

    def median_sum(self, kinds) -> float:
        return sum(self.median(k) for k in kinds)

    def rate(self, kinds, items_per_sample: float) -> float:
        """Items per second over every sample of ``kinds`` (total / total)."""
        times = [t for k in kinds for t in self.times[k]]
        return items_per_sample * len(times) / sum(times)

    def describe(self, kinds) -> str:
        return ", ".join(f"{k} ({len(self.times[k])} samples)" for k in kinds)

    def fewest(self, kinds) -> int:
        return min(len(self.times[k]) for k in kinds)


# --------------------------------------------------------------------------
# Workloads. Each returns (end-to-end metrics, digest payload, traced unit,
# report dict); the traced unit is a zero-argument callable that repeats
# the workload's in-process work once.


def workload_build(b: Bench, inputs, paths):
    doc_lines = [text for _doc_id, text in inputs.documents]
    question_lines = [text for text, _tokens in inputs.question_corpus]
    inproc_index_path = b.work / "inproc_index.tsv"
    samples = Samples()
    built = {}

    def in_process():
        embeddings = loaded["embeddings"]
        doc_idf = b.idf.build_idf([b.text.tokenize(line) for line in doc_lines], label="documents")
        question_idf = b.idf.build_idf(
            [b.text.tokenize(line) for line in question_lines], label="questions"
        )
        index = b.retrieval.build_index(inputs.documents, embeddings, doc_idf)
        b.retrieval.save_index(index, inproc_index_path)
        built.update(index=index, doc_idf=doc_idf, question_idf=question_idf)

    def chain():
        for kind, seconds in b.cli_build_chain(paths).items():
            samples.add(kind, seconds)

    loaded: dict = {}
    setup = b.setup_step(samples, loaded, paths, index=False, questions=False)
    chain()
    setup()
    b.measure(samples, [lambda: samples.timed("in-process", in_process), chain, setup])

    for name in ("doc_idf", "question_idf"):
        cli_table, table = loaded[name], built[name]
        b.check(
            (cli_table.n_docs, cli_table.df) == (table.n_docs, table.df),
            f"idf-build {name} differs from in-process build_idf",
        )
    cli_index = b.retrieval.load_index(paths["index"])
    want_texts = {p.passage_id: p.text for p in inputs.passages}
    got_texts = {p.passage_id: p.text for p in cli_index.passages}
    b.check(got_texts == want_texts, "index passages differ from the generated sentences")
    sample = []
    for text, _tokens, method in _query_plan(inputs, CHECK_QUERIES):
        tokens = b.text.tokenize(text)
        mine = _ids(b.rank(loaded, built["index"], tokens, method))
        theirs = _ids(b.rank(loaded, cli_index, tokens, method))
        b.check(mine == theirs, f"CLI index ranks {text!r} ({method}) differently")
        sample.append(mine)

    cli_kinds = ("idf-build --unit doc", "idf-build --unit question", "index-build")
    metrics = {
        "setup_s": samples.median("setup"),
        "cli_s": samples.median_sum(cli_kinds),
        "work_per_s": samples.rate(["in-process"], len(inputs.passages)),
        "index_mb": _tree_bytes(paths["index"]) / 1e6,
    }
    report = {
        "setup_s": "median: " + samples.describe(["setup"]),
        "cli_s": "sum of medians: " + samples.describe(cli_kinds),
        "work_per_s": "passages / time of build_idf x2 + build_index + save_index, "
        + samples.describe(["in-process"]),
        "fewest_samples": {"setup_s": samples.fewest(["setup"]),
                           "cli_s": samples.fewest(cli_kinds),
                           "work_per_s": samples.fewest(["in-process"])},
        "passages": len(inputs.passages),
    }
    digest = {"passages": sorted(want_texts), "sample_rankings": sample}
    return metrics, digest, in_process, report


def workload_query_open(b: Bench, inputs, paths):
    from oracle import BruteForce, idf_weight

    b.cli_build_chain(paths, rss=False)
    samples = Samples()
    loaded: dict = {}
    setup = b.setup_step(samples, loaded, paths, index=True, questions=False)
    setup()
    plan = _query_plan(inputs, len(inputs.open_queries))
    position = 0

    def ask(questions, kind=None):
        rankings = []
        for text, _tokens, method in questions:
            start = time.perf_counter()
            ranking = b.rank(loaded, loaded["index"], b.text.tokenize(text), method)
            if kind:
                samples.add(kind, time.perf_counter() - start)
            rankings.append(_ids(ranking))
        return rankings

    def block():
        nonlocal position
        ask([plan[(position + i) % len(plan)] for i in range(QUERY_BLOCK)], "query")
        position += QUERY_BLOCK

    def cli_query():
        text, _tokens, method = plan[position % len(plan)]
        elapsed, stdout = b.cli(
            "query", "--index", paths["index"], "--embeddings", paths["embeddings"],
            "--doc-idf", paths["doc_idf"], "--question-idf", paths["question_idf"],
            "--method", method, "--k", K, "--question", text,
        )
        samples.add("query CLI", elapsed)
        cli_ids = [line.split("\t")[1] for line in stdout.splitlines() if line]
        want = ask([(text, _tokens, method)])[0]
        b.check(cli_ids == want, f"`query` output differs for {text!r} ({method})")

    check_plan = _query_plan(inputs, CHECK_QUERIES)
    sample = ask(check_plan)
    b.measure(samples, [block, cli_query, setup])

    brute = BruteForce(
        inputs.passages,
        inputs.vectors(),
        idf_weight(inputs.doc_corpus_tokens()),
        idf_weight([tokens for _text, tokens in inputs.question_corpus]),
    )
    for (text, tokens, method), got in zip(check_plan, sample):
        want = brute.top_k(tokens, method, K)
        b.check(got == want, f"rank of {text!r} ({method}) differs from brute force")

    ms = [t * 1e3 for t in samples.times["query"]]
    metrics = {
        "setup_s": samples.median("setup"),
        "cli_s": samples.median("query CLI"),
        "work_per_s": samples.rate(["query"], 1),
        "index_mb": _tree_bytes(paths["index"]) / 1e6,
    }
    beyond = len(ms) - int(-(-len(ms) * 90 // 100))
    report = {
        "setup_s": "median: " + samples.describe(["setup"]),
        "cli_s": "median of one `query` subprocess: " + samples.describe(["query CLI"]),
        "work_per_s": "questions / time of tokenize + rank, " + samples.describe(["query"]),
        "query_p50_ms": f"{_percentile(ms, 50):.3f} ms (n={len(ms)})",
        "query_p90_ms": f"{_percentile(ms, 90):.3f} ms (n={len(ms)}, {beyond} beyond)",
        "fewest_samples": {"setup_s": samples.fewest(["setup"]),
                           "cli_s": samples.fewest(["query CLI"]),
                           "work_per_s": samples.fewest(["query"])},
        "passages": len(loaded["index"]),
    }
    trace_plan = [plan[i % len(plan)] for i in range(TRACE_QUERIES)]
    return metrics, {"sample_rankings": sample}, lambda: ask(trace_plan), report


def _run_digest(run) -> dict:
    return {
        "questions": {
            qid: [_ids(s.ranking), repr(s.ap), repr(s.precision), repr(s.recall)]
            for qid, s in run.per_question.items()
        },
        "aggregates": [repr(v) for v in (run.aggregates.map, run.aggregates.precision,
                                          run.aggregates.recall, run.aggregates.f1)],
    }


def _paired_ap(runs, a, c) -> tuple[list[float], list[float]]:
    """AP of methods ``a`` and ``c`` per question, paired by question id."""
    qids = sorted(runs[a].per_question)
    return ([runs[a].per_question[q].ap for q in qids],
            [runs[c].per_question[q].ap for q in qids])


def _compare_all(ev, runs) -> dict:
    """Wilcoxon for every comparison, on the normal path over all questions
    and on the exact path over the first EXACT_PAIRS."""
    out = {}
    for a, c in COMPARISONS:
        ap_a, ap_c = _paired_ap(runs, a, c)
        out[f"{a}_vs_{c}"] = ev.wilcoxon_signed_rank(ap_a, ap_c, mode="normal")
        out[f"{a}_vs_{c}_exact"] = ev.wilcoxon_signed_rank(
            ap_a[:EXACT_PAIRS], ap_c[:EXACT_PAIRS], mode="exact"
        )
    return out


def _round_trip(ev, runs, directory: Path, prefix: str) -> None:
    for method, run in runs.items():
        path = directory / f"{prefix}_{method}.json"
        ev.save_run(run, path)
        ev.load_run(path)


def workload_paper_table(b: Bench, inputs, paths):
    b.cli_build_chain(paths, rss=False)
    samples = Samples()
    loaded: dict = {}
    setup = b.setup_step(samples, loaded, paths, index=True, questions=True)
    setup()
    n_questions = len(loaded["questions"])
    n_missing = inputs.missing_ref_questions
    ev = b.evaluation
    runs: dict = {}
    run_paths = {m: b.work / f"run_{m}.json" for m in EVAL_METHODS}
    printed: dict[str, str] = {}

    def evaluate(method):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs[method] = ev.evaluate_questions(
                loaded["index"], loaded["questions"], method, embeddings=loaded["embeddings"],
                doc_idf=loaded["doc_idf"], question_idf=loaded["question_idf"], k=K,
            )
        b.check(len(caught) == n_missing, f"{method}: {len(caught)} warnings, expected {n_missing}")

    def cli_eval(method):
        elapsed, _stdout = b.cli(
            "eval", "--questions", paths["questions"], "--index", paths["index"],
            "--embeddings", paths["embeddings"], "--doc-idf", paths["doc_idf"],
            "--question-idf", paths["question_idf"], "--method", method,
            "--k", K, "--out", run_paths[method],
        )
        samples.add(f"eval --method {method}", elapsed)

    def cli_compare(a, c):
        elapsed, stdout = b.cli("compare", "--run-a", run_paths[a], "--run-b", run_paths[c])
        samples.add(f"compare {a} {c}", elapsed)
        printed[f"{a}_vs_{c}"] = stdout.strip()

    def traced_unit():
        for method in EVAL_METHODS:
            evaluate(method)
        _compare_all(ev, runs)
        _round_trip(ev, runs, b.work, "inproc")

    steps = []
    for method in EVAL_METHODS:
        steps.append(lambda m=method: samples.timed(f"evaluate {m}", evaluate, m))
        steps.append(lambda m=method: cli_eval(m))
    steps += [lambda a=a, c=c: cli_compare(a, c) for a, c in COMPARISONS]
    b.measure(samples, steps + [setup])

    tests = _compare_all(ev, runs)
    for method in EVAL_METHODS:
        b.check(
            _run_digest(ev.load_run(run_paths[method])) == _run_digest(runs[method]),
            f"`eval --method {method}` run file differs from evaluate_questions",
        )
    for name, line in printed.items():
        # `compare` chooses its path itself, so the check does too
        t = ev.wilcoxon_signed_rank(*_paired_ap(runs, *name.split("_vs_")))
        verdict = "significant" if t.significant else "not significant"
        b.check(
            line == f"W {t.statistic:g} p {t.p_value:.4f} {verdict}",
            f"`compare` {name} printed {line!r}",
        )

    eval_kinds = [f"evaluate {m}" for m in EVAL_METHODS]
    cli_kinds = [f"eval --method {m}" for m in EVAL_METHODS]
    cli_kinds += [f"compare {a} {c}" for a, c in COMPARISONS]
    metrics = {
        "setup_s": samples.median("setup"),
        "cli_s": samples.median_sum(cli_kinds),
        "work_per_s": samples.rate(eval_kinds, n_questions),
        "index_mb": _tree_bytes(paths["index"]) / 1e6,
    }
    report = {
        "setup_s": "median: " + samples.describe(["setup"]),
        "cli_s": "sum of medians: " + samples.describe(cli_kinds),
        "work_per_s": "questions / time of " + samples.describe(eval_kinds),
        "fewest_samples": {"setup_s": samples.fewest(["setup"]),
                           "cli_s": samples.fewest(cli_kinds),
                           "work_per_s": samples.fewest(eval_kinds)},
        "questions": n_questions,
        "questions_without_indexed_docs": n_missing,
        "snippet_classes": inputs.snippet_classes,
        "aggregates": {m: _run_digest(r)["aggregates"] for m, r in runs.items()},
        "wilcoxon": {k: [t.statistic, t.p_value] for k, t in tests.items()},
    }
    digest = {
        "runs": {m: _run_digest(r) for m, r in runs.items()},
        "wilcoxon": {k: [repr(t.statistic), repr(t.p_value)] for k, t in tests.items()},
    }
    return metrics, digest, traced_unit, report


WORKLOADS = {
    "build": workload_build,
    "query-open": workload_query_open,
    "paper-table": workload_paper_table,
}


# --------------------------------------------------------------------------
# Tracing


def probe(b: Bench, loaded: dict, inputs, paths) -> None:
    """One small pass through every layer of the package.

    A traced run times the layers its workload never calls from this pass:
    the first PROBE_QUESTIONS evaluation questions, over an index of only
    the documents they reference (the same candidates as the full index).
    """
    ev = b.evaluation
    questions = b.ingest.load_question_set(paths["questions"])[:PROBE_QUESTIONS]
    referenced = {d for q in questions for d in q.reference_docs}
    docs = [(doc_id, text) for doc_id, text in inputs.documents if doc_id in referenced]
    b.idf.build_idf([b.text.tokenize(text) for _doc_id, text in docs], label="documents")
    index_path = b.work / "probe_index.tsv"
    b.retrieval.save_index(
        b.retrieval.build_index(docs, loaded["embeddings"], loaded["doc_idf"]), index_path
    )
    index = b.retrieval.load_index(index_path)
    for (_doc_id, text), method in zip(docs, METHODS):
        b.rank(loaded, index, b.text.tokenize(text), method)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # questions with no indexed document
        runs = {
            m: ev.evaluate_questions(
                index, questions, m, embeddings=loaded["embeddings"],
                doc_idf=loaded["doc_idf"], question_idf=loaded["question_idf"], k=K,
            )
            for m in EVAL_METHODS
        }
    _compare_all(ev, runs)
    _round_trip(ev, runs, b.work, "probe")


def _hooks() -> dict:
    from centroidrank.retrieval import Method

    def rank(tr, args, kwargs):
        index = args[0]
        candidates = kwargs.get("candidate_docs")
        if candidates is None:
            scored, name = len(index), "retrieval.rank_full"
        else:
            scored = sum(len(index.doc_index.get(d, ())) for d in candidates)
            name = "retrieval.rank_candidates"
        tr.count("retrieval.passages_scored", scored)
        return name, None

    def evaluate(tr, args, kwargs):
        method = args[2] if len(args) > 2 else kwargs["method"]
        return f"evaluation.evaluate_questions.{Method(method).value}", None

    def judgments(tr, args, kwargs):
        def done(result):
            tr.count("evaluation.relevant_passages", result.n_relevant)
        return "evaluation.build_judgments", done

    def wilcoxon(tr, args, kwargs):
        return f"evaluation.wilcoxon_signed_rank.{kwargs.get('mode', 'auto')}", None

    def embeddings(tr, args, kwargs):
        return "embeddings.load_embeddings", lambda table: tr.count(
            "embeddings.vectors_loaded", len(table)
        )

    return {
        "retrieval.rank": rank,
        "evaluation.evaluate_questions": evaluate,
        "evaluation.build_judgments": judgments,
        "evaluation.wilcoxon_signed_rank": wilcoxon,
        "embeddings.load_embeddings": embeddings,
    }


def _layer_table(summary: dict) -> dict:
    table = {}
    for name, entry in sorted(summary.items()):
        durations_ms = [d * 1e3 for d in entry["durations"]]
        row = {"calls": entry["calls"], "self_s": round(entry["self_s"], 6),
               "total_s": round(entry["total_s"], 6)}
        if entry["calls"] >= 20:
            row["p50_ms"] = round(_percentile(durations_ms, 50), 4)
            row["p90_ms"] = round(_percentile(durations_ms, 90), 4)
        table[name] = row
    return table


def traced_metrics(b: Bench, unit, inputs, paths, workload: str):
    """Per-layer metrics from TRACE_PASSES traced passes.

    A pass is set-up plus one repeat of the workload's in-process work
    (``unit``). Each traced pass is paired with an untraced one, in
    alternating order so that a steady drift of the machine's speed
    cancels, and the tracing overhead is the median of the pairs' ratios.
    After each traced pass ``probe`` runs under a tracer of its own; the
    layers the workload never calls are timed from it.
    """
    from spans import Tracer

    startup = [b.cli("--help", rss=False)[0] for _ in range(STARTUP_REPEATS)]
    hooks = _hooks()
    index, questions = workload != "build", workload == "paper-table"

    def one_pass(tracer=None):
        gc.collect()
        if tracer is not None:
            tracer.install(b.modules, hooks)
        try:
            start = time.perf_counter()
            loaded = b.load_artifacts(paths, index, questions)
            unit()
            return time.perf_counter() - start, loaded
        finally:
            if tracer is not None:
                tracer.uninstall()

    own, probed, ratios = [], [], []
    for i in range(TRACE_PASSES):
        tracer = Tracer()
        if i % 2:
            traced_s, loaded = one_pass(tracer)
            plain_s, _ = one_pass()
        else:
            plain_s, _ = one_pass()
            traced_s, loaded = one_pass(tracer)
        ratios.append(traced_s / plain_s - 1.0)
        probe_tracer = Tracer()
        probe_tracer.install(b.modules, hooks)
        try:
            probe(b, loaded, inputs, paths)
        finally:
            probe_tracer.uninstall()
        own.append((tracer, tracer.summary()))
        probed.append((probe_tracer, probe_tracer.summary()))

    def passes(*layers):
        """The passes a layer's figures come from: the workload's own, or
        the probe's when the workload never calls the layer."""
        return own if any(layer in own[0][1] for layer in layers) else probed

    metrics = {}
    for layer in LAYERS:
        runs = passes(layer)
        b.check(layer in runs[0][1], f"no traced pass reaches {layer}")
        metrics[f"{layer}_s"] = statistics.median(
            summary.get(layer, {}).get("self_s", 0.0) for _tracer, summary in runs
        )
    for layer, percentiles in LATENCY_LAYERS:
        ms = [d * 1e3 for _tracer, summary in passes(layer)
              for d in summary.get(layer, {}).get("durations", [0.0])]
        for q in percentiles:
            metrics[f"{layer}_p{q}_ms"] = _percentile(ms, q)

    def calls(layer):
        return passes(layer)[0][1].get(layer, {}).get("calls", 0)

    rank_layers = ("retrieval.rank_full", "retrieval.rank_candidates")
    rank_tracer, rank_summary = passes(*rank_layers)[0]
    rank_calls = sum(rank_summary.get(layer, {}).get("calls", 0) for layer in rank_layers)
    judge_tracer = passes("evaluation.judge_relevance")[0][0]
    pairs = calls("evaluation.judge_relevance")
    relevant = judge_tracer.counts.get("evaluation.relevant_passages", 0)
    metrics.update({
        "cli.startup_s": statistics.median(startup),
        "embeddings.vectors_loaded": own[0][0].counts.get("embeddings.vectors_loaded", 0),
        "text.tokenize_calls": calls("text.tokenize"),
        "semantic.centroids_computed": calls("semantic.centroid"),
        "retrieval.passages_scored_per_query": (
            rank_tracer.counts.get("retrieval.passages_scored", 0) / max(rank_calls, 1)
        ),
        "evaluation.judge_pairs": pairs,
        "evaluation.relevant_passages": relevant,
        "evaluation.judge_hit_ratio": relevant / max(pairs, 1),
    })
    OUT_ROOT.mkdir(exist_ok=True)
    with open(OUT_ROOT / f"spans-{workload}.json", "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "workload": own[0][0].spans, "probe": probed[0][0].spans}, handle)
    report = {
        "overhead": {
            "median": statistics.median(ratios),
            "pairs": ratios,
            "note": "traced / untraced pass - 1 per pair; rough, because "
            "pass-to-pass noise on a shared machine is of the same order",
        },
        "probed_layers": sorted(layer for layer in LAYERS if passes(layer) is probed),
        "layers": _layer_table(own[0][1]),
        "probe_layers": _layer_table(probed[0][1]),
    }
    return metrics, report


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "centroidrank" / "__init__.py").is_file():
        print(f"error: no centroidrank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import gen

    environment = _environment(args.seed)
    counters = _cpu_counters()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        b = Bench(args, work)
        inputs = gen.generate(args.seed, _sizes()[args.workload])
        paths = inputs.write(work / "inputs")
        paths.update(
            doc_idf=work / "doc_idf.tsv",
            question_idf=work / "question_idf.tsv",
            index=work / "index.tsv",
        )
        b.cli("--help", rss=False)  # compiles bytecode, warms the file cache
        metrics, digest_payload, unit, report = WORKLOADS[args.workload](b, inputs, paths)
        metrics["peak_rss_mb"] = max(b.cli_rss_mb)
        if args.trace:
            metrics, trace_report = traced_metrics(b, unit, inputs, paths, args.workload)
            report["trace"] = trace_report
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    environment["cpu_steal_share"] = _steal_share(counters, _cpu_counters())
    digest = _digest(digest_payload)
    pinned = json.loads((HERE / "digests.json").read_text()).get(args.workload, {})
    if str(args.seed) in pinned:
        b.check(pinned[str(args.seed)] == digest, f"digest {digest} != pinned")

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment " + json.dumps(environment, sort_keys=True))
    print("report " + json.dumps(report, sort_keys=True))
    print(f"digest {digest}" + (" (pinned)" if str(args.seed) in pinned else ""))
    print(f"failed_ops_share {b.failed / b.attempted:.6f} "
          f"({b.failed} failed of {b.attempted} attempted)")
    for failure in b.failures[:20]:
        print(f"failure {failure}")
    units = END_TO_END if not args.trace else None
    result = {
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {
            name: {"value": value, "unit": units[name] if units else _layer_unit(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
