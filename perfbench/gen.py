"""Seeded synthetic inputs for the benchmark.

Everything is drawn from one ``random.Random`` and one numpy ``Generator``
seeded from the workload seed, so the same seed and sizes give
byte-identical files. The generator keeps the raw material the files are
rendered from (token lists, integer vector components, sentence texts), so
the benchmark's checks never depend on the library's own parsing.

Documents are rendered so that the rule-based splitter recovers exactly
the generated sentences: every sentence starts with a capitalized word and
ends with '.', and the only other dots belong to abbreviations the
splitter knows ("e.g.", "Fig.", "et al.") which may be followed by a
capital or a digit. Edge cases the code must handle are planted on
purpose: all-OOV sentences and questions (zero centroids, distance-1.0
ties), sentences duplicated across documents (exact ties broken by passage
id), questions whose reference documents are all missing from the index,
and gold snippets in every relevance-judging class.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Words that open questions; kept out of documents so that document idf
#: over-weights them and question idf does not (the paper's premise).
QUESTION_WORDS = ("what", "which", "how", "why", "does", "is", "are", "do")

#: (display text, tokens) for abbreviations planted inside sentences.
ABBREVIATIONS = (("e.g.", ("e", "g")), ("Fig.", ("fig",)), ("et al.", ("et", "al")))

#: Judging classes a gold snippet is generated in (see evaluation.judge_relevance).
SNIPPET_CLASSES = ("contains", "contained", "overlap_ge5", "overlap_lt5", "unmatched")

#: Open questions 7 and 11 of every EDGE_PERIOD, and evaluation question 3 of
#: every 2 * EDGE_PERIOD, are edge cases (see ``generate``).
EDGE_PERIOD = 20

# Vector components are k / SCALE for integers k, written with exactly
# DECIMALS digits, so the float parsed from the file equals k / SCALE.
_DECIMALS = 3
_SCALE = 10**_DECIMALS

# Shape of the corpus and of the evaluation questions, the same for every
# workload.
OOV_SHARE = 0.10
MIN_SENTENCES, MAX_SENTENCES = 3, 7
MIN_TOKENS, MAX_TOKENS = 8, 25
ZIPF_S = 1.07
REFS_PER_QUESTION = 10
SNIPPETS_PER_QUESTION = 8


@dataclass(frozen=True)
class Sizes:
    n_docs: int
    vocab: int
    dim: int = 200
    question_corpus: int = 2000
    open_queries: int = 0
    eval_questions: int = 0


@dataclass
class Passage:
    passage_id: str
    doc_id: str
    text: str
    tokens: tuple[str, ...]


@dataclass
class Inputs:
    sizes: Sizes
    covered: list[str]  # words that have an embedding, in file order
    components: np.ndarray  # int32 (len(covered), dim); vector = components / SCALE
    documents: list[tuple[str, str]]  # (doc_id, text)
    passages: list[Passage]  # in document order, ordinals from 0
    question_corpus: list[tuple[str, tuple[str, ...]]]  # (text, tokens)
    open_queries: list[tuple[str, tuple[str, ...]]]
    question_set: dict  # JSON document in the library's question-set schema
    snippet_classes: dict[str, int]
    missing_ref_questions: int

    def vectors(self) -> dict[str, np.ndarray]:
        """Raw float vectors by token, exactly the values the file encodes."""
        values = self.components.astype(np.float64) / _SCALE
        return {token: values[i] for i, token in enumerate(self.covered)}

    def doc_corpus_tokens(self) -> list[list[str]]:
        by_doc: dict[str, list[str]] = {}
        for p in self.passages:
            by_doc.setdefault(p.doc_id, []).extend(p.tokens)
        return [by_doc.get(doc_id, []) for doc_id, _text in self.documents]

    def write(self, directory: Path) -> dict[str, Path]:
        """Write the CLI's input files; returns their paths by role."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "embeddings": directory / "embeddings.txt",
            "docs": directory / "docs.tsv",
            "doc_corpus": directory / "doc_corpus.txt",
            "question_corpus": directory / "question_corpus.txt",
            "questions": directory / "questions.json",
        }
        text_of = [f"{k / _SCALE:.{_DECIMALS}f}" for k in range(-_SCALE, _SCALE + 1)]
        with open(paths["embeddings"], "w", encoding="utf-8") as handle:
            handle.write(f"{len(self.covered)} {self.sizes.dim}\n")
            for token, row in zip(self.covered, (self.components + _SCALE).tolist()):
                handle.write(token + " " + " ".join([text_of[k] for k in row]) + "\n")
        with open(paths["docs"], "w", encoding="utf-8") as handle:
            handle.writelines(f"{doc_id}\t{text}\n" for doc_id, text in self.documents)
        with open(paths["doc_corpus"], "w", encoding="utf-8") as handle:
            handle.writelines(f"{text}\n" for _doc_id, text in self.documents)
        with open(paths["question_corpus"], "w", encoding="utf-8") as handle:
            handle.writelines(f"{text}\n" for text, _tokens in self.question_corpus)
        with open(paths["questions"], "w", encoding="utf-8") as handle:
            json.dump(self.question_set, handle, indent=1)
            handle.write("\n")
        return paths


# A display word is (text, tokens, sentence_index); a sentence-final word
# carries its '.'.
_Word = tuple[str, tuple[str, ...], int]


class _Generator:
    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.sizes = sizes
        self.rng = random.Random(seed)
        self.np_rng = np.random.default_rng(seed)
        self.words = [f"w{i}" for i in range(sizes.vocab)]
        ranks = np.arange(1, sizes.vocab + 1, dtype=np.float64)
        weights = ranks**-ZIPF_S
        self.zipf_p = weights / weights.sum()
        n_oov = int(round(sizes.vocab * OOV_SHARE))
        oov_ids = set(self.rng.sample(range(sizes.vocab), n_oov))
        self.oov = [w for i, w in enumerate(self.words) if i in oov_ids]
        self.covered = [w for i, w in enumerate(self.words) if i not in oov_ids]
        self.covered += list(QUESTION_WORDS)
        self.components = self.np_rng.integers(
            -_SCALE, _SCALE + 1, size=(len(self.covered), sizes.dim), dtype=np.int32
        )
        self._zipf_pool: list[str] = []

    def zipf_words(self, n: int) -> list[str]:
        if n == 0:
            return []
        if len(self._zipf_pool) < n:
            draw = self.np_rng.choice(self.sizes.vocab, size=max(n, 65536), p=self.zipf_p)
            self._zipf_pool.extend(self.words[i] for i in draw.tolist())
        out = self._zipf_pool[-n:]
        del self._zipf_pool[-n:]
        return out

    def sentence(self) -> list[tuple[str, tuple[str, ...]]]:
        """One sentence as (display, tokens) pairs, final '.' not yet added."""
        rng = self.rng
        n = rng.randint(MIN_TOKENS, MAX_TOKENS)
        if rng.random() < 0.01:
            words = [rng.choice(self.oov) for _ in range(n)]
        else:
            words = self.zipf_words(n)
        pairs = [(w, (w,)) for w in words]
        if rng.random() < 0.15:
            display, tokens = rng.choice(ABBREVIATIONS)
            pos = rng.randint(1, len(pairs) - 1)
            follow = pairs[pos]
            if display == "Fig.":
                digit = str(rng.randint(1, 9))
                pairs[pos:pos] = [(display, tokens), (digit, (digit,))]
            else:
                # a capital after the abbreviation must not start a sentence
                pairs[pos] = (follow[0].capitalize(), follow[1])
                pairs[pos:pos] = [(display, tokens)]
        first, first_tokens = pairs[0]
        pairs[0] = (first.capitalize(), first_tokens)
        return pairs

    def documents(self):
        documents: list[tuple[str, str]] = []
        passages: list[Passage] = []
        doc_words: dict[str, list[_Word]] = {}
        rendered: list[list[tuple[str, tuple[str, ...]]]] = []
        # a shuffled, balanced schedule keeps the passage count fixed per size
        span = MAX_SENTENCES - MIN_SENTENCES + 1
        counts = [MIN_SENTENCES + d % span for d in range(self.sizes.n_docs)]
        self.rng.shuffle(counts)
        for d, n_sent in enumerate(counts):
            doc_id = f"d{d:06d}"
            sentences = []
            for _ in range(n_sent):
                if rendered and self.rng.random() < 0.02:
                    sentences.append(self.rng.choice(rendered))
                else:
                    pairs = self.sentence()
                    last_display, last_tokens = pairs[-1]
                    pairs[-1] = (last_display + ".", last_tokens)
                    sentences.append(pairs)
            rendered.extend(sentences)
            words: list[_Word] = []
            texts = []
            for ordinal, pairs in enumerate(sentences):
                text = " ".join(display for display, _tokens in pairs)
                tokens = tuple(t for _display, toks in pairs for t in toks)
                texts.append(text)
                passages.append(Passage(f"{doc_id}#{ordinal}", doc_id, text, tokens))
                words.extend((display, toks, ordinal) for display, toks in pairs)
            documents.append((doc_id, " ".join(texts)))
            doc_words[doc_id] = words
        return documents, passages, doc_words

    def question(self, content: list[str]) -> tuple[str, tuple[str, ...]]:
        qwords = self.rng.sample(QUESTION_WORDS, self.rng.randint(1, 2))
        tokens = tuple(qwords + content)
        return " ".join(tokens).capitalize() + "?", tokens

    def topical_question(self, source: tuple[str, ...]) -> tuple[str, tuple[str, ...]]:
        take = min(len(source), self.rng.randint(3, 8))
        content = self.rng.sample(list(source), take) + self.zipf_words(self.rng.randint(0, 3))
        return self.question(content)

    def snippet(self, words: list[_Word], klass: str) -> list[_Word] | None:
        """A run of display words of ``klass`` cut from one document."""
        rng = self.rng
        bounds: dict[int, list[int]] = {}
        for pos, (_display, _tokens, ordinal) in enumerate(words):
            bounds.setdefault(ordinal, []).append(pos)
        spans = [(v[0], v[-1] + 1) for _k, v in sorted(bounds.items())]
        if klass == "contains":
            s = rng.randrange(len(spans))
            begin, end = spans[s]
            if s > 0:
                begin -= rng.randint(0, spans[s - 1][1] - spans[s - 1][0] - 1)
            if s + 1 < len(spans):
                end += rng.randint(0, spans[s + 1][1] - spans[s + 1][0] - 1)
            return words[begin:end]
        if klass == "contained":
            long = [sp for sp in spans if sp[1] - sp[0] >= 12]
            if not long:
                return None
            begin, end = rng.choice(long)
            n = rng.randint(10, end - begin - 1)
            start = rng.randint(begin, end - n)
            return words[start : start + n]
        if klass in ("overlap_ge5", "overlap_lt5"):
            pairs = [s for s in range(len(spans) - 1) if spans[s][1] - spans[s][0] > 5]
            if not pairs:
                return None
            s = rng.choice(pairs)
            (b0, e0), (b1, e1) = spans[s], spans[s + 1]
            if klass == "overlap_ge5":
                tail = rng.randint(5, e0 - b0 - 1)
                head = rng.randint(1, min(4, e1 - b1 - 1))
                return words[e0 - tail : b1 + head]
            tail = rng.randint(1, 4)
            run = words[e0 - tail : e0]
            filler = [(w, (w,), -1) for w in self.zipf_words(rng.randint(8, 14))]
            return run + filler
        filler = self.zipf_words(rng.randint(10, 40))
        return [(w, (w,), -1) for w in filler]

    def question_set(self, documents, passages, doc_words):
        rng = self.rng
        doc_ids = [doc_id for doc_id, _text in documents]
        classes = {k: 0 for k in SNIPPET_CLASSES}
        entries = []
        missing_all = 0
        for q in range(self.sizes.eval_questions):
            qid = f"q{q:05d}"
            if q % (2 * EDGE_PERIOD) == 3:
                refs = [f"x{q:05d}{j}" for j in range(REFS_PER_QUESTION)]
                present: list[str] = []
                missing_all += 1
            else:
                n_absent = rng.randint(0, 3)
                present = rng.sample(doc_ids, REFS_PER_QUESTION - n_absent)
                refs = present + [f"x{q:05d}{j}" for j in range(n_absent)]
                rng.shuffle(refs)
            snippets = []
            body_source: tuple[str, ...] = ()
            n_snip = rng.randint(SNIPPETS_PER_QUESTION - 2, SNIPPETS_PER_QUESTION + 2)
            for _ in range(n_snip):
                klass = SNIPPET_CLASSES[rng.randrange(len(SNIPPET_CLASSES))]
                doc = rng.choice(present[:3]) if present else rng.choice(refs)
                run = self.snippet(doc_words[doc], klass) if present else None
                if run is None:
                    klass = "unmatched"
                    run = self.snippet([], klass)
                classes[klass] += 1
                text = " ".join(display for display, _tokens, _o in run)
                tokens = tuple(t for _display, toks, _o in run for t in toks)
                if not body_source and klass != "unmatched":
                    body_source = tokens
                snippets.append({"document": doc, "text": text})
            if not body_source:
                body_source = tuple(self.zipf_words(6))
            body, _tokens = self.topical_question(body_source)
            entries.append(
                {
                    "id": qid,
                    "body": body,
                    "documents": [f"http://example.org/pubmed/{d}" for d in refs],
                    "snippets": snippets,
                }
            )
        return {"questions": entries}, classes, missing_all


def generate(seed: int, sizes: Sizes) -> Inputs:
    """Draw a complete set of benchmark inputs for ``seed``."""
    gen = _Generator(seed, sizes)
    documents, passages, doc_words = gen.documents()
    rng = gen.rng
    question_corpus = [
        gen.topical_question(rng.choice(passages).tokens)
        for _ in range(sizes.question_corpus)
    ]
    seen: set[str] = set()
    duplicated = [p for p in passages if p.text in seen or seen.add(p.text)]
    open_queries = []
    for i in range(sizes.open_queries):
        # Edge cases at fixed positions, so every run's first questions hold
        # them: an all-OOV question (zero centroid, every passage at distance
        # 1.0) and one made of a duplicated sentence (an exact tie at the top).
        if i % EDGE_PERIOD == 7:
            tokens = tuple(rng.sample(gen.oov, 5))
            open_queries.append((" ".join(tokens).capitalize() + "?", tokens))
        elif i % EDGE_PERIOD == 11 and duplicated:
            open_queries.append(gen.question(list(rng.choice(duplicated).tokens)))
        else:
            open_queries.append(gen.topical_question(rng.choice(passages).tokens))
    question_set, classes, missing = gen.question_set(documents, passages, doc_words)
    return Inputs(
        sizes=sizes,
        covered=gen.covered,
        components=gen.components,
        documents=documents,
        passages=passages,
        question_corpus=question_corpus,
        open_queries=open_queries,
        question_set=question_set,
        snippet_classes=classes,
        missing_ref_questions=missing,
    )
