import random
import string
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centroidrank import split_sentences, text, tokenize
from centroidrank.text import _TOKEN_RE

from oracles import oracle_split_sentences


class TestTokenize:
    def test_question_example(self):
        assert tokenize("What is a degenerate protein?").tokens == (
            "what",
            "is",
            "a",
            "degenerate",
            "protein",
        )

    def test_sequence_is_a_plain_tuple(self):
        seq = tokenize("Adrenal glands")
        assert isinstance(seq, tuple)
        assert seq == ("adrenal", "glands")
        assert type(seq.tokens) is tuple
        assert not hasattr(seq, "__dict__")

    def test_empty_input(self):
        seq = tokenize("")
        assert seq.tokens == ()
        assert len(seq) == 0

    def test_plain_lowercase(self):
        assert tokenize("adrenal glands").tokens == ("adrenal", "glands")

    def test_splits_on_every_non_alphanumeric(self):
        assert tokenize("it's x-ray (mid-2020)").tokens == (
            "it",
            "s",
            "x",
            "ray",
            "mid",
            "2020",
        )

    def test_digits_are_tokens(self):
        assert tokenize("covid 19").tokens == ("covid", "19")

    def test_underscore_is_a_separator(self):
        assert tokenize("gene_name").tokens == ("gene", "name")

    def test_idempotent_on_own_output(self):
        rng = random.Random(7)
        alphabet = string.ascii_letters + string.digits + " .,;!?-()'"
        for _ in range(200):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
            once = tokenize(raw).tokens
            again = tokenize(" ".join(once)).tokens
            assert once == again

    def test_token_invariants(self):
        text = "Which enzymes synthesize catecholamines in adrenal glands? See p. 4!"
        for token in tokenize(text):
            assert token
            assert token == token.lower()
            assert not any(ch.isspace() for ch in token)


# dotted capital I lowercases to two code points, sharp s has a capital
# form, combining marks and "_" are not alphanumeric
_TRICKY_CHARS = "İıßẞ_09٣²Σςǅ \t\u0301\u0307.-aZé"


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(
    st.text(
        alphabet=st.one_of(st.sampled_from(_TRICKY_CHARS), st.characters()),
        max_size=40,
    )
)
# Mixed scripts, where lowering the whole string would differ: İ becomes
# two code points, and Σ lowers by its context.
@example("İstanbul IS big")
@example("STRASSE straße ẞ")
@example("ΟΔΟΣ ΑΣ\u0301Α Σ")
@example("Café au LAIT, é-É_e")
@example("ASCII then é")
@example("İ\x0bΣ\x1cß\x7fé")
def test_tokenize_matches_finditer_lowering(raw):
    expected = tuple(m.group(0).lower() for m in _TOKEN_RE.finditer(raw))
    assert tokenize(raw).tokens == expected


# Every ASCII code point, with the separators str.split knows besides " "
# (\x0b, \x0c, \x1c-\x1f), DEL and "_" drawn more often.
@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(
    st.text(
        alphabet=st.one_of(
            st.sampled_from("\x0b\x0c\x1c\x1d\x1e\x1f\x7f_ \t\n"),
            st.characters(min_codepoint=0, max_codepoint=127),
        ),
        max_size=60,
    )
)
def test_ascii_tokens_match_finditer_lowering_without_the_regex(raw):
    # The regex is not consulted for ASCII text.
    with mock.patch.object(text, "_TOKEN_RE", None):
        tokens = tokenize(raw)
    assert tokens == tuple(m.group(0).lower() for m in _TOKEN_RE.finditer(raw))
    assert type(tokens) is text.TokenSequence


class TestSplitSentences:
    def test_two_sentences(self):
        assert split_sentences("A is B. C is D.") == [("A is B.", 0), ("C is D.", 8)]

    def test_no_terminator(self):
        assert split_sentences("Single sentence") == [("Single sentence", 0)]

    def test_empty_input(self):
        assert split_sentences("") == []
        assert split_sentences("   \n ") == []

    def test_abbreviation_fig(self):
        assert split_sentences("See Fig. 2 for details.") == [
            ("See Fig. 2 for details.", 0)
        ]

    def test_abbreviation_et_al(self):
        sentences = split_sentences("Reported by Smith et al. 2019 in mice.")
        assert len(sentences) == 1

    def test_abbreviation_eg_ie(self):
        assert len(split_sentences("Use markers, e.g. CD4 and CD8.")) == 1
        assert len(split_sentences("The target, i.e. The receptor, binds.")) == 1

    def test_abbreviation_dr_vs_etc(self):
        assert len(split_sentences("Ask Dr. Jones about it.")) == 1
        assert len(split_sentences("Mice vs. Rats differ.")) == 1
        assert len(split_sentences("Cells, tissue, etc. Were sampled.")) == 1

    @pytest.mark.parametrize(
        "text", ["Go x.e.g. Now", "a.b.e.g. C", "Go x.e.g\n. Now", "Go a.b.e.g\n. Now"]
    )
    def test_token_longer_than_an_abbreviation_it_ends_with_is_a_boundary(self, text):
        # A look-back one character shorter reads "x.e.g" as "e.g".
        assert len(split_sentences(text)) == 2

    def test_dot_beginning_a_line_after_an_abbreviation_is_a_boundary(self):
        # The token read is the one right before the '.', and here there is none.
        assert split_sentences("See e.g\n. Now") == [("See e.g\n.", 0), ("Now", 10)]

    def test_lowercase_continuation_is_not_a_boundary(self):
        assert len(split_sentences("He paused. then spoke again")) == 1

    def test_digit_starts_a_sentence(self):
        sentences = split_sentences("Results follow. 42 mice were tested.")
        assert [s for s, _ in sentences] == ["Results follow.", "42 mice were tested."]

    def test_exclamation_and_question_marks(self):
        sentences = split_sentences("Really! Is it so? Yes.")
        assert [s for s, _ in sentences] == ["Really!", "Is it so?", "Yes."]

    def test_offsets_index_into_input(self):
        text = "  First one here. Second one!  Third?  "
        sentences = split_sentences(text)
        assert len(sentences) == 3
        previous = -1
        for sentence, offset in sentences:
            assert offset > previous
            assert text[offset : offset + len(sentence)] == sentence
            previous = offset

    def test_reconstructs_non_whitespace_content(self):
        texts = [
            "A is B. C is D.",
            "  Leading space. Trailing!   ",
            "No terminator at all",
            "Multi.\nLine. Breaks here. OK?",
            "e.g. Fig. 3 shows X. New sentence.",
        ]
        for text in texts:
            joined = "".join(s for s, _ in split_sentences(text))
            assert _strip_ws(joined) == _strip_ws(text)

    def test_no_empty_sentences(self):
        for text in [". . .", "! ", "A. B. C.", "?!", " .A"]:
            for sentence, _offset in split_sentences(text):
                assert sentence.strip()

    def test_random_documents_keep_invariants(self):
        rng = random.Random(13)
        words = ["alpha", "Beta", "gamma", "42", "delta", "fig", "e.g", "OK"]
        for _ in range(100):
            parts = []
            for _ in range(rng.randrange(1, 30)):
                parts.append(rng.choice(words))
                if rng.random() < 0.25:
                    parts.append(rng.choice([". ", "! ", "? ", ", ", " "]))
                else:
                    parts.append(" ")
            text = "".join(parts)
            sentences = split_sentences(text)
            assert _strip_ws("".join(s for s, _ in sentences)) == _strip_ws(text)
            previous = -1
            for sentence, offset in sentences:
                assert sentence.strip()
                assert offset > previous
                assert text[offset : offset + len(sentence)] == sentence
                previous = offset


# Terminators; Unicode whitespace (vertical tab, file separator, no-break
# and ideographic space); non-ASCII upper case and digits, with title-case
# 'ǅ' (not isupper) and 'Ⓐ' (upper case, not alphanumeric); abbreviations,
# words that only end like one, tokens that the splitter's look-back before
# a '.' cuts just short of an abbreviation, and a token longer than the
# oracle's 40-character window.
_SPLIT_PIECES = (
    list(".!?, \t\n\x0b\x1c\xa0\u3000") + list("ÉǅⅠⒶ²١")
    + ["e.g.", "Fig.", "et al.", "Dr.", "vs.", "etc.", "i.e.", "config.", "x.fig."]
    + ["x.e.g.", "a.b.e.g.", "x..al.", "_al.", "é.al."]
    + ["q" * 37 + "fig."]
)


@settings(max_examples=3000, deadline=None, database=None, derandomize=True)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(_SPLIT_PIECES),
            st.sampled_from(string.ascii_letters + string.digits),
        ),
        max_size=30,
    ).map("".join)
)
def test_split_sentences_matches_per_character_oracle(text):
    assert split_sentences(text) == oracle_split_sentences(text)


def _strip_ws(text: str) -> str:
    return "".join(text.split())
