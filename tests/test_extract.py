from __future__ import annotations

import re
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from eventqa.extract import UNPARSEABLE, ExtractedAnswer, ExtractedLabel, ExtractionMethod, extract_answer


def reference_first_standalone(text: str) -> str | None:
    """Independent word-boundary scan used to cross-check the fallback rule."""
    for match in re.finditer(r"[A-Za-z]+", text):
        if match.group(0).lower() in ("yes", "no"):
            before = text[match.start() - 1] if match.start() else " "
            after = text[match.end()] if match.end() < len(text) else " "
            if not (before.isalnum() or before == "_") and not (after.isalnum() or after == "_"):
                return match.group(0).lower()
    return None


class TestCanonical:
    def test_trace_with_canonical_sentence(self):
        result = extract_answer("step one... step two... Therefore, the final answer is: yes")
        assert result.answer is ExtractedLabel.YES
        assert result.method is ExtractionMethod.CANONICAL_REGEX

    def test_lowercase_lead_in(self):
        result = extract_answer("therefore, the answer is: no")
        assert result.answer is ExtractedLabel.NO
        assert result.method is ExtractionMethod.CANONICAL_REGEX

    def test_last_canonical_match_wins(self):
        text = "Therefore, the answer is: yes. Wait. Therefore, the final answer is: no"
        result = extract_answer(text)
        assert result.answer is ExtractedLabel.NO
        assert result.method is ExtractionMethod.CANONICAL_REGEX

    def test_canonical_beats_earlier_standalone_tokens(self):
        text = "No, I changed my mind. Therefore, the final answer is: yes"
        result = extract_answer(text)
        assert result.answer is ExtractedLabel.YES
        assert result.method is ExtractionMethod.CANONICAL_REGEX

    def test_captured_token_case_insensitive(self):
        assert extract_answer("Therefore, the answer is: YES").answer is ExtractedLabel.YES

    def test_newlines_between_lead_in_and_answer(self):
        text = "Therefore, considering the chain:\n1. a enables b\nthe answer is: no"
        assert extract_answer(text).answer is ExtractedLabel.NO

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("Therefore, the final answer is: not sure", UNPARSEABLE),
            ("Therefore, the final answer is: yesterday it rained", UNPARSEABLE),
            (
                "Therefore, the final answer is: nothing. Yes, it did.",
                ExtractedAnswer(ExtractedLabel.YES, ExtractionMethod.FALLBACK_FIRST_TOKEN),
            ),
            (
                "Therefore, the answer is: nothing, so the answer is: no",
                ExtractedAnswer(ExtractedLabel.NO, ExtractionMethod.CANONICAL_REGEX),
            ),
        ],
    )
    def test_canonical_label_ends_at_a_word_boundary(self, text, expected):
        # A label that runs on into a word is no answer; the walk moves on to the next cue.
        assert extract_answer(text) == expected


class TestFallback:
    def test_first_standalone_token(self):
        result = extract_answer("No, the events are unrelated, so I answer no.")
        assert result.answer is ExtractedLabel.NO
        assert result.method is ExtractionMethod.FALLBACK_FIRST_TOKEN

    def test_agrees_with_reference_scan(self):
        cases = [
            "No, the events are unrelated, so I answer no.",
            "yesterday nothing happened, yes indeed",
            "I know nothing about yesterdays; no.",
            "YES!",
            "Maybe. Possibly. no",
        ]
        for text in cases:
            result = extract_answer(text)
            assert result.answer.value == reference_first_standalone(text)

    def test_yesterday_and_nothing_do_not_match(self):
        assert extract_answer("yesterday nothing happened").answer is ExtractedLabel.UNPARSEABLE

    def test_punctuation_bounded_token(self):
        assert extract_answer("Answer: no.").answer is ExtractedLabel.NO

    def test_case_insensitive(self):
        assert extract_answer("NO way").answer is ExtractedLabel.NO


class TestUnparseable:
    def test_empty_string(self):
        result = extract_answer("")
        assert result.answer is ExtractedLabel.UNPARSEABLE
        assert result.method is ExtractionMethod.NONE

    def test_no_tokens_at_all(self):
        assert extract_answer("the outcome is unclear").answer is ExtractedLabel.UNPARSEABLE

    def test_method_none_iff_unparseable(self):
        for text in ("", "unclear", "yes", "Therefore, the answer is: no"):
            result = extract_answer(text)
            assert (result.method is ExtractionMethod.NONE) == (result.answer is ExtractedLabel.UNPARSEABLE)


class TestIdempotence:
    @pytest.mark.parametrize("label", ["yes", "no"])
    def test_canonical_sentence_extracts_itself(self, label):
        sentence = f"Therefore, the final answer is: {label}"
        assert extract_answer(sentence).answer.value == label

    @given(st.text(max_size=200))
    def test_never_crashes_and_classifies(self, text):
        result = extract_answer(text)
        assert result.answer in (ExtractedLabel.YES, ExtractedLabel.NO, ExtractedLabel.UNPARSEABLE)


# Pieces a model reply is drawn from: both lead-ins, near misses of them and
# of the cue, labels in mixed case and glued to words, and non-ASCII text,
# so the forward scan meets every branch of the regex it replaces.
_REPLY_PIECES = (
    "Therefore,", "therefore,", "THEREFORE,", "Therefore", "herefore,", "Xherefore,", "Therefore, ",
    "answer is: ", "answer is:", "Answer is: ", "the final answer is: ",
    "yes", "no", "Yes", "NO", "nO", "yesterday", "nothing", "yes.", " ", "\n", ".", ",",
    "Zürich", "東京", "—", "x",
)


class TestForwardScan:
    @settings(max_examples=500, deadline=None)
    @given(pieces=st.lists(st.one_of(st.sampled_from(_REPLY_PIECES), st.text(max_size=6)), max_size=30))
    @example(pieces=["Xherefore,", " the ", "answer is: ", "yes"])
    @example(pieces=["Therefore,", "answer is: ", "maybe. ", "answer is: ", "No"])
    @example(pieces=["therefore,", "answer is: ", "yes", "Therefore,", " ", "answer is: "])
    @example(pieces=["Therefore,", " the ", "answer is: ", "nothing", " ", "answer is: ", "yes", "terday"])
    def test_matches_reference_regex(self, pieces):
        text = "".join(pieces)
        assume("ſ" not in text)  # the reference raises on it; see test_long_s_is_not_an_s
        assert extract_answer(text) == helpers.extract_answer_reference(text)

    def test_leftmost_matches_not_the_last_cue(self):
        # The first cue closes the match that starts at the lead-in; the
        # second one has no lead-in of its own.
        result = extract_answer("Therefore, answer is: yes. answer is: no")
        assert result.answer is ExtractedLabel.YES

    @pytest.mark.parametrize("text", ["Therefore, the answer is: yeſ", "maybe yeſ", "YEſ"])
    def test_long_s_is_not_an_s(self, text):
        assert extract_answer(text) == UNPARSEABLE

    def test_hostile_reply_extracts_in_linear_time(self):
        text = "Therefore, we consider it. " * 8000  # 216 KB, no answer after any lead-in
        started = time.perf_counter()
        result = extract_answer(text)
        assert time.perf_counter() - started < 0.1
        assert result == UNPARSEABLE
