"""Binary answer extraction from raw model output.

Two-stage rule. First look for the canonical closing sentence, matching
``[Tt]herefore,`` followed by anything (newlines included) and then
``answer is: yes`` or ``answer is: no``, the label ending at a word
boundary, so "answer is: not sure" is no answer; when a trace restates
intermediate conclusions, the last such sentence wins. Only if no canonical
sentence is present, fall back to the first standalone yes/no token, where
standalone means bounded by word boundaries, so "yesterday" and "nothing"
never match. Both rules take yes/no in any ASCII case. If neither rule
fires the output is unparseable, which is a value, not an error; scoring
counts it as incorrect. Extraction is linear in the length of the output.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple


class ExtractedLabel(str, Enum):
    YES = "yes"
    NO = "no"
    UNPARSEABLE = "unparseable"


class ExtractionMethod(str, Enum):
    CANONICAL_REGEX = "canonical_regex"
    FALLBACK_FIRST_TOKEN = "fallback_first_token"
    NONE = "none"


class ExtractedAnswer(NamedTuple):
    answer: ExtractedLabel
    method: ExtractionMethod


_LEAD_IN = "herefore,"  # after a "T" or a "t"
_ANSWER_CUE = "answer is: "
# A label ends at a word boundary. Spelled out rather than IGNORECASE, which
# would also let "ſ" (U+017F) stand for "s".
_LABEL_RE = re.compile(r"([Yy][Ee][Ss]|[Nn][Oo])\b")
_STANDALONE_RE = re.compile(r"\b" + _LABEL_RE.pattern)

UNPARSEABLE = ExtractedAnswer(answer=ExtractedLabel.UNPARSEABLE, method=ExtractionMethod.NONE)


def _last_canonical(text: str) -> str | None:
    """The label of the last canonical sentence, or None.

    Walks the leftmost non-overlapping matches of
    ``[Tt]herefore,.*?answer is: (yes|no)``, the label ending at a word
    boundary, forward: the next lead-in, then the first cue at or after its
    end that is followed by such a label, then on from the end of that
    label. Once no such cue follows a lead-in, none follows a later one
    either, so the walk stops. Each character is looked at a bounded number
    of times, where a lazy regex rescans to the end of the text from every
    lead-in that has no answer after it.
    """
    last = None
    position = 0
    while True:
        lead_in = text.find(_LEAD_IN, position + 1)
        while lead_in > 0 and text[lead_in - 1] not in "Tt":
            lead_in = text.find(_LEAD_IN, lead_in + 1)
        if lead_in < 0:
            return last
        cue = text.find(_ANSWER_CUE, lead_in + len(_LEAD_IN))
        while cue >= 0 and not (label := _LABEL_RE.match(text, cue + len(_ANSWER_CUE))):
            cue = text.find(_ANSWER_CUE, cue + 1)
        if cue < 0:
            return last
        position = label.end()
        last = label.group(1).lower()


def extract_answer(raw_text: str) -> ExtractedAnswer:
    """Extract a yes/no answer from model output text."""
    if not raw_text:
        return UNPARSEABLE

    canonical = _last_canonical(raw_text)
    if canonical is not None:
        return ExtractedAnswer(answer=ExtractedLabel(canonical), method=ExtractionMethod.CANONICAL_REGEX)

    fallback = _STANDALONE_RE.search(raw_text)
    if fallback is not None:
        return ExtractedAnswer(
            answer=ExtractedLabel(fallback.group(1).lower()), method=ExtractionMethod.FALLBACK_FIRST_TOKEN
        )

    return UNPARSEABLE
