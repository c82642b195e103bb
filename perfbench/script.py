"""Scripted completions, shared by the loopback stub and the oracle.

The stub answers every prompt with a value that depends only on the seed
and the prompt's own text, so the oracle can predict each completion
without asking the stub.
"""
from __future__ import annotations

import bisect
import hashlib
import itertools
import re

# Shares of the self-ratings 0..5, per thousand: about 6% reach the
# rate:4 policy, so a system's top passages rarely answer every question.
RATING_PER_MILLE = (400, 250, 170, 120, 40, 20)
_RATING_BOUNDS = list(itertools.accumulate(RATING_PER_MILLE))

# The exact openings of the program's question-generation and grading
# templates; a prompt matching neither is answered with an empty text.
GEN_PROMPT = re.compile(
    r"^Explore the connection between '(?P<title>[^']*)' with a specific "
    r"focus on the subtopic '(?P<subtopic>[^']*)'\.")
GRADE_PROMPT = re.compile(
    r"\nQuestion: (?P<question>.*?)\nContext: (?P<context>.*)\Z", re.S)


def digest(seed: int, *parts: str) -> int:
    h = hashlib.blake2b(str(seed).encode(), digest_size=8)
    for part in parts:
        h.update(b"\0" + part.encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


def scripted_questions(title: str, subtopic: str, count: int) -> list[str]:
    return [f"How does {subtopic} change {title} in setting {i}?"
            for i in range(count)]


def question_list(title: str, subtopic: str, count: int) -> str:
    """The scripted questions as the Python list a generation prompt asks
    for; the mock backend's fixture holds the same text."""
    return "[" + ", ".join(
        repr(q) for q in scripted_questions(title, subtopic, count)) + "]"


def rating_from(value: int) -> int:
    """A 0-5 rating drawn with RATING_PER_MILLE from a uniform integer."""
    return bisect.bisect_right(_RATING_BOUNDS, value % 1000)


def scripted_rating(seed: int, question: str, context: str) -> int:
    return rating_from(digest(seed, "rate", question, context))


def completion_for(prompt: str, seed: int, questions_per_facet: int
                   ) -> tuple[str, str]:
    """(kind, completion text) for one prompt; kind is gen, grade or other."""
    m = GEN_PROMPT.match(prompt)
    if m:
        return "gen", question_list(m["title"], m["subtopic"],
                                    questions_per_facet)
    m = GRADE_PROMPT.search(prompt)
    if m:
        return "grade", str(scripted_rating(seed, m["question"],
                                            m["context"]))
    return "other", ""
