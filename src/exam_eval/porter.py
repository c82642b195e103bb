"""Classic Porter stemming algorithm (1980), self-contained.

Vendored rather than pulled from an NLP toolkit so answer normalization is
reproducible with zero heavyweight dependencies.
"""
from __future__ import annotations

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of VC sequences in the stem (the m of the algorithm)."""
    m = 0
    vowel = False               # whether the previous letter is a vowel
    for i, ch in enumerate(stem):
        # "y" is a vowel right after a consonant, else a consonant.
        now = ch in _VOWELS or (ch == "y" and i > 0 and not vowel)
        if vowel and not now:
            m += 1
        vowel = now
    return m


def _has_vowel(stem: str) -> bool:
    # With no a, e, i, o or u, a "y" past the first letter follows a
    # consonant or another "y", and either it or that "y" is a vowel.
    return any(v in stem for v in _VOWELS) or "y" in stem[1:]


def _ends_double_consonant(word: str) -> bool:
    return (len(word) >= 2 and word[-1] == word[-2]
            and _is_consonant(word, len(word) - 1))


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (_is_consonant(word, len(word) - 3)
            and not _is_consonant(word, len(word) - 2)
            and _is_consonant(word, len(word) - 1)
            and word[-1] not in "wxy")


def _replace(word: str, suffix: str, repl: str, min_measure: int) -> str | None:
    if not word.endswith(suffix):
        return None
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure - 1:
        return stem + repl
    return word


# Suffix rules of steps 2-4, in the order they are tried.
_STEP2 = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
    ("entli", "ent"), ("eli", "e"), ("ousli", "ous"), ("ization", "ize"),
    ("ation", "ate"), ("ator", "ate"), ("alism", "al"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("aliti", "al"),
    ("iviti", "ive"), ("biliti", "ble"))
_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""))
_STEP4 = ("al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
          "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive",
          "ize")
_STEP2_SUFFIXES = tuple(suffix for suffix, _ in _STEP2)
_STEP3_SUFFIXES = tuple(suffix for suffix, _ in _STEP3)


def stem(word: str) -> str:
    word = word.lower()
    if len(word) <= 2:
        return word

    # Step 1a
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]

    # Step 1b
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    else:
        flag = False
        if word.endswith("ed") and _has_vowel(word[:-2]):
            word = word[:-2]
            flag = True
        elif word.endswith("ing") and _has_vowel(word[:-3]):
            word = word[:-3]
            flag = True
        if flag:
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _ends_double_consonant(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _measure(word) == 1 and _ends_cvc(word):
                word += "e"

    # Step 1c
    if word.endswith("y") and _has_vowel(word[:-1]):
        word = word[:-1] + "i"

    # Steps 2-4: a word with none of a step's suffixes skips its loop.
    if word.endswith(_STEP2_SUFFIXES):
        for suffix, repl in _STEP2:
            out = _replace(word, suffix, repl, 1)
            if out is not None:
                word = out
                break

    if word.endswith(_STEP3_SUFFIXES):
        for suffix, repl in _STEP3:
            out = _replace(word, suffix, repl, 1)
            if out is not None:
                word = out
                break

    if word.endswith(_STEP4):
        for suffix in _STEP4:
            if word.endswith(suffix):
                stem_part = word[: len(word) - len(suffix)]
                if suffix == "ion" and not stem_part.endswith(("s", "t")):
                    continue
                if _measure(stem_part) > 1:
                    word = stem_part
                break

    # Step 5a
    if word.endswith("e"):
        stem_part = word[:-1]
        m = _measure(stem_part)
        if m > 1 or (m == 1 and not _ends_cvc(stem_part)):
            word = stem_part

    # Step 5b
    if word.endswith("ll") and _measure(word) > 1:
        word = word[:-1]

    return word
